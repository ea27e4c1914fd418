import hashlib
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlo import cli, gateway
from nlo.errors import BackendError, BudgetExceededError, ReplayMissError
from nlo.gateway import (
    CallableBackend,
    ChatPrompt,
    FixtureStore,
    GenerationRequest,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
    _request_bytes,
    _resolvable,
    complete,
    request_key,
    user_prompt,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402  (the benchmark's seeded input generator)


def make_request(text="hello", temperature=0.0, max_output=None):
    return GenerationRequest(
        prompt=user_prompt("be helpful", text),
        temperature=temperature,
        max_output=max_output,
    )


class TestChatPrompt:
    def test_serialization_layout(self):
        prompt = ChatPrompt(
            system="sys text",
            turns=(("user", "question"), ("assistant", "answer"), ("user", "more")),
        )
        assert prompt.serialize() == (
            "SYSTEM INSTRUCTIONS:\nsys text\n\n"
            "USER:\nquestion\n\n"
            "ASSISTANT:\nanswer\n\n"
            "USER:\nmore"
        )

    def test_trailing_empty_assistant_cue(self):
        prompt = user_prompt("s", "u")
        assert prompt.serialize().endswith("USER:\nu\n\nASSISTANT:")

    def test_serialization_is_stable(self):
        a = user_prompt("s", "u").serialize()
        b = user_prompt("s", "u").serialize()
        assert a == b

    def test_roles_must_alternate(self):
        with pytest.raises(ValueError):
            ChatPrompt(system="s", turns=(("user", "a"), ("user", "b")))

    def test_cannot_start_with_assistant(self):
        with pytest.raises(ValueError):
            ChatPrompt(system="s", turns=(("assistant", "a"),))

    def test_nonempty_trailing_assistant_rejected(self):
        with pytest.raises(ValueError):
            ChatPrompt(system="s", turns=(("user", "a"), ("assistant", "done")))

    def test_messages_skips_empty_cue(self):
        msgs = user_prompt("s", "u").messages()
        assert msgs == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]

    def test_messages_keep_an_empty_reply_before_the_cue(self):
        # Only the trailing cue is implicit: an empty demonstration reply
        # still separates its user turn from the next one.
        prompt = user_prompt("sys", "u2", [("u1", "")])
        assert prompt.messages() == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "u1"},
            {"role": "assistant", "content": ""},
            {"role": "user", "content": "u2"},
        ]
        assert prompt.serialize() == (
            "SYSTEM INSTRUCTIONS:\nsys\n\nUSER:\nu1\n\nASSISTANT:\n\nUSER:\nu2\n\nASSISTANT:"
        )

    def test_messages_without_a_cue_keep_every_turn(self):
        prompt = ChatPrompt(system="s", turns=(("user", "a"), ("assistant", ""), ("user", "b")))
        assert [m["role"] for m in prompt.messages()] == ["system", "user", "assistant", "user"]

    def test_serialization_is_built_once_per_prompt(self):
        prompt = user_prompt("s", "u", [("q", "a")])
        assert prompt.serialize() is prompt.serialize()
        assert prompt.serialize() == user_prompt("s", "u", [("q", "a")]).serialize()


class TestRequestKey:
    def test_identical_requests_identical_keys(self):
        assert request_key("http", "m", make_request()) == request_key(
            "http", "m", make_request()
        )

    def test_key_distinguishes_model(self):
        assert request_key("http", "m1", make_request()) != request_key(
            "http", "m2", make_request()
        )

    def test_key_distinguishes_backend(self):
        assert request_key("a", "m", make_request()) != request_key(
            "b", "m", make_request()
        )

    def test_key_distinguishes_temperature(self):
        hot = make_request(temperature=0.7)
        assert request_key("http", "m", hot) != request_key("http", "m", make_request())

    def test_key_distinguishes_prompt(self):
        assert request_key("http", "m", make_request("a")) != request_key(
            "http", "m", make_request("b")
        )



def one_pass_key(backend_id, model_id, request):
    """The replay key's definition, hashed in one pass: the oracle that the
    prefix-cached :func:`request_key` must agree with byte for byte."""
    payload = "\x00".join(
        [backend_id, model_id, repr(request.temperature), request.prompt.serialize()]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Any text UTF-8 can encode: NUL, newlines and non-ASCII included.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def chat_prompts(draw):
    """A prompt of 0, 1, 2 or many alternating turns, ending in an empty
    assistant cue whenever its last turn is an assistant's."""
    count = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 9)))
    turns = [("user" if i % 2 == 0 else "assistant", draw(TEXT)) for i in range(count)]
    if turns and turns[-1][0] == "assistant":
        turns[-1] = ("assistant", "")
    return ChatPrompt(draw(TEXT), tuple(turns))


@st.composite
def configs(draw):
    """What the requests of one prompt config share: ids, temperature,
    system text and demonstrations."""
    ids = st.one_of(st.sampled_from(["http", "m", "m\x00", "\x00m", ""]), TEXT)
    temperature = st.sampled_from([0.0, 0.7, 1.0, 0.1 + 0.2])
    shots = st.lists(st.tuples(TEXT, TEXT), max_size=3)
    system = st.sampled_from(["s", ""]) | TEXT
    return draw(ids), draw(ids), draw(temperature), draw(system), draw(shots)


class TestPrefixCachedKey:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(chat_prompts(), min_size=1, max_size=4),
        st.lists(st.tuples(TEXT, TEXT, st.sampled_from([0.0, 0.7]))),
    )
    def test_any_prompt_keys_as_the_one_pass_formula(self, prompts, identities):
        for prompt in prompts:
            for backend_id, model_id, temperature in [("http", "m", 0.0), *identities]:
                request = GenerationRequest(prompt, temperature)
                assert request_key(backend_id, model_id, request) == one_pass_key(
                    backend_id, model_id, request
                )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(configs(), min_size=2, max_size=4), st.data())
    def test_interleaved_configs_never_share_a_prefix(self, configs, data):
        # Requests of several configs, in an order drawn at random, so that a
        # cached prefix state answering for another prefix would show.
        indices = st.integers(0, len(configs) - 1)
        for _ in range(12):
            backend_id, model_id, temperature, system, shots = configs[data.draw(indices)]
            prompt = user_prompt(system, data.draw(TEXT), shots)
            request = GenerationRequest(prompt, temperature)
            assert request_key(backend_id, model_id, request) == one_pass_key(
                backend_id, model_id, request
            )

    def test_threads_sharing_a_cached_prefix_get_the_sequential_keys(self):
        shots = [(f"def f{i}(): ✓", f"{i}| Return ✓.") for i in range(8)]
        requests = [
            GenerationRequest(user_prompt("Outline ✓", f"x = {i}", shots)) for i in range(64)
        ]
        expected = [one_pass_key("http", "m", request) for request in requests]
        assert request_key("http", "m", requests[0]) == expected[0]  # caches the prefix
        hits = gateway._prefix_digest.cache_info().hits
        barrier = threading.Barrier(8)
        results = [None] * 8

        def work(index):
            barrier.wait()
            results[index] = [request_key("http", "m", request) for request in requests]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 8
        assert gateway._prefix_digest.cache_info().hits - hits == 8 * 64

    def test_recording_through_a_callable_serializes_each_prompt_once(
        self, tmp_path, monkeypatch
    ):
        prompts = [user_prompt("record ✓", f"u{i}", [("q", "a")]) for i in range(5)]
        seen = []
        recorder = ReplayBackend(
            FixtureStore(tmp_path),
            model_id="m",
            record_from=CallableBackend(lambda text: seen.append(text) or "r"),
        )
        # Hash the shared prefix first, so only the recorded prompts count.
        recorder.key_for(GenerationRequest(user_prompt("record ✓", "warm", [("q", "a")])))
        calls = []
        serialize = gateway._serialize
        monkeypatch.setattr(
            gateway, "_serialize", lambda *args: calls.append(args) or serialize(*args)
        )
        for prompt in prompts:
            assert recorder.complete(GenerationRequest(prompt)) == "r"
        assert len(calls) == len(prompts)
        assert seen == [prompt.serialize() for prompt in prompts]


class OnePassRecorder(ReplayBackend):
    """A recording backend keyed by the one-pass formula, as stores were
    recorded before the prefix cache."""

    def key_for(self, request):
        return one_pass_key(self.backend_id, self.model_id, request)


def batch_commands(root):
    """Small batch-replay inputs (``eval`` over two models and techniques,
    ``triage`` of a directory, ``split`` of a diff) and their argvs."""
    (root / "corpus").mkdir()
    (root / "decompiled").mkdir()
    for i, text in enumerate(synth.python_functions(5, "keys", 6)):
        (root / "corpus" / f"f_{i}.py").write_text(text, encoding="utf-8")
    for i, text in enumerate(synth.c_functions(5, 4)):
        (root / "decompiled" / f"m_{i}.c").write_text(text, encoding="utf-8")
    (root / "change.diff").write_text(synth.unified_diff(5, "keys", 3, 8)[0], encoding="utf-8")
    store = ["--fixtures", str(root / "store")]
    return {
        "eval": [
            "eval", "--corpus", str(root / "corpus"), "--technique", "interleaved",
            "--technique", "infilling", "--model-id", "m-alpha", "--model-id", "m-beta", *store,
        ],
        "triage": ["triage", str(root / "decompiled"), *store],
        "split": ["split", str(root / "change.diff"), "--description", "Tidy up", *store],
    }


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(capsys, monkeypatch, argv, recorder_class):
    """Run ``argv`` with every model call answered by the synthetic model
    and recorded by a ``recorder_class`` backend."""
    model = CallableBackend(synth.SyntheticModel(5, ("minor", "major")))

    def recorder(settings):
        store = FixtureStore(settings.fixtures)
        return recorder_class(store, settings.backend_id, settings.model, record_from=model)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "make_backend", recorder)
        return run_cli(capsys, argv)


@pytest.mark.parametrize("command", ["eval", "triage", "split"])
def test_a_store_keyed_in_one_pass_replays_strictly(capsys, tmp_path, monkeypatch, command):
    argv = batch_commands(tmp_path)[command]
    recorded = record(capsys, monkeypatch, argv, OnePassRecorder)
    assert recorded[0] == 0, recorded[2]
    assert len(FixtureStore(tmp_path / "store")) > 0
    assert run_cli(capsys, argv) == recorded  # a miss would exit 3


def test_a_replayed_eval_flattens_no_prompt(capsys, tmp_path, monkeypatch):
    argv = batch_commands(tmp_path)["eval"]
    assert record(capsys, monkeypatch, argv, ReplayBackend)[0] == 0
    prompts = []
    replay = ReplayBackend.complete

    def complete(self, request):
        prompts.append(request.prompt)
        return replay(self, request)

    monkeypatch.setattr(ReplayBackend, "complete", complete)
    assert run_cli(capsys, argv)[0] == 0
    assert len(prompts) == 2 * 2 * 6  # models x techniques x units
    assert [p for p in prompts if "_serialized" in p.__dict__] == []


class TestScriptedBackend:
    def test_serves_in_order(self):
        backend = ScriptedBackend(["A", "B"])
        assert backend.complete(make_request()) == "A"
        assert backend.complete(make_request()) == "B"

    def test_exhaustion_raises(self):
        backend = ScriptedBackend([])
        with pytest.raises(BackendError):
            backend.complete(make_request())

    def test_budget_enforced_by_complete(self):
        backend = ScriptedBackend(["long response text"])
        with pytest.raises(BudgetExceededError):
            complete(make_request(max_output=5), backend)


class TestReplayBackend:
    def test_replays_recorded_response(self, tmp_path):
        store = FixtureStore(tmp_path)
        backend = ReplayBackend(store, backend_id="http", model_id="m")
        key = backend.key_for(make_request())
        store.put(key, "recorded text")
        assert backend.complete(make_request()) == "recorded text"

    def test_strict_miss_raises(self, tmp_path):
        backend = ReplayBackend(FixtureStore(tmp_path), model_id="m")
        with pytest.raises(ReplayMissError):
            backend.complete(make_request())

    def test_strict_miss_names_the_key(self, tmp_path):
        backend = ReplayBackend(FixtureStore(tmp_path), model_id="m")
        with pytest.raises(ReplayMissError) as caught:
            backend.complete(make_request())
        assert caught.value.key == backend.key_for(make_request())

    def test_hit_reads_the_record_without_a_membership_check(self, tmp_path, monkeypatch):
        store = FixtureStore(tmp_path)
        backend = ReplayBackend(store, model_id="m")
        store.put(backend.key_for(make_request()), "recorded text")

        def refuse(self, key):
            raise AssertionError("a replay hit should cost one open, not a stat and an open")

        monkeypatch.setattr(FixtureStore, "__contains__", refuse)
        assert backend.complete(make_request()) == "recorded text"

    def test_v1_key_without_its_text_file_records(self, tmp_path):
        backend = ReplayBackend(FixtureStore(tmp_path), model_id="m")
        key = backend.key_for(make_request())
        index = {"version": 1, "entries": {key: {}}}
        (tmp_path / "index.json").write_text(json.dumps(index), encoding="utf-8")
        store = FixtureStore(tmp_path)
        inner = ScriptedBackend(["live answer"])
        recording = ReplayBackend(store, model_id="m", record_from=inner)
        assert recording.complete(make_request()) == "live answer"
        assert FixtureStore(tmp_path).get(key) == "live answer"

    def test_record_mode_records_once(self, tmp_path):
        inner = ScriptedBackend(["live answer"])
        store = FixtureStore(tmp_path)
        backend = ReplayBackend(store, model_id="m", record_from=inner)
        assert backend.complete(make_request()) == "live answer"
        # Second call must replay, not consume the (now empty) queue.
        assert backend.complete(make_request()) == "live answer"

    def test_store_survives_reload(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.put("abc123", "body", meta={"model": "m"})
        reloaded = FixtureStore(tmp_path)
        assert "abc123" in reloaded
        assert reloaded.get("abc123") == "body"

    def test_each_put_writes_one_record_beside_a_v1_index(self, tmp_path):
        compact = json.dumps({"version": 1, "entries": {"8": {"model": "x"}}})
        (tmp_path / "index.json").write_text(compact, encoding="utf-8")
        (tmp_path / "8.txt").write_text("v1 body", encoding="utf-8")
        metas = [{}, {"model": "m", "temperature": 0.5}, {"x": [1, {"y": 'ü\n"'}]}]
        store = FixtureStore(tmp_path)
        for i, meta in enumerate(metas):
            store.put(f"{7 - i}", f"body\n{i}", meta=meta)
        FixtureStore(tmp_path).put("5", "other", meta={"model": "n"})
        reloaded = FixtureStore(tmp_path)
        assert reloaded.keys() == ["5", "6", "7", "8"]
        assert reloaded.get("8") == "v1 body"
        records = {
            "7": ({}, "body\n0"),
            "6": (metas[1], "body\n1"),
            "5": ({"model": "n"}, "other"),
        }
        for key, (meta, body) in records.items():
            text = (tmp_path / f"{key}.rec").read_text(encoding="utf-8")
            assert text == json.dumps(meta, sort_keys=True) + "\n" + body
            assert reloaded.get(key) == body
        assert (tmp_path / "index.json").read_text(encoding="utf-8") == compact
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["5.rec", "6.rec", "7.rec", "8.txt", "index.json"]

    def test_concurrent_reads(self, tmp_path):
        store = FixtureStore(tmp_path)
        backend = ReplayBackend(store, model_id="m")
        key = backend.key_for(make_request())
        store.put(key, "shared")
        results = []

        def read():
            results.append(backend.complete(make_request()))

        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["shared"] * 8



class TestFixtureStore:
    def test_two_store_objects_keep_each_others_records(self, tmp_path):
        a, b = FixtureStore(tmp_path), FixtureStore(tmp_path)
        a.put("1", "one")
        b.put("2", "two")
        assert FixtureStore(tmp_path).keys() == ["1", "2"]
        assert (len(a), a.get("2"), b.get("1")) == (2, "two", "one")

    def test_threads_recording_at_once_lose_nothing(self, tmp_path):
        store = FixtureStore(tmp_path / "new")
        threads = [
            threading.Thread(target=store.put, args=(f"k{i}", f"r{i}")) for i in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert FixtureStore(tmp_path / "new").keys() == sorted(f"k{i}" for i in range(16))
        assert sorted(p.suffix for p in (tmp_path / "new").iterdir()) == [".rec"] * 16

    @pytest.mark.parametrize(
        "response", ["", "\n", "{}\nnot meta", "line\n\n", "ü \\n\ttab", '{"a": 1}']
    )
    def test_record_round_trips_the_response_verbatim(self, tmp_path, response):
        FixtureStore(tmp_path).put("k", response, meta={"note": "two\nlines"})
        assert FixtureStore(tmp_path).get("k") == response
        header = (tmp_path / "k.rec").read_text(encoding="utf-8").split("\n")[0]
        assert json.loads(header) == {"note": "two\nlines"}

    def test_version_1_store_replays_byte_identically(self, tmp_path):
        backend = ReplayBackend(FixtureStore(tmp_path), model_id="m")
        key = backend.key_for(make_request())
        body = "  indented\n\n* bullet ü\n\n"
        entries = {key: {"model": "m"}, "other": {}}
        index = {"version": 1, "entries": entries}
        (tmp_path / "index.json").write_text(json.dumps(index, indent=2), encoding="utf-8")
        (tmp_path / f"{key}.txt").write_text(body, encoding="utf-8")
        store = FixtureStore(tmp_path)
        assert (key in store, "other" in store, "missing" in store) == (True, True, False)
        assert ReplayBackend(store, model_id="m").complete(make_request()) == body
        assert store.keys() == sorted(entries)
        store.put(key, "new")  # a record written later wins over the v1 text
        assert FixtureStore(tmp_path).get(key) == "new"
        with pytest.raises(ReplayMissError):
            store.get("missing")

    @pytest.mark.parametrize("suffix", [".rec", ".txt"])
    def test_carriage_returns_replay_verbatim(self, tmp_path, suffix):
        response = "a\r\nb\rc\r"
        if suffix == ".txt":  # a hand-written version-1 store
            index = {"version": 1, "entries": {"k": {}}}
            (tmp_path / "index.json").write_text(json.dumps(index), encoding="utf-8")
            (tmp_path / "k.txt").write_bytes(response.encode("utf-8"))
        else:
            FixtureStore(tmp_path).put("k", response)
        assert FixtureStore(tmp_path).get("k") == response

    @pytest.mark.parametrize("name", ["k.rec", "index.json"])
    def test_non_utf8_store_file_is_a_backend_error(self, tmp_path, name):
        (tmp_path / name).write_bytes(b"{}\n\xff")
        with pytest.raises(BackendError, match="not UTF-8"):
            FixtureStore(tmp_path).get("k")

    def test_unreadable_record_is_a_backend_error_naming_it(self, tmp_path):
        (tmp_path / "k.rec").mkdir()
        with pytest.raises(BackendError, match=r"^fixture record .*k\.rec'$"):
            FixtureStore(tmp_path).get("k")

class TestCallableBackend:
    def test_maps_prompt_to_response(self):
        backend = CallableBackend(lambda prompt: f"len={len(prompt)}")
        response = backend.complete(make_request("abc"))
        assert response.startswith("len=")


class TestHttpBackend:
    def config(self, mode="flat"):
        return HttpBackendConfig(
            url="https://api.example/complete",
            model_id="my-model",
            request_template={
                "model": "{model}",
                "prompt": "{prompt}",
                "temperature": "{temperature}",
                "messages": "{messages}",
            },
            response_path=["choices", 0, "text"],
            headers={"Authorization": "Bearer token"},
            mode=mode,
        )

    def test_flat_payload_substitutes_typed_values(self):
        backend = HttpBackend(self.config(), post=lambda *a, **k: None)
        payload = backend.build_payload(make_request("hi", temperature=0.5))
        assert payload["model"] == "my-model"
        assert payload["temperature"] == 0.5
        assert payload["prompt"].startswith("SYSTEM INSTRUCTIONS:")
        assert payload["messages"] is None

    def test_placeholders_inside_longer_strings_and_lists_are_text(self):
        template = {
            "input": "model={model} prompt={prompt}",
            "stop": ["{model}", "end of {model}", 3],
            "options": {"note": "t={temperature} budget={max_output}"},
        }
        config = replace(self.config(), request_template=template)
        backend = HttpBackend(config, post=lambda *a, **k: None)
        request = make_request("hi", temperature=0.5)
        payload = backend.build_payload(request)
        assert payload == {
            "input": f"model=my-model prompt={request.prompt.serialize()}",
            "stop": ["my-model", "end of my-model", 3],
            "options": {"note": "t=0.5 budget={max_output}"},
        }

    def test_chat_payload_carries_messages(self):
        backend = HttpBackend(self.config(mode="chat"), post=lambda *a, **k: None)
        payload = backend.build_payload(make_request("hi"))
        assert payload["messages"][0]["role"] == "system"

    def test_response_path_walked(self):
        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"text": "model says"}]}

        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse())
        assert backend.complete(make_request()) == "model says"

    def test_http_error_status_raises(self):
        class FakeResponse:
            status_code = 503

            @staticmethod
            def json():
                return {}

        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse())
        with pytest.raises(BackendError):
            backend.complete(make_request())

    def test_transport_exception_wrapped(self):
        def post(*a, **k):
            raise OSError("connection refused")

        backend = HttpBackend(self.config(), post=post)
        with pytest.raises(BackendError):
            backend.complete(make_request())

    def test_non_json_body_raises_backend_error(self):
        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return json.loads("<html>busy</html>")

        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse())
        with pytest.raises(BackendError, match="not JSON"):
            backend.complete(make_request())

    def test_requests_non_json_body_raises_backend_error(self):
        requests = pytest.importorskip("requests")
        response = requests.models.Response()
        response.status_code = 200
        response._content = b"<html>busy</html>"
        backend = HttpBackend(self.config(), post=lambda *a, **k: response)
        with pytest.raises(BackendError, match="not JSON"):
            backend.complete(make_request())

    def test_missing_response_path_raises(self):
        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"unexpected": True}

        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse())
        with pytest.raises(BackendError):
            backend.complete(make_request())


class TestRequestBytes:
    @pytest.mark.parametrize(
        "url, host, port, line, host_header",
        [
            ("http://h", "h", 80, b"POST / HTTP/1.1", b"h"),
            ("HTTPS://api.example/v1?x=1#top", "api.example", 443, b"POST /v1?x=1 HTTP/1.1",
             b"api.example"),
            ("http://h:/p", "h", 80, b"POST /p HTTP/1.1", b"h:"),
            ("http://[::1]:8080/p#a#b", "::1", 8080, b"POST /p#a HTTP/1.1", b"[::1]:8080"),
            ("https://[::1]/p", "::1", 443, b"POST /p HTTP/1.1", b"[::1]"),
        ],
    )
    def test_address_and_request_line(self, url, host, port, line, host_header):
        got_host, got_port, request = _request_bytes(url, {}, {})
        assert (got_host, got_port) == (host, port)
        head = request.split(b"\r\n")
        assert head[0] == line
        assert b"Host: " + host_header in head

    @pytest.mark.parametrize(
        "url", ["ftp://h/p", "http:/h/p", "http:///p", "http://h:8o/p", "http://h/a\tb", "h/p"]
    )
    def test_unusable_url_is_refused(self, url):
        with pytest.raises(ValueError):
            _request_bytes(url, {}, {})

    @pytest.mark.parametrize(
        "headers",
        [{"Authorization": "Bearer sekrit\r\nX-Injected: 1"}, {"Authorization": "sekrit\n"},
         {"X-Bad:Name": "sekrit"}, {" X-Space": "sekrit"}, {"X-Ünicode": "sekrit"}],
    )
    def test_header_that_could_split_the_request_is_refused(self, headers):
        with pytest.raises(ValueError) as caught:
            _request_bytes("http://h/", {}, headers)
        assert "sekrit" not in str(caught.value)  # a header value may be an API key

    def test_folded_header_value_passes_as_http_client_lets_it(self):
        _, _, request = _request_bytes("http://h/", {}, {"X-Long": "a\r\n b"})
        assert b"X-Long: a\r\n b\r\n" in request


class TestResolvableHost:
    """An ASCII host goes to getaddrinfo as the bytes the idna codec gives."""

    @pytest.mark.parametrize(
        "host", ["127.0.0.1", "localhost", "api.example.com", "::1", "host.", "a" * 63 + ".b"]
    )
    def test_an_ascii_name_is_its_idna_encoding(self, host):
        assert _resolvable(host) == host.encode("idna")

    @pytest.mark.parametrize("host", ["bücher.example", "a..b", ".a", "a" * 64 + ".b", "a" * 64])
    def test_any_other_name_is_left_to_the_codec(self, host):
        assert _resolvable(host) == host
