import json
import sys
import threading

import pytest

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
    complete,
    request_key,
    user_prompt,
)


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
