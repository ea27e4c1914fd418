import errno
import io
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

import nlo

from nlo import cli
from nlo.cli import main
from nlo.fewshots import load_fewshot_set, load_triage_examples
from nlo.gateway import CallableBackend, FixtureStore, GenerationRequest, ReplayBackend
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    PromptConfig,
    build_prompt,
)
from nlo.maintenance import EditSession, build_finish_prompt
from nlo.outline import Outline, OutlineStatement, remap_anchors, render_interleaved
from nlo.sidecar import sidecar_path, sidecar_read, sidecar_write
from nlo.source_model import LanguageProfile, SourceUnit
from nlo.triage import build_triage_prompt
from nlo.vsplit import (
    ChangeList,
    build_sections_prompt,
    build_topics_prompt,
    parse_topics,
    parse_unified_diff,
)

SAMPLE = "def add(a, b):\n  result = a + b\n  return result\n"


def record(store_dir, prompt, response):
    store = FixtureStore(store_dir)
    backend = ReplayBackend(store, backend_id="http", model_id="default")
    key = backend.key_for(GenerationRequest(prompt=prompt))
    store.put(key, response, meta={"model": "default"})


def default_config():
    return PromptConfig(
        technique="infilling",
        instructions=INFILLING_INSTRUCTIONS,
        few_shots=load_fewshot_set("default"),
    )


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "add.py"
    path.write_text(SAMPLE, encoding="utf-8")
    return path


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "fixtures"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def record_gen(self, store_dir, path, response="2| Add the two numbers."):
        unit = SourceUnit.from_text(path.read_text())
        record(store_dir, build_prompt(unit, default_config()), response)

    def test_gen_writes_sidecar(self, capsys, sample_file, store_dir):
        self.record_gen(store_dir, sample_file)
        code, out, _ = run(
            capsys, ["gen", str(sample_file), "--fixtures", str(store_dir)]
        )
        assert code == 0
        assert out == "2| Add the two numbers.\n"
        record_read, stale = sidecar_read(sample_file)
        assert not stale
        assert record_read.statements == ((2, "Add the two numbers.", False),)

    def test_gen_twice_is_byte_identical(self, capsys, sample_file, store_dir):
        self.record_gen(store_dir, sample_file)
        argv = ["gen", str(sample_file), "--fixtures", str(store_dir)]
        code1, out1, _ = run(capsys, argv)
        sidecar1 = sidecar_path(sample_file).read_bytes()
        code2, out2, _ = run(capsys, argv)
        sidecar2 = sidecar_path(sample_file).read_bytes()
        assert (code1, out1, sidecar1) == (code2, out2, sidecar2)

    def test_gen_in_place_writes_star_comments(self, capsys, sample_file, store_dir):
        self.record_gen(store_dir, sample_file)
        code, _, _ = run(
            capsys,
            ["gen", str(sample_file), "--fixtures", str(store_dir), "--in-place"],
        )
        assert code == 0
        assert "#* Add the two numbers." in sample_file.read_text()

    def test_gen_in_place_refuses_an_anchor_on_a_continued_line(self, capsys, tmp_path):
        source = tmp_path / "c.py"
        source.write_bytes(b"def f(a):\n    x = a + \\\n        1\n    return x\n")
        before = source.read_bytes()
        responses = tmp_path / "r.json"
        responses.write_text(json.dumps(["3| Add one."]), encoding="utf-8")
        argv = ["gen", str(source), "--in-place", "--responses-file", str(responses)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "anchor 3 follows a line ending in a backslash" in err
        assert source.read_bytes() == before

    def test_gen_major_issue_exits_2(self, capsys, sample_file, store_dir):
        self.record_gen(store_dir, sample_file, response="99| way out of bounds")
        code, _, err = run(
            capsys, ["gen", str(sample_file), "--fixtures", str(store_dir)]
        )
        assert code == 2
        assert "line_number_out_of_bounds" in err

    def test_gen_replay_miss_exits_3(self, capsys, sample_file, store_dir):
        store_dir.mkdir()
        code, _, err = run(
            capsys, ["gen", str(sample_file), "--fixtures", str(store_dir)]
        )
        assert code == 3
        assert "no recorded response" in err

    def test_gen_interleaved_technique(self, capsys, sample_file, store_dir):
        from nlo.generation import INTERLEAVED_INSTRUCTIONS

        unit = SourceUnit.from_text(sample_file.read_text())
        config = PromptConfig(
            technique="interleaved",
            instructions=INTERLEAVED_INSTRUCTIONS,
            few_shots=load_fewshot_set("default"),
        )
        response = (
            "```\ndef add(a, b):\n  # Add the two numbers.\n"
            "  result = a + b\n  return result\n```"
        )
        record(store_dir, build_prompt(unit, config), response)
        code, out, _ = run(
            capsys,
            [
                "gen",
                str(sample_file),
                "--technique",
                "interleaved",
                "--fixtures",
                str(store_dir),
            ],
        )
        assert code == 0
        assert out == "2| Add the two numbers.\n"


    def test_gen_in_place_refuses_anchor_inside_string(self, capsys, tmp_path, store_dir):
        path = tmp_path / "msg.py"
        text = 'def f():\n  msg = """\n  hello\n  """\n  return msg\n'
        path.write_text(text, encoding="utf-8")
        self.record_gen(store_dir, path, response="3| Say hello.")
        argv = ["gen", str(path), "--fixtures", str(store_dir)]
        code, _, err = run(capsys, [*argv, "--in-place"])
        assert code == 2
        assert "anchor 3 begins inside a string literal" in err
        assert path.read_text(encoding="utf-8") == text
        assert run(capsys, argv)[0] == 2
        assert not sidecar_path(path).exists()


class TestCustomProfile:
    def test_config_profile_drives_extraction(self, capsys, tmp_path):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "profiles:\n"
            "  - name: lsp\n"
            "    line_comment_token: ';;'\n",
            encoding="utf-8",
        )
        source = tmp_path / "init.lsp"
        source.write_text(";;* Set up the board.\n(setq board nil)\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["--config", str(config), "extract", str(source)]
        )
        assert code == 0
        assert out == "1| Set up the board.\n"

    def gen_in_place(self, capsys, tmp_path, name, config_args=()):
        responses = tmp_path / "r.json"
        responses.write_text('["1| Set x."]', encoding="utf-8")
        source = tmp_path / name
        source.write_text("x = 1\n", encoding="utf-8")
        argv = [*config_args, "gen", str(source), "--responses-file", str(responses)]
        code, _, err = run(capsys, [*argv, "--in-place"])
        return code, err, source.read_text(encoding="utf-8")

    def test_a_shipped_profile_name_is_no_extension(self, capsys, tmp_path):
        # Only nlo.yaml profiles are keyed by extension; ".c_like" is none of
        # the C-like extensions, so the file gets the default python profile.
        code, err, text = self.gen_in_place(capsys, tmp_path, "b.c_like")
        assert code == 0, err
        assert text == "#* Set x.\nx = 1\n"

    @pytest.mark.parametrize(("name", "filename"), [(".lsp", "a.lsp"), ("", "Makefile")])
    def test_a_profile_name_that_is_no_extension_exits_1(
        self, capsys, tmp_path, name, filename
    ):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            f"profiles:\n  - name: '{name}'\n    line_comment_token: ';;'\n", encoding="utf-8"
        )
        code, err, text = self.gen_in_place(
            capsys, tmp_path, filename, ["--config", str(config)]
        )
        assert code == 1
        assert err.startswith("nlo: config error: profiles name must be a file extension")
        assert len(err.splitlines()) == 1
        assert text == "x = 1\n"


class LocalModel:
    """A model server on 127.0.0.1 that answers every POST with one set reply
    and keeps the headers and JSON body of each request it receives, and its
    request line and raw body in ``requests``.

    Setting ``raw`` sends those bytes verbatim as the whole reply, in writes
    of ``step`` bytes if that is set; with ``linger`` set the server then
    keeps the connection open until the client closes it, and then sets the
    event ``client_closed``.  Setting ``answer`` (a function of the JSON body
    giving a status and a body) replaces the set reply.  With ``tls`` (a
    certificate and key file) the server speaks HTTPS.  A ``threaded``
    server answers requests concurrently and keeps in ``peak`` the most it
    had open at once.  ``host`` is the loopback address it listens on.
    """

    def __init__(self, tls=None, threaded=False, host="127.0.0.1"):
        self.status, self.body, self.delay, self.raw = 200, b"{}", 0.0, None
        self.step, self.linger, self.client_closed = None, False, threading.Event()
        self.answer = None
        self.received, self.requests = [], []
        self.open = self.peak = 0
        lock = threading.Lock()
        model = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):  # keep test output quiet
                pass

            def do_POST(self):
                with lock:
                    model.open += 1
                    model.peak = max(model.peak, model.open)
                try:
                    self.reply()
                finally:
                    with lock:
                        model.open -= 1

            def reply(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                model.received.append((self.headers, json.loads(body)))
                model.requests.append((self.requestline, body))
                time.sleep(model.delay)
                if model.raw is not None:
                    step = model.step or len(model.raw) or 1
                    for start in range(0, len(model.raw), step):
                        self.wfile.write(model.raw[start : start + step])
                        if model.step:
                            time.sleep(0.001)  # one write per segment
                    if model.linger:
                        self.connection.settimeout(10)
                        if self.rfile.read() == b"":
                            model.client_closed.set()
                    return
                status, reply = model.status, model.body
                if model.answer is not None:
                    status, reply = model.answer(json.loads(body))
                self.send_response(status)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

        server = ThreadingHTTPServer if threaded else HTTPServer
        if ":" in host:
            server = type("Server6", (server,), {"address_family": socket.AF_INET6})
        self.server = server((host, 0), Handler)
        if tls:
            import ssl

            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self.server.socket = context.wrap_socket(self.server.socket, server_side=True)
        scheme = "https" if tls else "http"
        netloc = f"[{host}]" if ":" in host else host
        self.url = f"{scheme}://{netloc}:{self.server.server_address[1]}/complete"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def local_model():
    model = LocalModel()
    yield model
    model.close()


def http_config(tmp_path, url, mode="flat"):
    """Write an ``nlo.yaml`` for the http backend at ``url`` and return its path.

    The request carries an ``Authorization`` header read from ``NLO_TEST_KEY``.
    """
    if mode == "flat":
        template, response_path = "{model: '{model}', prompt: '{prompt}'}", "[text]"
    else:
        template = "{model: '{model}', messages: '{messages}'}"
        response_path = "[choices, 0, message, content]"
    config = tmp_path / "nlo.yaml"
    config.write_text(
        "backend: http\n"
        "http:\n"
        f"  url: {url}\n"
        f"  mode: {mode}\n"
        f"  request_template: {template}\n"
        f"  response_path: {response_path}\n"
        "  headers:\n"
        "    Authorization: 'Bearer ${NLO_TEST_KEY}'\n",
        encoding="utf-8",
    )
    return config


class TestConfigAndBackendFailures:
    @pytest.mark.parametrize(
        "text",
        [
            "temperature: hot\n",
            "profiles:\n  - name: lsp\n",
            "technique: bogus\n",
            "model: 5\n",
            "http:\n  headers: 5\n",
        ],
    )
    def test_config_mistake_exits_1(self, capsys, tmp_path, sample_file, text):
        config = tmp_path / "nlo.yaml"
        config.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, ["--config", str(config), "gen", str(sample_file)])
        assert code == 1
        assert err.startswith("nlo: config error:")

    @pytest.mark.parametrize("command", ["gen", "eval"])
    def test_malformed_fewshot_set_exits_1(self, capsys, tmp_path, sample_file, command):
        fewshots = tmp_path / "shots"
        fewshots.mkdir()
        (fewshots / "ex.py").write_text(SAMPLE, encoding="utf-8")
        (fewshots / "ex.outline").write_text("not a record\n", encoding="utf-8")
        config = tmp_path / "nlo.yaml"
        config.write_text(f"fewshot_set: {fewshots}\n", encoding="utf-8")
        target = [str(sample_file)] if command == "gen" else ["--corpus", str(tmp_path)]
        code, _, err = run(capsys, ["--config", str(config), command, *target])
        assert code == 1
        assert err.startswith("nlo: config error:")
        assert len(err.splitlines()) == 1

    def test_non_utf8_source_exits_1(self, capsys, tmp_path, sample_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        bad = corpus / "bad.py"
        bad.write_bytes(b"def f():\n  return '\xff'\n")
        for argv in (["gen", str(bad)], ["eval", "--corpus", str(corpus)]):
            code, _, err = run(capsys, argv)
            assert code == 1
            assert err.startswith(f"nlo: {bad}: ")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["{bad", "[]"])
    def test_corrupt_fixture_index_exits_3(self, capsys, store_dir, text):
        store_dir.mkdir()
        (store_dir / "index.json").write_text(text, encoding="utf-8")
        code, _, err = run(capsys, ["fixtures", "list", "--fixtures", str(store_dir)])
        assert code == 3
        assert err.startswith("nlo: backend error: fixture index")
        assert len(err.splitlines()) == 1

    def test_non_utf8_config_exits_1(self, capsys, tmp_path, sample_file):
        config = tmp_path / "nlo.yaml"
        config.write_bytes(b"model: \xff\n")
        code, _, err = run(capsys, ["--config", str(config), "gen", str(sample_file)])
        assert code == 1
        assert err.startswith(f"nlo: {config}: not UTF-8 text")

    def test_non_utf8_record_exits_3(self, capsys, sample_file, store_dir):
        unit = SourceUnit.from_text(SAMPLE)
        record(store_dir, build_prompt(unit, default_config()), "2| Add.")
        [path] = store_dir.glob("*.rec")
        path.write_bytes(path.read_bytes() + b"\xff")
        code, _, err = run(capsys, ["gen", str(sample_file), "--fixtures", str(store_dir)])
        assert code == 3
        assert err.startswith("nlo: backend error: fixture record") and "not UTF-8" in err

    def test_non_json_body_exits_3(self, capsys, tmp_path, sample_file, local_model, monkeypatch):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.body = b"<html>busy</html>"
        config = http_config(tmp_path, local_model.url)
        code, _, err = run(capsys, ["--config", str(config), "gen", str(sample_file)])
        assert code == 3
        assert "not JSON" in err

    def test_error_status_exits_3(self, capsys, tmp_path, sample_file, local_model, monkeypatch):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.status, local_model.body = 503, b"overloaded"
        config = http_config(tmp_path, local_model.url)
        code, _, err = run(capsys, ["--config", str(config), "gen", str(sample_file)])
        assert code == 3
        assert "HTTP 503" in err

    def test_refused_port_exits_3(self, capsys, tmp_path, sample_file, monkeypatch):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        with socket.socket() as bound:  # bound but not listening: connections are refused
            bound.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{bound.getsockname()[1]}/complete"
            config = http_config(tmp_path, url)
            code, _, err = run(capsys, ["--config", str(config), "gen", str(sample_file)])
        assert code == 3
        assert "request failed" in err

    @pytest.mark.parametrize("mode", ["flat", "chat"])
    def test_server_receives_payload_and_key(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, mode
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        text = "2| Add the two numbers."
        reply = {"text": text} if mode == "flat" else {"choices": [{"message": {"content": text}}]}
        local_model.body = json.dumps(reply).encode("utf-8")
        config = http_config(tmp_path, local_model.url, mode)
        code, out, _ = run(
            capsys, ["--config", str(config), "gen", "--no-sidecar", str(sample_file)]
        )
        assert (code, out) == (0, text + "\n")
        [(headers, payload)] = local_model.received
        assert headers["Authorization"] == "Bearer sekrit"
        assert headers["Content-Type"] == "application/json"
        prompt = build_prompt(SourceUnit.from_text(SAMPLE), default_config())
        if mode == "flat":
            assert payload == {"model": "default", "prompt": prompt.serialize()}
        else:
            assert payload == {"model": "default", "messages": prompt.messages()}


def test_import_loads_no_http_stack():
    # Every nlo invocation imports nlo.cli; only commands that call a live
    # model may pay for the HTTP transport.
    heavy = ("requests", "urllib.request", "http.client", "ssl")
    code = f"import nlo.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    path = [str(Path(nlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def cli_env(**extra):
    """The environment of an ``nlo`` child process: this checkout's
    ``PYTHONPATH``, no proxy variables, and ``extra``."""
    path = [str(Path(nlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    return {**env, "PYTHONPATH": os.pathsep.join(p for p in path if p), **extra}


@pytest.fixture
def no_proxy(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


class ForwardingProxy:
    """An HTTP proxy on 127.0.0.1 that forwards each absolute-form POST to
    its target and keeps the request lines it saw."""

    def __init__(self):
        self.seen = []
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def do_POST(self):
                import http.client
                from urllib.parse import urlsplit

                proxy.seen.append(self.requestline)
                body = self.rfile.read(int(self.headers["Content-Length"]))
                target = urlsplit(self.path)
                upstream = http.client.HTTPConnection(target.netloc, timeout=30)
                try:
                    upstream.request("POST", target.path, body, dict(self.headers))
                    reply = upstream.getresponse()
                    data = reply.read()
                finally:
                    upstream.close()
                self.send_response(reply.status)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


GEN_REPLY = json.dumps({"text": "2| Add the two numbers."}).encode("utf-8")
FRAMED_REPLIES = {
    "content-length": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
    % (len(GEN_REPLY), GEN_REPLY),
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n"
    b"5;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
    % (GEN_REPLY[:5], len(GEN_REPLY) - 5, GEN_REPLY[5:]),
}


class TestTransport:
    """The default transport posts over one socket; urllib only behind a proxy."""

    def gen(self, capsys, tmp_path, sample_file, url):
        config = http_config(tmp_path, url)
        return run(capsys, ["--config", str(config), "gen", "--no-sidecar", str(sample_file)])

    def test_socket_sends_what_urllib_sends(self, local_model, no_proxy):
        from nlo.gateway import _socket_post, _urllib_post

        local_model.body = GEN_REPLY
        url = local_model.url + "?stream=false#frag"
        payload = {"prompt": "ü\r\n", "n": [1, 2.5, None]}
        headers = {"Authorization": "Bearer k", "x-api-VERSION": "2", "Content-Type": "text/x"}
        replies = [post(url, json=payload, headers=headers, timeout=30)
                   for post in (_socket_post, _urllib_post)]
        assert replies[0] == replies[1] and replies[0].json() == json.loads(GEN_REPLY)
        (socket_line, socket_body), (urllib_line, urllib_body) = local_model.requests
        assert socket_line == urllib_line == "POST /complete?stream=false HTTP/1.1"
        assert socket_body == urllib_body == json.dumps(payload).encode("utf-8")
        socket_headers, urllib_headers = (
            sorted((name.lower(), value) for name, value in headers.items())
            for headers, _ in local_model.received
        )
        assert socket_headers == urllib_headers
        assert dict(socket_headers) == {
            "accept-encoding": "identity",
            "authorization": "Bearer k",
            "connection": "close",
            "content-length": str(len(socket_body)),
            "content-type": "text/x",
            "host": local_model.url.split("/")[2],
            "user-agent": "Python-urllib/%d.%d" % sys.version_info[:2],
            "x-api-version": "2",
        }

    @pytest.mark.parametrize(
        "raw",
        [
            FRAMED_REPLIES["content-length"],
            FRAMED_REPLIES["chunked"],
            b"HTTP/1.0 200 OK\r\n\r\n%s" % GEN_REPLY,
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n\r\n%s" % GEN_REPLY,
        ],
        ids=["content-length", "chunked", "close-delimited", "after-100-continue"],
    )
    def test_reply_framings_give_the_same_text(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy, raw
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.raw = raw
        code, out, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        assert (code, out, err) == (0, "2| Add the two numbers.\n", "")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n%s" % GEN_REPLY, "cut short"),
            (b"HTTQ/1.1 200 OK\r\n\r\n%s" % GEN_REPLY, "malformed status line"),
            (b"HTTP/1.1 OK\r\n\r\n%s" % GEN_REPLY, "malformed status line"),
            (b"", "without a reply"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x5\r\n", "chunk size"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n", "chunk size"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "Content-Length"),
            (
                b"HTTP/1.1 302 Found\r\nLocation: /moved\r\nContent-Length: %d\r\n\r\n%s"
                % (len(GEN_REPLY), GEN_REPLY),
                "HTTP 302",
            ),
        ],
        ids=[
            "short-body",
            "bad-protocol",
            "no-status-code",
            "empty-reply",
            "prefixed-chunk-size",
            "negative-chunk-size",
            "negative-length",
            "redirect",
        ],
    )
    def test_broken_reply_exits_3(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy, raw, message
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.raw = raw
        code, out, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        assert (code, out) == (3, "")
        assert err.startswith("nlo: backend error: request failed:") and message in err
        assert len(local_model.received) == 1  # a redirect is not followed

    @pytest.mark.parametrize("framing", sorted(FRAMED_REPLIES))
    @pytest.mark.parametrize("delivery", ["one-byte-writes", "kept-open"])
    def test_a_framed_reply_is_read_whole_as_it_arrives(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy, framing, delivery
    ):
        # Kept open, the connection closes only after the client has closed
        # it: a client that waited for the close would stall until the
        # server gives up.
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.raw = FRAMED_REPLIES[framing]
        if delivery == "one-byte-writes":
            local_model.step = 1
        else:
            local_model.linger = True
        code, out, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        assert (code, out, err) == (0, "2| Add the two numbers.\n", "")
        if local_model.linger:
            assert local_model.client_closed.wait(10)

    def test_a_malformed_status_line_leaves_no_open_socket(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.raw, local_model.linger = b"HTTQ/1.1 200 OK\r\n\r\n", True
        code, out, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        assert (code, out) == (3, "")
        assert err.startswith("nlo: backend error: request failed: malformed status line")
        assert local_model.client_closed.wait(10)

    def test_a_refused_connection_exits_3_naming_the_error(
        self, capsys, tmp_path, sample_file, monkeypatch, no_proxy
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        with socket.socket() as bound:  # bound but not listening: connections are refused
            bound.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{bound.getsockname()[1]}/complete"
            code, out, err = self.gen(capsys, tmp_path, sample_file, url)
        refused = f"[Errno {errno.ECONNREFUSED}] {os.strerror(errno.ECONNREFUSED)}"
        assert (code, out, err) == (3, "", f"nlo: backend error: request failed: {refused}\n")

    def test_an_ipv6_literal_url_is_reached(
        self, capsys, tmp_path, sample_file, monkeypatch, no_proxy
    ):
        if not socket.has_ipv6:
            pytest.skip("needs IPv6")
        try:
            model = LocalModel(host="::1")
        except OSError:
            pytest.skip("needs IPv6 on the loopback interface")
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        try:
            model.body = GEN_REPLY
            code, out, err = self.gen(capsys, tmp_path, sample_file, model.url)
        finally:
            model.close()
        assert (code, out, err) == (0, "2| Add the two numbers.\n", "")
        [(headers, _)] = model.received
        assert headers["Host"] == model.url.split("/")[2]

    def test_error_status_with_a_chunked_body_exits_3(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.raw = b"HTTP/1.1 404 Not Found\r\nTransfer-Encoding: chunked\r\n\r\nzz"
        code, _, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        assert code == 3
        assert "backend returned HTTP 404" in err

    @pytest.mark.parametrize("bad", ["header", "path"])
    def test_request_injection_is_refused(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy, bad
    ):
        url = local_model.url
        if bad == "header":
            monkeypatch.setenv("NLO_TEST_KEY", "sekrit\r\nX-Injected: 1")
        else:
            monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
            url = url.replace("/complete", "/com plete")
        code, out, err = self.gen(capsys, tmp_path, sample_file, url)
        assert (code, out) == (3, "")
        assert "request failed" in err
        assert local_model.received == []

    def test_proxy_variables_route_through_urllib(self, tmp_path, sample_file, local_model):
        local_model.body = GEN_REPLY
        config = http_config(tmp_path, local_model.url)
        argv = [sys.executable, "-m", "nlo.cli", "--config", str(config), "gen"]
        argv += ["--no-sidecar", str(sample_file)]
        proxy = ForwardingProxy()
        try:
            proxied = cli_env(NLO_TEST_KEY="sekrit", HTTP_PROXY=proxy.url)
            bypassed = {**proxied, "NO_PROXY": "127.0.0.1"}
            for env in (proxied, bypassed):
                result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
                assert (result.returncode, result.stdout) == (0, "2| Add the two numbers.\n")
        finally:
            proxy.close()
        assert proxy.seen == [f"POST {local_model.url} HTTP/1.1"]
        assert len(local_model.received) == 2
        assert local_model.received[0][0]["Authorization"] == "Bearer sekrit"

    def test_proxied_request_injection_is_refused_without_the_value(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy
    ):
        proxy = ForwardingProxy()
        try:
            monkeypatch.setenv("HTTP_PROXY", proxy.url)
            monkeypatch.setenv("NLO_TEST_KEY", "sekrit\r\nX-Injected: 1")
            code, out, err = self.gen(capsys, tmp_path, sample_file, local_model.url)
        finally:
            proxy.close()
        assert (code, out) == (3, "")
        assert err == "nlo: backend error: request failed: invalid header 'Authorization'\n"
        assert proxy.seen == [] and local_model.received == []

    def test_each_proxied_call_reads_the_proxy_variables(
        self, capsys, tmp_path, sample_file, local_model, monkeypatch, no_proxy
    ):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        local_model.body = GEN_REPLY
        proxies = [ForwardingProxy(), ForwardingProxy()]
        try:
            for proxy in proxies:
                monkeypatch.setenv("HTTP_PROXY", proxy.url)
                code, out, _ = self.gen(capsys, tmp_path, sample_file, local_model.url)
                assert (code, out) == (0, "2| Add the two numbers.\n")
        finally:
            for proxy in proxies:
                proxy.close()
        assert [proxy.seen for proxy in proxies] == [[f"POST {local_model.url} HTTP/1.1"]] * 2

    def test_tls_verifies_against_the_ca_store(
        self, capsys, tmp_path, sample_file, monkeypatch, no_proxy
    ):
        openssl = shutil.which("openssl")
        if openssl is None:
            pytest.skip("needs the openssl binary to make a certificate")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:P-256",
             "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
             "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
            check=True, capture_output=True, timeout=60,
        )
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        model = LocalModel(tls=(cert, key))
        try:
            model.body = GEN_REPLY
            code, _, err = self.gen(capsys, tmp_path, sample_file, model.url)
            assert code == 3 and "request failed" in err
            monkeypatch.setenv("SSL_CERT_FILE", str(cert))
            code, out, _ = self.gen(capsys, tmp_path, sample_file, model.url)
            assert (code, out) == (0, "2| Add the two numbers.\n")
        finally:
            model.close()
        assert len(model.received) == 1

    def test_recording_loads_no_urllib_or_ssl(self, tmp_path, sample_file, local_model):
        # Over http:// with no proxy set, a live call needs only _socket.
        local_model.body = GEN_REPLY
        config = http_config(tmp_path, local_model.url)
        argv = ["--config", str(config), "gen", "--no-sidecar", "--backend", "replay"]
        argv += ["--record", "--fixtures", str(tmp_path / "store"), str(sample_file)]
        modules = ("socket", "selectors", "urllib.request", "http.client", "email.parser", "ssl")
        code = (
            "import json, sys\nfrom nlo.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=cli_env(NLO_TEST_KEY="sekrit"), timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0, []]
        assert len(local_model.received) == 1
        assert len(FixtureStore(tmp_path / "store").keys()) == 1


def test_live_call_to_an_ascii_host_loads_no_idna_codec(tmp_path, sample_file, local_model):
    # getaddrinfo encodes a str host with the idna codec, whose first use
    # imports encodings.idna, stringprep and unicodedata.
    local_model.body = GEN_REPLY
    config = http_config(tmp_path, local_model.url)
    argv = ["--config", str(config), "gen", "--no-sidecar", str(sample_file)]
    modules = ("encodings.idna", "stringprep", "unicodedata")
    code = (
        "import json, sys\nfrom nlo.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=cli_env(NLO_TEST_KEY="sekrit"), timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, []]
    assert len(local_model.received) == 1


class TestRenderExtractCheck:
    def seed(self, sample_file):
        unit = SourceUnit.from_text(sample_file.read_text())
        outline = Outline.of(OutlineStatement(2, "Add the two numbers."))
        sidecar_write(unit, outline, sample_file)

    def test_render_stdout(self, capsys, sample_file):
        self.seed(sample_file)
        code, out, _ = run(capsys, ["render", str(sample_file)])
        assert code == 0
        assert "#* Add the two numbers." in out

    def test_render_standalone(self, capsys, sample_file):
        self.seed(sample_file)
        code, out, _ = run(capsys, ["render", str(sample_file), "--standalone"])
        assert code == 0
        assert out == "def add(a, b):\n- Add the two numbers.\n"

    def test_render_stale_fails(self, capsys, sample_file):
        self.seed(sample_file)
        sample_file.write_text(SAMPLE + "# edited\n", encoding="utf-8")
        code, _, err = run(capsys, ["render", str(sample_file)])
        assert code == 2
        assert "stale" in err

    def test_render_in_place_then_extract_round_trip(self, capsys, sample_file):
        self.seed(sample_file)
        code, _, _ = run(capsys, ["render", str(sample_file), "--in-place"])
        assert code == 0
        assert "#*" in sample_file.read_text()
        code, out, _ = run(capsys, ["extract", str(sample_file), "--in-place"])
        assert code == 0
        assert out == "2| Add the two numbers.\n"
        assert sample_file.read_text() == SAMPLE
        record_read, stale = sidecar_read(sample_file)
        assert not stale

    def test_extract_in_place_keeps_string_contents(self, capsys, tmp_path):
        path = tmp_path / "msg.py"
        text = 'def f():\n  #* Build it.\n  msg = """\n  #* not a comment\n  """\n'
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, ["extract", str(path), "--in-place"])
        assert code == 0
        assert out == "2| Build it.\n"
        assert path.read_text(encoding="utf-8") == text.replace("  #* Build it.\n", "")

    def test_check_ok(self, capsys, sample_file):
        self.seed(sample_file)
        code, out, _ = run(capsys, ["check", str(sample_file)])
        assert code == 0
        assert out.startswith("ok: 1 statements")

    def test_check_stale(self, capsys, sample_file):
        self.seed(sample_file)
        sample_file.write_text(SAMPLE + "\n# more\n", encoding="utf-8")
        code, out, _ = run(capsys, ["check", str(sample_file)])
        assert code == 2
        assert "stale" in out


    def test_check_reports_an_anchor_moved_onto_a_blank_line(self, capsys, tmp_path):
        path = tmp_path / "gap.py"
        path.write_text("def add(a, b):\n\n  return a + b\n", encoding="utf-8")
        unit = SourceUnit.from_text(path.read_text(encoding="utf-8"))
        sidecar_write(unit, Outline.of(OutlineStatement(3, "Add them.")), path)
        document = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
        document["statements"][0]["line"] = 2  # hand-edited onto the blank line
        sidecar_path(path).write_text(json.dumps(document), encoding="utf-8")
        code, out, _ = run(capsys, ["check", str(path)])
        assert (code, out) == (2, "violation[blank_line] anchor 2 is a blank line\n")

    @pytest.mark.parametrize("command", ["check", "render", "finish"])
    def test_non_utf8_source_with_sidecar_exits_1(self, capsys, sample_file, command):
        self.seed(sample_file)
        sample_file.write_bytes(SAMPLE.encode("utf-8") + b"# \xff\n")
        code, _, err = run(capsys, [command, str(sample_file)])
        assert code == 1
        assert err.startswith(f"nlo: {sample_file}: not UTF-8 text")
        assert len(err.splitlines()) == 1

    def test_non_utf8_sidecar_is_not_valid_json(self, capsys, sample_file):
        self.seed(sample_file)
        sidecar_path(sample_file).write_bytes(b'{"version": "\xff"}')
        code, _, err = run(capsys, ["check", str(sample_file)])
        assert code == 2
        assert err.startswith("nlo: sidecar record is not valid JSON")

class TestFinish:
    def seed_edit(self, sample_file, store_dir):
        # Outline written for the original code; the user then inserts a line.
        unit = SourceUnit.from_text(SAMPLE)
        outline = Outline.of(OutlineStatement(2, "Add the two numbers."))
        sidecar_write(unit, outline, sample_file)
        edited = SAMPLE.replace(
            "  return result", "  result += 1\n  return result"
        )
        sample_file.write_text(edited, encoding="utf-8")
        current_unit = SourceUnit.from_text(edited)
        current_outline, _ = remap_anchors(outline, unit, current_unit)
        session = EditSession(
            old_unit=unit,
            old_outline=outline,
            current_unit=current_unit,
            current_outline=current_outline,
        )
        annotated = render_interleaved(
            current_unit,
            Outline.of(OutlineStatement(2, "Add the two numbers plus one.")),
        ).text()
        response = f"You bumped the sum by one.\n```\n{annotated}\n```"
        record(store_dir, build_finish_prompt(session), response)

    def test_finish_prints_diff(self, capsys, sample_file, store_dir):
        self.seed_edit(sample_file, store_dir)
        code, out, err = run(
            capsys, ["finish", str(sample_file), "--fixtures", str(store_dir)]
        )
        assert code == 0
        assert "-  #* Add the two numbers." in out
        assert "+  #* Add the two numbers plus one." in out
        assert "You bumped the sum by one." in err

    def test_finish_twice_identical(self, capsys, sample_file, store_dir):
        self.seed_edit(sample_file, store_dir)
        argv = ["finish", str(sample_file), "--fixtures", str(store_dir)]
        result1 = run(capsys, argv)
        result2 = run(capsys, argv)
        assert result1 == result2

    def test_finish_apply_updates_file_and_sidecar(
        self, capsys, sample_file, store_dir
    ):
        self.seed_edit(sample_file, store_dir)
        code, _, _ = run(
            capsys,
            ["finish", str(sample_file), "--fixtures", str(store_dir), "--apply"],
        )
        assert code == 0
        record_read, stale = sidecar_read(sample_file)
        assert not stale
        assert record_read.statements == (
            (2, "Add the two numbers plus one.", False),
        )

    def test_finish_apply_keeps_star_comments_in_the_file(self, capsys, sample_file, store_dir):
        unit = SourceUnit.from_text(SAMPLE)
        outline = Outline.of(OutlineStatement(2, "Add the two numbers."))
        sidecar_write(unit, outline, sample_file)
        edited = SAMPLE.replace("  return result", "  result += 1\n  return result")
        current = SourceUnit.from_text(edited)
        sample_file.write_text(render_interleaved(current, outline).text() + "\n", encoding="utf-8")
        session = EditSession(unit, outline, current, outline)
        finished = render_interleaved(
            current, Outline.of(OutlineStatement(2, "Add the two numbers plus one."))
        ).text()
        record(store_dir, build_finish_prompt(session), f"Bumped.\n```\n{finished}\n```")
        argv = ["finish", str(sample_file), "--fixtures", str(store_dir), "--apply"]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        assert sample_file.read_text(encoding="utf-8") == finished + "\n"
        record_read, _ = sidecar_read(sample_file)
        assert record_read.statements == ((2, "Add the two numbers plus one.", False),)

    def test_finish_drops_an_anchor_that_moved_into_a_string(
        self, capsys, sample_file, store_dir
    ):
        unit = SourceUnit.from_text(SAMPLE)
        outline = Outline.of(OutlineStatement(2, "Add the two numbers."))
        sidecar_write(unit, outline, sample_file)
        edited = SAMPLE.replace("  result = a + b\n", '  s = """\n  result = a + b\n  """\n')
        sample_file.write_text(edited, encoding="utf-8")
        current_unit = SourceUnit.from_text(edited)
        current_outline, stale = remap_anchors(outline, unit, current_unit)
        assert (current_outline, stale) == (Outline(), list(outline))
        session = EditSession(unit, outline, current_unit, current_outline)
        annotated = render_interleaved(
            current_unit, Outline.of(OutlineStatement(2, "Keep the sum as text."))
        ).text()
        record(store_dir, build_finish_prompt(session), f"Quoted it.\n```\n{annotated}\n```")
        argv = ["finish", str(sample_file), "--fixtures", str(store_dir), "--apply"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert "+  #* Keep the sum as text." in out
        assert sidecar_read(sample_file)[0].statements == ((2, "Keep the sum as text.", False),)

    def test_finish_old_whose_sidecar_no_longer_fits_exits_2(self, capsys, tmp_path):
        old = tmp_path / "old.py"
        sidecar_write(
            SourceUnit.from_text(SAMPLE), Outline.of(OutlineStatement(3, "Return it.")), old
        )
        old.write_text("def add(a, b):\n  return a + b\n", encoding="utf-8")
        new = tmp_path / "new.py"
        new.write_text(SAMPLE, encoding="utf-8")
        code, _, err = run(capsys, ["finish", str(new), "--old", str(old)])
        assert code == 2
        assert err.startswith("nlo: old outline does not fit its code:")
        assert len(err.splitlines()) == 1

    def test_finish_renders_the_old_code_with_the_config_profile(
        self, capsys, tmp_path, store_dir
    ):
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "profiles:\n  - name: lua\n    line_comment_token: '--'\n", encoding="utf-8"
        )
        lua = LanguageProfile(name="lua", line_comment_token="--")
        source = tmp_path / "f.lua"
        source.write_text("local x = 1\nreturn x\n", encoding="utf-8")
        unit = SourceUnit.from_text(source.read_text(), profile=lua)
        record(store_dir, build_prompt(unit, default_config()), "1| Set x.")
        store = ["--fixtures", str(store_dir)]
        assert run(capsys, ["--config", str(config), "gen", str(source), *store])[0] == 0
        source.write_text("local x = 1\nx = x + 1\nreturn x\n", encoding="utf-8")
        current = SourceUnit.from_text(source.read_text(), profile=lua)
        outline = Outline.of(OutlineStatement(1, "Set x."))
        prompt = build_finish_prompt(EditSession(unit, outline, current, outline))
        assert prompt.serialize().count("--* Set x.") == 2
        record(store_dir, prompt, "Kept.\n```\n--* Set x.\nlocal x = 1\nreturn x\n```")
        code, out, err = run(capsys, ["--config", str(config), "finish", str(source), *store])
        assert code == 0, err
        assert "-x = x + 1" in out

    def test_finish_reads_old_with_the_file_profile(self, capsys, tmp_path, monkeypatch):
        # An old copy named f.lua.orig is FILE's code, so it is read as Lua too.
        config = tmp_path / "nlo.yaml"
        config.write_text(
            "profiles:\n  - name: lua\n    line_comment_token: '--'\n", encoding="utf-8"
        )
        lua = LanguageProfile(name="lua", line_comment_token="--")
        old = tmp_path / "f.lua.orig"
        old.write_text("function f(x)\n  local y = x\n  return y\nend\n", encoding="utf-8")
        old_unit = SourceUnit.from_text(old.read_text(), profile=lua)
        sidecar_write(old_unit, Outline.of(OutlineStatement(2, "Copy x.")), old)
        source = tmp_path / "f.lua"
        source.write_text("function f(x)\n  local y = x + 1\n  return y\nend\n", encoding="utf-8")
        prompts = []

        def respond(prompt: str) -> str:
            prompts.append(prompt)
            code = "function f(x)\n  --* Copy x.\n  local y = x + 1\n  return y\nend\n"
            return f"Kept.\n```\n{code}```"

        monkeypatch.setattr(cli, "make_backend", lambda settings: CallableBackend(respond))
        argv = ["--config", str(config), "finish", str(source), "--old", str(old)]
        code, _, err = run(capsys, argv)
        assert code == 0, err
        assert len(prompts) == 1
        assert prompts[0].count("--* Copy x.") == 2
        assert "#* Copy x." not in prompts[0]



SPLIT_DIFF = """\
--- a/alpha.py
+++ b/alpha.py
@@ -1,3 +1,4 @@
 a
 b
+new
 c
--- a/beta.py
+++ b/beta.py
@@ -1,2 +1,2 @@
-x
+X
 z
"""


class TestSplit:
    def seed_split(self, tmp_path, store_dir):
        diff_path = tmp_path / "cl.diff"
        diff_path.write_text(SPLIT_DIFF, encoding="utf-8")
        files = parse_unified_diff(SPLIT_DIFF)
        cl = ChangeList(description="demo change", files=files)
        topics_response = "Topics:\n1. Main work\n2. Other changes"
        record(store_dir, build_topics_prompt(cl), topics_response)
        topics = parse_topics(topics_response)
        record(
            store_dir,
            build_sections_prompt(cl.description, files[0], topics),
            "6|1| Insert the new line",
        )
        record(
            store_dir,
            build_sections_prompt(cl.description, files[1], topics),
            "4|2| Uppercase the variable",
        )
        return diff_path

    def test_split_report_and_json(self, capsys, tmp_path, store_dir):
        diff_path = self.seed_split(tmp_path, store_dir)
        json_out = tmp_path / "split.json"
        code, out, _ = run(
            capsys,
            [
                "split",
                str(diff_path),
                "--description",
                "demo change",
                "--fixtures",
                str(store_dir),
                "--json",
                str(json_out),
            ],
        )
        assert code == 0
        assert "1. Main work" in out
        assert "(66.7% of changed lines)" in out
        document = json.loads(json_out.read_text())
        assert document["version"] == 1
        assert [t["title"] for t in document["topics"]] == [
            "Main work",
            "Other changes",
        ]

    def test_split_html_report(self, capsys, tmp_path, store_dir):
        diff_path = self.seed_split(tmp_path, store_dir)
        html_out = tmp_path / "split.html"
        code, _, _ = run(
            capsys,
            [
                "split",
                str(diff_path),
                "--description",
                "demo change",
                "--fixtures",
                str(store_dir),
                "--html",
                str(html_out),
            ],
        )
        assert code == 0
        html = html_out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Main work" in html

    def test_split_twice_identical(self, capsys, tmp_path, store_dir):
        diff_path = self.seed_split(tmp_path, store_dir)
        argv = [
            "split",
            str(diff_path),
            "--description",
            "demo change",
            "--fixtures",
            str(store_dir),
        ]
        assert run(capsys, argv) == run(capsys, argv)

    def test_split_repairs_a_major_section_issue_and_exits_0(self, capsys, tmp_path):
        diff_path = tmp_path / "one.diff"
        diff_path.write_text(ONE_FILE_DIFF, encoding="utf-8")
        responses = tmp_path / "r.json"
        responses.write_text(
            json.dumps(["Topics:\n1. Main work", "99999999999999999999999|1| x"]),
            encoding="utf-8",
        )
        argv = ["split", str(diff_path), "--description", "d"]
        code, out, err = run(capsys, [*argv, "--responses-file", str(responses)])
        assert code == 0
        assert "2. Other changes (100.0% of changed lines)" in out
        assert err == (
            "issue[major] x.py: line_number_out_of_bounds: "
            "line number 99999999999999999999999 outside 1..5\n"
        )

    def test_split_reads_the_diff_from_stdin(self, capsys, tmp_path, store_dir, monkeypatch):
        diff_path = self.seed_split(tmp_path, store_dir)
        argv = ["--description", "demo change", "--fixtures", str(store_dir)]
        from_file = run(capsys, ["split", str(diff_path), *argv])
        monkeypatch.setattr(sys, "stdin", io.StringIO(SPLIT_DIFF))
        assert run(capsys, ["split", "-", *argv]) == from_file
        assert from_file[0] == 0 and "1. Main work" in from_file[1]

    def test_split_bad_diff_exits_2(self, capsys, tmp_path, store_dir):
        bad = tmp_path / "bad.diff"
        bad.write_text("--- a/f\n+++ b/f\n@@ -1,3 +1,3 @@\n a\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["split", str(bad), "--description", "d", "--fixtures", str(store_dir)],
        )
        assert code == 2
        assert "hunk" in err

    def test_split_non_utf8_diff_exits_1(self, capsys, tmp_path, store_dir):
        bad = tmp_path / "bad.diff"
        bad.write_bytes(b"--- a/f\n+++ b/f\n@@ -1 +1 @@\n-a\n+\xff\n")
        code, _, err = run(
            capsys,
            ["split", str(bad), "--description", "d", "--fixtures", str(store_dir)],
        )
        assert code == 1
        assert err.startswith(f"nlo: {bad}: not UTF-8 text")


TRIAGE_RESPONSE = (
    "This function forwards the device id to a remote logger. Collecting "
    "hardware identifiers is a privacy concern.\n"
    "\n"
    "Suspicion score:\n"
    "2\n"
    "\n"
    "Notes:\n"
    "Line 2: Reads the hardware device id."
)


class TestTriage:
    def seed_triage(self, path, store_dir):
        from nlo.source_model import C_LIKE_PROFILE

        unit = SourceUnit.from_text(path.read_text(), profile=C_LIKE_PROFILE)
        prompt = build_triage_prompt(unit, load_triage_examples("default"))
        record(store_dir, prompt, TRIAGE_RESPONSE)

    def test_single_file_record(self, capsys, tmp_path, store_dir):
        path = tmp_path / "fn.java"
        path.write_text(
            'public void a(Context p1) {\n  this.z9.log(p1.getDeviceId());\n}\n',
            encoding="utf-8",
        )
        self.seed_triage(path, store_dir)
        code, out, _ = run(
            capsys, ["triage", str(path), "--fixtures", str(store_dir)]
        )
        assert code == 0
        document = json.loads(out)
        assert document["score"] == 2
        assert document["consistent"] is True
        assert document["outline"] == [
            {"line": 2, "text": "Reads the hardware device id."}
        ]

    def test_directory_mode_with_histogram(self, capsys, tmp_path, store_dir):
        directory = tmp_path / "functions"
        directory.mkdir()
        for name in ("a.java", "b.java"):
            path = directory / name
            path.write_text(
                'public void a(Context p1) {\n  this.z9.log(p1.getDeviceId());\n}\n',
                encoding="utf-8",
            )
            self.seed_triage(path, store_dir)
        code, out, _ = run(
            capsys, ["triage", str(directory), "--fixtures", str(store_dir)]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1]) == {"score_histogram": {"2": 2}}

    def test_directory_with_no_matching_file_exits_1(self, capsys, tmp_path, store_dir):
        directory = tmp_path / "functions"
        directory.mkdir()
        (directory / "notes.txt").write_text("not a function\n", encoding="utf-8")
        argv = ["triage", str(directory), "--glob", "*.java", "--fixtures", str(store_dir)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"nlo: {directory}: no file matches '*.java'\n"

    def test_triage_twice_identical(self, capsys, tmp_path, store_dir):
        path = tmp_path / "fn.java"
        path.write_text(
            'public void a(Context p1) {\n  this.z9.log(p1.getDeviceId());\n}\n',
            encoding="utf-8",
        )
        self.seed_triage(path, store_dir)
        argv = ["triage", str(path), "--fixtures", str(store_dir)]
        assert run(capsys, argv) == run(capsys, argv)


def function_source(n: int) -> str:
    return f"int function_{n}(int a) {{\n  return a + {n};\n}}\n"


def triage_text(n: int) -> str:
    """A triage answer for ``function_<n>``: its score and summary name it."""
    notes = "<None>" if n % 4 == 0 else f"Line 2: Adds {n}."
    return f"Function {n} adds {n}.\n\nSuspicion score:\n{n % 4}\n\nNotes:\n{notes}"


def triage_answer(payload):
    """Answer the function a triage prompt asks about (its last named one,
    after the examples), taking longer for earlier functions so that later
    answers come back first; ``function_3`` gets HTTP 503."""
    n = int(re.findall(r"function_(\d+)", payload["prompt"])[-1])
    time.sleep(0.005 * (8 - n))
    if n == 3:
        return 503, b"overloaded"
    return 200, json.dumps({"text": triage_text(n)}).encode("utf-8")


class TestTriageWorkers:
    """``triage DIR`` overlaps its calls to a remote model by default and
    prints, byte for byte, what one call at a time prints."""

    @pytest.fixture
    def model(self, monkeypatch, no_proxy):
        monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
        model = LocalModel(threaded=True)
        model.answer = triage_answer
        yield model
        model.close()

    def functions(self, tmp_path, numbers, empty=()):
        directory = tmp_path / "functions"
        directory.mkdir()
        for n in numbers:
            text = "" if n in empty else function_source(n)
            (directory / f"f{n}.c").write_text(text, encoding="utf-8")
        return directory

    def triage(self, capsys, tmp_path, model, directory, *flags):
        config = http_config(tmp_path, model.url)
        return run(capsys, ["--config", str(config), "triage", str(directory), *flags])

    @pytest.mark.parametrize(
        "numbers, empty, code, printed",
        [
            ([0, 1, 2, 4, 5, 6, 7], (), 0, 8),
            ([0, 1, 2, 4, 5, 6, 7], (4,), 1, 3),
            ([0, 1, 2, 3, 4, 5, 6, 7], (), 3, 3),
        ],
        ids=["all-answered", "empty-file-in-the-middle", "failed-call-in-the-middle"],
    )
    def test_default_prints_what_one_worker_prints(
        self, capsys, tmp_path, model, numbers, empty, code, printed
    ):
        directory = self.functions(tmp_path, numbers, empty)
        overlapped = self.triage(capsys, tmp_path, model, directory)
        sequential = self.triage(capsys, tmp_path, model, directory, "--workers", "1")
        assert overlapped == sequential
        assert overlapped[0] == code
        records = [json.loads(line) for line in overlapped[1].splitlines()]
        assert len(records) == printed
        for n, record in zip(numbers, records):
            assert record["path"] == str(directory / f"f{n}.c")
            assert record["summary"] == f"Function {n} adds {n}."
        if empty:
            assert overlapped[2] == f"nlo: {directory / 'f4.c'}: cannot number an empty unit\n"
        if code == 3:
            assert overlapped[2] == "nlo: backend error: backend returned HTTP 503\n"

    @pytest.mark.parametrize("record", [False, True], ids=["http", "replay-record"])
    def test_remote_default_overlaps_calls(self, capsys, tmp_path, model, record):
        directory = self.functions(tmp_path, [0, 1, 2, 4, 5, 6, 7, 8])
        store = ["--backend", "replay", "--record", "--fixtures", str(tmp_path / "store")]
        flags = store if record else []
        code, _out, _err = self.triage(capsys, tmp_path, model, directory, *flags)
        assert code == 0
        assert 1 < model.peak <= 4

    def test_one_worker_keeps_one_call_open(self, capsys, tmp_path, model):
        directory = self.functions(tmp_path, [0, 1, 2, 4])
        assert self.triage(capsys, tmp_path, model, directory, "--workers", "1")[0] == 0
        assert model.peak == 1

    def test_responses_file_pairs_answers_with_files_in_order(self, capsys, tmp_path):
        numbers = [0, 1, 2, 3, 4, 5]
        directory = self.functions(tmp_path, numbers)
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps([triage_text(n) for n in numbers]), encoding="utf-8")
        argv = ["triage", str(directory), "--responses-file", str(responses)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        assert [r["summary"] for r in records] == [f"Function {n} adds {n}." for n in numbers]
        assert [r["score"] for r in records] == [n % 4 for n in numbers]


class TestEval:
    def test_eval_table_and_json(self, capsys, tmp_path, store_dir):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        source = corpus_dir / "one.py"
        source.write_text(SAMPLE, encoding="utf-8")
        unit = SourceUnit.from_text(SAMPLE)
        record(store_dir, build_prompt(unit, default_config()), "2| Add them.")
        json_out = tmp_path / "rows.json"
        code, out, _ = run(
            capsys,
            [
                "eval",
                "--corpus",
                str(corpus_dir),
                "--technique",
                "infilling",
                "--fixtures",
                str(store_dir),
                "--json",
                str(json_out),
            ],
        )
        assert code == 0
        assert "infilling" in out and "1.00" in out
        document = json.loads(json_out.read_text())
        assert document["rows"] == [
            {
                "backend": "default",
                "technique": "infilling",
                "none": 1,
                "minor": 0,
                "major": 0,
                "avg_statements": 1.0,
            }
        ]

    def test_eval_refuses_a_repeated_model_id(self, capsys, tmp_path, store_dir):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "one.py").write_text(SAMPLE, encoding="utf-8")
        argv = ["eval", "--corpus", str(corpus_dir), "--fixtures", str(store_dir)]
        code, out, err = run(capsys, [*argv, "--model-id", "default", "--model-id", "default"])
        assert (code, out) == (1, "")
        assert err.startswith(f"nlo: {corpus_dir}: model id 'default' ")
        assert len(err.splitlines()) == 1

    def test_eval_sends_the_configured_budget(self, capsys, tmp_path):
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "one.py").write_text(SAMPLE, encoding="utf-8")
        config = tmp_path / "nlo.yaml"
        config.write_text("max_output: 3\n", encoding="utf-8")
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps(["2| Add them."]), encoding="utf-8")
        argv = ["--config", str(config), "eval", "--corpus", str(tmp_path / "corpus")]
        argv += ["--technique", "infilling", "--responses-file", str(responses)]
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "exceeds budget 3" in err

    def test_eval_replays_at_the_configured_temperature(self, capsys, tmp_path, store_dir):
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "one.py").write_text(SAMPLE, encoding="utf-8")
        config = tmp_path / "nlo.yaml"
        config.write_text("temperature: 0.5\n", encoding="utf-8")
        prompt = build_prompt(SourceUnit.from_text(SAMPLE), default_config())
        backend = ReplayBackend(FixtureStore(store_dir), model_id="default")
        key = backend.key_for(GenerationRequest(prompt=prompt, temperature=0.5))
        FixtureStore(store_dir).put(key, "2| Add them.")
        argv = ["--config", str(config), "eval", "--corpus", str(tmp_path / "corpus")]
        argv += ["--technique", "infilling", "--fixtures", str(store_dir)]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        assert "1.00" in out


def seed_gen(tmp_path):
    """Each seed writes a command's inputs and returns its argv and the
    (prompt, response) pairs of the model calls it makes, in order."""
    path = tmp_path / "add.py"
    path.write_text(SAMPLE, encoding="utf-8")
    prompt = build_prompt(SourceUnit.from_text(SAMPLE), default_config())
    return ["gen", str(path)], [(prompt, "2| Add the two numbers.")]


def seed_finish(tmp_path):
    path = tmp_path / "add.py"
    path.write_text(SAMPLE, encoding="utf-8")
    unit = SourceUnit.from_text(SAMPLE)
    outline = Outline.of(OutlineStatement(2, "Add the two numbers."))
    sidecar_write(unit, outline, path)
    session = EditSession(
        old_unit=unit, old_outline=outline, current_unit=unit, current_outline=outline
    )
    annotated = render_interleaved(unit, outline).text()
    response = f"No changes needed.\n```\n{annotated}\n```"
    return ["finish", str(path)], [(build_finish_prompt(session), response)]


def seed_split(tmp_path):
    path = tmp_path / "cl.diff"
    path.write_text(SPLIT_DIFF, encoding="utf-8")
    cl = ChangeList(description="demo change", files=parse_unified_diff(SPLIT_DIFF))
    topics_response = "Topics:\n1. Main work\n2. Other changes"
    topics = parse_topics(topics_response)
    calls = [(build_topics_prompt(cl), topics_response)]
    for filediff, response in zip(cl.files, ["6|1| Insert the new line", "4|2| Uppercase"]):
        calls.append((build_sections_prompt(cl.description, filediff, topics), response))
    return ["split", str(path), "--description", "demo change"], calls


def seed_triage(tmp_path):
    from nlo.source_model import C_LIKE_PROFILE

    path = tmp_path / "fn.java"
    code = 'public void a(Context p1) {\n  this.z9.log(p1.getDeviceId());\n}\n'
    path.write_text(code, encoding="utf-8")
    unit = SourceUnit.from_text(code, profile=C_LIKE_PROFILE)
    prompt = build_triage_prompt(unit, load_triage_examples("default"))
    return ["triage", str(path)], [(prompt, TRIAGE_RESPONSE)]


SEEDS = {"gen": seed_gen, "finish": seed_finish, "split": seed_split, "triage": seed_triage}


@pytest.mark.parametrize("command", sorted(SEEDS))
class TestConfiguredRequestSettings:
    """Every model call a command makes carries nlo.yaml's settings."""

    def test_requests_carry_the_configured_temperature(self, capsys, tmp_path, command):
        argv, calls = SEEDS[command](tmp_path)
        store_dir = tmp_path / "fixtures"
        backend = ReplayBackend(FixtureStore(store_dir), model_id="default")
        for prompt, response in calls:
            key = backend.key_for(GenerationRequest(prompt=prompt, temperature=0.5))
            FixtureStore(store_dir).put(key, response)
        config = tmp_path / "nlo.yaml"
        config.write_text("temperature: 0.5\n", encoding="utf-8")
        argv += ["--fixtures", str(store_dir)]
        code, _, err = run(capsys, ["--config", str(config), *argv])
        assert code == 0, err
        # The store holds only keys at 0.5, so at the default temperature
        # the first call already misses.
        code, _, err = run(capsys, argv)
        assert code == 3 and "no recorded response" in err, err

    def test_responses_are_held_to_the_configured_budget(self, capsys, tmp_path, command):
        argv, calls = SEEDS[command](tmp_path)
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps([r for _, r in calls]), encoding="utf-8")
        config = tmp_path / "nlo.yaml"
        config.write_text("max_output: 3\n", encoding="utf-8")
        argv += ["--responses-file", str(responses)]
        code, _, err = run(capsys, ["--config", str(config), *argv])
        assert code == 3
        assert "exceeds budget 3" in err


class TestFixturesCommand:
    def test_add_then_list(self, capsys, tmp_path, store_dir):
        prompt_file = tmp_path / "p.txt"
        prompt_file.write_text("ask me", encoding="utf-8")
        response_file = tmp_path / "r.txt"
        response_file.write_text("answer", encoding="utf-8")
        code, out, _ = run(
            capsys,
            [
                "fixtures",
                "add",
                "--fixtures",
                str(store_dir),
                "--model",
                "m",
                "--prompt-file",
                str(prompt_file),
                "--response-file",
                str(response_file),
            ],
        )
        assert code == 0
        key = out.strip()
        code, out, _ = run(capsys, ["fixtures", "list", "--fixtures", str(store_dir)])
        assert code == 0
        assert out.strip() == key

    @pytest.mark.parametrize("bad", ["--prompt-file", "--response-file"])
    def test_add_non_utf8_file_exits_1(self, capsys, tmp_path, store_dir, bad):
        argv = ["fixtures", "add", "--fixtures", str(store_dir), "--model", "m"]
        for flag in ("--prompt-file", "--response-file"):
            path = tmp_path / flag.strip("-")
            path.write_bytes(b"\xff" if flag == bad else b"ok")
            argv += [flag, str(path)]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.startswith(f"nlo: {tmp_path / bad.strip('-')}: not UTF-8 text")
        assert not store_dir.exists()

    def test_list_and_add_on_a_version_1_store(self, capsys, tmp_path, store_dir):
        store_dir.mkdir()
        index = {"version": 1, "entries": {"b2": {}, "a1": {"model": "m"}}}
        text = json.dumps(index, indent=2, sort_keys=True) + "\n"
        (store_dir / "index.json").write_text(text, encoding="utf-8")
        for key in index["entries"]:
            (store_dir / f"{key}.txt").write_text(key, encoding="utf-8")
        argv = ["fixtures", "list", "--fixtures", str(store_dir)]
        assert run(capsys, argv)[:2] == (0, "a1\nb2\n")
        (tmp_path / "p.txt").write_text("ask", encoding="utf-8")
        (tmp_path / "r.txt").write_text("answer", encoding="utf-8")
        add = ["fixtures", "add", "--fixtures", str(store_dir), "--model", "m"]
        add += ["--prompt-file", str(tmp_path / "p.txt"), "--response-file", str(tmp_path / "r.txt")]
        code, key, _ = run(capsys, add)
        assert code == 0
        keys = sorted(["a1", "b2", key.strip()])
        assert run(capsys, argv)[1] == "".join(f"{k}\n" for k in keys)
        assert (store_dir / "index.json").read_text(encoding="utf-8") == text


def test_two_recording_processes_lose_no_entry(capsys, tmp_path, local_model, monkeypatch):
    # Each process holds its own store object; both record into one directory.
    monkeypatch.setenv("NLO_TEST_KEY", "sekrit")
    local_model.body = json.dumps({"text": "2| Add the two numbers."}).encode("utf-8")
    local_model.delay = 0.02  # keeps both processes recording at the same time
    config, store = http_config(tmp_path, local_model.url), tmp_path / "store"
    corpora = [tmp_path / "a", tmp_path / "b"]
    for corpus in corpora:
        corpus.mkdir()
        for i in range(12):
            source = SAMPLE.replace("add", f"{corpus.name}{i}")
            (corpus / f"f{i}.py").write_text(source, encoding="utf-8")
    head = ["--config", str(config), "eval", "--technique", "infilling"]
    head += ["--backend", "replay", "--fixtures", str(store)]
    path = [str(Path(nlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    recorders = [
        subprocess.Popen(
            [sys.executable, "-m", "nlo.cli", *head, "--record", "--corpus", str(corpus)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for corpus in corpora
    ]
    outputs = [recorder.communicate(timeout=120) for recorder in recorders]
    assert [recorder.returncode for recorder in recorders] == [0, 0], outputs
    assert len(local_model.received) == 24
    assert len(FixtureStore(store).keys()) == 24
    for corpus in corpora:  # a strict replay now hits every request
        assert run(capsys, [*head, "--corpus", str(corpus)])[0] == 0
    assert len(local_model.received) == 24


LONG_UNIT = "def f():\n" + "    x = 1\n" * 1000
ONE_FILE_DIFF = "--- a/x.py\n+++ b/x.py\n@@ -1 +1 @@\n-a\n+b\n"


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"e.py": ""}, ["gen", "e.py"], "e.py: cannot build a prompt for an empty unit"),
        (
            {"long.py": LONG_UNIT},
            ["gen", "--technique", "infilling", "long.py"],
            "long.py: unit has 1001 lines; numbering supports at most 999",
        ),
        (
            {"long.py": LONG_UNIT},
            ["triage", "long.py"],
            "long.py: unit has 1001 lines; numbering supports at most 999",
        ),
        ({"e.py": ""}, ["triage", "e.py"], "e.py: cannot number an empty unit"),
        ({"corpus/notes.txt": "x"}, ["eval", "--corpus", "corpus"], "corpus: corpus is empty"),
        (
            {"cl.diff": ""},
            ["split", "cl.diff", "--description", "d"],
            "cl.diff: change list has no files",
        ),
        (
            {"cl.diff": ONE_FILE_DIFF * 2},
            ["split", "cl.diff", "--description", "d"],
            "cl.diff: change list contains duplicate file paths",
        ),
        (
            {"r.json": "not json"},
            ["gen", "add.py"],
            "config error: responses file r.json: not JSON: Expecting value",
        ),
        (
            {"r.json": "[1]"},
            ["gen", "add.py"],
            "config error: responses file r.json must hold a JSON list of strings",
        ),
    ],
    ids=[
        "gen-empty",
        "gen-infilling-too-long",
        "triage-too-long",
        "triage-empty",
        "eval-no-py-files",
        "split-empty-diff",
        "split-duplicate-path",
        "responses-not-json",
        "responses-not-strings",
    ],
)
def test_unusable_input_exits_1(capsys, tmp_path, monkeypatch, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in {"add.py": SAMPLE, "r.json": '["2| Add."]', **files}.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [*argv, "--responses-file", "r.json"])
    assert (code, out) == (1, "")
    assert err.startswith(f"nlo: {message}")
    assert len(err.splitlines()) == 1


def test_eval_names_an_empty_corpus_file(capsys, tmp_path, monkeypatch):
    # An empty __init__.py is named, not skipped: skipping would change the counts.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "r.json").write_text('["2| Add."]', encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--corpus", "pkg", "--responses-file", "r.json"])
    assert (code, out) == (1, "")
    assert err == "nlo: pkg/__init__.py: cannot build a prompt for an empty unit\n"


class TestUsageErrors:
    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 1

    def test_missing_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["gen"])
        assert exc_info.value.code == 1
