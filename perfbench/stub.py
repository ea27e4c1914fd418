"""A stub model server: the synthetic model behind HTTP/1.1 with keep-alive.

Run as ``python perfbench/stub.py --seed N --delay-ms D --severities minor,major``.
It binds an ephemeral port on 127.0.0.1, prints ``PORT <n>`` on stdout, and
serves until terminated:

* ``POST /complete`` with ``{"prompt": ...}`` sleeps a fixed D ms, the
  simulated model latency, then answers ``{"text": <response>}``;
* ``GET /stats`` answers ``{"requests": n, "prompt_chars": c}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import synth


def make_handler(model: synth.SyntheticModel, delay_s: float):
    lock = threading.Lock()
    stats = {"requests": 0, "prompt_chars": 0}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _send(self, status: int, document: dict) -> None:
            body = json.dumps(document).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            with lock:
                snapshot = dict(stats)
            self._send(200, snapshot)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            prompt = json.loads(self.rfile.read(length))["prompt"]
            time.sleep(delay_s)
            text = model(prompt)
            with lock:
                stats["requests"] += 1
                stats["prompt_chars"] += len(prompt)
            self._send(200, {"text": text})

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--severities", required=True)
    args = parser.parse_args()
    model = synth.SyntheticModel(args.seed, args.severities.split(","))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(model, args.delay_ms / 1000))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
