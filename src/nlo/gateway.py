"""Uniform access to a text-completion backend.

Three backends share one contract (a :class:`GenerationRequest` in, response
text out): a configurable HTTP adapter for live models, a scripted backend
serving a canned queue, and a record/replay backend keyed on a content hash
of the request, which makes every pipeline testable offline and
deterministic.

The HTTP adapter posts over a plain socket (:func:`_socket_post`); only
when the environment sets a proxy for the URL's scheme does a request go
through ``urllib`` (:func:`_urllib_post`).  A command that reaches a model
directly therefore loads neither ``http.client`` nor, over ``http://``,
``ssl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .errors import BackendError, BudgetExceededError, ReplayMissError
from .fileio import read_text, write_text_atomic

ROLE_LABELS = {"system": "SYSTEM INSTRUCTIONS:", "user": "USER:", "assistant": "ASSISTANT:"}


@dataclass(frozen=True)
class ChatPrompt:
    """System text plus alternating user/assistant turns.

    Turns must alternate starting with a user turn.  The final turn is either
    a user turn or an empty assistant turn acting as a completion cue.
    """

    system: str
    turns: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        expected = "user"
        for i, (role, _text) in enumerate(self.turns):
            if role not in ("user", "assistant"):
                raise ValueError(f"unknown role {role!r}")
            if role != expected:
                raise ValueError(f"turn {i} must have role {expected!r}, got {role!r}")
            expected = "assistant" if expected == "user" else "user"
        if self.turns and self.turns[-1][0] == "assistant" and self.turns[-1][1]:
            raise ValueError("a trailing assistant turn must be an empty cue")

    def serialize(self) -> str:
        """Flatten the prompt to one labeled block of text.

        Backends without role structure receive exactly this block; it is
        also the canonical byte representation used for fixture hashing.
        """
        sections = [f"{ROLE_LABELS['system']}\n{self.system}"]
        for role, text in self.turns:
            label = ROLE_LABELS[role]
            sections.append(f"{label}\n{text}" if text else label)
        return "\n\n".join(sections)

    def messages(self) -> list[dict[str, str]]:
        """Role/content pairs for chat-shaped HTTP APIs."""
        msgs = [{"role": "system", "content": self.system}]
        for role, text in self.turns:
            if role == "assistant" and not text and (role, text) == self.turns[-1]:
                continue  # the empty cue is implicit in chat APIs
            msgs.append({"role": role, "content": text})
        return msgs


def user_prompt(
    system: str, user_text: str, shots: Iterable[tuple[str, str]] = ()
) -> ChatPrompt:
    """The few-shot prompt every pipeline sends: the demonstration
    ``(user, assistant)`` pairs in ``shots``, then ``user_text``, then an
    empty assistant cue."""
    turns = [turn for user, reply in shots for turn in (("user", user), ("assistant", reply))]
    return ChatPrompt(system=system, turns=(*turns, ("user", user_text), ("assistant", "")))


@dataclass(frozen=True)
class GenerationRequest:
    prompt: ChatPrompt
    temperature: float = 0.0  # 0 requests deterministic greedy decoding
    max_output: int | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


def request_key(backend_id: str, model_id: str, request: GenerationRequest) -> str:
    """Content hash identifying a request for record/replay.

    Keyed on backend id, model id, temperature, and the canonical prompt
    serialization, so recordings made against different models never collide.
    """
    payload = "\x00".join(
        [backend_id, model_id, repr(request.temperature), request.prompt.serialize()]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    backend_id: str
    model_id: str

    def complete(self, request: GenerationRequest) -> str: ...


def complete(request: GenerationRequest, backend: Backend) -> str:
    """Run one completion and enforce the request's output budget."""
    text = backend.complete(request)
    if request.max_output is not None and len(text) > request.max_output:
        raise BudgetExceededError(
            f"response length {len(text)} exceeds budget {request.max_output}"
        )
    return text


def _ask(prompt: ChatPrompt, backend: Backend, temperature: float, max_output: int | None) -> str:
    """The pipelines' one request path: send ``prompt`` with these settings."""
    request = GenerationRequest(prompt=prompt, temperature=temperature, max_output=max_output)
    return complete(request, backend)


class ScriptedBackend:
    """Serves a fixed queue of responses, in order.  Thread-safe."""

    backend_id = "scripted"

    def __init__(self, responses, model_id: str = "scripted"):
        self.model_id = model_id
        self._queue = list(responses)
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            if not self._queue:
                raise BackendError("scripted backend queue is exhausted")
            return self._queue.pop(0)


class CallableBackend:
    """Maps each request to a response via a function of the flat prompt.

    Unlike :class:`ScriptedBackend`, responses do not depend on call order,
    which keeps concurrent fan-out deterministic.
    """

    backend_id = "callable"

    def __init__(self, fn: Callable[[str], str], model_id: str = "callable"):
        self.model_id = model_id
        self._fn = fn

    def complete(self, request: GenerationRequest) -> str:
        return self._fn(request.prompt.serialize())


class FixtureStore:
    """A directory of recorded responses, one self-describing file per request
    hash: ``<key>.rec`` holds the metadata as one line of JSON, then the
    response verbatim.

    Each record is written under a temporary name and renamed into place, so
    any number of threads and processes may record into one store at once
    and readers never see a partial record.  A version-1 store (an
    ``index.json`` plus ``<key>.txt`` files) stays readable; new recordings
    go into ``.rec`` files and never rewrite its index.
    """

    INDEX_NAME = "index.json"  # version 1
    VERSION = 1

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._v1: frozenset[str] = frozenset()
        index = self.root / self.INDEX_NAME
        if index.exists():
            try:
                data = json.loads(read_text(index))
            except OSError as exc:  # unreadable or not UTF-8
                raise BackendError(f"fixture index {exc}") from exc
            except ValueError as exc:
                raise BackendError(f"fixture index {index} is not JSON: {exc}") from exc
            version = data.get("version") if isinstance(data, dict) else None
            if version != self.VERSION:
                raise BackendError(f"fixture index version {version!r} unsupported")
            self._v1 = frozenset(data.get("entries", {}))

    def __contains__(self, key: str) -> bool:
        return key in self._v1 or (self.root / f"{key}.rec").exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self):
        names = os.listdir(self.root) if self.root.is_dir() else []
        return sorted(self._v1.union(n[:-4] for n in names if n.endswith(".rec")))

    def get(self, key: str) -> str:
        path = self.root / f"{key}.rec"
        if key in self._v1 and not path.exists():
            path = self.root / f"{key}.txt"
        try:  # bytes, not read_text: a response replays without newline translation
            text = path.read_bytes().decode("utf-8")
        except FileNotFoundError:
            raise ReplayMissError(key) from None
        except UnicodeDecodeError as exc:
            raise BackendError(f"fixture record {path}: not UTF-8 text: {exc}") from exc
        except OSError as exc:
            raise BackendError(f"fixture record {exc}") from exc
        return text.partition("\n")[2] if path.suffix == ".rec" else text

    def put(self, key: str, response: str, meta: dict | None = None) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        header = json.dumps(meta or {}, sort_keys=True)  # one line: no indent
        write_text_atomic(self.root / f"{key}.rec", f"{header}\n{response}")


class ReplayBackend:
    """Replays recorded responses by request hash.

    In strict mode (no inner backend) an unseen request raises
    :class:`ReplayMissError`.  With ``record_from`` set, misses are forwarded
    to the inner backend and the response is recorded.  The backend presents
    the identity being replayed (``backend_id``/``model_id``), not its own,
    so keys match between recording and replay.
    """

    def __init__(
        self,
        store: FixtureStore,
        backend_id: str = "http",
        model_id: str = "default",
        record_from: Backend | None = None,
    ):
        self.store = store
        self.backend_id = backend_id
        self.model_id = model_id
        self.record_from = record_from

    def key_for(self, request: GenerationRequest) -> str:
        return request_key(self.backend_id, self.model_id, request)

    def complete(self, request: GenerationRequest) -> str:
        key = self.key_for(request)
        try:  # one open per hit; a miss is the missing record
            return self.store.get(key)
        except ReplayMissError:
            if self.record_from is None:
                raise
        response = self.record_from.complete(request)
        self.store.put(
            key,
            response,
            meta={
                "backend": self.backend_id,
                "model": self.model_id,
                "temperature": request.temperature,
            },
        )
        return response


@dataclass
class HttpBackendConfig:
    """Shape of one HTTP completion API; nothing here is hardcoded.

    ``request_template`` is a JSON-shaped template whose string values may
    contain the placeholders ``{model}``, ``{prompt}``, ``{temperature}``,
    ``{max_output}``, and ``{messages}``.  A value that is exactly one
    placeholder is substituted with the typed value (float, int, or message
    list); otherwise placeholders are substituted as text.
    ``response_path`` walks the response JSON to the completion text.
    """

    url: str
    model_id: str
    request_template: dict
    response_path: list
    headers: dict = field(default_factory=dict)
    mode: str = "flat"  # "flat" sends one labeled block; "chat" sends messages


class HttpBackend:
    """Posts each request to a configured JSON-over-HTTP API.

    ``post`` stands in for the transport, :func:`_socket_post` by default;
    it takes ``(url, json=, headers=, timeout=)`` and returns an object with
    ``status_code`` and ``json()``.
    """

    backend_id = "http"

    def __init__(self, config: HttpBackendConfig, post: Callable | None = None):
        self.config = config
        self.model_id = config.model_id
        self._post = _socket_post if post is None else post

    def build_payload(self, request: GenerationRequest):
        values = {
            "model": self.config.model_id,
            "prompt": request.prompt.serialize(),
            "temperature": request.temperature,
            "max_output": request.max_output,
            "messages": request.prompt.messages() if self.config.mode == "chat" else None,
        }
        return _fill_template(self.config.request_template, values)

    def complete(self, request: GenerationRequest) -> str:
        payload = self.build_payload(request)
        try:
            response = self._post(
                self.config.url, json=payload, headers=self.config.headers, timeout=120
            )
        except Exception as exc:  # transport failure
            raise BackendError(f"request failed: {exc}") from exc
        status = getattr(response, "status_code", 200)
        if status >= 400:
            raise BackendError(f"backend returned HTTP {status}")
        try:
            body = response.json()
        except ValueError as exc:  # every JSON decode error is a ValueError
            raise BackendError(f"backend response is not JSON: {exc}") from exc
        try:
            return _walk(body, self.config.response_path)
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                f"response JSON missing path {self.config.response_path}"
            ) from exc


@dataclass(frozen=True)
class _HttpReply:
    """The part of an HTTP response that :meth:`HttpBackend.complete` reads."""

    status_code: int
    body: bytes

    def json(self):
        return json.loads(self.body)


def _socket_post(url, json=None, headers=None, timeout=None):
    """POST a JSON document as one HTTP/1.1 request: the default transport.

    The request carries the bytes ``urllib`` would send (request line,
    headers and body, ``Connection: close``) in one ``sendall`` over a fresh
    connection; ``https`` URLs are wrapped in TLS verified against the
    system CA store (``SSL_CERT_FILE`` overrides it).  The reply body may be
    framed by Content-Length, by chunks or by the connection closing.  An
    HTTP error status is returned, not raised; any other status outside 2xx,
    a redirect included, is raised, since nothing is followed.

    When the environment sets a proxy for the URL's scheme
    (``<scheme>_proxy``, either case) the request goes through
    :func:`_urllib_post`, which speaks to proxies and applies ``NO_PROXY``.
    ``socket`` and ``ssl`` are imported here, so commands that never call a
    model load neither.
    """
    scheme = url.partition(":")[0].lower()
    if any(value for name, value in os.environ.items() if name.lower() == f"{scheme}_proxy"):
        return _urllib_post(url, json=json, headers=headers, timeout=timeout)
    import socket

    host, port, request = _request_bytes(url, json, headers)
    sock = socket.create_connection((host, port), timeout)
    try:
        if scheme == "https":
            import ssl

            context = ssl.create_default_context()
            context.set_alpn_protocols(["http/1.1"])  # as http.client offers
            sock = context.wrap_socket(sock, server_hostname=host)
        sock.sendall(request)
        with sock.makefile("rb") as stream:
            return _read_reply(stream)
    finally:
        sock.close()


_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


def _request_bytes(url: str, document, headers) -> tuple[str, int, bytes]:
    """The host, port and bytes of the POST that ``urllib`` would send for
    this URL, JSON ``document`` and header mapping.

    Header names are title-cased and later names win, as in ``urllib``.  A
    control character or space in the host or path, and a header that could
    split the request, are refused as ``http.client`` refuses them.
    """
    match = re.fullmatch(r"([^/:]+)://([^/?#]*)(.*)", url.rpartition("#")[0] or url, re.S)
    if not match or match[1].lower() not in ("http", "https") or not match[2]:
        raise ValueError(f"unsupported URL {url!r}")
    scheme, netloc, path = match[1].lower(), match[2], match[3] or "/"
    host, colon, port = netloc.rpartition(":")
    if not colon or "]" in port:  # no port, or the colons of an IPv6 address
        host, port = netloc, ""
    if port and not port.isdigit():
        raise ValueError(f"nonnumeric port {port!r}")
    port = int(port) if port else 443 if scheme == "https" else 80
    host = host[1:-1] if host[:1] == "[" and host[-1:] == "]" else host
    if re.search(r"[\x00-\x20\x7f]", host + path):
        raise ValueError(f"URL {url!r} holds a space or control character")
    body = json.dumps(document).encode("utf-8")
    fields = {
        "Accept-Encoding": "identity",
        "Content-Length": str(len(body)),
        "Host": netloc,
        "User-Agent": _USER_AGENT,
        "Content-Type": "application/json",
    }
    fields.update((name.title(), value) for name, value in (headers or {}).items())
    fields["Connection"] = "close"
    lines = [f"POST {path} HTTP/1.1\r\n".encode("ascii")]
    for name, value in fields.items():
        name_bytes, value_bytes = name.encode("ascii"), str(value).encode("latin-1")
        if not re.fullmatch(rb"[^:\s][^:\r\n]*", name_bytes) or re.search(
            rb"\n(?![ \t])|\r(?![ \t\n])", value_bytes
        ):
            raise ValueError(f"invalid header {name!r}")  # the value may be a secret
        lines.append(name_bytes + b": " + value_bytes + b"\r\n")
    return host, port, b"".join(lines) + b"\r\n" + body


_MAX_LINE = 65536  # http.client's limit on one status, header or chunk-size line


def _read_line(stream) -> bytes:
    line = stream.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError("reply line too long")
    return line


def _read_fields(stream) -> dict[bytes, bytes]:
    """Header (or trailer) fields up to the blank line, lower-cased names;
    the first of repeated names wins."""
    fields: dict[bytes, bytes] = {}
    for _ in range(100):
        line = _read_line(stream)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.strip().lower(), value.strip())
    raise ValueError("more than 100 reply header lines")


def _read_exact(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise ValueError(f"reply body cut short: {len(data)} of {size} bytes")
    return data


def _read_reply(stream) -> _HttpReply:
    """Parse one HTTP/1.x reply from a binary file object."""
    status = 100
    while status == 100:  # an interim 100 Continue precedes the real reply
        line = _read_line(stream)
        if not line:
            raise ConnectionError("connection closed without a reply")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/") or not parts[1].isdigit():
            raise ValueError(f"malformed status line {line[:80]!r}")
        status = int(parts[1])
        fields = _read_fields(stream)
    if status >= 400:
        return _HttpReply(status, b"")
    if not 200 <= status < 300:
        raise ValueError(f"HTTP {status} reply not followed")
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        while size := _chunk_size(_read_line(stream)):
            chunks.append(_read_exact(stream, size))
            _read_line(stream)  # the CRLF that ends the chunk
        _read_fields(stream)  # trailers
        return _HttpReply(status, b"".join(chunks))
    length = fields.get(b"content-length")
    if length is None:  # delimited by the server closing the connection
        return _HttpReply(status, stream.read())
    if not length.isdigit():
        raise ValueError(f"bad Content-Length {length[:80]!r}")
    return _HttpReply(status, _read_exact(stream, int(length)))


def _chunk_size(line: bytes) -> int:
    digits = line.partition(b";")[0].strip()  # drop chunk extensions
    if not re.fullmatch(rb"[0-9A-Fa-f]+", digits):
        raise ValueError(f"bad chunk size line {line[:80]!r}")
    return int(digits, 16)


def _urllib_post(url, json=None, headers=None, timeout=None):
    """POST a JSON document through ``urllib.request``: the transport when
    the environment sets a proxy for the URL's scheme.

    Imports happen here so that commands that never go through a proxy never
    load ``http.client`` or ``ssl``.  Proxies come from the environment
    (``HTTP(S)_PROXY``, ``NO_PROXY``), redirects are followed as ``urllib``
    follows them, and TLS is verified against the system CA store.  An HTTP
    error status is returned, not raised.
    """
    import json as codec  # the ``json`` keyword of the post contract shadows the module
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url,
        data=codec.dumps(json).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    # One connection per request (urllib sends Connection: close): a reused
    # keep-alive connection to a server that writes headers and body apart
    # stalls each reply on Nagle + delayed ACK (~45 ms instead of ~2 ms).
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return _HttpReply(reply.status, reply.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        return _HttpReply(exc.code, b"")


def _fill_template(node, values):
    if isinstance(node, dict):
        return {k: _fill_template(v, values) for k, v in node.items()}
    if isinstance(node, list):
        return [_fill_template(v, values) for v in node]
    if isinstance(node, str):
        bare = node[1:-1]
        if node.startswith("{") and node.endswith("}") and bare in values:
            return values[bare]
        out = node
        for name, value in values.items():
            if value is not None and not isinstance(value, list):
                out = out.replace("{" + name + "}", str(value))
        return out
    return node


def _walk(body, path):
    for step in path:
        body = body[step]
    if not isinstance(body, str):
        raise TypeError(f"expected text at response path, got {type(body).__name__}")
    return body
