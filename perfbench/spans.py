"""Boundary tracing for one command child.

:meth:`Tracer.install` wraps the public functions and methods of every layer
module of ``nlo`` and rebinds them wherever they are bound: in the defining
module and under every name a ``from ... import`` bound elsewhere.  Each call
records a span (command id, span id, parent id, name, start, end) in memory;
per-line helpers only count calls.  :meth:`Tracer.dump` writes the spans as
JSONL, preceded by one header line with the counters and a few call
attributes.

Spans started on a worker thread with no open span of their own take the
main thread's innermost open span as parent, so fan-out stays attributed.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = (
    "cli",
    "config",
    "fewshots",
    "source_model",
    "generation",
    "outline",
    "sidecar",
    "gateway",
    "maintenance",
    "vsplit",
    "triage",
    "evalharness",
)

# Per-line helpers: called thousands of times per command, so counted only.
COUNTED = {
    "source_model.classify_line",
    "source_model.SourceUnit.line",
    "source_model.SourceUnit.classify",
    "source_model.indentation",
    "source_model.leading_whitespace",
    "outline.statement_comment_line",
    "vsplit.Hunk.header",
}


class Tracer:
    def __init__(self, command: int):
        self.command = command
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.attrs: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    # Installation ---------------------------------------------------------------

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"nlo.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}")
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        cli = sys.modules["nlo.cli"]
        cli._Parser.parse_args = self._wrap(argparse.ArgumentParser.parse_args, "cli.parse_args")
        for name, module in list(sys.modules.items()):
            if name != "nlo" and not name.startswith("nlo."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def _wrap_class(self, cls, prefix: str) -> None:
        generated_init = hasattr(cls, "__dataclass_fields__")
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" and not generated_init):
                continue
            label = f"{prefix}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(raw.__func__, label)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, label)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, label))

    def _wrap(self, fn, name: str):
        if name in COUNTED:
            counts = self.counts
            counts[name] = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        hook = ATTRIBUTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((tracer.command, sid, parent, name, start, end))
            if hook is not None:
                tracer.attrs.append((sid, hook(args, kwargs, result)))
            return result

        return traced

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # Output --------------------------------------------------------------------

    def dump(self, path: str, command_ms: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            header = {"counts": self.counts, "attrs": self.attrs, "command_ms": command_ms}
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _parse_attrs(args, kwargs, result):
    return [sum(i.severity == "minor" for i in result.issues),
            sum(i.severity == "major" for i in result.issues)]


def _store_open_attrs(args, kwargs, result):
    return [len(args[0])]


ATTRIBUTES = {
    "generation.parse_interleaved": _parse_attrs,
    "generation.parse_infilling": _parse_attrs,
    "gateway.FixtureStore.__init__": _store_open_attrs,
}
