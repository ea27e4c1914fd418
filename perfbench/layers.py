"""Per-layer metrics from the traced commands' span files.

A layer is one module of ``nlo``.  A span's self time is its duration minus
the part of it covered by its child spans; a layer's self time is the sum
over its spans.  Times per command divide by the number of traced commands,
times per call (``_us`` metrics) by the number of calls.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from spans import LAYERS


def _union_ns(intervals) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Totals:
    def __init__(self):
        self.commands = 0
        self.command_ms = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.dur_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.store_entries: list[int] = []
        self.issues = [0, 0]
        self.model_wait_ns = 0
        self.busy_ns = 0
        self.pool_ns = 0
        self.split_commands = 0
        self.changed_lines = 0

    def add(self, path, record: dict) -> None:
        with open(path, encoding="utf-8") as f:
            header = json.loads(f.readline())
            spans = [json.loads(line) for line in f]
        self.commands += 1
        self.command_ms += header["command_ms"]
        for name, n in header["counts"].items():
            self.counts[name] += n
        names = {}
        children = defaultdict(list)
        for _, sid, parent, name, start, end in spans:
            children[parent].append((start, end))
            names[sid] = name
        pools = set()
        http = []
        for _, sid, parent, name, start, end in spans:
            layer = name.split(".")[0]
            self.calls[layer] += 1
            self.calls[name] += 1
            self.dur_ns[name] += end - start
            covered = _union_ns(
                (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if s < end and e > start
            )
            self.self_ns[layer] += end - start - covered
            if name == "evalharness.evaluate_corpus":
                pools.add(sid)
                self.pool_ns += (end - start) * record["workers"]
            if name == "gateway.HttpBackend.complete":
                http.append((start, end))
        for _, sid, parent, name, start, end in spans:
            if name == "generation.generate_outline" and parent in pools:
                self.busy_ns += end - start
        self.model_wait_ns += _union_ns(http)
        for sid, values in header["attrs"]:
            name = names[sid]
            if name == "gateway.FixtureStore.__init__":
                self.store_entries.append(values[0])
            else:
                self.issues[0] += values[0]
                self.issues[1] += values[1]
        if record["kind"] == "split":
            self.split_commands += 1
            self.changed_lines += record["changed_lines"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(root, records: list[dict], stub_delay_ms: float) -> dict[str, float]:
    """Metrics over the traced ``records``; span files are relative to ``root``.
    ``stub_delay_ms`` is the stub model's fixed latency, which ``gateway.http_ms``
    leaves out."""
    t = Totals()
    for record in records:
        t.add(root / record["span_file"], record)
    n = t.commands
    requests = t.calls["gateway.complete"]

    def per_command_ms(*names):
        return _ratio(sum(t.dur_ns[x] for x in names) / 1e6, n)

    def per_call_us(*names):
        return _ratio(sum(t.dur_ns[x] for x in names) / 1e3, sum(t.calls[x] for x in names))

    def per_call_ms(*names):
        return per_call_us(*names) / 1000

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = _ratio(t.calls[layer], n)
        m[f"{layer}.self_ms"] = _ratio(t.self_ns[layer] / 1e6, n)
    http_ms = per_call_ms("gateway.HttpBackend.complete")
    m.update(
        {
            "cli.parser_ms": per_command_ms("cli.build_parser", "cli.parse_args"),
            "fewshots.load_ms": per_command_ms(
                "fewshots.load_fewshot_set", "fewshots.load_triage_examples"
            ),
            "gateway.store_open_ms": per_command_ms("gateway.FixtureStore.__init__"),
            "gateway.store_entries": statistics.fmean(t.store_entries) if t.store_entries else 0.0,
            "sidecar.write_ms": per_command_ms("sidecar.sidecar_write"),
            "sidecar.read_ms": per_command_ms("sidecar.sidecar_read"),
            "outline.remap_ms": per_command_ms("outline.remap_anchors"),
            "maintenance.finish_ms": per_command_ms("maintenance.finish_changes"),
            "generation.build_prompt_us": per_call_us("generation.build_prompt"),
            "generation.parse_us": per_call_us(
                "generation.parse_interleaved", "generation.parse_infilling"
            ),
            "gateway.request_key_us": per_call_us("gateway.request_key"),
            "gateway.store_get_us": per_call_us("gateway.FixtureStore.get"),
            "triage.parse_us": per_call_us("triage.parse_triage"),
            "source_model.classify_calls": _ratio(
                t.counts["source_model.classify_line"], requests
            ),
            "outline.validate_calls": _ratio(t.calls["outline.validate"], requests),
            "vsplit.assemble_ms": per_call_ms("vsplit.assemble_split"),
            "vsplit.report_ms": per_call_ms("vsplit.render_split_report"),
            "vsplit.changed_lines": _ratio(t.changed_lines, t.split_commands),
            "gateway.store_put_ms": per_call_ms("gateway.FixtureStore.put"),
            "gateway.http_ms": max(http_ms - stub_delay_ms, 0.0) if http_ms else 0.0,
            "gateway.model_wait_ms": _ratio(t.model_wait_ns / 1e6, n),
            "gateway.backend_init_ms": per_call_ms("gateway.HttpBackend.__init__"),
            "evalharness.workers_busy_ratio": _ratio(t.busy_ns, t.pool_ns),
            "gateway.replay_hit_ratio": _ratio(
                t.calls["gateway.FixtureStore.get"], t.calls["gateway.ReplayBackend.complete"]
            ),
            "generation.issues_minor": _ratio(
                t.issues[0],
                t.calls["generation.parse_interleaved"] + t.calls["generation.parse_infilling"],
            ),
            "generation.issues_major": _ratio(
                t.issues[1],
                t.calls["generation.parse_interleaved"] + t.calls["generation.parse_infilling"],
            ),
            "harness.span_coverage": _ratio(
                sum(t.self_ns[layer] for layer in LAYERS) / 1e6, t.command_ms
            ),
        }
    )
    return m
