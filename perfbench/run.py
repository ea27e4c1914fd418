"""Offline end-to-end benchmark of the ``nlo`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload edit-loop --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn with one command.

Workloads (closed loops with one client):

* ``edit-loop`` -- one author editing functions: for each function, ``gen``
  (techniques alternating), ``check``, ``render --standalone``, a source
  edit, ``finish --apply``, against one shared replay store.  Per-invocation
  costs dominate: parser, few-shot loading, store open, sidecar I/O.
* ``batch-replay`` -- CI batch commands with ``--workers 1``: ``eval`` (both
  techniques, two model ids), ``triage DIR`` and ``split --json --html`` over
  diffs with thousands of changed lines.  Per-request costs dominate.
* ``record-live`` -- the batch commands with ``--record`` (``--workers 2``
  where the flag exists) against an HTTP stub model with a fixed 10 ms
  latency; each round starts from an empty store, so every request is a miss
  and the store's write path runs.

Each run sets up three times in separate processes (inputs plus a store
recorded through the package's record path) and reports the median as
``setup_s``; checks the recorded outputs (``checks.py``); then runs
``harness.py``, which forks every command from a parent that has only
imported ``nlo.cli``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

End-to-end metrics.  On a shared VM the hypervisor steals CPU time in
bursts (seen here at up to a quarter of the busy time), which swamps
wall-clock medians, so times are measured on clocks that exclude it:

* ``requests_per_s`` -- model calls per second of command wall time (fork
  to reap), less the stolen time ``/proc/stat`` reports meanwhile;
* ``cmd_p50_ms``, ``cmd_tail_ms`` -- CPU time of one command, measured in
  the child around ``main()``; the tail is the highest percentile with at
  least 10 samples beyond it, printed with its sample count;
* ``cold_start_ms`` -- CPU time of a fresh ``python -m nlo.cli --version``;
* ``setup_s`` -- CPU time of one set-up process (median of three);
* ``peak_rss_mb`` -- largest ``ru_maxrss`` of a command child;
* ``prompt_chars_per_request`` -- prompt characters per model call over
  every input of the workload.

Per-layer metrics (``--trace 1``; see ``layers.py``) come from the traced
half of the run.  Besides them: ``harness.calib_ms`` (median calibration
kernel time, a drift diagnostic), ``harness.trace_overhead`` (untraced over
traced ``requests_per_s``), ``harness.span_coverage`` (layer self time over
command time; below 0.9 fails the run) and the per-technique characters per
outline, prompt plus response, from set-up.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import layers
from setup_inputs import STUB_HTTP_CONFIG, stub_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edit-loop", "batch-replay", "record-live")
SETUPS = 3
STUB_DELAY_MS = 10
HARNESS_TIMEOUT_S = 150


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        index = max(math.ceil(p / 100 * n) - 1, 0)
        if n - index - 1 >= 10:
            return p, ordered[index]
    return 50, statistics.median(ordered)


def requests_per_s(records: list[dict]) -> float:
    """Model calls per second of command wall time, less the time the
    hypervisor stole from the VM while the commands ran."""
    seconds = sum(r["wall_ms"] - r["stolen_ms"] for r in records) / 1000
    return sum(r["requests"] for r in records) / seconds


def environment() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        NO_PROXY="127.0.0.1,localhost",
    )
    return env


def run_setups(workload: str, seed: int, work: Path, env) -> tuple[Path, list[float], list[str]]:
    times, problems, plans = [], [], []
    for k in range(SETUPS):
        target = work / f"setup{k}"
        command = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
                   "--seed", str(seed), "--dir", str(target)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up {k} failed with exit code {done.returncode}")
        plans.append((target / "plan.json").read_bytes() + (target / "answers.json").read_bytes())
    if any(p != plans[0] for p in plans):
        problems.append("set-up is not deterministic: the runs recorded different plans")
    for k in range(SETUPS - 1):
        shutil.rmtree(work / f"setup{k}")
    return work / f"setup{SETUPS - 1}", times, problems


def start_stub(seed: int, run_dir: Path, plan: dict, env):
    stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--seed", str(seed),
         "--delay-ms", str(STUB_DELAY_MS), "--severities", ",".join(plan["severities"])],
        stdout=subprocess.PIPE, env=env, cwd=run_dir,
    )
    line = stub.stdout.readline().decode()
    if not line.startswith("PORT "):
        stub.kill()
        stub.wait()
        raise SystemExit("stub model failed to start")
    (run_dir / STUB_HTTP_CONFIG).write_text(stub_config(int(line.split()[1])), encoding="utf-8")
    return stub, int(line.split()[1])


def stub_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def chars(answers: list[dict], step_ids: set) -> tuple[int, int, dict]:
    """Prompt characters and requests over one pass of the timed rounds, and
    per technique (outlines, prompt chars, response chars)."""
    prompt = requests = 0
    per_technique: dict[str, list[int]] = {}
    for entry in answers:
        if entry["step"] not in step_ids:
            continue
        for a in entry["answers"]:
            prompt += a["prompt_chars"]
            requests += 1
            if a["kind"] == "gen":
                t = per_technique.setdefault(a["technique"], [0, 0, 0])
                t[0] += 1
                t[1] += a["prompt_chars"]
                t[2] += a["response_chars"]
    return prompt, requests, per_technique


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Set up, check and time one workload; returns the result object."""
    env = environment()
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run_dir, setup_times, failures = run_setups(workload, seed, work, env)
    run_checks = [not failures]

    plan = json.loads((run_dir / "plan.json").read_text())
    problems = checks.check_plan(run_dir, ROOT / "src" / "nlo" / "data" / "schemas")
    for step_id, problem in sorted(problems.items()):
        failures.append(f"recorded output of step {step_id}: {problem}")
    for step in [s for r in plan["rounds"] for s in r] + plan.get("verify", []):
        if step.get("id") in problems:
            step["ok"] = False
    (run_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    stub = port = None
    if plan.get("expected_store") is not None:
        stub, port = start_stub(seed, run_dir, plan, env)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), "plan.json", "result.json",
             str(seconds), str(int(trace))],
            cwd=run_dir, env=env, timeout=HARNESS_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"harness failed with exit code {done.returncode}")
        stats = stub_stats(port) if stub else None
    finally:
        if stub:
            stub.terminate()
            stub.wait()

    result = json.loads((run_dir / "result.json").read_text())
    failures += result["failures"]
    records = result["records"]
    answers = json.loads((run_dir / "answers.json").read_text())
    round_ids = {s["id"] for r in plan["rounds"] for s in r if s["do"] == "cmd"}
    prompt_chars, requests, per_technique = chars(answers, round_ids)
    if stats is not None:
        # Every round sends the same requests, so the stub's totals are whole
        # multiples of one round's, and every request reached the stub.
        rounds = sum(1 for r in records if r["kind"] == "store-check" and r["phase"] != "verify")
        run_checks.append(
            (stats["requests"], stats["prompt_chars"]) == (rounds * requests, rounds * prompt_chars)
        )
        if not run_checks[-1]:
            failures.append(
                f"stub saw {stats['requests']} requests / {stats['prompt_chars']} chars "
                f"for {rounds} rounds of {requests} / {prompt_chars}"
            )

    timed = [r for r in records if r["phase"] == ("untraced" if trace else "timed") and "ms" in r]
    rps = requests_per_s(timed)
    if trace:
        traced = [r for r in records if r["phase"] == "traced" and "ms" in r]
        traced_rps = requests_per_s(traced)
        metrics = layers.layer_metrics(run_dir, traced, STUB_DELAY_MS)
        # The layers' self times must account for the commands' time.
        run_checks.append(metrics["harness.span_coverage"] >= 0.9)
        if not run_checks[-1]:
            failures.append(f"spans cover {metrics['harness.span_coverage']:.1%} of command time")
        metrics["cli.import_ms"] = statistics.median(result["import_ms"])
        metrics["harness.calib_ms"] = statistics.median(result["calib_ms"])
        metrics["harness.trace_overhead"] = rps / traced_rps
        for technique in ("interleaved", "infilling"):
            n, p, r = per_technique.get(technique, (0, 0, 0))
            metrics[f"generation.chars_per_outline.{technique}"] = (p + r) / n if n else 0.0
            metrics[f"generation.response_chars_per_outline.{technique}"] = r / n if n else 0.0
        infilling = metrics["generation.chars_per_outline.infilling"]
        metrics["generation.chars_per_outline.ratio"] = (
            metrics["generation.chars_per_outline.interleaved"] / infilling if infilling else 0.0
        )
    else:
        latencies = [r["cpu_ms"] for r in timed]
        p, tail_ms = tail(latencies)
        print(f"cmd_tail_ms is p{p} of n={len(latencies)} commands")
        print(f"harness.calib_ms median {statistics.median(result['calib_ms']):.4f} "
              f"over {len(result['calib_ms'])} samples")
        metrics = {
            "requests_per_s": rps,
            "cmd_p50_ms": statistics.median(latencies),
            "cmd_tail_ms": tail_ms,
            "cold_start_ms": statistics.median(result["cold_ms"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(r["rss_kb"] for r in timed) / 1024,
            "prompt_chars_per_request": prompt_chars / requests,
        }
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    checked = [r for r in records if "failed" in r]
    return {
        "correct": not failures,
        "attempted": len(checked) + len(run_checks),
        "failed": sum(r["failed"] for r in checked) + run_checks.count(False),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nlo" / "cli.py").is_file():
        print(f"perfbench: no nlo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload != "all":
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units)
    else:
        reports = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), units)
            for w in WORKLOADS
        }
        report = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in reports.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
