"""Timing parent: runs a plan's steps, each command in a freshly forked child.

Run as ``python perfbench/harness.py PLAN RESULT SECONDS TRACE`` from the
work directory, with ``PYTHONHASHSEED`` fixed and the package importable.
The parent imports ``nlo.cli`` and nothing the package would not import
itself, so every child starts from the heap a real ``nlo`` invocation has
after its imports, and pays for everything else itself.  The child times
``main()`` (wall and CPU time); the parent collects its rusage with
``wait4``, the time the hypervisor stole while it ran (``/proc/stat``), and
compares its stdout, stderr and written files against the plan.

Between commands the parent runs a fixed calibration kernel (a drift
diagnostic; nothing is corrected by it) and, about once a second, measures
the CPU time of a fresh ``python -m nlo.cli --version``.

With TRACE=1 the time is split: the first half runs untraced, the second
half installs ``spans.Tracer`` in each child; span files go to ``traces/``.
"""

import gc
import hashlib
import json
import os
import sys
import time

import nlo.cli

COLD_START_EVERY_S = 1.0
OUT, ERR = ".out/stdout", ".out/stderr"


def calibrate() -> float:
    """A fixed pure-Python kernel; its time tracks the machine, not the code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000


def stolen_ticks() -> int:
    """Clock ticks the hypervisor has taken from this VM's CPUs so far."""
    with open("/proc/stat", "rb") as f:
        return int(f.readline().split()[8])


def file_sha(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def spawn(argv: list[str], stdout_fd: int) -> tuple[float, int]:
    """Fork and exec a fresh interpreter; returns (CPU ms, exit status)."""
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(stdout_fd, 1)
            os.execv(sys.executable, [sys.executable, *argv])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return (usage.ru_utime + usage.ru_stime) * 1000, status


class Runner:
    def __init__(self, plan: dict, tracing_dir: str):
        self.plan = plan
        self.tracing_dir = tracing_dir
        self.records: list[dict] = []
        self.calib: list[float] = []
        self.cold: list[float] = []
        self.failures: list[str] = []
        self.devnull = os.open(os.devnull, os.O_WRONLY)
        self.traced = 0

    def command(self, step: dict, phase: str, trace: bool) -> dict:
        span_file = None
        if trace:
            self.traced += 1
            span_file = os.path.join(self.tracing_dir, f"{self.traced}.jsonl")
        read_end, write_end = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        gc.collect()
        steal0 = stolen_ticks()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            self._child(step, write_end, read_end, span_file, self.traced)
        os.close(write_end)
        _, status, usage = os.wait4(pid, 0)
        wall = (time.perf_counter() - t0) * 1000
        steal = stolen_ticks() - steal0
        with os.fdopen(read_end, "rb") as pipe:
            report = pipe.read()
        record = {
            "kind": step["kind"],
            "phase": phase,
            "at": time.time(),
            "wall_ms": wall,
            "rss_kb": usage.ru_maxrss,
            "stolen_ms": steal * 1000 / os.sysconf("SC_CLK_TCK"),
            "requests": step["requests"],
            "workers": step.get("workers", 1),
            "changed_lines": step.get("changed_lines", 0),
            "span_file": span_file,
        }
        problem = None
        try:
            child = json.loads(report)
            record["ms"] = child["ms"]
            record["cpu_ms"] = child["cpu_ms"]
            problem = self._compare(step, child["code"])
        except (ValueError, KeyError):
            record["ms"] = wall
            problem = f"child exited with status {status} and no report"
        record["failed"] = problem is not None
        if problem:
            self.failures.append(f"{phase} {step['kind']} {' '.join(step['argv'][:2])}: {problem}")
        self.records.append(record)
        return record

    @staticmethod
    def _child(step, write_end, read_end, span_file, command) -> None:
        code = 70
        try:
            os.close(read_end)
            sys.stdout = open(OUT, "w", encoding="utf-8")
            sys.stderr = open(ERR, "w", encoding="utf-8")
            tracer = None
            if span_file:
                import spans

                tracer = spans.Tracer(command)
                tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = nlo.cli.main(step["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
            sys.stderr.flush()
            ms = (time.perf_counter() - t0) * 1000
            cpu_ms = (time.process_time() - c0) * 1000
            if tracer is not None:
                tracer.dump(span_file, ms)
            os.write(write_end, json.dumps({"ms": ms, "cpu_ms": cpu_ms, "code": code}).encode())
        except BaseException:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(0)

    def _compare(self, step: dict, code) -> str | None:
        expect = step["expect"]
        if code != expect["code"]:
            return f"exit code {code}, expected {expect['code']}"
        if not step.get("ok", True):
            return "expected output failed its check"
        if file_sha(OUT) != expect["stdout"]:
            return "stdout differs from the recorded run"
        if file_sha(ERR) != expect["stderr"]:
            return "stderr differs from the recorded run"
        for path, digest in expect["files"].items():
            if file_sha(path) != digest:
                return f"{path} differs from the recorded run"
        return None

    def action(self, step: dict) -> None:
        if step["do"] == "copy":
            with open(step["src"], "rb") as src, open(step["dst"], "wb") as dst:
                dst.write(src.read())
        elif step["do"] == "clear":
            for name in os.listdir(step["dir"]) if os.path.isdir(step["dir"]) else ():
                os.unlink(os.path.join(step["dir"], name))

    def check_store(self, phase: str) -> None:
        expected = self.plan.get("expected_store")
        if expected is None:
            return
        store = "live/store"
        found = {name: file_sha(os.path.join(store, name)) for name in sorted(os.listdir(store))}
        self.records.append({"kind": "store-check", "phase": phase, "failed": found != expected})
        if found != expected:
            self.failures.append(f"{phase}: recorded store differs from the expected store")

    def round(self, steps, phase: str, trace: bool, timed: bool) -> None:
        for step in steps:
            if step["do"] != "cmd":
                self.action(step)
                continue
            self.command(step, phase, trace)
            if timed:
                self.calib.append(calibrate())
                if time.perf_counter() >= self.next_cold:
                    self.cold_start()
                    self.next_cold = time.perf_counter() + COLD_START_EVERY_S
        self.check_store(phase)

    def cold_start(self) -> None:
        ms, status = spawn(["-m", "nlo.cli", "--version"], self.devnull)
        self.cold.append(ms)
        if status != 0:
            self.failures.append(f"cold start exited with status {status}")

    def phase(self, name: str, seconds: float, trace: bool, start_round: int) -> int:
        rounds = self.plan["rounds"]
        index = start_round
        self.next_cold = time.perf_counter()
        deadline = time.perf_counter() + seconds
        while True:
            self.round(rounds[index % len(rounds)], name, trace, timed=True)
            index += 1
            if time.perf_counter() >= deadline:
                return index


def import_times(samples: int) -> list[float]:
    code = (
        "import time\nt = time.perf_counter()\nimport nlo.cli\n"
        "print((time.perf_counter() - t) * 1000)"
    )
    out = []
    for _ in range(samples):
        read_end, write_end = os.pipe()
        spawn(["-c", code], write_end)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            out.append(float(pipe.read()))
    return out


def main() -> int:
    plan_path, result_path, seconds, trace = sys.argv[1:5]
    seconds, trace = float(seconds), trace == "1"
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    os.makedirs(".out", exist_ok=True)
    os.makedirs("traces", exist_ok=True)
    runner = Runner(plan, "traces")
    gc.collect()
    gc.freeze()

    runner.round(plan["rounds"][0], "warmup", False, timed=False)
    runner.cold_start()
    runner.cold.clear()
    if trace:
        next_round = runner.phase("untraced", seconds / 2, False, 1)
        runner.phase("traced", seconds / 2, True, next_round)
    else:
        runner.phase("timed", seconds, False, 1)
    verify = plan.get("verify", [])
    runner.round(verify, "verify", False, timed=False)
    result = {
        "records": runner.records,
        "calib_ms": runner.calib,
        "cold_ms": runner.cold,
        "import_ms": import_times(5) if trace else [],
        "failures": runner.failures,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
