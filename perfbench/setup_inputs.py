"""Benchmark set-up: generate one workload's inputs and record its store.

Run as ``python perfbench/setup_inputs.py --workload NAME --seed N --dir DIR``
with the package importable.  It writes the seeded inputs under DIR, runs
every model-calling command of the workload once through ``nlo.cli.main``
with the replay backend recording from the synthetic model
(``ReplayBackend(record_from=CallableBackend(...))``), and writes
``DIR/plan.json``: the timed loop's steps with the outputs each command must
reproduce, plus what the model injected, for the output checks.

It runs in its own process so that set-up never warms the timing parent.
All paths in commands are relative to DIR, which is the commands' working
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import threading
from pathlib import Path

import synth

MODELS = ("m-alpha", "m-beta")
TECHNIQUES = ("interleaved", "infilling")
DESCRIPTION = "Speed up value computation across the service modules"

# Workload sizes.  Each is chosen so a run's set-up stays a few seconds:
# recording is O(n^2) in the store size at the seed.
EDIT_FUNCTIONS = 240
BATCH_FUNCTIONS = 200
BATCH_DECOMPILED = 200
BATCH_DIFFS = (("alpha", 16, 100), ("beta", 12, 120), ("gamma", 20, 60))
LIVE_FUNCTIONS = 12
LIVE_DECOMPILED = 12
LIVE_DIFFS = (("live", 4, 60),)
STUB_HTTP_CONFIG = "live/nlo.yaml"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Recorder:
    """Runs commands in-process against a recording replay backend."""

    def __init__(self, root: Path, model: synth.SyntheticModel):
        self.root = root
        self.model = model
        self.answers: list[dict] = []
        self._lock = threading.Lock()
        self.golden: list[dict] = []

    def respond(self, prompt: str) -> str:
        response, expectation = self.model.answer(prompt)
        expectation["prompt_chars"] = len(prompt)
        expectation["response_chars"] = len(response)
        with self._lock:
            self.answers.append(expectation)
        return response

    def make_backend(self, settings):
        from nlo.gateway import CallableBackend, FixtureStore, ReplayBackend

        return ReplayBackend(
            FixtureStore(settings.fixtures),
            backend_id=settings.backend_id,
            model_id=settings.model,
            record_from=CallableBackend(self.respond, model_id=settings.model),
        )

    def install(self) -> None:
        import nlo.cli
        import nlo.config

        original = nlo.config.make_backend
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nlo" and getattr(module, "make_backend", None) is original:
                module.make_backend = self.make_backend

    def run(self, kind: str, argv: list[str], files=(), **meta) -> dict:
        """Run one command, returning its step with the outputs to reproduce."""
        import nlo.cli

        before = len(self.answers)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nlo.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        files = {f: sha((self.root / f).read_bytes()) if (self.root / f).exists() else None
                 for f in files}
        answers = self.answers[before:]
        if meta.get("workers", 1) > 1:  # fan-out answers in a fixed order
            answers.sort(key=lambda a: json.dumps(a, sort_keys=True))
        return self._step(kind, argv, code, out.getvalue(), err.getvalue(), files, answers, meta)

    def expect(self, kind: str, argv: list[str], stdout: str, **meta) -> dict:
        """A step for a command that calls no model, with its output worked
        out from the model's answers instead of running it at set-up."""
        return self._step(kind, argv, 0, stdout, "", {}, [], meta)

    def _step(self, kind, argv, code, stdout, stderr, files, answers, meta) -> dict:
        index = len(self.golden)
        gold = self.root / "golden"
        gold.mkdir(exist_ok=True)
        (gold / f"{index}.out").write_text(stdout, encoding="utf-8")
        (gold / f"{index}.err").write_text(stderr, encoding="utf-8")
        self.golden.append({"step": index, "kind": kind, "answers": answers, **meta})
        return {
            "do": "cmd",
            "kind": kind,
            "argv": argv,
            "id": index,
            "requests": len(answers),
            "expect": {
                "code": code,
                "stdout": sha(stdout.encode("utf-8")),
                "stderr": sha(stderr.encode("utf-8")),
                "files": files,
            },
            **meta,
        }


def copy_step(root: Path, src: str, dst: str) -> dict:
    shutil.copyfile(root / src, root / dst)
    return {"do": "copy", "src": src, "dst": dst}


def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def setup_edit_loop(root: Path, seed: int, rec: Recorder) -> dict:
    sources = synth.python_functions(seed, "edit", EDIT_FUNCTIONS)
    rounds = []
    for i, text in enumerate(sources):
        write(root / f"edit/pristine/f_{i}.py", text)
        write(root / f"edit/edited/f_{i}.py", synth.edit_function(text, seed))
    for i, text in enumerate(sources):
        work = f"edit/f_{i}.py"
        side = work + ".nlo.json"
        store = ["--fixtures", "edit/store"]
        steps = [copy_step(root, f"edit/pristine/f_{i}.py", work)]
        steps.append(
            rec.run("gen", ["gen", work, "--technique", TECHNIQUES[i % 2], *store],
                    files=[side], source=work)
        )
        outline = rec.answers[-1]["outline"]
        steps.append(
            rec.expect("check", ["check", work], f"ok: {len(outline)} statements, fresh\n",
                       source=work)
        )
        bullets = "".join(f"- {t}\n" for _, t in outline)
        steps.append(
            rec.expect("render", ["render", work, "--standalone"],
                       text.splitlines()[0] + "\n" + bullets, source=work)
        )
        steps.append(copy_step(root, f"edit/edited/f_{i}.py", work))
        steps.append(
            rec.run("finish", ["finish", work, "--apply", *store], files=[work, side],
                    source=work)
        )
        rounds.append(steps)
    return {"rounds": rounds}


def batch_inputs(root: Path, seed: int, prefix: str, n_py: int, n_c: int, diffs) -> dict:
    for i, text in enumerate(synth.python_functions(seed, prefix, n_py)):
        write(root / f"{prefix}/corpus/f_{i}.py", text)
    for i, text in enumerate(synth.c_functions(seed, n_c)):
        write(root / f"{prefix}/decompiled/m_{i}.c", text)
    changed = {}
    for tag, n_files, per_file in diffs:
        text, positions = synth.unified_diff(seed, tag, n_files, per_file)
        write(root / f"{prefix}/diffs/{tag}.diff", text)
        changed[tag] = positions
    return changed


def batch_commands(rec: Recorder, prefix: str, diffs, changed, models, workers, head, tail):
    """Steps for eval, triage and one split per diff; ``head`` holds global
    options, ``tail(kind)`` the store options of each command."""

    def eval_argv(models):
        return [
            *head, "eval", "--corpus", f"{prefix}/corpus",
            *[a for t in TECHNIQUES for a in ("--technique", t)],
            *[a for m in models for a in ("--model-id", m)],
            "--workers", str(workers), *tail("eval"),
        ]

    answers = []
    if len(models) > 1:
        # One recording eval per model: an eval with several --model-id values
        # opens one store per model on the same directory, and each store's
        # index rewrite drops the others' entries.
        for model in models:
            before = len(rec.answers)
            rec.run("record-eval", eval_argv([model]))
            answers += rec.answers[before:]
    steps = [rec.run("eval", eval_argv(models), workers=workers)]
    if answers:
        steps[0]["requests"] = len(answers)
        rec.golden[-1]["answers"] = answers
    steps.append(
        rec.run("triage", [*head, "triage", f"{prefix}/decompiled", *tail("triage")])
    )
    for tag, _, _ in diffs:
        outputs = [f"{prefix}/out/{tag}.json", f"{prefix}/out/{tag}.html"]
        steps.append(
            rec.run(
                "split",
                [*head, "split", f"{prefix}/diffs/{tag}.diff", "--description", DESCRIPTION,
                 "--json", outputs[0], "--html", outputs[1],
                 "--workers", str(workers), *tail("split")],
                files=outputs,
                workers=workers,
                changed=changed[tag],
                changed_lines=sum(len(p) for p in changed[tag].values()),
            )
        )
    return steps


def setup_batch_replay(root: Path, seed: int, rec: Recorder) -> dict:
    changed = batch_inputs(root, seed, "batch", BATCH_FUNCTIONS, BATCH_DECOMPILED, BATCH_DIFFS)
    (root / "batch/out").mkdir(parents=True, exist_ok=True)
    steps = batch_commands(
        rec, "batch", BATCH_DIFFS, changed, MODELS, 1, [],
        lambda kind: ["--fixtures", f"batch/store_{kind}"],
    )
    return {"rounds": [steps]}


def setup_record_live(root: Path, seed: int, rec: Recorder) -> dict:
    changed = batch_inputs(root, seed, "live", LIVE_FUNCTIONS, LIVE_DECOMPILED, LIVE_DIFFS)
    (root / "live/out").mkdir(parents=True, exist_ok=True)
    # Replaced by the runner with the stub's address; set-up never sends.
    write(root / STUB_HTTP_CONFIG, stub_config(9))
    head = ["--config", STUB_HTTP_CONFIG]
    # Two --model-id values in one recording eval would give two stores the
    # same directory (see batch_commands); one model keeps the store exact.
    steps = batch_commands(
        rec, "live", LIVE_DIFFS, changed, MODELS[:1], 2, head,
        lambda kind: ["--fixtures", "live/store", "--record"],
    )
    store = root / "live/store"
    expected_store = {p.name: sha(p.read_bytes()) for p in sorted(store.iterdir())}
    # A strict replay over the recorded store must hit every request.
    verify = batch_commands(
        rec, "live", LIVE_DIFFS, changed, MODELS[:1], 2, head,
        lambda kind: ["--fixtures", "live/store"],
    )
    for recorded, step in zip(steps, verify):
        if step["requests"]:
            raise RuntimeError("strict replay reached the model")
        step["kind"] = "replay-" + step["kind"]
        step["answers_of"] = recorded["id"]
    shutil.rmtree(store)
    return {
        "rounds": [[{"do": "clear", "dir": "live/store"}, *steps]],
        "verify": verify,
        "expected_store": expected_store,
    }


def stub_config(port: int) -> str:
    return json.dumps(
        {
            "http": {
                "url": f"http://127.0.0.1:{port}/complete",
                "mode": "flat",
                "request_template": {
                    "model": "{model}",
                    "prompt": "{prompt}",
                    "temperature": "{temperature}",
                },
                "response_path": ["text"],
            }
        },
        indent=2,
    )


WORKLOADS = {
    "edit-loop": (setup_edit_loop, ("minor",)),
    "batch-replay": (setup_batch_replay, ("minor", "major")),
    "record-live": (setup_record_live, ("minor", "major")),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    root = Path(args.dir).resolve()
    root.mkdir(parents=True, exist_ok=True)
    build, severities = WORKLOADS[args.workload]
    model = synth.SyntheticModel(args.seed, severities)
    rec = Recorder(root, model)
    rec.install()
    with contextlib.chdir(root):
        plan = build(root, args.seed, rec)
    plan.update(workload=args.workload, seed=args.seed, severities=list(severities))
    (root / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True), encoding="utf-8")
    (root / "answers.json").write_text(json.dumps(rec.golden, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
