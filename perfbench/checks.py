"""Output checks on the recorded run of each command.

Set-up records every command's outputs once; the timed run must reproduce
them byte for byte.  These checks decide whether the recorded outputs are
right, against what the synthetic model injected:

* each ``gen`` outline and its issue kinds equal the model's;
* ``check`` prints ``ok``; ``render --standalone`` lists the outline;
* ``finish --apply`` adds the model's statement to file and sidecar;
* ``eval`` bucket counts and statement averages match the injected faults;
* triage records validate against ``triage-record.schema.json`` and carry the
  model's score, notes and parse errors;
* split JSON validates against ``split.schema.json``, every changed line lands
  in exactly one section, and each file's issue kinds match the model's.

:func:`check_plan` returns ``{step id: problem}`` for the commands that fail.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import jsonschema

_ISSUE = re.compile(r"issue\[(minor|major)\] (?:(\S+): )?(\w+): ")


def _issue_kinds(stderr: str) -> list[tuple[str | None, str]]:
    return [(m.group(2), m.group(3)) for m in _ISSUE.finditer(stderr)]


def check_plan(root: Path, schemas: Path) -> dict[int, str]:
    answers = {a["step"]: a for a in json.loads((root / "answers.json").read_text())}
    plan = json.loads((root / "plan.json").read_text())
    steps = [s for r in plan["rounds"] for s in r if s["do"] == "cmd"] + plan.get("verify", [])
    validators = {
        name: jsonschema.Draft202012Validator(
            json.loads((schemas / f"{name}.schema.json").read_text())
        )
        for name in ("split", "triage-record")
    }
    last_gen: dict[str, dict] = {}
    problems: dict[int, str] = {}
    for step in steps:
        kind = step["kind"].removeprefix("replay-")
        answer = answers[step.get("answers_of", step["id"])]
        if kind == "gen":
            last_gen[step["source"]] = answer["answers"][0] if answer["answers"] else None
        out = (root / "golden" / f"{step['id']}.out").read_text(encoding="utf-8")
        err = (root / "golden" / f"{step['id']}.err").read_text(encoding="utf-8")
        if step["expect"]["code"] != 0:
            problems[step["id"]] = f"exit code {step['expect']['code']}: {err.strip()[:200]}"
            continue
        checker = CHECKS[kind]
        problem = checker(root, step, answer, out, err, validators, last_gen)
        if problem:
            problems[step["id"]] = problem
    return problems


def _gen(root, step, answer, out, err, validators, last_gen):
    (model,) = answer["answers"]
    expected = "".join(f"{a}| {t}\n" for a, t in model["outline"])
    if out != expected:
        return "gen outline differs from the model's"
    if [k for _, k in _issue_kinds(err)] != model["issues"]:
        return f"gen issues {_issue_kinds(err)} differ from injected {model['issues']}"
    return None


def _check(root, step, answer, out, err, validators, last_gen):
    if not out.startswith("ok:"):
        return f"check printed {out.strip()!r}"
    return None


def _render(root, step, answer, out, err, validators, last_gen):
    if last_gen[step["source"]] is None:
        return "gen never reached the model"
    outline = last_gen[step["source"]]["outline"]
    pristine = root / step["source"].replace("edit/", "edit/pristine/")
    first = pristine.read_text(encoding="utf-8").splitlines()[0]
    expected = first + "\n" + "".join(f"- {t}\n" for _, t in outline)
    if out != expected:
        return "standalone render differs from the outline"
    return None


def _finish(root, step, answer, out, err, validators, last_gen):
    (model,) = answer["answers"]
    added = model["added"]
    if f"+{' ' * 4}#* Record the edit marker for the next step." not in out.splitlines():
        return "finish diff lacks the model's new statement"
    sidecar = json.loads((root / (step["source"] + ".nlo.json")).read_text())
    lines = (root / step["source"]).read_text(encoding="utf-8").splitlines()
    anchors = {s["text"]: s["line"] for s in sidecar["statements"]}
    line = anchors.get("Record the edit marker for the next step.")
    if line is None or lines[line - 1].strip() != added:
        return "finish --apply did not anchor the new statement at the edited line"
    return None


def _eval(root, step, answer, out, err, validators, last_gen):
    expected: dict[str, list] = {}
    for model in answer["answers"]:
        bucket = model["severity"] or "none"
        counts = expected.setdefault(model["technique"], [0, 0, 0, 0])
        counts[("none", "minor", "major").index(bucket)] += 1
        counts[3] += len(model["outline"])
    models = [step["argv"][i + 1] for i, a in enumerate(step["argv"]) if a == "--model-id"]
    rows = [line.split() for line in out.splitlines()[2:]]
    want = []
    for model_id in sorted(models):
        for technique in sorted(expected):
            none, minor, major, statements = (c // len(models) for c in expected[technique])
            total = none + minor + major
            want.append([model_id, technique, str(none), str(minor), str(major),
                         f"{statements / total:.2f}"])
    if rows != want:
        return f"eval table {rows} differs from the injected faults {want}"
    return None


def _triage(root, step, answer, out, err, validators, last_gen):
    lines = out.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    models = answer["answers"]
    if len(records) != len(models):
        return f"{len(records)} triage records for {len(models)} functions"
    histogram: dict[str, int] = {}
    for record, model in zip(records, models):
        errors = list(validators["triage-record"].iter_errors(record))
        if errors:
            return f"triage record fails its schema: {errors[0].message}"
        outline = [[n["line"], n["text"]] for n in record["outline"]]
        if (record["score"], record["summary"], outline, record["errors"], record["consistent"]) != (
            model["score"], model["summary"], model["outline"], model["errors"], True
        ):
            return f"triage record for {record['path']} differs from the model's"
        histogram[str(model["score"])] = histogram.get(str(model["score"]), 0) + 1
    if json.loads(lines[-1]) != {"score_histogram": histogram}:
        return "triage histogram differs"
    return None


def _split(root, step, answer, out, err, validators, last_gen):
    json_path = step["argv"][step["argv"].index("--json") + 1]
    html_path = step["argv"][step["argv"].index("--html") + 1]
    document = json.loads((root / json_path).read_text())
    errors = list(validators["split"].iter_errors(document))
    if errors:
        return f"split JSON fails its schema: {errors[0].message}"
    for entry in document["files"]:
        lines = [n for s in entry["sections"] for n in s["changed_lines"]]
        if sorted(lines) != step["changed"][entry["path"]] or len(set(lines)) != len(lines):
            return f"changed lines of {entry['path']} are not partitioned"
    if {f["path"] for f in document["files"]} != set(step["changed"]):
        return "split JSON does not list every file"
    injected = sorted(
        (m["path"], k) for m in answer["answers"] if m["kind"] == "sections" for k in m["issues"]
    )
    if sorted(_issue_kinds(err)) != injected:
        return f"split issues {_issue_kinds(err)} differ from injected {injected}"
    if not (root / html_path).read_text().startswith("<!DOCTYPE html>"):
        return "split HTML report missing"
    return None


CHECKS = {
    "gen": _gen,
    "check": _check,
    "render": _render,
    "finish": _finish,
    "eval": _eval,
    "triage": _triage,
    "split": _split,
}
