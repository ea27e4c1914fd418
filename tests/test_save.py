"""A command that writes FILE or its sidecar loses no outline when a write fails.

``cli._save`` writes the sidecar before FILE.  A failed or refused sidecar
write then leaves FILE byte-identical, and a failed FILE write leaves a
sidecar that already holds the outline and the code it belongs to.  The fault
injection enumerates each command's crash points, in the way ALICE does for
multi-file updates (Pillai et al., OSDI 2014), limited to the process's own
writes: the k-th ``write_text_atomic`` call fails at its rename.
"""

import importlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import pytest

from nlo import fileio
from nlo.cli import main
from nlo.outline import Outline, OutlineStatement, extract
from nlo.sidecar import sidecar_path, sidecar_read, sidecar_write
from nlo.source_model import SourceUnit

CODE = "def add(a, b):\n    result = a + b\n    return result\n"
STARRED = "def add(a, b):\n    #* Add them.\n    result = a + b\n    return result\n"
EDITED = "def add(a, b):\n    result = a + b\n    result += 1\n    return result\n"
EDITED_STARRED = EDITED.replace("    result = a + b\n", "    #* Add them.\n    result = a + b\n")
FINISHED = "def add(a, b):\n    #* Add them, plus one.\n    result = a + b + 1\n    return result\n"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


class TestRefusedOrFailedSidecar:
    @pytest.mark.parametrize(
        "text, message",
        [
            (
                'def f():\n    #* Say what f does.\n    """Doc."""\n    return 1\n',
                "anchor 2 is inside the docstring",
            ),
            (
                "def f(x):\n    y = x + \\\n    #* Two.\n        2\n    return y\n",
                "anchor 3 follows a line ending in a backslash",
            ),
        ],
        ids=["docstring", "continuation"],
    )
    def test_extract_in_place_refused_keeps_the_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "a.py"
        path.write_text(text, encoding="utf-8")
        code, err = run(capsys, ["extract", str(path), "--in-place"])
        assert code == 2
        assert message in err
        assert path.read_text(encoding="utf-8") == text
        assert not sidecar_path(path).exists()

    def test_extract_in_place_to_an_unwritable_sidecar_keeps_the_file(self, capsys, tmp_path):
        path = tmp_path / "a.py"
        path.write_text(STARRED, encoding="utf-8")
        sidecar_path(path).mkdir()
        code, err = run(capsys, ["extract", str(path), "--in-place"])
        assert code == 1
        assert err.startswith("nlo: ")
        assert path.read_text(encoding="utf-8") == STARRED
        assert list(tmp_path.rglob("*.tmp")) == []


def write_sidecar(path, text, anchor, statement):
    sidecar_write(SourceUnit.from_text(text), Outline.of(OutlineStatement(anchor, statement)), path)


def with_responses(directory, responses):
    """The argv tail that has the scripted backend answer with ``responses``."""
    path = directory / "r.json"
    path.write_text(json.dumps(responses), encoding="utf-8")
    return ["--responses-file", str(path)]


def gen_case(directory, path):
    path.write_text(CODE, encoding="utf-8")
    return ["gen", str(path), *with_responses(directory, ["2| Add them."])]


def gen_in_place_case(directory, path):
    return [*gen_case(directory, path), "--in-place"]


def render_in_place_case(directory, path):
    path.write_text(CODE, encoding="utf-8")
    write_sidecar(path, CODE, 2, "Add them.")
    return ["render", str(path), "--in-place"]


def extract_in_place_case(directory, path):
    path.write_text(STARRED, encoding="utf-8")
    return ["extract", str(path), "--in-place"]


def finish_apply_case(edited):
    def case(directory, path):
        write_sidecar(path, CODE, 2, "Add them.")
        path.write_text(edited, encoding="utf-8")
        response = f"Added one.\n```\n{FINISHED}```"
        return ["finish", str(path), "--apply", *with_responses(directory, [response])]

    return case


@dataclass(frozen=True)
class Case:
    name: str
    setup: Callable  # (directory, FILE) -> argv; writes FILE and its inputs
    writes: int  # write_text_atomic calls of a successful run


CASES = [
    Case("gen", gen_case, 1),
    Case("gen-in-place", gen_in_place_case, 1),
    Case("render-in-place", render_in_place_case, 1),
    Case("extract-in-place", extract_in_place_case, 2),
    Case("finish-apply", finish_apply_case(EDITED), 2),
    Case("finish-apply-star-comments", finish_apply_case(EDITED_STARRED), 2),
]


def outlines_held(path):
    """Each (code, outline) pair that can be read back: FILE's code with the
    outline in its star comments, and the sidecar's snapshot with its statements."""
    unit, outline = extract(SourceUnit.from_text(path.read_text(encoding="utf-8")))
    held = {(unit.lines, tuple((s.anchor, s.text) for s in outline))}
    if sidecar_path(path).exists():
        record, _stale = sidecar_read(path)
        held.add((record.snapshot, tuple((line, text) for line, text, _ in record.statements)))
    return held


def files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def fail_at(monkeypatch, k):
    """Make the k-th ``write_text_atomic`` call, as ``cli`` and ``sidecar`` look
    it up, fail at its rename (k=0: none fails); return the list of calls."""
    calls = []
    real = fileio.write_text_atomic

    def refuse(*args):
        raise OSError("injected failure")

    def write(path, text):
        calls.append(path)
        if len(calls) != k:
            return real(path, text)
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            return real(path, text)

    for module in ("nlo.cli", "nlo.sidecar"):
        monkeypatch.setattr(importlib.import_module(module), "write_text_atomic", write)
    return calls


@pytest.mark.parametrize(
    "case, k",
    [(case, k) for case in CASES for k in range(1, case.writes + 1)],
    ids=lambda value: value.name if isinstance(value, Case) else f"write{value}",
)
def test_a_failed_write_loses_no_outline(capsys, tmp_path, monkeypatch, case, k):
    """Either nothing changed, or the outline the command was writing can be
    read back with its code; no temporary file is left."""
    clean, faulty = tmp_path / "clean", tmp_path / "faulty"
    clean.mkdir()
    faulty.mkdir()
    argv = case.setup(clean, clean / "a.py")
    calls = fail_at(monkeypatch, 0)
    assert main(argv) == 0
    assert len(calls) == case.writes
    writing = {pair for pair in outlines_held(clean / "a.py") if pair[1]}
    assert writing

    monkeypatch.undo()
    argv = case.setup(faulty, faulty / "a.py")
    before = files(faulty)
    capsys.readouterr()
    fail_at(monkeypatch, k)
    code, err = run(capsys, argv)
    assert code == 1
    assert err.endswith("nlo: injected failure\n")
    assert files(faulty) == before or outlines_held(faulty / "a.py") & writing
    assert list(tmp_path.rglob("*.tmp")) == []
