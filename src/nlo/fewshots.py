"""Loading few-shot example sets from paired files.

A set is a directory of pairs: ``<name>.py`` (or another source extension)
holding the bare code, and ``<name>.outline`` holding the gold outline in
the canonical ``N| text`` serialization.  Sets are loadable by name (shipped
under package data) or by directory path.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .fileio import read_text
from .generation import FewShotExample, _scan_records
from .outline import Outline, OutlineStatement
from .source_model import (
    C_LIKE_PROFILE,
    LanguageProfile,
    SourceUnit,
    _split_lines,
    profile_for_path,
)

DEFAULT_SET = "default"

_GOLD_LINE = re.compile(r"(\d+)\| ?(.*)")


def parse_gold_outline(text: str) -> Outline:
    """Strict reader for hand-written outline files; malformed lines raise."""
    records, issues = _scan_records(text, _GOLD_LINE, None)
    if issues:
        lineno = issues[0].location
        line = _split_lines(text)[lineno - 1]
        raise ValueError(f"outline line {lineno} is malformed: {line!r}")
    return Outline(statements=tuple(OutlineStatement(a, t) for a, t, _ in records))


def _set_dir(name_or_path: str, kind: str, noun: str) -> Path:
    """``name_or_path`` if it is a directory, else the shipped ``kind`` set of
    that name; ``noun`` names the set when there is neither."""
    for directory in (Path(name_or_path), Path(__file__).parent / "data" / kind / name_or_path):
        if directory.is_dir():
            return directory
    raise FileNotFoundError(f"no {noun} named {name_or_path!r}")


def fewshot_set_dir(name_or_path: str) -> Path:
    return _set_dir(name_or_path, "fewshots", "few-shot set")


def load_fewshot_set(
    name_or_path: str = DEFAULT_SET, profiles: dict[str, LanguageProfile] | None = None
) -> tuple[FewShotExample, ...]:
    """The set's examples, each source file read with the profile its name
    picks under ``profiles`` (:func:`~nlo.source_model.profile_for_path`)."""
    directory = fewshot_set_dir(name_or_path)
    names = sorted(os.listdir(directory))
    examples = []
    for name in names:
        if not name.endswith(".outline"):
            continue
        source_name = _matching_source(name, names)
        profile = profile_for_path(source_name, profiles)
        unit = SourceUnit.from_text(read_text(directory / source_name), profile=profile)
        gold = parse_gold_outline(read_text(directory / name))
        examples.append(FewShotExample(unit=unit, gold=gold))
    if not examples:
        raise FileNotFoundError(f"few-shot set {name_or_path!r} is empty")
    return tuple(examples)


def _matching_source(outline_name: str, names: list[str]) -> str:
    """The single ``<stem>.<ext>`` entry of ``names`` besides ``<stem>.outline``."""
    prefix = outline_name[: -len("outline")]
    candidates = [
        n for n in names if n.startswith(prefix) and not n.endswith(".outline")
    ]
    if len(candidates) != 1:
        raise FileNotFoundError(
            f"expected exactly one source file for {outline_name}, "
            f"found {len(candidates)}"
        )
    return candidates[0]


def load_triage_examples(name_or_path: str = DEFAULT_SET) -> tuple[tuple[SourceUnit, str], ...]:
    """Triage demonstrations: (decompiled unit, wire-format prediction) pairs."""
    directory = _set_dir(name_or_path, "triage", "triage example set")
    names = sorted(os.listdir(directory))
    pairs = []
    for name in names:
        if not name.endswith(".pred"):
            continue
        code_name = name[: -len("pred")] + "code"
        if code_name not in names:
            raise FileNotFoundError(f"missing code file for {name}")
        unit = SourceUnit.from_text(read_text(directory / code_name), profile=C_LIKE_PROFILE)
        pairs.append((unit, read_text(directory / name).rstrip("\n")))
    if not pairs:
        raise FileNotFoundError(f"triage example set {name_or_path!r} is empty")
    return tuple(pairs)
