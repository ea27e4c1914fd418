"""Carrying an outline across one edit of its code (``remap_anchors``).

Each case starts from a random unit with distinct lines and an outline on
its valid anchors, then applies one edit: a line changed in place, a line
deleted or a line inserted.  Distinct lines keep the alignment unambiguous;
with two equal lines, which of them was deleted cannot be told apart.
"""

import random
from dataclasses import replace

from nlo.outline import Outline, OutlineStatement, remap_anchors, validate
from nlo.source_model import SourceUnit
from oracles import random_unit

CASES = 3000


def case(seed):
    """A unit with distinct lines, an outline on a random subset of its
    valid anchors, and the rng that picks the edit."""
    rng = random.Random(seed)
    unit = random_unit(rng, max_lines=rng.randint(1, 14))
    unit = SourceUnit(lines=tuple(dict.fromkeys(unit.lines)))
    valid = [
        i for i in range(1, len(unit) + 1)
        if not validate(Outline.of(OutlineStatement(i, "s")), unit)
    ]
    anchors = sorted(rng.sample(valid, rng.randint(0, len(valid))))
    outline = Outline(tuple(OutlineStatement(a, f"Statement {a}.") for a in anchors))
    return rng, unit, outline


def edited(unit, index, lines):
    """``unit`` with its line at 0-based ``index`` replaced by ``lines``."""
    return SourceUnit(lines=unit.lines[:index] + tuple(lines) + unit.lines[index + 1 :])


def remapped(outline, unit, new_unit):
    kept, stale = remap_anchors(outline, unit, new_unit)
    assert validate(kept, new_unit) == []  # no kept statement fails validate
    return kept, stale


def shifted(statements, at, by):
    """``statements`` with every anchor at or below line ``at`` moved by ``by``."""
    return Outline(
        tuple(replace(s, anchor=s.anchor + by * (s.anchor >= at)) for s in statements)
    )


def test_an_edited_anchor_line_keeps_its_statement():
    for seed in range(CASES):
        rng, unit, outline = case(seed)
        if not outline.statements:
            continue
        target = rng.choice(outline.statements)
        # A trailing comment changes the line but not where literals,
        # brackets or continuations lie.
        line = unit.line(target.anchor) + "  # edited"
        new_unit = edited(unit, target.anchor - 1, [line])
        assert remapped(outline, unit, new_unit) == (outline, []), seed


def test_a_deleted_anchor_line_makes_its_statement_stale():
    for seed in range(CASES):
        rng, unit, outline = case(seed)
        if not outline.statements:
            continue
        target = rng.choice(outline.statements)
        kept, stale = remapped(outline, unit, edited(unit, target.anchor - 1, []))
        assert target in stale, seed
        survivors = [s for s in outline if s not in stale]
        assert kept == shifted(survivors, target.anchor, -1), seed


def test_an_insertion_shifts_later_anchors():
    for seed in range(CASES):
        rng, unit, outline = case(seed)
        at = rng.randint(1, len(unit))
        new_unit = edited(unit, at - 1, ["inserted_line = 0", unit.line(at)])
        # The inserted line ends in no backslash, so no statement goes stale.
        assert remapped(outline, unit, new_unit) == (shifted(outline, at, 1), []), seed
