"""Carrying an outline across an in-place edit of a unit whose lines repeat.

An edit leaves the lines before and after it as they were, so each of those
keeps its place even when the edited line has an unedited twin elsewhere.
"""

from hypothesis import given, settings, strategies as st

from nlo.outline import Outline, OutlineStatement, diff_outlines, remap_anchors
from nlo.source_model import SourceUnit

# Plain statements: each is a valid anchor, and a trailing comment changes no
# literal, bracket or continuation around it.  Three of them repeat often.
POOL = ("x = 1", "total += x", "print(x)")


def test_editing_one_of_two_equal_lines_keeps_both_statements():
    unit = SourceUnit(lines=("total += x", "x = 1", "x = 1"))
    outline = Outline.of(OutlineStatement(2, "Set x."), OutlineStatement(3, "Set x again."))
    new_unit = SourceUnit(lines=("total += x", "x = 1  # edited", "x = 1"))
    assert remap_anchors(outline, unit, new_unit) == (outline, [])
    assert diff_outlines(outline, outline, unit, new_unit).removed == ()


@st.composite
def edited_units(draw):
    """A unit drawn from ``POOL``, an outline on some of its lines, and the
    unit with one line edited in place."""
    lines = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=9))
    anchors = draw(st.sets(st.integers(1, len(lines))))
    at = draw(st.integers(0, len(lines) - 1))
    edited = [*lines[:at], lines[at] + "  # edited", *lines[at + 1 :]]
    outline = Outline(tuple(OutlineStatement(a, f"Statement {a}.") for a in sorted(anchors)))
    return outline, SourceUnit(lines=tuple(lines)), SourceUnit(lines=tuple(edited))


@settings(max_examples=1000, deadline=None)
@given(edited_units())
def test_an_in_place_edit_keeps_every_statement_at_its_line(case):
    outline, unit, new_unit = case
    assert remap_anchors(outline, unit, new_unit) == (outline, [])
