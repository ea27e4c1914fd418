import pytest

from nlo.errors import DanglingCommentError, PlacementError
from nlo.outline import (
    Outline,
    OutlineStatement,
    diff_outlines,
    extract,
    remap_anchors,
    render_interleaved,
    render_standalone,
    validate,
)
from nlo.source_model import C_LIKE_PROFILE, SourceUnit

from conftest import TOUR_ANNOTATED, TOUR_STATEMENTS


def outline_of(*pairs):
    return Outline(statements=tuple(OutlineStatement(a, t) for a, t in pairs))


class TestValidate:
    def test_tour_outline_is_valid(self, tour_unit, tour_outline):
        assert validate(tour_outline, tour_unit) == []

    def test_anchor_zero_out_of_range(self, tour_unit):
        violations = validate(outline_of((0, "x")), tour_unit)
        assert [v.kind for v in violations] == ["out_of_range"]

    def test_anchor_past_end_out_of_range(self, tour_unit):
        violations = validate(outline_of((17, "x")), tour_unit)
        assert [v.kind for v in violations] == ["out_of_range"]

    def test_blank_line_anchor(self, tour_unit):
        violations = validate(outline_of((7, "x")), tour_unit)
        assert [v.kind for v in violations] == ["blank_line"]

    def test_docstring_anchor(self):
        unit = SourceUnit.from_text('def f():\n  """Doc."""\n  return 1')
        violations = validate(outline_of((2, "x")), unit)
        assert [v.kind for v in violations] == ["docstring"]

    def test_duplicate_anchor_not_increasing(self, tour_unit):
        violations = validate(outline_of((2, "a"), (2, "b")), tour_unit)
        assert [v.kind for v in violations] == ["not_increasing"]

    def test_decreasing_anchors(self, tour_unit):
        violations = validate(outline_of((3, "a"), (2, "b")), tour_unit)
        assert [v.kind for v in violations] == ["not_increasing"]

    def test_empty_text(self, tour_unit):
        violations = validate(outline_of((2, "   ")), tour_unit)
        assert [v.kind for v in violations] == ["empty_text"]

    def test_empty_outline_is_valid(self, tour_unit):
        assert validate(Outline(), tour_unit) == []

    def test_backslash_continued_line_anchor(self):
        unit = SourceUnit.from_text("def f(a):\n    x = a + \\\n        1\n    return x\n")
        violations = validate(outline_of((3, "Add one.")), unit)
        assert [v.kind for v in violations] == ["continuation"]

    def test_c_like_macro_continuation_anchor(self):
        unit = SourceUnit.from_text(
            "#define SQ(x) \\\n  ((x) * (x))\nint f(int a) {\n  return SQ(a);\n}\n",
            profile=C_LIKE_PROFILE,
        )
        assert [v.kind for v in validate(outline_of((2, "Square.")), unit)] == ["continuation"]
        assert validate(outline_of((1, "Square."), (3, "Use it.")), unit) == []


class TestRenderInterleaved:
    def test_tour_example(self, tour_unit, tour_outline):
        rendered = render_interleaved(tour_unit, tour_outline)
        assert rendered.text() == TOUR_ANNOTATED

    def test_empty_outline_is_identity(self, tour_unit):
        assert render_interleaved(tour_unit, Outline()).lines == tour_unit.lines

    def test_insertion_into_sq(self, sq_unit):
        rendered = render_interleaved(
            sq_unit, outline_of((2, "Squares the input."))
        )
        assert rendered.lines == (
            "def sq(x):",
            "  #* Squares the input.",
            "  return x**2",
        )

    def test_verified_statement_uses_bang(self, sq_unit):
        outline = Outline.of(OutlineStatement(2, "Squares the input.", verified=True))
        rendered = render_interleaved(sq_unit, outline)
        assert rendered.lines[1] == "  #*! Squares the input."

    def test_original_lines_survive_byte_identically(self, tour_unit, tour_outline):
        rendered = render_interleaved(tour_unit, tour_outline)
        remaining = [
            line
            for line in rendered.lines
            if not line.lstrip().startswith("#*")
        ]
        assert tuple(remaining) == tour_unit.lines

    def test_tab_indentation_copied(self):
        unit = SourceUnit.from_text("def f():\n\treturn 1")
        rendered = render_interleaved(unit, outline_of((2, "Done.")))
        assert rendered.lines[1] == "\t#* Done."

    def test_invalid_outline_raises_with_violations(self, tour_unit):
        with pytest.raises(PlacementError) as exc_info:
            render_interleaved(tour_unit, outline_of((7, "blank target")))
        assert [v.kind for v in exc_info.value.violations] == ["blank_line"]

    def test_c_like_comment_token(self):
        unit = SourceUnit.from_text(
            "int f() {\n  return 1;\n}", profile=__import__("nlo").C_LIKE_PROFILE
        )
        rendered = render_interleaved(unit, outline_of((2, "Give back one.")))
        assert rendered.lines[1] == "  //* Give back one."


class TestRenderStandalone:
    def test_tour_structure(self, tour_unit, tour_outline):
        text = render_standalone(tour_unit, tour_outline)
        lines = text.splitlines()
        assert lines[0] == "def nearest_neighbor_tour(nodes):"
        bullets = lines[1:]
        assert len(bullets) == 6
        top = [b for b in bullets if b.startswith("- ")]
        nested = [b for b in bullets if b.startswith("  - ")]
        assert len(top) == 4 and len(nested) == 2
        # The two nested bullets sit under the loop statement.
        loop_at = bullets.index("- Iteratively add all nodes to the tour.")
        assert bullets[loop_at + 1] == "  - Mark the current node as visited."
        assert (
            bullets[loop_at + 2]
            == "  - Extend the tour by going to the nearest unvisited neighbor."
        )

    def test_flat_when_equal_indentation(self, sq_unit):
        text = render_standalone(sq_unit, outline_of((2, "Squares the input.")))
        assert text == "def sq(x):\n- Squares the input."

    def test_empty_outline_gives_signature_only(self, tour_unit):
        assert (
            render_standalone(tour_unit, Outline())
            == "def nearest_neighbor_tour(nodes):"
        )


class TestExtract:
    def test_tour_annotated(self, tour_annotated_unit, tour_unit):
        bare, outline = extract(tour_annotated_unit)
        assert bare.lines == tour_unit.lines
        assert outline.statements == TOUR_STATEMENTS

    def test_regular_comments_untouched(self):
        unit = SourceUnit.from_text("# setup\nx = 1\n# work\ny = 2")
        bare, outline = extract(unit)
        assert bare.lines == unit.lines
        assert outline.statements == ()

    def test_round_trip(self, tour_unit, tour_outline):
        rendered = render_interleaved(tour_unit, tour_outline)
        assert extract(rendered) == (tour_unit, tour_outline)

    def test_verified_flag_round_trips(self, sq_unit):
        outline = Outline.of(OutlineStatement(2, "Squares.", verified=True))
        assert extract(render_interleaved(sq_unit, outline)) == (sq_unit, outline)

    def test_consecutive_star_comments_join(self):
        unit = SourceUnit.from_text("#* First half.\n#* Second half.\nx = 1")
        bare, outline = extract(unit)
        assert bare.lines == ("x = 1",)
        assert outline.statements == (
            OutlineStatement(1, "First half. Second half."),
        )

    def test_comment_above_blank_anchors_past_it(self):
        unit = SourceUnit.from_text("x = 1\n#* Next part.\n\ny = 2")
        bare, outline = extract(unit)
        assert bare.lines == ("x = 1", "", "y = 2")
        assert outline.statements == (OutlineStatement(3, "Next part."),)

    def test_dangling_comment_raises(self):
        unit = SourceUnit.from_text("x = 1\n#* And then?")
        with pytest.raises(DanglingCommentError):
            extract(unit)

    def test_dangling_before_trailing_blanks_raises(self):
        unit = SourceUnit.from_text("x = 1\n#* And then?\n\n  ")
        with pytest.raises(DanglingCommentError):
            extract(unit)


# One anchor line edited in place: ``y = x + 1`` becomes ``y = x + 2``.
EDIT_OLD = "def f(x):\n    y = x + 1\n    return y\n"
EDIT_NEW = "def f(x):\n    y = x + 2\n    return y\n"
EDIT_OUTLINE = outline_of((2, "Shift x by one."))


class TestRemapAnchors:
    def test_identity(self, tour_unit, tour_outline):
        remapped, stale = remap_anchors(tour_outline, tour_unit, tour_unit)
        assert remapped == tour_outline
        assert stale == []

    def test_insertion_shifts_anchors(self, tour_unit, tour_outline):
        new_unit = SourceUnit(
            lines=("# header", "# more header") + tour_unit.lines,
            profile=tour_unit.profile,
        )
        remapped, stale = remap_anchors(tour_outline, tour_unit, new_unit)
        assert stale == []
        assert remapped.anchors() == tuple(a + 2 for a in tour_outline.anchors())

    def test_deleted_anchor_goes_stale(self, tour_unit, tour_outline):
        lines = list(tour_unit.lines)
        del lines[1]  # the distance-matrix line, anchor 2
        new_unit = SourceUnit(lines=tuple(lines), profile=tour_unit.profile)
        remapped, stale = remap_anchors(tour_outline, tour_unit, new_unit)
        assert [s.text for s in stale] == [
            "Compute all pairwise distances between nodes."
        ]
        assert len(remapped) == 5

    def test_edited_anchor_line_keeps_its_statement(self):
        old_unit = SourceUnit.from_text(EDIT_OLD)
        new_unit = SourceUnit.from_text(EDIT_NEW)
        remapped, stale = remap_anchors(EDIT_OUTLINE, old_unit, new_unit)
        assert stale == []
        assert remapped == EDIT_OUTLINE


class TestDiffOutlines:
    def test_self_diff_is_empty(self, tour_unit, tour_outline):
        diff = diff_outlines(tour_outline, tour_outline, tour_unit, tour_unit)
        assert diff.is_empty()

    def test_edited_anchor_line_is_no_outline_change(self):
        old_unit = SourceUnit.from_text(EDIT_OLD)
        new_unit = SourceUnit.from_text(EDIT_NEW)
        assert diff_outlines(EDIT_OUTLINE, EDIT_OUTLINE, old_unit, new_unit).is_empty()

    def test_changed_wording_at_same_section(self):
        unit = SourceUnit.from_text(
            "def total_items(path):\n"
            "  data = read_rows(path)\n"
            "  total = 0\n"
            "  for row in data:\n"
            "    total += row.quantity\n"
            "  return total"
        )
        old = outline_of((2, "Read the rows."), (3, "Compute the total quantity."))
        new = outline_of((2, "Read the rows."), (3, "Compute the total value."))
        diff = diff_outlines(old, new, unit, unit)
        assert diff.added == () and diff.removed == ()
        assert [(a.text, b.text) for a, b in diff.changed] == [
            ("Compute the total quantity.", "Compute the total value.")
        ]

    def test_extra_statement_is_added(self, tour_unit, tour_outline):
        extended = Outline(
            statements=tour_outline.statements + (OutlineStatement(16, "Return."),)
        )
        diff = diff_outlines(tour_outline, extended, tour_unit, tour_unit)
        assert [s.text for s in diff.added] == ["Return."]
        assert diff.removed == () and diff.changed == ()

    def test_stale_statement_is_removed(self, tour_unit, tour_outline):
        lines = list(tour_unit.lines)
        del lines[1]
        new_unit = SourceUnit(lines=tuple(lines), profile=tour_unit.profile)
        new_outline, _ = remap_anchors(tour_outline, tour_unit, new_unit)
        diff = diff_outlines(tour_outline, new_outline, tour_unit, new_unit)
        assert [s.anchor for s in diff.removed] == [2]
        assert diff.added == () and diff.changed == ()
