import pytest

from nlo.errors import DanglingCommentError, FinishParseError
from nlo.gateway import ScriptedBackend
from nlo.maintenance import (
    EditSession,
    build_finish_prompt,
    finish_changes,
    parse_finish_response,
    unified_diff_text,
)
from nlo.outline import Outline, OutlineStatement, remap_anchors, render_interleaved
from nlo.source_model import PYTHON_PROFILE, SourceUnit
from nlo.vsplit import apply_file_diff, parse_unified_diff

# A small file-reading function used as the edit-session subject.
OLD_CODE = """\
def total_value(path):
  \"\"\"Read an inventory JSON file and total it.\"\"\"
  items = json.load(open(path))
  total = 0
  for item in items:
    total += item['quantity']
  return total"""

OLD_OUTLINE = Outline.of(
    OutlineStatement(3, "Read the inventory file."),
    OutlineStatement(4, "Compute the total quantity of items."),
)


def session_with_current(current_unit, current_outline):
    return EditSession(
        old_unit=SourceUnit.from_text(OLD_CODE),
        old_outline=OLD_OUTLINE,
        current_unit=current_unit,
        current_outline=current_outline,
    )


def noop_session():
    unit = SourceUnit.from_text(OLD_CODE)
    return session_with_current(unit, OLD_OUTLINE)


class TestEditSession:
    def test_valid_session_constructs(self):
        noop_session()

    def test_invalid_current_outline_rejected(self):
        unit = SourceUnit.from_text(OLD_CODE)
        bad = Outline.of(OutlineStatement(99, "Out of range."))
        with pytest.raises(ValueError):
            session_with_current(unit, bad)


class TestParseFinishResponse:
    def test_single_block(self):
        response = "changes: renamed x\n```\n#* X\npass\n```"
        reasoning, unit, outline = parse_finish_response(response, PYTHON_PROFILE)
        assert reasoning == "changes: renamed x"
        assert unit.lines == ("pass",)
        assert outline.statements == (OutlineStatement(1, "X"),)

    def test_last_of_two_blocks_wins(self):
        response = (
            "first attempt:\n```\npass\n```\nactually:\n```\n#* Y\nreturn 1\n```"
        )
        reasoning, unit, outline = parse_finish_response(response, PYTHON_PROFILE)
        assert reasoning.endswith("actually:")
        assert unit.lines == ("return 1",)
        assert outline.statements == (OutlineStatement(1, "Y"),)

    def test_no_block_raises(self):
        with pytest.raises(FinishParseError):
            parse_finish_response("no code here", PYTHON_PROFILE)

    def test_trailing_star_comment_raises(self):
        response = "```\npass\n#* dangling\n```"
        with pytest.raises(DanglingCommentError):
            parse_finish_response(response, PYTHON_PROFILE)

    def test_reasoning_plus_render_recovers_pair(self, tour_unit, tour_outline):
        rendered = render_interleaved(tour_unit, tour_outline).text()
        response = f"Here is what changed.\n```\n{rendered}\n```"
        reasoning, unit, outline = parse_finish_response(response, PYTHON_PROFILE)
        assert reasoning == "Here is what changed."
        assert unit == tour_unit
        assert outline == tour_outline


class TestUnifiedDiffText:
    def test_identical_units_give_headers_only(self):
        unit = SourceUnit.from_text("a\nb")
        diff = unified_diff_text(unit, unit, "f.py")
        assert diff == "--- a/f.py\n+++ b/f.py"

    def test_single_line_replacement(self):
        a = SourceUnit.from_text("keep\nold\nkeep2")
        b = SourceUnit.from_text("keep\nnew\nkeep2")
        diff = unified_diff_text(a, b, "f.py")
        lines = diff.splitlines()
        assert lines[0] == "--- a/f.py"
        assert lines[1] == "+++ b/f.py"
        assert lines[2].startswith("@@ ")
        assert lines.count("-old") == 1
        assert lines.count("+new") == 1

    def test_three_context_lines(self):
        a = SourceUnit(lines=tuple(f"l{i}" for i in range(1, 11)))
        b_lines = list(a.lines)
        b_lines[4] = "changed"
        b = SourceUnit(lines=tuple(b_lines))
        diff = unified_diff_text(a, b, "f.py")
        assert "@@ -2,7 +2,7 @@" in diff

    def test_applying_diff_reproduces_target(self, tour_unit):
        new_lines = list(tour_unit.lines)
        new_lines[2] = "  current_node = start_node"
        new_lines.insert(0, "import scipy")
        b = SourceUnit(lines=tuple(new_lines))
        diff = unified_diff_text(tour_unit, b, "tour.py")
        (filediff,) = parse_unified_diff(diff)
        assert apply_file_diff(list(tour_unit.lines), filediff) == list(b.lines)


class TestFinishChanges:
    def test_prompt_contains_both_pairs(self):
        prompt = build_finish_prompt(noop_session())
        user_text = prompt.turns[0][1]
        assert user_text.count("#* Read the inventory file.") == 2
        assert "old version" in user_text and "current version" in user_text

    def test_prompt_keeps_the_statement_of_an_edited_anchor_line(self):
        old_unit = SourceUnit.from_text("def f(x):\n    y = x + 1\n    return y")
        current_unit = SourceUnit.from_text("def f(x):\n    y = x + 2\n    return y")
        old_outline = Outline.of(OutlineStatement(2, "Shift x by one."))
        current_outline, stale = remap_anchors(old_outline, old_unit, current_unit)
        session = EditSession(old_unit, old_outline, current_unit, current_outline)
        user_text = build_finish_prompt(session).turns[0][1]
        assert stale == []
        assert "    #* Shift x by one.\n    y = x + 2" in user_text

    def test_echo_backend_is_fixed_point(self):
        session = noop_session()
        annotated = render_interleaved(
            session.current_unit, session.current_outline
        ).text()
        backend = ScriptedBackend([f"No changes needed.\n```\n{annotated}\n```"])
        result = finish_changes(session, backend, path="inv.py")
        assert result.new_unit == session.current_unit
        assert result.new_outline == session.current_outline
        assert result.diff == "--- a/inv.py\n+++ b/inv.py"
        assert result.reasoning == "No changes needed."

    def test_outline_edit_propagates_to_code(self):
        # The user edited one outline word (quantity -> value); the scripted
        # response finishes the job by changing the summed field too.
        current_outline = Outline.of(
            OutlineStatement(3, "Read the inventory file."),
            OutlineStatement(4, "Compute the total value of items."),
        )
        session = session_with_current(SourceUnit.from_text(OLD_CODE), current_outline)
        new_code = OLD_CODE.replace(
            "total += item['quantity']", "total += item['price'] * item['quantity']"
        )
        new_annotated = render_interleaved(
            SourceUnit.from_text(new_code), current_outline
        ).text()
        backend = ScriptedBackend(
            [f"You changed quantity to value.\n```\n{new_annotated}\n```"]
        )
        result = finish_changes(session, backend, path="inv.py")
        assert "item['price'] * item['quantity']" in result.new_unit.text()
        assert "-    total += item['quantity']" in result.diff
        assert "+    total += item['price'] * item['quantity']" in result.diff

    def test_response_without_block_errors(self):
        backend = ScriptedBackend(["I cannot help with that."])
        with pytest.raises(FinishParseError):
            finish_changes(noop_session(), backend)

    def test_code_edit_propagates_to_outline_and_types(self):
        # The user changed the computed quantity into a price total; the
        # scripted response updates the docstring, outline wording, and the
        # summed expression together.
        edited = OLD_CODE.replace(
            "  total = 0", "  total = 0.0"
        )
        current_unit = SourceUnit.from_text(edited)
        # Editing within the anchored line keeps the anchor position valid,
        # as when the outline comments live in the same buffer as the code.
        session = session_with_current(current_unit, OLD_OUTLINE)
        new_code = (
            edited.replace("and total it", "and total its value")
            .replace("total += item['quantity']", "total += item['price']")
        )
        new_outline = Outline.of(
            OutlineStatement(3, "Read the inventory file."),
            OutlineStatement(4, "Compute the total value of items."),
        )
        annotated = render_interleaved(
            SourceUnit.from_text(new_code), new_outline
        ).text()
        backend = ScriptedBackend(
            [f"You made total a float to hold a price.\n```\n{annotated}\n```"]
        )
        result = finish_changes(session, backend, path="inv.py")
        assert "-  #* Compute the total quantity of items." in result.diff
        assert "+  #* Compute the total value of items." in result.diff
        assert "+    total += item['price']" in result.diff

    def test_three_simultaneous_outline_edits(self):
        # Three edits made at once in the outline: different traversal,
        # a brand new statement, and a different return shape.
        code = (
            "def reachable(start, edges):\n"
            "  seen = {start}\n"
            "  frontier = [start]\n"
            "  while frontier:\n"
            "    node = frontier.pop(0)\n"
            "    for nxt in edges.get(node, []):\n"
            "      if nxt not in seen:\n"
            "        seen.add(nxt)\n"
            "        frontier.append(nxt)\n"
            "  return seen"
        )
        unit = SourceUnit.from_text(code)
        old_outline = Outline.of(
            OutlineStatement(2, "Track visited nodes, breadth first."),
            OutlineStatement(10, "Return the visited set."),
        )
        current_outline = Outline.of(
            OutlineStatement(2, "Track visited nodes, depth first."),
            OutlineStatement(6, "Warn when a node has no outgoing edges."),
            OutlineStatement(10, "Return the visited nodes as a sorted list."),
        )
        session = EditSession(
            old_unit=unit,
            old_outline=old_outline,
            current_unit=unit,
            current_outline=current_outline,
        )
        new_code = code.replace("frontier.pop(0)", "frontier.pop()").replace(
            "  return seen", "  return sorted(seen)"
        )
        new_code = new_code.replace(
            "    for nxt in edges.get(node, []):",
            "    if not edges.get(node):\n"
            "      print('dead end:', node)\n"
            "    for nxt in edges.get(node, []):",
        )
        new_unit = SourceUnit.from_text(new_code)
        new_outline = Outline.of(
            OutlineStatement(2, "Track visited nodes, depth first."),
            OutlineStatement(6, "Warn when a node has no outgoing edges."),
            OutlineStatement(12, "Return the visited nodes as a sorted list."),
        )
        annotated = render_interleaved(new_unit, new_outline).text()
        backend = ScriptedBackend(
            [
                "You asked for depth-first order, a dead-end warning, and a "
                f"sorted list result.\n```\n{annotated}\n```"
            ]
        )
        result = finish_changes(session, backend, path="graph.py")
        assert result.new_outline == new_outline
        assert "frontier.pop()" in result.new_unit.text()
        assert "+      print('dead end:', node)" in result.diff
        assert "+  return sorted(seen)" in result.diff
