import pytest

from nlo.gateway import ScriptedBackend
from nlo.generation import (
    ALL_KINDS,
    INFILLING_INSTRUCTIONS,
    INTERLEAVED_INSTRUCTIONS,
    MAJOR_KINDS,
    MINOR_KINDS,
    ParseIssue,
    PromptConfig,
    build_constraint,
    build_prompt,
    comment_slot_positions,
    constraint_accepts,
    generate_outline,
    infill_text,
    parse_infilling,
    parse_interleaved,
    plain_comment_render,
)
from nlo.fewshots import load_fewshot_set
from nlo.outline import Outline, OutlineStatement, render_interleaved
from nlo.source_model import SourceUnit

from conftest import TOUR_ANNOTATED, TOUR_STATEMENTS

# A small function exercising every interleaved recovery path: it has a
# regular comment, a trailing comment, and a blank line.
TALLY_CODE = """\
def tally(items):
  total = 0
  # accumulate
  for x in items:
    total += x  # add

  return total"""


@pytest.fixture
def tally():
    return SourceUnit.from_text(TALLY_CODE)


def kinds(report):
    return [issue.kind for issue in report.issues]


class TestSeverityMapping:
    def test_fixed_severities(self):
        expected_minor = {
            "extra_blank_line",
            "missing_blank_line",
            "missing_comment",
            "changed_trailing_comment",
            "extra_prediction_lines",
            "not_sorted",
            "commented_empty_line",
        }
        expected_major = {
            "consecutive_comment",
            "changed_code",
            "missing_prediction_lines",
            "empty_outline",
            "malformed_line",
            "line_number_out_of_bounds",
            "duplicate_line_number",
        }
        assert expected_minor == MINOR_KINDS
        assert expected_major <= MAJOR_KINDS

    @pytest.mark.parametrize("kind", sorted(ALL_KINDS))
    def test_severity_is_a_function_of_kind(self, kind):
        issue = ParseIssue(kind)
        assert issue.severity == ("minor" if kind in MINOR_KINDS else "major")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ParseIssue("made_up_kind")


class TestParseInterleavedClean:
    def test_tour_response_parses_exactly(self, tour_unit):
        report = parse_interleaved(TOUR_ANNOTATED, tour_unit)
        assert report.issues == ()
        assert not report.truncated
        assert report.outline.statements == TOUR_STATEMENTS

    def test_fenced_response(self, tour_unit):
        fenced = "```\n" + TOUR_ANNOTATED + "\n```"
        report = parse_interleaved(fenced, tour_unit)
        assert report.issues == ()
        assert report.outline.statements == TOUR_STATEMENTS

    def test_fence_with_language_tag(self, sq_unit):
        response = "```python\ndef sq(x):\n  # Squares.\n  return x**2\n```"
        report = parse_interleaved(response, sq_unit)
        assert report.issues == ()
        assert report.outline.statements == (OutlineStatement(2, "Squares."),)

    def test_plain_comments_collected_like_star_comments(self, tally):
        response = plain_comment_render(
            tally, Outline.of(OutlineStatement(2, "Start from zero."))
        )
        report = parse_interleaved(response, tally)
        assert report.issues == ()
        assert report.outline.statements == (
            OutlineStatement(2, "Start from zero."),
        )

    def test_trailing_whitespace_tolerated(self, sq_unit):
        response = "def sq(x):  \n  # Squares.\n  return x**2\t"
        report = parse_interleaved(response, sq_unit)
        assert report.issues == ()


# One fixture per interleaved error kind; each produces exactly that issue.
INTERLEAVED_ERROR_FIXTURES = {
    "extra_blank_line": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "\n"
        "  # accumulate\n"
        "  for x in items:\n"
        "    total += x  # add\n"
        "\n"
        "  return total"
    ),
    "missing_blank_line": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  for x in items:\n"
        "    total += x  # add\n"
        "  return total"
    ),
    "consecutive_comment": (
        "def tally(items):\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  #* Sum the items.\n"
        "  #* One at a time.\n"
        "  for x in items:\n"
        "    total += x  # add\n"
        "\n"
        "  return total"
    ),
    "missing_comment": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  for x in items:\n"
        "    total += x  # add\n"
        "\n"
        "  return total"
    ),
    "changed_trailing_comment": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  for x in items:\n"
        "    total += x  # sum\n"
        "\n"
        "  return total"
    ),
    "changed_code": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  for x in items:\n"
        "    total += x * 2  # add\n"
        "\n"
        "  return total"
    ),
    "extra_prediction_lines": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  for x in items:\n"
        "    total += x  # add\n"
        "\n"
        "  return total\n"
        "print(tally([1]))"
    ),
    "missing_prediction_lines": (
        "def tally(items):\n"
        "  #* Start from zero.\n"
        "  total = 0\n"
        "  # accumulate\n"
        "  for x in items:"
    ),
    "empty_outline": TALLY_CODE,
}


class TestParseInterleavedErrors:
    @pytest.mark.parametrize("kind", sorted(INTERLEAVED_ERROR_FIXTURES))
    def test_fixture_produces_exactly_its_kind(self, tally, kind):
        report = parse_interleaved(INTERLEAVED_ERROR_FIXTURES[kind], tally)
        assert kinds(report) == [kind]

    def test_extra_blank_line_recovery_keeps_outline(self, tally):
        report = parse_interleaved(
            INTERLEAVED_ERROR_FIXTURES["extra_blank_line"], tally
        )
        assert report.outline.statements == (
            OutlineStatement(2, "Start from zero."),
        )

    def test_consecutive_comments_join_with_space(self, tally):
        report = parse_interleaved(
            INTERLEAVED_ERROR_FIXTURES["consecutive_comment"], tally
        )
        assert report.outline.statements == (
            OutlineStatement(4, "Sum the items. One at a time."),
        )

    def test_changed_code_stops_and_returns_partial(self, tally):
        report = parse_interleaved(INTERLEAVED_ERROR_FIXTURES["changed_code"], tally)
        assert report.truncated
        assert report.outline.statements == (
            OutlineStatement(2, "Start from zero."),
        )
        issue = report.issues[0]
        assert issue.severity == "major"
        assert issue.location == 5

    def test_missing_prediction_lines_is_major(self, tally):
        report = parse_interleaved(
            INTERLEAVED_ERROR_FIXTURES["missing_prediction_lines"], tally
        )
        assert report.issues[0].severity == "major"
        assert not report.truncated

    def test_trailing_blank_original_lines_after_the_response_ends(self):
        unit = SourceUnit.from_text("def f():\n  return 1\n\n\n")
        report = parse_interleaved("def f():\n  #* Return one.\n  return 1", unit)
        assert [(i.kind, i.location) for i in report.issues] == [
            ("missing_blank_line", 3),
            ("missing_blank_line", 4),
        ]
        assert report.outline.statements == (OutlineStatement(2, "Return one."),)
        assert not report.has_major()

    def test_empty_outline_from_echoed_code(self, tally):
        report = parse_interleaved(TALLY_CODE, tally)
        assert kinds(report) == ["empty_outline"]
        assert len(report.outline) == 0


    def test_edit_inside_a_string_after_the_comment_token_is_changed_code(self):
        unit = SourceUnit.from_text('def f():\n  x = "a #b"  # note\n  return x')
        head = "def f():\n  # Set x.\n"
        report = parse_interleaved(head + '  x = "a #c"  # note\n  return x', unit)
        assert [(i.kind, i.severity) for i in report.issues] == [("changed_code", "major")]
        assert report.truncated
        retold = parse_interleaved(head + '  x = "a #b"  # other\n  return x', unit)
        assert kinds(retold) == ["changed_trailing_comment"]


INFILLING_ERROR_FIXTURES = {
    "malformed_line": "not a numbered line\n2| Start from zero.",
    "line_number_out_of_bounds": "99| Nope.\n2| Start from zero.",
    "not_sorted": "4| Loop over the items.\n2| Start from zero.",
    "duplicate_line_number": "2| Start from zero.\n2| Start again.",
    "commented_empty_line": "6| Wrap up.",
    "empty_outline": "",
}


class TestParseInfilling:
    def test_sq_micro_example(self, sq_unit):
        report = parse_infilling("2|Squares the input.", sq_unit)
        assert report.issues == ()
        assert report.outline.statements == (
            OutlineStatement(2, "Squares the input."),
        )

    def test_two_statement_response(self):
        unit = SourceUnit(lines=tuple(f"line {i}" for i in range(1, 22)))
        response = (
            "9| Create a benchmark to run on.\n"
            "12| Run the value search with different settings."
        )
        report = parse_infilling(response, unit)
        assert report.issues == ()
        assert report.outline.anchors() == (9, 12)
        assert report.outline.statements[0].text == "Create a benchmark to run on."

    def test_leading_whitespace_and_wide_numbers_accepted(self, tally):
        report = parse_infilling("  2| Start from zero.", tally)
        assert report.issues == ()
        assert report.outline.anchors() == (2,)

    def test_anchor_zero_is_out_of_bounds(self, sq_unit):
        report = parse_infilling("0|nope", sq_unit)
        assert kinds(report) == ["line_number_out_of_bounds", "empty_outline"]
        assert len(report.outline) == 0

    @pytest.mark.parametrize("kind", sorted(INFILLING_ERROR_FIXTURES))
    def test_fixture_produces_exactly_its_kind(self, tally, kind):
        report = parse_infilling(INFILLING_ERROR_FIXTURES[kind], tally)
        assert kinds(report) == [kind]

    def test_malformed_line_skipped(self, tally):
        report = parse_infilling(INFILLING_ERROR_FIXTURES["malformed_line"], tally)
        assert report.outline.statements == (
            OutlineStatement(2, "Start from zero."),
        )

    def test_not_sorted_sorts(self, tally):
        report = parse_infilling(INFILLING_ERROR_FIXTURES["not_sorted"], tally)
        assert report.outline.anchors() == (2, 4)

    def test_duplicate_keeps_first(self, tally):
        report = parse_infilling(
            INFILLING_ERROR_FIXTURES["duplicate_line_number"], tally
        )
        assert report.outline.statements == (
            OutlineStatement(2, "Start from zero."),
        )

    def test_blank_anchor_moves_to_next_non_blank(self, tally):
        report = parse_infilling(
            INFILLING_ERROR_FIXTURES["commented_empty_line"], tally
        )
        assert report.outline.statements == (OutlineStatement(7, "Wrap up."),)

    def test_blank_line_without_following_code(self):
        unit = SourceUnit.from_text("x = 1\n\n  ")
        report = parse_infilling("2| Trailing.", unit)
        assert kinds(report) == ["line_number_out_of_bounds", "empty_outline"]

    def test_statement_without_text_is_malformed(self, tally):
        report = parse_infilling("2|", tally)
        assert kinds(report) == ["malformed_line", "empty_outline"]


class TestBuildPrompt:
    def test_infilling_zero_shot_numbers_the_code(self, sq_unit):
        config = PromptConfig(technique="infilling", instructions=INFILLING_INSTRUCTIONS)
        prompt = build_prompt(sq_unit, config)
        assert prompt.turns[-2][0] == "user"
        assert "```\n  1|def sq(x):\n  2|  return x**2\n```" in prompt.turns[-2][1]
        assert prompt.turns[-1] == ("assistant", "")

    def test_interleaved_instructions_text(self):
        assert (
            "Aim for at most 3 comments for short functions"
            in INTERLEAVED_INSTRUCTIONS
        )
        assert "Do not add any comments to the docstring." in INTERLEAVED_INSTRUCTIONS

    def test_infilling_instructions_forbid_code(self):
        assert "Do not repeat the code in your response." in INFILLING_INSTRUCTIONS

    def test_infilling_user_turn_wording(self, sq_unit):
        config = PromptConfig(technique="infilling", instructions=INFILLING_INSTRUCTIONS)
        text = build_prompt(sq_unit, config).turns[-2][1]
        assert text.startswith(
            "Please help me understand this code, with line numbers added"
        )
        assert text.endswith("Do not repeat the code! Just provide the summary.")

    def test_interleaved_user_turn_wording(self, sq_unit):
        config = PromptConfig(
            technique="interleaved", instructions=INTERLEAVED_INSTRUCTIONS
        )
        text = build_prompt(sq_unit, config).turns[-2][1]
        assert text.startswith("Please help me understand this code:")
        assert text.endswith("Only provide the code with comments, nothing else.")

    def test_few_shots_become_turn_pairs(self, sq_unit):
        few_shots = load_fewshot_set("default")
        config = PromptConfig(
            technique="interleaved",
            instructions=INTERLEAVED_INSTRUCTIONS,
            few_shots=few_shots,
        )
        prompt = build_prompt(sq_unit, config)
        assert len(prompt.turns) == 2 * len(few_shots) + 2
        first_assistant = prompt.turns[1][1]
        assert first_assistant.startswith("```\n")
        assert "# " in first_assistant  # gold outline as plain comments

    def test_infilling_few_shot_assistant_is_numbered(self, sq_unit):
        few_shots = load_fewshot_set("default")
        config = PromptConfig(
            technique="infilling",
            instructions=INFILLING_INSTRUCTIONS,
            few_shots=few_shots,
        )
        prompt = build_prompt(sq_unit, config)
        assert prompt.turns[1][1] == infill_text(few_shots[0].gold)

    def test_prompts_are_deterministic(self, sq_unit):
        config = PromptConfig(
            technique="infilling",
            instructions=INFILLING_INSTRUCTIONS,
            few_shots=load_fewshot_set("default"),
        )
        assert build_prompt(sq_unit, config) == build_prompt(sq_unit, config)

    def test_default_fewshot_set_loads_eight(self):
        assert len(load_fewshot_set("default")) == 8


class TestSerializationInverse:
    def test_interleaved_round_trip(self, tour_unit, tour_outline):
        rendered = render_interleaved(tour_unit, tour_outline).text()
        report = parse_interleaved(rendered, tour_unit)
        assert report.issues == ()
        assert report.outline == tour_outline

    def test_infilling_round_trip(self, tour_unit, tour_outline):
        report = parse_infilling(infill_text(tour_outline), tour_unit)
        assert report.issues == ()
        assert report.outline == tour_outline


class TestConstraint:
    def test_literals_equal_unit_lines(self, tour_unit):
        constraint = build_constraint(tour_unit)
        assert constraint.literal_lines() == tour_unit.lines

    def test_accepts_annotated_tour(self, tour_unit):
        constraint = build_constraint(tour_unit)
        accepted, violation = constraint_accepts(constraint, TOUR_ANNOTATED)
        assert accepted and violation is None

    def test_rejects_bare_code_missing_required_comment(self, tour_unit):
        constraint = build_constraint(tour_unit)
        accepted, violation = constraint_accepts(constraint, tour_unit.text())
        assert not accepted
        assert violation == 2  # the first body line demands a comment above it

    def test_rejects_single_character_code_change(self, tour_unit):
        constraint = build_constraint(tour_unit)
        mutated = TOUR_ANNOTATED.replace("tour_cost = 0.0", "tour_cost = 1.0")
        accepted, violation = constraint_accepts(constraint, mutated)
        assert not accepted
        assert violation == 7

    def test_rejects_comment_above_blank_line(self, tour_unit):
        constraint = build_constraint(tour_unit)
        lines = TOUR_ANNOTATED.splitlines()
        blank_at = lines.index("")
        lines.insert(blank_at, "  #* Filler above a blank line.")
        accepted, violation = constraint_accepts(constraint, "\n".join(lines))
        assert not accepted
        assert violation == blank_at + 1

    def test_accepts_multi_comment_run(self, tour_unit):
        lines = TOUR_ANNOTATED.splitlines()
        lines.insert(1, "#* Extra first thought.")
        accepted, _ = constraint_accepts(build_constraint(tour_unit), "\n".join(lines))
        assert accepted

    def test_no_slot_inside_multiline_call(self):
        unit = SourceUnit.from_text(
            "def f():\n  x = g(1,\n        2)\n  return x"
        )
        positions = comment_slot_positions(unit)
        assert 3 not in positions
        assert positions[2] is True  # required first-body slot
        candidate = "def f():\n  # Start.\n  x = g(1,\n  # illegal\n        2)\n  return x"
        accepted, violation = constraint_accepts(build_constraint(unit), candidate)
        assert not accepted and violation == 4

    def test_no_slot_between_comment_pair(self):
        unit = SourceUnit.from_text("x = 1\n# first\n# second\ny = 2")
        positions = comment_slot_positions(unit)
        assert 2 in positions and 3 not in positions

    def test_no_slot_inside_docstring(self):
        unit = SourceUnit.from_text(
            'def f():\n  """Doc line.\n\n  More doc.\n  """\n  return 1'
        )
        positions = comment_slot_positions(unit)
        assert all(i not in positions for i in range(2, 6))
        assert positions.get(6) is True

    def test_snippet_without_signature_has_no_required_slot(self):
        unit = SourceUnit.from_text("x = 1\ny = 2")
        constraint = build_constraint(unit)
        accepted, _ = constraint_accepts(constraint, unit.text())
        assert accepted

    def test_incomplete_candidate_rejected_past_end(self):
        unit = SourceUnit.from_text("x = 1\ny = 2")
        accepted, violation = constraint_accepts(build_constraint(unit), "x = 1")
        assert not accepted
        assert violation == 2


class TestCompactness:
    def test_infilling_strictly_shorter(self, tour_unit, tour_outline, tally):
        cases = [
            (tour_unit, tour_outline),
            (
                tally,
                Outline.of(
                    OutlineStatement(2, "Start from zero."),
                    OutlineStatement(4, "Sum the items."),
                ),
            ),
        ]
        for unit, outline in cases:
            interleaved = render_interleaved(unit, outline).text()
            assert len(infill_text(outline)) < len(interleaved)


class TestGenerateOutline:
    def test_scripted_interleaved(self, tour_unit):
        backend = ScriptedBackend([TOUR_ANNOTATED])
        config = PromptConfig(
            technique="interleaved", instructions=INTERLEAVED_INSTRUCTIONS
        )
        report = generate_outline(tour_unit, config, backend)
        assert report.issues == ()
        assert len(report.outline) == 6

    def test_scripted_empty_response(self, tour_unit):
        backend = ScriptedBackend([""])
        config = PromptConfig(
            technique="interleaved", instructions=INTERLEAVED_INSTRUCTIONS
        )
        report = generate_outline(tour_unit, config, backend)
        assert "empty_outline" in kinds(report)

    def test_scripted_infilling(self, sq_unit):
        backend = ScriptedBackend(["2|Squares the input."])
        config = PromptConfig(technique="infilling", instructions=INFILLING_INSTRUCTIONS)
        report = generate_outline(sq_unit, config, backend)
        assert report.issues == ()
        assert len(report.outline) == 1
