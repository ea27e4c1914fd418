"""Outline generation: prompt construction, response parsing, constraints.

Two techniques are supported.  *Interleaved* prompts ask the model to repeat
the code with summary comments added; the response is compared line by line
against the original.  *Line-number infilling* numbers the code and asks for
``N|text`` pairs only, so the model never repeats code.

Parsing never raises: every formatting problem becomes a :class:`ParseIssue`
with a fixed severity.  Minor issues are recovered from without affecting
the outline; major issues affect outline quality.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable

from .errors import InputError
from .gateway import Backend, ChatPrompt, _ask, user_prompt
from .outline import Outline, OutlineStatement, validate
from .outline import _comment_text, _interleave, _joined
from .source_model import (
    COMMENT_CLASSES,
    LanguageProfile,
    LineClass,
    SourceUnit,
    classify_line,
    leading_whitespace,
    number_lines,
)
from .source_model import _literals, _non_blank_below, _split_lines

# --- Issue taxonomy ---------------------------------------------------------

MINOR_KINDS = frozenset(
    {
        "extra_blank_line",
        "missing_blank_line",
        "missing_comment",
        "changed_trailing_comment",
        "extra_prediction_lines",
        "not_sorted",
        "commented_empty_line",
    }
)
MAJOR_KINDS = frozenset(
    {
        "consecutive_comment",
        "changed_code",
        "missing_prediction_lines",
        "empty_outline",
        "malformed_line",
        "line_number_out_of_bounds",
        "duplicate_line_number",
        # Used only by diff-section assignment (vsplit), not by the two
        # response-comparison parsers in this module.
        "unknown_topic_index",
    }
)
ALL_KINDS = MINOR_KINDS | MAJOR_KINDS


@dataclass(frozen=True)
class ParseIssue:
    """One problem found while parsing a model response.

    Severity is a fixed function of the kind.  ``location`` is a 1-based
    line index: into the original unit for comparison issues, into the
    response for format issues (see ``detail`` for specifics).
    """

    kind: str
    location: int | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown issue kind: {self.kind}")

    @property
    def severity(self) -> str:
        return "minor" if self.kind in MINOR_KINDS else "major"


@dataclass(frozen=True)
class ParseReport:
    """An outline plus whatever issues were found while parsing it."""

    outline: Outline
    issues: tuple[ParseIssue, ...] = ()
    truncated: bool = False  # set when changed_code stopped the scan

    def has_major(self) -> bool:
        return any(i.severity == "major" for i in self.issues)


# --- Prompt construction ----------------------------------------------------

INTERLEAVED_INSTRUCTIONS = """\
You are an expert programmer.
You are especially good at understanding and explaining the main ideas in a code function.
Your task is to write comments that summarize the main ideas in the code.

Follow these rules:
* Use the comments to organize the code into logical sections.
* Do not change the code aside from adding comments.
* Do not remove or change any existing comments. Only add comments.
* Each comment should be one sentence or phrase.
* When applicable, the comment should explain why the code is written that way, but only if the reasoning is unclear.
* The comment should not be too detailed, so it is quick to read.
* Do not add any comments to the docstring.
* Aim for at most 3 comments for short functions, or at most 5 comments for long functions.
* Do not comment every line.
* Do not explain in words. Only provide the code with comments added, nothing else."""

INFILLING_INSTRUCTIONS = """\
You are an expert programmer.
You are especially good at understanding and explaining the main ideas in a code function.
Your task is to write comments that summarize the main ideas in the code.

Follow these rules:
* First, write the line number where a logical section of the code starts.
* Then, write a comment to explain and summarize that section of the code.
* Write only one comment for each logical section of the code.
* Each comment should be one sentence or phrase.
* When applicable, the comment should explain why the code is written that way, but only if the reasoning is unclear.
* The comment should not be too detailed, so it is quick to read.
* Do not add any comments to the docstring.
* Aim for at most 3 comments for short functions, or at most 5 comments for long functions.
* Do not comment every line.
* Do not repeat the code in your response."""

_INTERLEAVED_USER = """\
Please help me understand this code:
```
{code}
```

Identify the logical sections of the code and summarize them by adding comments. Only provide the code with comments, nothing else."""

_INFILLING_USER = """\
Please help me understand this code, with line numbers added for reference:
```
{code}
```

Identify the logical sections of the code and summarize them. Format your response by providing, for each logical section, the line number where that section starts, followed by one sentence that summarizes that section.

Do not repeat the code! Just provide the summary."""

# Each technique's system instructions; ``TECHNIQUES`` lists them in this order.
_INSTRUCTIONS = {"interleaved": INTERLEAVED_INSTRUCTIONS, "infilling": INFILLING_INSTRUCTIONS}
TECHNIQUES = tuple(_INSTRUCTIONS)


@dataclass(frozen=True)
class FewShotExample:
    """A demonstration pair: bare code and its hand-written outline."""

    unit: SourceUnit
    gold: Outline

    def __post_init__(self) -> None:
        violations = validate(self.gold, self.unit)
        if violations:
            raise ValueError(
                "few-shot outline does not fit its code: "
                + "; ".join(v.message for v in violations)
            )


@dataclass(frozen=True)
class PromptConfig:
    technique: str
    instructions: str
    few_shots: tuple[FewShotExample, ...] = ()

    def __post_init__(self) -> None:
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique: {self.technique}")

    @functools.cached_property
    def _shots(self) -> tuple[tuple[str, str], ...]:
        """The demonstration ``(user, assistant)`` turns, rendered once per
        config: every prompt built from it repeats them verbatim."""
        return tuple(
            (_user_turn(example.unit, self.technique), _assistant_turn(example, self.technique))
            for example in self.few_shots
        )


def infill_text(outline: Outline) -> str:
    """Canonical line-number serialization: one ``N| text`` line per statement."""
    return "\n".join(f"{s.anchor}| {s.text}" for s in outline.statements)


def plain_comment_render(unit: SourceUnit, outline: Outline) -> str:
    """Interleave statements as ordinary line comments (the response format
    models produce; star syntax is applied only when storing outlines)."""
    token = unit.profile.line_comment_token

    def comment_line(stmt: OutlineStatement) -> str:
        return f"{leading_whitespace(unit.line(stmt.anchor))}{token} {stmt.text}"

    return "\n".join(_interleave(unit, outline, comment_line))


def build_prompt(unit: SourceUnit, config: PromptConfig) -> ChatPrompt:
    """Assemble the few-shot prompt for one unit, ending with an empty
    assistant cue."""
    _require_lines(unit)
    return user_prompt(config.instructions, _user_turn(unit, config.technique), config._shots)


def _require_lines(unit: SourceUnit) -> None:
    if len(unit) == 0:
        raise InputError("cannot build a prompt for an empty unit")


def _user_turn(unit: SourceUnit, technique: str) -> str:
    if technique == "interleaved":
        return _INTERLEAVED_USER.format(code=unit.text())
    return _INFILLING_USER.format(code=number_lines(unit))


def _assistant_turn(example: FewShotExample, technique: str) -> str:
    if technique == "interleaved":
        return "```\n" + plain_comment_render(example.unit, example.gold) + "\n```"
    return infill_text(example.gold)


# --- Interleaved response parsing -------------------------------------------


def parse_interleaved(response: str, original: SourceUnit) -> ParseReport:
    """Compare a code-with-comments response against the original, top down.

    A two-pointer scan walks prediction and original together, comparing
    lines with trailing whitespace removed.  New comment lines become
    outline statements anchored at the next matching original line; blank
    and comment mismatches are skipped as minor issues; any other mismatch
    is a major ``changed_code`` that stops the scan.  Purely blank leftover
    prediction lines are ignored, like the blank-line mismatches.
    """
    profile = original.profile
    literals = _literals(profile)  # finds comments, skipping string literals
    pred = _strip_code_fence(response)
    issues: list[ParseIssue] = []
    statements: list[OutlineStatement] = []
    pending: list[tuple[str, bool]] = []
    truncated = False

    def note(kind: str, location: int | None, detail: str) -> None:
        issues.append(ParseIssue(kind, location=location, detail=detail))

    def code(line: str) -> str:  # ``line`` up to its comment, if it has one
        found = (m.start() for m in literals.finditer(line) if m.group(1) is not None)
        return line[: next(found, None)].rstrip()

    def flush(anchor: int) -> None:
        if not pending:
            return
        if len(pending) >= 2:
            joined = f"{len(pending)} consecutive comments joined"
            note("consecutive_comment", anchor, joined)
        statements.append(_joined(anchor, pending))
        pending.clear()

    p = o = 0
    pred_len, orig_len = len(pred), len(original.lines)
    while p < pred_len and o < orig_len:
        pline, oline = pred[p], original.lines[o]
        if pline == oline or pline.rstrip() == oline.rstrip():
            if pending:
                flush(o + 1)
            p += 1
            o += 1
            continue
        pcls = classify_line(profile, pline)
        ocls = classify_line(profile, oline)
        if pcls is LineClass.BLANK:
            note("extra_blank_line", o + 1, f"response line {p + 1} is blank")
            p += 1
            continue
        if ocls is LineClass.BLANK:
            note("missing_blank_line", o + 1, _NO_BLANK)
            o += 1
            continue
        if pcls in COMMENT_CLASSES:
            pending.append(_comment_text(profile, pline, pcls))
            p += 1
            continue
        if ocls in COMMENT_CLASSES:
            missing = f"original comment not in response: {oline.strip()!r}"
            note("missing_comment", o + 1, missing)
            o += 1
            continue
        if code(pline) == code(oline):
            same = "lines match except for a trailing comment"
            note("changed_trailing_comment", o + 1, same)
            p += 1
            o += 1
            continue
        flush(o + 1)
        changed = f"expected {oline.strip()!r}, response has {pline.strip()!r}"
        note("changed_code", o + 1, changed)
        truncated = True
        break

    if not truncated:
        if p >= pred_len:
            # Trailing blank original lines are skippable like in-loop blanks.
            while o < orig_len and not original.lines[o].strip():
                note("missing_blank_line", o + 1, _NO_BLANK)
                o += 1
        if o < orig_len:
            flush(o + 1)
            unmatched = f"{orig_len - o} original lines unmatched"
            note("missing_prediction_lines", o + 1, unmatched)
        else:
            leftover = [ln for ln in pred[p:] if ln.strip()]
            if leftover or pending:
                extra = f"{len(leftover) + len(pending)} unmatched response lines"
                note("extra_prediction_lines", None, extra)
                pending.clear()

    if not statements:
        issues.append(ParseIssue("empty_outline", detail="no statements parsed"))
    return ParseReport(
        outline=Outline(statements=tuple(statements)),
        issues=tuple(issues),
        truncated=truncated,
    )


_NO_BLANK = "blank original line has no blank response line"


def _strip_code_fence(response: str) -> list[str]:
    """Drop one surrounding triple-backtick fence, if present."""
    lines = _split_lines(response)
    first = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first is None or not lines[first].strip().startswith("```"):
        return lines
    last = next(i for i in range(len(lines) - 1, first - 1, -1) if lines[i].strip())
    if last > first and lines[last].strip().startswith("```"):
        return lines[first + 1 : last]
    return lines[first + 1 :]


# --- Numbered-record reading -------------------------------------------------

_INFILL_LINE = re.compile(r"\s*(\d+)\| ?(.*)")


def _scan_records(
    response: str, pattern: re.Pattern, limit: int | None
) -> tuple[list[tuple], list[ParseIssue]]:
    """Read one ``N|...|text`` record per non-blank response line.

    ``pattern`` captures the integer fields, anchor first, then the text.
    A line it does not match, or whose text is empty, is a
    ``malformed_line``; an anchor outside ``1..limit`` (when there is a
    limit) is ``line_number_out_of_bounds``.  Both are skipped.  Each record
    is its integer fields, its text, then its 1-based response line.
    """
    records: list[tuple] = []
    issues: list[ParseIssue] = []
    for lineno, line in enumerate(_split_lines(response), start=1):
        if not line.strip():
            continue
        match = pattern.fullmatch(line)
        *numbers, text = match.groups() if match else ("",)
        if not text.strip():
            detail = f"response line {lineno}: {line.strip()!r}"
            issues.append(ParseIssue("malformed_line", lineno, detail))
            continue
        numbers = [int(n) for n in numbers]
        anchor = numbers[0]
        if limit is not None and not 1 <= anchor <= limit:
            detail = f"line number {anchor} outside 1..{limit}"
            issues.append(ParseIssue("line_number_out_of_bounds", lineno, detail))
            continue
        records.append((*numbers, text, lineno))
    return records, issues


def _order_records(records: list[tuple], issues: list[ParseIssue]) -> list[tuple]:
    """Sort records by anchor, their first field (minor ``not_sorted``), and
    keep only the first record at each anchor (major
    ``duplicate_line_number``)."""
    anchors = [r[0] for r in records]
    if any(b < a for a, b in zip(anchors, anchors[1:])):
        issues.append(
            ParseIssue("not_sorted", detail="line numbers were not ascending")
        )
        records = sorted(records, key=lambda r: r[0])
    kept: list[tuple] = []
    for record in records:
        if kept and kept[-1][0] == record[0]:
            detail = f"duplicate line number {record[0]}; kept the first"
            issues.append(ParseIssue("duplicate_line_number", record[0], detail))
            continue
        kept.append(record)
    return kept


# --- Infilling response parsing ---------------------------------------------


def parse_infilling(response: str, original: SourceUnit) -> ParseReport:
    """Parse ``N|text`` response lines into an outline.

    Malformed or out-of-bounds lines are skipped (major).  Unsorted anchors
    are sorted (minor); duplicates keep the first occurrence (major).  An
    anchor pointing at a blank line moves down to the next non-blank line
    (minor), since the blank belongs above the comment.
    """
    records, issues = _scan_records(response, _INFILL_LINE, len(original))
    repaired: list[tuple[int, str]] = []
    for anchor, text, _ in _order_records(records, issues):
        if original.classify(anchor) is LineClass.BLANK:
            moved = _non_blank_below(original.lines, anchor)
            if moved is None:
                detail = f"no non-blank line at or after {anchor}"
                issues.append(ParseIssue("line_number_out_of_bounds", anchor, detail))
                continue
            detail = f"anchor {anchor} is blank; moved to {moved}"
            issues.append(ParseIssue("commented_empty_line", anchor, detail))
            anchor = moved
        repaired.append((anchor, text))
    # Moving anchors off blank lines can collide with a later statement.
    repaired = _order_records(repaired, issues)

    if not repaired:
        issues.append(ParseIssue("empty_outline", detail="no statements parsed"))
    return ParseReport(
        outline=Outline(
            statements=tuple(OutlineStatement(a, t) for a, t in repaired)
        ),
        issues=tuple(issues),
    )


# --- Constraints -------------------------------------------------------------


@dataclass(frozen=True)
class LiteralLine:
    text: str


@dataclass(frozen=True)
class CommentSlot:
    required: bool = False


@dataclass(frozen=True)
class Constraint:
    """A repeat-the-code acceptor: the unit's lines plus one slot per line.

    ``above[i]`` is the comment slot above ``lines[i]``: ``None`` for no
    slot, ``False`` for an optional slot (zero or more comment lines),
    ``True`` for a required one (at least one).
    """

    profile: LanguageProfile
    lines: tuple[str, ...]
    above: tuple[bool | None, ...]

    @property
    def slots(self) -> tuple:
        """The same language as a ``CommentSlot``/``LiteralLine`` sequence."""
        out: list = []
        for line, slot in zip(self.lines, self.above):
            if slot is not None:
                out.append(CommentSlot(required=slot))
            out.append(LiteralLine(line))
        return tuple(out)

    def literal_lines(self) -> tuple[str, ...]:
        return self.lines


def comment_slot_positions(unit: SourceUnit) -> dict[int, bool]:
    """Line indices a comment may be inserted above, mapped to required-ness.

    No slot above a blank line, inside a multi-line statement or string
    literal (brackets and backslashes count only outside literals and
    comments), between two comment lines, or within the docstring.  The
    first body line after the signature and docstring gets a required slot
    when that structure is detectable.
    """
    model = unit._line_model
    first, last = model.docstring or (0, 0)
    positions: dict[int, bool] = {}
    above = None
    for i, line in enumerate(unit.lines, start=1):
        cls = classify_line(unit.profile, line)
        if not (
            cls is LineClass.BLANK
            or model.in_string[i - 1] or model.depth[i - 1] > 0 or model.backslash[i - 1]
            or (cls is LineClass.COMMENT and above is LineClass.COMMENT)
            or first <= i <= last
        ):
            positions[i] = False
        above = cls
    if model.first_body_line in positions:
        positions[model.first_body_line] = True
    return positions


def build_constraint(unit: SourceUnit) -> Constraint:
    if len(unit) == 0:
        raise ValueError("cannot build a constraint for an empty unit")
    positions = comment_slot_positions(unit)
    above = tuple(positions.get(i) for i in range(1, len(unit) + 1))
    return Constraint(profile=unit.profile, lines=unit.lines, above=above)


def constraint_accepts(
    constraint: Constraint, candidate: str
) -> tuple[bool, int | None]:
    """Match candidate lines against the constraint, left to right.

    A state is ``(k, empty)``: line ``k`` is the next literal, and ``empty``
    says its required slot has no comment yet.  A comment line keeps a state
    whose literal has a slot above it; a line equal to the next literal moves
    the state past it unless the slot is empty.  A line can do both (the
    unit's own comments), so the set grows with the longest comment run.

    Returns acceptance plus, on rejection, the 1-based index of the first
    candidate line that cannot be matched (``len+1`` when the candidate
    ended before the constraint was satisfied).
    """
    literals, above = constraint.lines, constraint.above
    end = len(literals)

    def at(k: int) -> tuple[int, bool]:
        return k, k < end and above[k] is True

    states = {at(0)}
    lines = _split_lines(candidate)
    for index, line in enumerate(lines, start=1):
        is_comment = classify_line(constraint.profile, line) in COMMENT_CLASSES
        advanced: set[tuple[int, bool]] = set()
        for k, empty in states:
            if k == end:
                continue
            if is_comment and above[k] is not None:
                advanced.add((k, False))
            if not empty and line == literals[k]:
                advanced.add(at(k + 1))
        states = advanced
        if not states:
            return False, index
    if at(end) in states:
        return True, None
    return False, len(lines) + 1


# --- End to end ---------------------------------------------------------------


def generate_outline(
    unit: SourceUnit,
    config: PromptConfig,
    backend: Backend,
) -> ParseReport:
    """Prompt, complete, and parse with the technique-matched parser."""
    response = _ask(build_prompt(unit, config), backend)
    return _parser(config.technique)(response, unit)


def _parser(technique: str) -> Callable[[str, SourceUnit], ParseReport]:
    """The parser for a response to a ``technique`` prompt."""
    return parse_interleaved if technique == "interleaved" else parse_infilling
