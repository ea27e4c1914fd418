"""The outline value type: validation, rendering, extraction, diffing, remapping.

An outline is an ordered sequence of prose statements, each anchored to a
1-based line of a :class:`~nlo.source_model.SourceUnit`.  Rendered
interleaved, each statement becomes a star comment (``#*`` / ``//*``, with
``#*!`` for verified statements) directly above its anchor line.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable
from dataclasses import dataclass, replace

from .errors import DanglingCommentError, PlacementError
from .source_model import (
    LanguageProfile,
    LineClass,
    STAR_CLASSES,
    SourceUnit,
    classify_line,
    indentation,
    leading_whitespace,
)


@dataclass(frozen=True)
class OutlineStatement:
    """One prose statement anchored above a source line.

    Anchors and texts are validated by :func:`validate` rather than at
    construction, so that malformed model output remains representable.
    Newlines are structurally impossible to render and are rejected here.
    """

    anchor: int
    text: str
    verified: bool = False

    def __post_init__(self) -> None:
        if "\n" in self.text or "\r" in self.text:
            raise ValueError("statement text must be a single line")


@dataclass(frozen=True)
class Outline:
    statements: tuple[OutlineStatement, ...] = ()

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def anchors(self) -> tuple[int, ...]:
        return tuple(s.anchor for s in self.statements)

    @classmethod
    def of(cls, *statements: OutlineStatement) -> "Outline":
        return cls(statements=tuple(statements))


@dataclass(frozen=True)
class Violation:
    """One reason an outline does not fit a unit.  Violations are data."""

    kind: str  # out_of_range|blank_line|docstring|in_string|continuation|not_increasing|empty_text
    statement_index: int  # 0-based index into outline.statements
    message: str


@dataclass(frozen=True)
class OutlineDiff:
    added: tuple[OutlineStatement, ...] = ()
    removed: tuple[OutlineStatement, ...] = ()
    changed: tuple[tuple[OutlineStatement, OutlineStatement], ...] = ()

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


def validate(outline: Outline, unit: SourceUnit) -> list[Violation]:
    """Check an outline against a unit.  An empty list means valid.

    Violations: anchor out of range, anchor at a blank line, anchor inside
    the docstring or else on a line that begins inside a string literal or
    else continues the line above through a trailing backslash, anchors not
    strictly increasing, empty statement text.
    """
    violations: list[Violation] = []
    for i, stmt in enumerate(outline.statements):
        anchor, found = stmt.anchor, []
        if not 1 <= anchor <= len(unit):
            found.append(("out_of_range", f"outside 1..{len(unit)}"))
        else:
            model = unit._line_model
            span = model.docstring
            if unit.classify(anchor) is LineClass.BLANK:
                found.append(("blank_line", "is a blank line"))
            if span is not None and span[0] <= anchor <= span[1]:
                where = f"lines {span[0]}..{span[1]}"
                found.append(("docstring", f"is inside the docstring ({where})"))
            elif model.in_string[anchor - 1]:
                found.append(("in_string", "begins inside a string literal"))
            elif model.backslash[anchor - 1]:
                found.append(("continuation", "follows a line ending in a backslash"))
        if i > 0 and anchor <= outline.statements[i - 1].anchor:
            previous = outline.statements[i - 1].anchor
            found.append(("not_increasing", f"does not increase past {previous}"))
        violations.extend(
            Violation(kind, i, f"anchor {anchor} {message}") for kind, message in found
        )
        if not stmt.text.strip():
            violations.append(Violation("empty_text", i, "statement text is empty"))
    return violations


def statement_comment_line(unit: SourceUnit, stmt: OutlineStatement) -> str:
    """The star-comment line for one statement, indented like its anchor."""
    indent = leading_whitespace(unit.line(stmt.anchor))
    prefix = (
        unit.profile.verified_prefix if stmt.verified else unit.profile.star_prefix
    )
    return f"{indent}{prefix} {stmt.text}"


def render_interleaved(unit: SourceUnit, outline: Outline) -> SourceUnit:
    """Insert one star comment directly above each anchor line.

    Original lines are preserved byte-identically and in order.
    Raises :class:`PlacementError` when the outline does not validate.
    """
    lines = _interleave(unit, outline, lambda stmt: statement_comment_line(unit, stmt))
    return SourceUnit(lines=tuple(lines), profile=unit.profile)


def _interleave(unit: SourceUnit, outline: Outline, comment: Callable) -> list[str]:
    """The unit's lines with ``comment(stmt)`` directly above each
    statement's anchor; raises :class:`PlacementError` when the outline does
    not validate."""
    violations = validate(outline, unit)
    if violations:
        raise PlacementError(violations)
    by_anchor = {s.anchor: s for s in outline.statements}
    out: list[str] = []
    for i, line in enumerate(unit.lines, start=1):
        stmt = by_anchor.get(i)
        if stmt is not None:
            out.append(comment(stmt))
        out.append(line)
    return out


def render_standalone(unit: SourceUnit, outline: Outline) -> str:
    """Render the outline without code: the unit's first line, then bullets.

    Bullet nesting follows the anchor lines' indentation: distinct
    indentation depths, ascending, map to nesting levels.
    """
    violations = validate(outline, unit)
    if violations:
        raise PlacementError(violations)
    out = [unit.line(1)] if len(unit) else []
    if outline.statements:
        depths = sorted({indentation(unit.line(s.anchor)) for s in outline.statements})
        level = {d: i for i, d in enumerate(depths)}
        for stmt in outline.statements:
            lvl = level[indentation(unit.line(stmt.anchor))]
            out.append(f"{'  ' * lvl}- {stmt.text}")
    return "\n".join(out)


def extract(unit_with_comments: SourceUnit) -> tuple[SourceUnit, Outline]:
    """Split a unit into bare code plus the outline held in its star comments.

    Every star-comment line is removed and becomes a statement anchored at
    the next line below it that is neither a star comment nor blank (blank
    lines belong above the comment, which sits directly above its section).
    A run of consecutive star comments joins into one statement, texts
    concatenated by a single space, because anchors may not repeat.  A
    star-comment-shaped line inside a string literal stays code.
    """
    profile = unit_with_comments.profile
    bare: list[str] = []
    # Collected runs: (text parts, verified flags) awaiting the next bare line.
    pending: list[tuple[str, bool]] = []
    raw_statements: list[OutlineStatement] = []
    in_string = None  # read from the line model at the first star comment
    for i, line in enumerate(unit_with_comments.lines):
        cls = classify_line(profile, line)
        if cls in STAR_CLASSES:
            in_string = in_string or unit_with_comments._line_model.in_string
            if not in_string[i]:
                pending.append(_comment_text(profile, line, cls))
                continue
        bare.append(line)
        if pending and cls is not LineClass.BLANK:
            raw_statements.append(_joined(len(bare), pending))
            pending = []
    if pending:
        raise DanglingCommentError(
            "star comment has no following line to anchor to: "
            + repr(pending[-1][0])
        )
    return (
        SourceUnit(lines=tuple(bare), profile=profile),
        Outline(statements=tuple(raw_statements)),
    )


def _comment_text(
    profile: LanguageProfile, line: str, cls: LineClass
) -> tuple[str, bool]:
    """A comment line's text without its prefix and one following space,
    plus whether it is a verified star comment."""
    verified = cls is LineClass.VERIFIED_STAR_COMMENT
    if verified:
        prefix = profile.verified_prefix
    elif cls is LineClass.STAR_COMMENT:
        prefix = profile.star_prefix
    else:
        prefix = profile.line_comment_token
    text = line.lstrip()[len(prefix):]
    if text.startswith(" "):
        text = text[1:]
    return text, verified


def _joined(anchor: int, run: list[tuple[str, bool]]) -> OutlineStatement:
    """One statement from a run of comment (text, verified) pairs: texts
    joined by a single space, verified only when every part is."""
    return OutlineStatement(
        anchor=anchor, text=" ".join(t for t, _ in run), verified=all(v for _, v in run)
    )


def _line_mapping(old_unit: SourceUnit, new_unit: SourceUnit) -> dict[int, int]:
    """Map 1-based old line indices to new ones for aligned lines: unchanged
    lines, and edited lines paired by position within each replaced run.

    The common head and tail pair by position, and the matcher sees only
    the lines between them: given whole units, it pairs a line with the
    earliest of its copies, so editing one of two equal lines would move
    the other's anchor onto it."""
    old, new = old_unit.lines, new_unit.lines
    shorter = min(len(old), len(new))
    head = 0
    while head < shorter and old[head] == new[head]:
        head += 1
    tail = 0
    while tail < shorter - head and old[-1 - tail] == new[-1 - tail]:
        tail += 1
    old_end, new_end = len(old) - tail, len(new) - tail
    mapping = {i: i for i in range(1, head + 1)}
    matcher = difflib.SequenceMatcher(
        a=old[head:old_end], b=new[head:new_end], autojunk=False
    )
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("equal", "replace"):  # zip stops at the shorter side
            mapping.update(
                zip(range(head + i1 + 1, head + i2 + 1), range(head + j1 + 1, head + j2 + 1))
            )
    mapping.update(zip(range(old_end + 1, len(old) + 1), range(new_end + 1, len(new) + 1)))
    return mapping


def remap_anchors(
    outline: Outline, old_unit: SourceUnit, new_unit: SourceUnit
) -> tuple[Outline, list[OutlineStatement]]:
    """Carry anchors from ``old_unit`` onto ``new_unit``.

    Lines are aligned by position in the common head and tail and by a
    longest-common-subsequence style matching between them, and
    an edited line keeps its place in a run of replaced lines; statements
    anchored on deleted lines, or on lines where an anchor is no
    longer valid (say, now inside a string literal), are dropped and
    returned as stale.
    """
    mapping = _line_mapping(old_unit, new_unit)
    # A deleted line maps to anchor 0, which ``validate`` reports as out of range.
    moved = Outline(tuple(replace(s, anchor=mapping.get(s.anchor, 0)) for s in outline))
    invalid = {v.statement_index for v in validate(moved, new_unit)}
    kept = [s for i, s in enumerate(moved) if i not in invalid]
    stale = [s for i, s in enumerate(outline) if i in invalid]
    return Outline(statements=tuple(kept)), stale


def diff_outlines(
    old: Outline, new: Outline, old_unit: SourceUnit, new_unit: SourceUnit
) -> OutlineDiff:
    """Compare two outlines by aligned anchor position.

    Old anchors are remapped onto ``new_unit``; statements matched at the
    same remapped anchor with equal text are unchanged (omitted), with
    differing text are changed, and everything else is added or removed.
    """
    mapping = _line_mapping(old_unit, new_unit)
    new_by_anchor = {s.anchor: s for s in new.statements}
    removed: list[OutlineStatement] = []
    changed: list[tuple[OutlineStatement, OutlineStatement]] = []
    matched_new_anchors: set[int] = set()
    for stmt in old.statements:
        new_anchor = mapping.get(stmt.anchor)
        counterpart = new_by_anchor.get(new_anchor) if new_anchor is not None else None
        if counterpart is None:
            removed.append(stmt)
            continue
        matched_new_anchors.add(new_anchor)
        if counterpart.text != stmt.text:
            changed.append((stmt, counterpart))
    added = tuple(s for s in new.statements if s.anchor not in matched_new_anchors)
    return OutlineDiff(added=added, removed=tuple(removed), changed=tuple(changed))
