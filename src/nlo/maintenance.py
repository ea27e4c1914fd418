"""Finish Changes: have the model complete an edit the user started.

Given the old (code, outline) pair and the current pair containing the
user's partial edit, the model lists the user's changes, reasons about what
else must change, and returns the finished code with the outline interleaved
as star comments.  The result is presented as a diff and never auto-applied.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

from .errors import FinishParseError
from .gateway import Backend, ChatPrompt, _ask, user_prompt
from .outline import Outline, extract, render_interleaved, validate
from .source_model import LanguageProfile, SourceUnit

FINISH_INSTRUCTIONS = """\
You are an expert programmer maintaining code that carries an outline: short summary comments marked with a star (for example `#*` in Python), each placed directly above the section of code it describes.

The user was shown the old code with its outline, and has started making one or more changes, editing the code or the outline or both. Your job is to finish the changes:

1. First, list the changes the user has started, comparing the old and current versions.
2. Then, reason step by step about what further edits to the code and the outline are needed to complete those changes consistently (including docstrings, types, messages, and anything else the changes affect).
3. Finally, output the complete new code with the updated outline interleaved as star comments, inside one fenced code block. Keep everything the user did not ask to change exactly as it is."""

_FINISH_USER = """\
Here is the old version of the code, with its outline:
```
{old}
```

Here is the current version, where I have started making changes:
```
{current}
```

Please finish my changes. List what I changed, explain what else needs to change, and then give the complete updated code with its updated outline in one fenced code block."""

_FENCED_BLOCK = re.compile(r"```[^\n]*\n(.*?)\n?```", re.DOTALL)


@dataclass(frozen=True)
class EditSession:
    """Old and current (code, outline) pairs, each mutually valid."""

    old_unit: SourceUnit
    old_outline: Outline
    current_unit: SourceUnit
    current_outline: Outline

    def __post_init__(self) -> None:
        for label, unit, outline in (
            ("old", self.old_unit, self.old_outline),
            ("current", self.current_unit, self.current_outline),
        ):
            violations = validate(outline, unit)
            if violations:
                raise ValueError(
                    f"{label} outline does not fit its code: "
                    + "; ".join(v.message for v in violations)
                )


@dataclass(frozen=True)
class FinishResult:
    reasoning: str
    new_unit: SourceUnit
    new_outline: Outline
    diff: str  # unified diff, current -> new, outline comments included


def parse_finish_response(
    response: str, profile: LanguageProfile
) -> tuple[str, SourceUnit, Outline]:
    """Split a response into reasoning plus the last fenced code block,
    which is separated into bare code and its star-comment outline."""
    blocks = list(_FENCED_BLOCK.finditer(response))
    if not blocks:
        raise FinishParseError("response contains no fenced code block")
    last = blocks[-1]
    reasoning = response[: last.start()].strip()
    annotated = SourceUnit.from_text(last.group(1), profile=profile)
    new_unit, new_outline = extract(annotated)
    return reasoning, new_unit, new_outline


def unified_diff_text(a: SourceUnit, b: SourceUnit, path: str) -> str:
    """Standard unified diff between two units, with 3 context lines.

    The ---/+++ headers are always present, even for identical inputs.
    """
    body = list(
        difflib.unified_diff(
            list(a.lines),
            list(b.lines),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
            lineterm="",
            n=3,
        )
    )
    if not body:
        body = [f"--- a/{path}", f"+++ b/{path}"]
    return "\n".join(body)


def build_finish_prompt(session: EditSession) -> ChatPrompt:
    old = render_interleaved(session.old_unit, session.old_outline).text()
    current = render_interleaved(session.current_unit, session.current_outline).text()
    return user_prompt(FINISH_INSTRUCTIONS, _FINISH_USER.format(old=old, current=current))


def finish_changes(
    session: EditSession,
    backend: Backend,
    path: str = "function",
) -> FinishResult:
    """Run one finish-changes query.  The diff is data; applying it is a
    separate, explicit action."""
    response = _ask(build_finish_prompt(session), backend)
    reasoning, new_unit, new_outline = parse_finish_response(
        response, session.current_unit.profile
    )
    current_annotated = render_interleaved(
        session.current_unit, session.current_outline
    )
    new_annotated = render_interleaved(new_unit, new_outline)
    diff = unified_diff_text(current_annotated, new_annotated, path)
    return FinishResult(
        reasoning=reasoning, new_unit=new_unit, new_outline=new_outline, diff=diff
    )
