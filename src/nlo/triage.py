"""Security triage of decompiled functions.

One query produces three predictions: a short summary (first, to support the
model's reasoning), a suspicion score from 0 (not suspicious at all) to 3
(very suspicious), and an outline of only the suspicious parts, which is
empty by design when the score is 0.

:func:`parse_triage` is total: any input text produces a prediction,
possibly with the sentinel score -1 and bracketed error strings.
"""

from __future__ import annotations

import functools
import re
import textwrap
from dataclasses import dataclass

from .fewshots import load_triage_examples
from .gateway import Backend, ChatPrompt, _ask, user_prompt
from .outline import Outline, OutlineStatement
from .source_model import SourceUnit, _lf_line_ends, _split_lines, number_lines

SCORE_MARKER = "\n\nSuspicion score:\n"
NOTES_MARKER = "\n\nNotes:\n"
EMPTY_OUTLINE_TOKEN = "<None>"

_NOTE_LINE = re.compile(r"^Lines? (\d+)(?: ?- ?\d+)?: (.*)$")

TRIAGE_INSTRUCTIONS = """\
You are an expert security analyst reviewing decompiled functions from mobile apps.
Decompiled code has lost its comments, types, and most names, but you can still recognize what it does and whether it misuses data, devices, or networks.

For each function, respond with exactly three sections:
* First, a summary of 1-3 sentences describing what the function does and why it is or is not suspicious.
* Then a line reading "Suspicion score:" followed by a line containing a single integer from 0 (not suspicious at all) to 3 (very suspicious).
* Then a line reading "Notes:" followed by an outline of only the suspicious parts of the code: one line per note, in the form "Line N: explanation" where N is the line number the note belongs above. If the score is 0, write "<None>" instead of notes.

Separate the sections with single blank lines and write nothing after the notes."""

_TRIAGE_USER = """\
Review this decompiled function, with line numbers added for reference:
```
{code}
```

Summarize what it does, rate how suspicious it is, and point out the suspicious lines."""


@dataclass(frozen=True)
class TriagePrediction:
    summary: str
    score: int  # 0..3, or -1 when the response was unusable
    outline: Outline
    errors: tuple[str, ...] = ()

    def consistent(self) -> bool:
        """Scores of 0 should come with empty outlines and vice versa."""
        return (self.score == 0) == (len(self.outline) == 0)


@dataclass(frozen=True)
class TriageResult:
    prediction: TriagePrediction
    consistent: bool


def parse_triage(
    response: str, summary_line_width: int | None = None
) -> TriagePrediction:
    """Extract (summary, suspicion score, outline, errors) from a response.

    Line ends follow :func:`~nlo.source_model._split_lines`.  The text is
    truncated at the first run of two consecutive blank lines,
    split at the score and notes markers, and the notes are parsed as
    ``Line N:`` entries (a range keeps only its first line number), sorted,
    with duplicates dropped keeping the first.
    """
    response = _lf_line_ends(response)
    if "\n\n\n" in response:
        response = response.split("\n\n\n")[0]
    errors: list[str] = []
    if SCORE_MARKER not in response:
        errors.append("[no score section]")
    if NOTES_MARKER not in response:
        errors.append("[no outline section]")
    if errors:
        return TriagePrediction(
            summary="", score=-1, outline=Outline(), errors=tuple(errors)
        )
    summary, _, remaining = response.partition(SCORE_MARKER)
    score_text, _, outline_text = remaining.partition(NOTES_MARKER)

    summary = summary.strip()
    score_text = score_text.strip()
    if score_text in ("0", "1", "2", "3"):
        score = int(score_text)
    else:
        errors.append(f"[unexpected score: {score_text}]")
        score = -1
    outline_text = outline_text.strip()

    pairs: list[tuple[int, str]] = []
    if outline_text != EMPTY_OUTLINE_TOKEN:
        for line in _split_lines(outline_text):
            match = _NOTE_LINE.fullmatch(line)
            if not match:
                errors.append("[malformed outline line]")
                continue
            pairs.append((int(match.group(1)), match.group(2)))

    pairs.sort(key=lambda pair: pair[0])
    i = 1
    while i < len(pairs):
        if pairs[i][0] == pairs[i - 1][0]:
            errors.append(f"[duplicate line number: {pairs[i][0]}]")
            pairs.pop(i)
        else:
            i += 1

    if summary_line_width:
        summary = "\n".join(
            "\n".join(textwrap.wrap(line, width=summary_line_width))
            for line in _split_lines(summary)
        )

    return TriagePrediction(
        summary=summary,
        score=score,
        outline=Outline(
            statements=tuple(OutlineStatement(a, t) for a, t in pairs)
        ),
        errors=tuple(errors),
    )


def triage_wire_text(prediction: TriagePrediction) -> str:
    """Serialize a prediction into the response wire format."""
    if prediction.outline.statements:
        notes = "\n".join(
            f"Line {s.anchor}: {s.text}" for s in prediction.outline.statements
        )
    else:
        notes = EMPTY_OUTLINE_TOKEN
    return (
        f"{prediction.summary}{SCORE_MARKER}{prediction.score}{NOTES_MARKER}{notes}"
    )


def build_triage_prompt(
    unit: SourceUnit, examples: tuple[tuple[SourceUnit, str], ...]
) -> ChatPrompt:
    user_text = _TRIAGE_USER.format(code=number_lines(unit))
    return user_prompt(TRIAGE_INSTRUCTIONS, user_text, _example_turns(examples))


@functools.lru_cache(maxsize=8)
def _example_turns(
    examples: tuple[tuple[SourceUnit, str], ...],
) -> tuple[tuple[str, str], ...]:
    """The numbered demonstration turns for one example set, built once:
    every triage prompt in a run repeats them verbatim."""
    return tuple((_TRIAGE_USER.format(code=number_lines(u)), wire) for u, wire in examples)


def triage(
    unit: SourceUnit,
    backend: Backend,
    examples: tuple[tuple[SourceUnit, str], ...] | None = None,
) -> TriageResult:
    """Run one triage query and flag score/outline inconsistency."""
    if examples is None:
        examples = load_triage_examples()
    response = _ask(build_triage_prompt(unit, examples), backend)
    prediction = parse_triage(response)
    return TriageResult(prediction=prediction, consistent=prediction.consistent())
