"""Source code as classified lines, plus numbering and docstring detection.

A :class:`SourceUnit` is an immutable sequence of text lines paired with a
:class:`LanguageProfile` that knows the language's line-comment token.  All
line indices in this package are 1-based.
"""

from __future__ import annotations

import enum
import functools
import os
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import InputError


class LineClass(enum.Enum):
    """The unique class of a source line."""

    BLANK = "blank"
    COMMENT = "comment"
    STAR_COMMENT = "star_comment"
    VERIFIED_STAR_COMMENT = "verified_star_comment"
    CODE = "code"


COMMENT_CLASSES = frozenset(
    {LineClass.COMMENT, LineClass.STAR_COMMENT, LineClass.VERIFIED_STAR_COMMENT}
)
STAR_CLASSES = frozenset({LineClass.STAR_COMMENT, LineClass.VERIFIED_STAR_COMMENT})

# Widest line number that fits the 3-character prefix field.
MAX_NUMBERED_LINES = 999

@dataclass(frozen=True)
class LanguageProfile:
    """Comment syntax and docstring convention for one language.

    A star comment is the line-comment token immediately followed by ``*``
    (e.g. ``#*`` or ``//*``) and a verified star comment appends ``!``
    (``#*!``).
    """

    name: str
    line_comment_token: str
    docstring_rule: str = "none"  # "python_triple_quote" or "none"

    def __post_init__(self) -> None:
        if not self.line_comment_token or any(
            c.isspace() for c in self.line_comment_token
        ):
            raise ValueError("line comment token must be non-empty without whitespace")
        if self.docstring_rule not in ("python_triple_quote", "none"):
            raise ValueError(f"unknown docstring rule: {self.docstring_rule}")

    # Cached: ``classify_line`` reads both on every call.
    @functools.cached_property
    def star_prefix(self) -> str:
        return self.line_comment_token + "*"

    @functools.cached_property
    def verified_prefix(self) -> str:
        return self.star_prefix + "!"


PYTHON_PROFILE = LanguageProfile(
    name="python", line_comment_token="#", docstring_rule="python_triple_quote"
)
C_LIKE_PROFILE = LanguageProfile(name="c_like", line_comment_token="//")

PROFILES = {p.name: p for p in (PYTHON_PROFILE, C_LIKE_PROFILE)}


_C_LIKE_EXTENSIONS = frozenset({"c", "h", "cc", "cpp", "hpp", "java", "js", "ts", "go", "rs"})


def profile_for_path(
    path: str, profiles: dict[str, LanguageProfile] | None = None
) -> LanguageProfile:
    """The profile for a file, from its extension taken without its dot and
    in lower case: the entry of ``profiles`` (configured profiles, keyed by
    lower-case extension) of that name, else the shipped C-like profile for
    a C-like extension, else the Python profile.

    This is the one place the package reads a file extension."""
    extension = os.path.splitext(path)[1][1:].lower()
    if profiles and extension in profiles:
        return profiles[extension]
    return C_LIKE_PROFILE if extension in _C_LIKE_EXTENSIONS else PYTHON_PROFILE


@dataclass(frozen=True)
class _LineModel:
    """Where literals, continuations, docstring and body lie in a unit.
    Per-line tuples hold the state where line ``i`` begins at index ``i - 1``;
    brackets and backslashes in literals and comments do not count."""

    in_string: tuple[bool, ...]  # inside a string literal opened above
    depth: tuple[int, ...]  # signed count of brackets left open above
    backslash: tuple[bool, ...]  # the line above ends in a backslash
    docstring: tuple[int, int] | None  # opening the first def/class body
    first_body_line: int | None  # first non-blank line below signature and docstring


def _lf_line_ends(text: str) -> str:
    r"""``text`` with each ``\r\n`` and ``\r`` line ending written as ``\n``."""
    if "\r" in text:  # a test for "\r" is cheaper than a search for "\r\n"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _split_lines(text: str) -> list[str]:
    r"""Lines ended only by ``\n``, ``\r\n`` or ``\r``, as in Python and C (``str.splitlines``
    also ends one at ``\f``, U+2028 and six others); a final ending opens no line."""
    lines = _lf_line_ends(text).split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _non_blank_below(lines: Sequence[str], after: int) -> int | None:
    """The 1-based index of the first non-blank line below line ``after``."""
    return next((j + 1 for j in range(after, len(lines)) if lines[j].strip()), None)


@dataclass(frozen=True)
class SourceUnit:
    """An immutable, line-indexed piece of source code."""

    lines: tuple[str, ...]
    profile: LanguageProfile = PYTHON_PROFILE

    def __post_init__(self) -> None:
        joined = "".join(self.lines)  # one scan per unit, not two per line
        if "\n" in joined or "\r" in joined:
            raise ValueError("source lines must not contain newline characters")

    @classmethod
    def from_text(cls, text: str, profile: LanguageProfile = PYTHON_PROFILE) -> "SourceUnit":
        return cls(lines=tuple(_split_lines(text)), profile=profile)

    def text(self) -> str:
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def line(self, index: int) -> str:
        """Return the line at a 1-based index."""
        if not 1 <= index <= len(self.lines):
            raise IndexError(f"line index {index} out of range 1..{len(self.lines)}")
        return self.lines[index - 1]

    def classify(self, index: int) -> LineClass:
        return classify_line(self.profile, self.line(index))

    @functools.cached_property
    def _line_model(self) -> _LineModel:
        return _scan(self)


def classify_line(profile: LanguageProfile, line: str) -> LineClass:
    """Classify one line.  Total and deterministic.

    Whitespace-only lines are blank.  ``#*!`` wins over ``#*`` which wins
    over a plain comment.
    """
    stripped = line.strip()
    if not stripped:
        return LineClass.BLANK
    if stripped.startswith(profile.verified_prefix):
        return LineClass.VERIFIED_STAR_COMMENT
    if stripped.startswith(profile.star_prefix):
        return LineClass.STAR_COMMENT
    if stripped.startswith(profile.line_comment_token):
        return LineClass.COMMENT
    return LineClass.CODE


def number_lines(unit: SourceUnit) -> str:
    """Prefix every line with its right-aligned width-3 line number and ``|``.

    Refuses units beyond 999 lines; the numbering targets function-sized
    inputs and the prefix field is fixed at 3 characters.
    """
    if len(unit) == 0:
        raise InputError("cannot number an empty unit")
    if len(unit) > MAX_NUMBERED_LINES:
        raise InputError(
            f"unit has {len(unit)} lines; numbering supports at most {MAX_NUMBERED_LINES}"
        )
    return "\n".join(_numbered(unit.lines))


_prefixes: tuple[str, ...] = ()  # "  1|", "  2|", ...: built on first use


def _numbered(lines: Sequence[str]) -> Iterator[str]:
    """``f"{i:>3}|{line}"`` for each of ``lines``, numbered from 1.

    The prefixes come from one table, built on first use and extended, at
    least twofold, when a unit or diff needs more; each prefix is formatted
    once.  The table is replaced, never grown in place, so a thread still
    reading the old one is unaffected.
    """
    global _prefixes
    prefixes = _prefixes
    if len(prefixes) < len(lines):
        size = max(len(lines), 2 * len(prefixes))
        prefixes = _prefixes = prefixes + tuple(
            f"{i:>3}|" for i in range(len(prefixes) + 1, size + 1)
        )
    return map(str.__add__, prefixes, lines)


def indentation(line: str) -> int:
    """Indentation depth as the count of leading whitespace characters."""
    return len(line) - len(line.lstrip())


def leading_whitespace(line: str) -> str:
    return line[: indentation(line)]


def docstring_span(unit: SourceUnit) -> tuple[int, int] | None:
    """The 1-based inclusive line span of the triple-quoted literal that is the
    first statement below the first def/class signature, or ``None``."""
    return unit._line_model.docstring


# A line comment (its text in group 1) or a string literal: one-line unless a
# backslash escapes the newline, or triple-quoted under python_triple_quote
# (closing quotes in group 2 or 3).  Literal first characters let re skip ahead.
@functools.lru_cache(maxsize=None)
def _literals(profile: LanguageProfile) -> re.Pattern:
    pattern = r"""'[^'\\\n]*(?:\\.[^'\\\n]*)*'?|"[^"\\\n]*(?:\\.[^"\\\n]*)*"?"""
    if profile.docstring_rule == "python_triple_quote":
        pattern = (
            r"""'''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*(''')?|"""
            r'''"""[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*(""")?|'''
            + pattern
        )
    token = re.escape(profile.line_comment_token)
    return re.compile(f"{token}([^\\n]*)|{pattern}", re.DOTALL)


# Like the package's other patterns, the shipped profiles' compile at import.
list(map(_literals, PROFILES.values()))
_STRING_PREFIX = re.compile(r"\s*[rRuUbB]{0,2}")  # before a docstring
_ROUND = str.maketrans("[{]}", "(())")  # every bracket kind counts alike


def _scan(unit: SourceUnit) -> _LineModel:
    """Mask comments and literals out with one regex; read the rest per line."""
    lines = unit.lines
    text = "\n".join(lines)
    in_string = [False] * len(lines)
    leading: dict[int, int] = {}  # closed triple-quoted literal opening a row
    row = end = 0

    def mask(found: re.Match) -> str:
        nonlocal row, end
        if found.group(1) is not None:
            return ""
        start = found.start()
        row += text.count("\n", end, start)
        end = found.end()
        breaks = text.count("\n", start, end)
        in_string[row + 1 : row + 1 + breaks] = [True] * breaks
        line_start = text.rfind("\n", 0, start) + 1
        if found.lastindex and _STRING_PREFIX.fullmatch(text, line_start, start):
            leading[row] = row + breaks
        row += breaks
        return "0" + "\n" * breaks

    masked = _literals(unit.profile).sub(mask, text).translate(_ROUND).split("\n")
    level = list(accumulate((c.count("(") - c.count(")") for c in masked), initial=0))
    tails = [c.rstrip() for c in masked]

    signature_end = docstring = body = None
    for i, line in enumerate(lines):
        if not in_string[i] and line.lstrip().startswith(("def ", "async def ", "class ")):
            ends = (j for j in range(i, len(lines)) if level[j + 1] <= level[i])
            signature_end = next((j + 1 for j in ends if tails[j].endswith(":")), None)
            break
    if signature_end is not None:
        body = _non_blank_below(lines, signature_end)
        if body is not None and body - 1 in leading:
            docstring = (body, leading[body - 1] + 1)
            body = _non_blank_below(lines, docstring[1])
    backslash = (False, *(t.endswith("\\") for t in tails[:-1]))
    return _LineModel(
        tuple(in_string), tuple(level[:-1]), backslash, docstring, body
    )
