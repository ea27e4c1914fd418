"""Virtual split of a change list: group diff changes into described topics.

The change list itself is never altered.  One query proposes an ordered
topic list (most important first); then, per file and in parallel, the model
outlines the numbered diff with ``N|T| description`` lines assigning each
diff section to a topic.  Assembly guarantees a partition: every changed
line lands in exactly one section, with anything unexplained collected
under the reserved final topic "Other changes".
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .errors import DiffParseError, InputError, TopicParseError
from .fanout import fan_out
from .gateway import Backend, ChatPrompt, _ask, user_prompt
from .generation import ParseIssue, _order_records, _scan_records
from .source_model import _numbered, _split_lines

OTHER_CHANGES = "Other changes"

_HUNK_HEADER = re.compile(r"@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@.*")
_SECTION_LINE = re.compile(r"\s*(\d+)\|(\d+)\| ?(.*)")
_TOPIC_LINE = re.compile(r"\s*(\d+)[.)]\s+(\S.*?)\s*")
_SKIPPABLE = (
    "diff ",
    "index ",
    "old mode",
    "new mode",
    "new file",
    "deleted file",
    "similarity ",
    "dissimilarity ",
    "rename ",
    "copy ",
    "Binary files",
)


# --- Data model ---------------------------------------------------------------


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[tuple[str, str], ...]  # (marker, text); marker: context|added|removed

    def __post_init__(self) -> None:
        markers = next(zip(*self.lines), ())
        context = markers.count("context")
        old = context + markers.count("removed")
        new = context + markers.count("added")
        if old != self.old_len or new != self.new_len:
            raise ValueError(
                f"hunk body ({old} old, {new} new lines) contradicts header "
                f"(-{self.old_len} +{self.new_len})"
            )

    def header(self) -> str:
        return f"@@ -{self.old_start},{self.old_len} +{self.new_start},{self.new_len} @@"


_MARKER_CHAR = {"context": " ", "added": "+", "removed": "-"}
_CHANGED_KINDS = frozenset(("added", "removed"))


@dataclass(frozen=True)
class FileDiff:
    old_path: str
    new_path: str
    hunks: tuple[Hunk, ...]

    @property
    def path(self) -> str:
        chosen = self.new_path if self.new_path != "/dev/null" else self.old_path
        for prefix in ("a/", "b/"):
            if chosen.startswith(prefix):
                return chosen[len(prefix):]
        return chosen

    def render_lines(self) -> list[str]:
        """The file's diff text, one entry per line."""
        return list(self._rendered)

    @cached_property
    def _kinds(self) -> tuple[tuple[str, str], ...]:
        """(text, kind) pairs; kinds: file_header, hunk_header, context,
        added, removed."""
        out = [
            (f"--- {self.old_path}", "file_header"),
            (f"+++ {self.new_path}", "file_header"),
        ]
        for hunk in self.hunks:
            out.append((hunk.header(), "hunk_header"))
            for marker, text in hunk.lines:
                out.append((_MARKER_CHAR[marker] + text, marker))
        return tuple(out)

    @cached_property
    def _rendered(self) -> tuple[str, ...]:
        return next(zip(*self._kinds))

    @cached_property
    def _numbered_lines(self) -> tuple[str, ...]:
        """Every rendered line as ``f"{i:>3}|{line}"``, numbered from 1: the
        prompt and the report windows share it."""
        return tuple(_numbered(self._rendered))

    @cached_property
    def _changed(self) -> tuple[int, ...]:
        return tuple(
            i for i, (_, kind) in enumerate(self._kinds, 1) if kind in _CHANGED_KINDS
        )

    def changed_positions(self) -> tuple[int, ...]:
        """1-based positions of added/removed lines within render_lines()."""
        return self._changed

    def text(self) -> str:
        return "\n".join(self._rendered)


@dataclass(frozen=True)
class ChangeList:
    description: str
    files: tuple[FileDiff, ...]

    def __post_init__(self) -> None:
        paths = [f.path for f in self.files]
        if len(paths) != len(set(paths)):
            raise InputError("change list contains duplicate file paths")

    def total_changed_lines(self) -> int:
        return sum(len(f.changed_positions()) for f in self.files)


@dataclass(frozen=True)
class Topic:
    index: int  # 1-based
    title: str

    def __post_init__(self) -> None:
        if not self.title.strip():
            raise ValueError("topic titles must be non-empty")


@dataclass(frozen=True)
class Section:
    anchor: int  # line within the numbered diff; 0 marks the catch-all section
    description: str
    topic_index: int
    changed_lines: tuple[int, ...] = ()  # filled in by assemble_split


@dataclass(frozen=True)
class FileAssignment:
    path: str
    sections: tuple[Section, ...]


@dataclass(frozen=True)
class VirtualSplit:
    topics: tuple[Topic, ...]
    assignments: tuple[FileAssignment, ...]
    coverage: tuple[tuple[int, float], ...]  # (topic index, changed-line fraction)

    def coverage_of(self, topic_index: int) -> float:
        return dict(self.coverage).get(topic_index, 0.0)


# --- Unified diff parsing -----------------------------------------------------


def parse_unified_diff(text: str) -> tuple[FileDiff, ...]:
    """Parse ---/+++ headers and @@ hunks, validating hunk arithmetic.

    Unknown metadata lines (diff headers, mode lines, ...) are skipped.
    """
    lines = _split_lines(text)
    files: list[FileDiff] = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if line.startswith("--- "):
            old_path = line[4:].split("\t")[0]
            i += 1
            if i >= n or not lines[i].startswith("+++ "):
                raise DiffParseError("'---' header not followed by '+++'", i + 1)
            new_path = lines[i][4:].split("\t")[0]
            i += 1
            hunks, i = _parse_hunks(lines, i)
            files.append(FileDiff(old_path=old_path, new_path=new_path, hunks=tuple(hunks)))
        elif not line.strip() or line.startswith(_SKIPPABLE):
            i += 1
        else:
            raise DiffParseError(f"unexpected line outside a file diff: {line!r}", i + 1)
    return tuple(files)


# A hunk body line by its first character: (kind, old lines, new lines) it
# takes up; a None kind is a "\ No newline at end of file" remark.
_BODY_LINE = {
    "+": ("added", 0, 1),
    "-": ("removed", 1, 0),
    " ": ("context", 1, 1),
    "": ("context", 1, 1),
    "\\": (None, 0, 0),
}


def _parse_hunks(lines: list[str], i: int) -> tuple[list[Hunk], int]:
    """Parse the hunks from line ``i`` on; return them and the index after them."""
    hunks: list[Hunk] = []
    n = len(lines)
    classify = _BODY_LINE.get
    while i < n and lines[i].startswith("@@"):
        match = _HUNK_HEADER.fullmatch(lines[i])
        if match is None:
            raise DiffParseError(f"malformed hunk header: {lines[i]!r}", i + 1)
        old_start = int(match.group(1))
        old_len = int(match.group(2)) if match.group(2) is not None else 1
        new_start = int(match.group(3))
        new_len = int(match.group(4)) if match.group(4) is not None else 1
        i += 1
        body: list[tuple[str, str]] = []
        keep = body.append
        old_left, new_left = old_len, new_len
        while old_left > 0 or new_left > 0:
            if i >= n:
                raise DiffParseError("diff ended inside a hunk", i)
            raw = lines[i]
            i += 1
            step = classify(raw[:1])
            if step is None:
                raise DiffParseError(f"unexpected hunk body line: {raw!r}", i)
            kind, old_step, new_step = step
            if kind is None:
                continue
            keep((kind, raw[1:]))
            old_left -= old_step
            new_left -= new_step
            if old_left < 0 or new_left < 0:
                raise DiffParseError("hunk body contradicts its header counts", i)
        if i < n and lines[i].startswith("\\"):  # after the hunk's last line
            i += 1
        hunk = Hunk(
            old_start=old_start,
            old_len=old_len,
            new_start=new_start,
            new_len=new_len,
            lines=tuple(body),
        )
        hunks.append(hunk)
    if not hunks:
        raise DiffParseError("file diff contains no hunks", i + 1)
    return hunks, i


def apply_file_diff(old_lines: list[str], filediff: FileDiff) -> list[str]:
    """Apply a parsed file diff to the old content (used to verify diffs)."""
    out: list[str] = []
    cursor = 0  # 0-based index into old_lines
    for hunk in filediff.hunks:
        start = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        out.extend(old_lines[cursor:start])
        cursor = start
        for marker, text in hunk.lines:
            if marker == "context":
                if cursor >= len(old_lines) or old_lines[cursor] != text:
                    raise DiffParseError(
                        f"context mismatch applying hunk at old line {cursor + 1}"
                    )
                out.append(text)
                cursor += 1
            elif marker == "removed":
                if cursor >= len(old_lines) or old_lines[cursor] != text:
                    raise DiffParseError(
                        f"removed-line mismatch at old line {cursor + 1}"
                    )
                cursor += 1
            else:
                out.append(text)
    out.extend(old_lines[cursor:])
    return out


# --- Numbering ----------------------------------------------------------------


def change_run_starts(filediff: FileDiff) -> tuple[int, ...]:
    """First line of each maximal run of added/removed lines."""
    changed = filediff.changed_positions()
    return tuple(p for p, before in zip(changed, (-1, *changed)) if p != before + 1)


def number_diff(filediff: FileDiff) -> str:
    """Prefix every diff line with ``N|`` and append change-start hints."""
    numbered = "\n".join(filediff._numbered_lines)
    starts = change_run_starts(filediff)
    if not starts:
        return numbered
    hint = "Change blocks start at lines: " + ", ".join(map(str, starts))
    return f"{numbered}\n\n{hint}"


def strip_diff_numbering(numbered: str) -> str:
    """Invert :func:`number_diff`, recovering the raw diff text."""
    body = numbered.split("\n\nChange blocks start at lines: ")[0]
    return "\n".join(line.split("|", 1)[1] for line in _split_lines(body))


# --- Topic generation ---------------------------------------------------------

TOPICS_INSTRUCTIONS = """\
You are an expert code reviewer. You are given a change list: its description and the diffs of every changed file, in unified format.

Your job is to propose topics that group the changes into logical units a reviewer can examine one at a time.

Follow these rules:
* First, summarize each file's changes in one sentence, as reasoning.
* Then write a line reading exactly "Topics:" followed by a numbered list of topics, one per line, like "1. Added retry logic to the fetcher".
* Order the topics from most to least important.
* Each topic is a short phrase describing one logical change.
* Use between 1 and 6 topics; do not invent topics the diffs do not support.
* The reserved last topic "Other changes" collects low-priority changes such as imports, formatting, and typo fixes; include it only when needed."""

_TOPICS_USER = """\
Change list description:
{description}

File diffs:
{diffs}

Summarize each file's changes, then list the topics."""

_TOPICS_EXAMPLE_USER = """\
Change list description:
Cache template lookups

File diffs:
--- a/render.py
+++ b/render.py
@@ -1,6 +1,10 @@
 import jinja2
+from functools import lru_cache

+@lru_cache(maxsize=256)
 def load_template(name):
-    return jinja2.Template(open(name).read())
+    with open(name) as f:
+        return jinja2.Template(f.read())

 def render(name, context):
     return load_template(name).render(context)
--- a/render_test.py
+++ b/render_test.py
@@ -10,3 +10,8 @@
 def test_render():
     assert render('t.html', {}) == 'ok'
+
+
+def test_load_template_cached():
+    assert load_template('t.html') is load_template('t.html')

Summarize each file's changes, then list the topics."""

_TOPICS_EXAMPLE_ASSISTANT = """\
render.py caches template loading with lru_cache and closes the file properly.
render_test.py adds a test that repeated lookups return the cached template.

Topics:
1. Cache template lookups
2. Other changes"""


def _other_index(topics) -> int | None:
    """The index of the reserved catch-all topic, or None when it is absent."""
    return next(
        (t.index for t in topics if t.title.strip().lower() == OTHER_CHANGES.lower()),
        None,
    )


def ensure_other_changes(topics) -> tuple[Topic, ...]:
    """Append the reserved catch-all topic unless it is already present."""
    topics = tuple(topics)
    if _other_index(topics) is not None:
        return topics
    return topics + (Topic(index=len(topics) + 1, title=OTHER_CHANGES),)


def parse_topics(response: str) -> tuple[Topic, ...]:
    """Read ``N. title`` lines, preferring those after the last "Topics:" marker.

    A numbered line with a blank title is skipped."""
    lines = _split_lines(response)
    marker_indexes = [
        i for i, ln in enumerate(lines) if ln.strip().lower() == "topics:"
    ]
    candidates = lines[marker_indexes[-1] + 1 :] if marker_indexes else lines
    titles = [match.group(2) for match in map(_TOPIC_LINE.fullmatch, candidates) if match]
    if not titles:
        raise TopicParseError("response contains no numbered topic line with a title")
    topics = tuple(Topic(index=i, title=t) for i, t in enumerate(titles, start=1))
    return ensure_other_changes(topics)


def build_topics_prompt(cl: ChangeList) -> ChatPrompt:
    diffs = "\n".join(f.text() for f in cl.files)
    return user_prompt(
        TOPICS_INSTRUCTIONS,
        _TOPICS_USER.format(description=cl.description, diffs=diffs),
        [(_TOPICS_EXAMPLE_USER, _TOPICS_EXAMPLE_ASSISTANT)],
    )


def generate_topics(cl: ChangeList, backend: Backend) -> tuple[Topic, ...]:
    if not cl.files:
        raise InputError("change list has no files")
    response = _ask(build_topics_prompt(cl), backend)
    return parse_topics(response)


# --- Per-file sectioning ------------------------------------------------------

SECTIONS_INSTRUCTIONS = """\
You are an expert code reviewer. You are given a change list description, one file's diff with line numbers added, and a numbered list of topics.

Partition the diff into sections, where each section is a block of related changes, and assign every section to the topic it belongs to.

Follow these rules:
* Respond with one line per section, in the form "N|T| description".
* N is the diff line number where the section starts, T is the number of its topic, and the description is one short sentence about the section's changes.
* List sections from top to bottom of the diff; every changed line should fall in some section.
* Use the change-start hints to find where blocks of changes begin.
* Do not repeat the diff. Just provide the section lines."""

_SECTIONS_USER = """\
Change list description:
{description}

Diff of {path}, with line numbers added for reference:
{numbered}

Topics:
{topics}

Partition this diff into sections and assign each to a topic."""


def build_sections_prompt(
    description: str, filediff: FileDiff, topics: tuple[Topic, ...]
) -> ChatPrompt:
    topic_lines = "\n".join(f"{t.index}. {t.title}" for t in topics)
    return user_prompt(
        SECTIONS_INSTRUCTIONS,
        _SECTIONS_USER.format(
            description=description,
            path=filediff.path,
            numbered=number_diff(filediff),
            topics=topic_lines,
        ),
    )


def parse_sections(
    response: str, filediff: FileDiff, topics: tuple[Topic, ...]
) -> tuple[tuple[Section, ...], tuple[ParseIssue, ...]]:
    """Parse ``N|T| description`` lines with the infilling error taxonomy.

    Unknown topic indices are reassigned to "Other changes" with a major
    issue.  An empty response yields zero sections; assembly repairs that.
    """
    topics = ensure_other_changes(topics)
    other_index = _other_index(topics)
    known = {t.index for t in topics}
    records, issues = _scan_records(response, _SECTION_LINE, len(filediff._kinds))
    remapped: list[tuple[int, int, str]] = []
    for anchor, topic_index, description, lineno in records:
        if topic_index not in known:
            issues.append(
                ParseIssue(
                    "unknown_topic_index",
                    location=lineno,
                    detail=f"topic {topic_index} does not exist; "
                    f"reassigned to {OTHER_CHANGES!r}",
                )
            )
            topic_index = other_index
        remapped.append((anchor, topic_index, description))
    sections = tuple(
        Section(a, d, t) for a, t, d in _order_records(remapped, issues)
    )
    return sections, tuple(issues)


def split_file(
    description: str,
    filediff: FileDiff,
    topics: tuple[Topic, ...],
    backend: Backend,
) -> tuple[tuple[Section, ...], tuple[ParseIssue, ...]]:
    if not topics:
        raise ValueError("topics must be non-empty")
    prompt = build_sections_prompt(description, filediff, topics)
    response = _ask(prompt, backend)
    return parse_sections(response, filediff, topics)


# --- Assembly -----------------------------------------------------------------


def assemble_split(
    cl: ChangeList,
    per_file_sections,
    topics,
) -> VirtualSplit:
    """Turn per-file sections into a complete partition of the change list.

    Each changed line belongs to the nearest section anchored at or above
    it.  A catch-all section at line 0, under "Other changes", heads every
    file, so each line has an owner; it is kept only when it owns a line.
    """
    topics = ensure_other_changes(topics)
    catch_all = Section(0, "Unassigned changes", _other_index(topics))
    assignments: list[FileAssignment] = []
    counts: dict[int, int] = {t.index: 0 for t in topics}
    for filediff, sections in zip(cl.files, per_file_sections):
        ordered = [catch_all, *sorted(sections, key=lambda s: s.anchor)]
        changed = filediff.changed_positions()
        # The changed lines are ascending, so each section owns one slice of
        # them: from its own anchor's cut up to the next section's.
        cuts = [0, *(bisect_left(changed, s.anchor) for s in ordered[1:]), len(changed)]
        owned = [changed[a:b] for a, b in zip(cuts, cuts[1:])]
        assigned = tuple(
            Section(s.anchor, s.description, s.topic_index, lines)
            for s, lines in zip(ordered, owned)
            if lines or s is not catch_all
        )
        for section in assigned:
            counts[section.topic_index] += len(section.changed_lines)
        assignments.append(FileAssignment(path=filediff.path, sections=assigned))
    total = sum(counts.values())
    coverage = tuple(
        (index, (count / total) if total else 0.0) for index, count in counts.items()
    )
    return VirtualSplit(
        topics=tuple(topics), assignments=tuple(assignments), coverage=coverage
    )


@dataclass(frozen=True)
class SplitOutcome:
    split: VirtualSplit
    file_issues: tuple[tuple[str, tuple[ParseIssue, ...]], ...]


def split_changelist(
    cl: ChangeList,
    backend: Backend,
    max_workers: int = 1,
) -> SplitOutcome:
    """Full pipeline: topics, per-file sections (fanned out), assembly.

    File sectioning may run concurrently; results are merged in file order,
    so the outcome does not depend on scheduling.
    """
    topics = generate_topics(cl, backend)

    def one(filediff: FileDiff):
        return split_file(cl.description, filediff, topics, backend)

    results = fan_out(one, cl.files, max_workers)
    sections = [sections for sections, _ in results]
    issues = tuple(
        (f.path, result[1]) for f, result in zip(cl.files, results)
    )
    return SplitOutcome(
        split=assemble_split(cl, sections, topics), file_issues=issues
    )


# --- Reports ------------------------------------------------------------------

SPLIT_SCHEMA_VERSION = 1


def split_to_json(split: VirtualSplit, cl: ChangeList) -> str:
    """The split document as ``json.dumps(document, indent=2, sort_keys=True)``
    writes it, plus a final newline.  The document's shape is fixed, so it is
    written directly: the indenting encoder is pure Python."""
    string = encode_basestring_ascii
    topics = [
        "{\n"
        f'      "coverage": {json.dumps(round(split.coverage_of(t.index), 6))},\n'
        f'      "index": {t.index},\n'
        f'      "title": {string(t.title)}\n'
        "    }"
        for t in split.topics
    ]
    files = []
    for fa in split.assignments:
        sections = [
            "{\n"
            f'          "anchor": {s.anchor},\n'
            f'          "changed_lines": {_json_list([*map(str, s.changed_lines)], 12)},\n'
            f'          "description": {string(s.description)},\n'
            f'          "topic": {s.topic_index}\n'
            "        }"
            for s in fa.sections
        ]
        files.append(
            "{\n"
            f'      "path": {string(fa.path)},\n'
            f'      "sections": {_json_list(sections, 8)}\n'
            "    }"
        )
    return (
        "{\n"
        f'  "description": {string(cl.description)},\n'
        f'  "files": {_json_list(files, 4)},\n'
        f'  "topics": {_json_list(topics, 4)},\n'
        f'  "version": {SPLIT_SCHEMA_VERSION}\n'
        "}\n"
    )


def _json_list(items: list[str], indent: int) -> str:
    """Encoded ``items`` as an indented JSON array whose items sit ``indent``
    spaces in."""
    if not items:
        return "[]"
    pad = " " * indent
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def split_from_json(text: str) -> VirtualSplit:
    document = json.loads(text)
    if document.get("version") != SPLIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported split schema version: {document.get('version')!r}")
    topics = tuple(Topic(t["index"], t["title"]) for t in document["topics"])
    assignments = tuple(
        FileAssignment(
            path=f["path"],
            sections=tuple(
                Section(s["anchor"], s["description"], s["topic"], tuple(s["changed_lines"]))
                for s in f["sections"]
            ),
        )
        for f in document["files"]
    )
    coverage = tuple((t["index"], t["coverage"]) for t in document["topics"])
    return VirtualSplit(topics=topics, assignments=assignments, coverage=coverage)


def render_split_report(split: VirtualSplit, cl: ChangeList) -> dict[str, str]:
    """Render the split as JSON, a terminal report, and a static HTML page."""
    slices = _section_slices(split, cl)
    return {
        "json": split_to_json(split, cl),
        "terminal": _terminal_report(split, cl, slices),
        "html": _html_report(split, cl, slices),
    }


_CONTEXT_AROUND = 3
_MUTED, _SHOWN = repeat(True), repeat(False)


def _section_slices(split: VirtualSplit, cl: ChangeList) -> dict[int, list]:
    """Topic index to its sections' (path, section, numbered lines with
    muted flags), in file then section order."""
    files_by_path = {f.path: f for f in cl.files}
    slices: dict[int, list] = {}
    for assignment in split.assignments:
        numbered = files_by_path[assignment.path]._numbered_lines
        total = len(numbered)
        anchors = sorted(s.anchor for s in assignment.sections)
        for section in assignment.sections:
            start = max(section.anchor, 1)
            following = bisect_right(anchors, section.anchor)
            end = anchors[following] - 1 if following < len(anchors) else total
            low = max(1, start - _CONTEXT_AROUND)
            high = min(total, end + _CONTEXT_AROUND)
            # Lines low..start-1 and end+1..high are muted context; with
            # anchors >= 0, end >= start - 1.
            lines = [
                *zip(numbered[low - 1 : start - 1], _MUTED),
                *zip(numbered[start - 1 : end], _SHOWN),
                *zip(numbered[end:high], _MUTED),
            ]
            slices.setdefault(section.topic_index, []).append(
                (assignment.path, section, lines)
            )
    return slices


def _terminal_report(split: VirtualSplit, cl: ChangeList, slices) -> str:
    out = [f"Virtual split: {cl.description}"]
    for topic in split.topics:
        out.append(
            f"  {topic.index}. {topic.title} "
            f"({split.coverage_of(topic.index) * 100:.1f}% of changed lines)"
        )
    for topic in split.topics:
        if topic.index not in slices:
            continue
        out.append("")
        out.append(
            f"=== {topic.index}. {topic.title} "
            f"({split.coverage_of(topic.index) * 100:.1f}%) ==="
        )
        for path, section, lines in slices[topic.index]:
            out.append(f"--- {path}: {section.description}")
            for text, muted in lines:
                out.append(("  ~ " if muted else "    ") + text)
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    """``html.escape(text)``, without importing ``html`` and its entity table."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&#x27;")
    )


def _html_report(split: VirtualSplit, cl: ChangeList, slices) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>Virtual split</title>",
        "<style>body{font-family:sans-serif} pre{background:#f6f6f6;padding:8px}"
        " .muted{color:#999}</style></head><body>",
        f"<h1>Virtual split: {_escape(cl.description)}</h1>",
        "<ol>",
    ]
    for topic in split.topics:
        parts.append(
            f"<li>{_escape(topic.title)} "
            f"({split.coverage_of(topic.index) * 100:.1f}% of changed lines)</li>"
        )
    parts.append("</ol>")
    for topic in split.topics:
        if topic.index not in slices:
            continue
        parts.append(
            f"<details open><summary>{topic.index}. {_escape(topic.title)} "
            f"({split.coverage_of(topic.index) * 100:.1f}%)</summary>"
        )
        for path, section, lines in slices[topic.index]:
            parts.append(f"<p><code>{_escape(path)}</code>: {_escape(section.description)}</p>")
            rendered = [
                f"<span class='muted'>{_escape(text)}</span>" if muted else _escape(text)
                for text, muted in lines
            ]
            parts.append("<pre>" + "\n".join(rendered) + "</pre>")
        parts.append("</details>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
