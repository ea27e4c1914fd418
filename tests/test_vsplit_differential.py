"""The virtual split's one-pass parser and direct writers against reference
copies of the straightforward code they replace.

Each reference below is the plain version: a parser that tests every marker
with ``startswith`` and rebuilds each rendered line from (marker, text), the
report document through ``json.dumps(indent=2, sort_keys=True)``, HTML
windows escaped one line at a time, and assembly that bisects the anchors
once per changed line.  The fast code must agree with them exactly, on
results and on every ``DiffParseError`` message and line.
"""

import html
import json
import re
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from nlo.errors import DiffParseError
from nlo.source_model import _split_lines
from nlo.vsplit import (
    ChangeList,
    FileAssignment,
    FileDiff,
    Hunk,
    Section,
    Topic,
    VirtualSplit,
    _html_report,
    _section_slices,
    assemble_split,
    change_run_starts,
    ensure_other_changes,
    parse_unified_diff,
    split_to_json,
)
from test_numbering import reference_slices

RUNS = 200

# --- Reference parser -----------------------------------------------------------

_HUNK_HEADER = re.compile(r"@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@.*")
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


def reference_parse(text):
    lines = _split_lines(text)
    files = []
    i, n = 0, len(lines)
    while i < n:
        line = lines[i]
        if line.startswith("--- "):
            old_path = line[4:].split("\t")[0]
            i += 1
            if i >= n or not lines[i].startswith("+++ "):
                raise DiffParseError("'---' header not followed by '+++'", i + 1)
            new_path = lines[i][4:].split("\t")[0]
            i += 1
            hunks, i = reference_parse_hunks(lines, i)
            files.append(FileDiff(old_path, new_path, tuple(hunks)))
        elif not line.strip() or line.startswith(_SKIPPABLE):
            i += 1
        else:
            raise DiffParseError(f"unexpected line outside a file diff: {line!r}", i + 1)
    return tuple(files)


def reference_parse_hunks(lines, i):
    hunks = []
    n = len(lines)
    while i < n and lines[i].startswith("@@"):
        match = _HUNK_HEADER.fullmatch(lines[i])
        if match is None:
            raise DiffParseError(f"malformed hunk header: {lines[i]!r}", i + 1)
        old_start = int(match.group(1))
        old_len = int(match.group(2)) if match.group(2) is not None else 1
        new_start = int(match.group(3))
        new_len = int(match.group(4)) if match.group(4) is not None else 1
        i += 1
        body = []
        seen_old = seen_new = 0
        while seen_old < old_len or seen_new < new_len:
            if i >= n:
                raise DiffParseError("diff ended inside a hunk", i)
            raw = lines[i]
            if raw.startswith("\\"):
                i += 1
                continue
            if raw.startswith("+"):
                body.append(("added", raw[1:]))
                seen_new += 1
            elif raw.startswith("-"):
                body.append(("removed", raw[1:]))
                seen_old += 1
            elif raw.startswith(" ") or raw == "":
                body.append(("context", raw[1:]))
                seen_old += 1
                seen_new += 1
            else:
                raise DiffParseError(f"unexpected hunk body line: {raw!r}", i + 1)
            if seen_old > old_len or seen_new > new_len:
                raise DiffParseError("hunk body contradicts its header counts", i + 1)
            i += 1
        if i < n and lines[i].startswith("\\"):
            i += 1
        hunks.append(Hunk(old_start, old_len, new_start, new_len, tuple(body)))
    if not hunks:
        raise DiffParseError("file diff contains no hunks", i + 1)
    return hunks, i


def reference_kinds(filediff):
    marker_char = {"context": " ", "added": "+", "removed": "-"}
    out = [(f"--- {filediff.old_path}", "file_header"), (f"+++ {filediff.new_path}", "file_header")]
    for hunk in filediff.hunks:
        out.append((hunk.header(), "hunk_header"))
        for marker, text in hunk.lines:
            out.append((marker_char[marker] + text, marker))
    return tuple(out)


def reference_run_starts(kinds):
    starts, previous = [], False
    for i, (_, kind) in enumerate(kinds, start=1):
        changed = kind in ("added", "removed")
        if changed and not previous:
            starts.append(i)
        previous = changed
    return tuple(starts)


def outcome(parse, text):
    try:
        return parse(text)
    except DiffParseError as exc:
        return ("error", str(exc), exc.line_index)


def assert_parses_alike(text):
    expected = outcome(reference_parse, text)
    got = outcome(parse_unified_diff, text)
    assert got == expected
    if isinstance(expected, tuple) and expected[:1] == ("error",):
        return
    for filediff in got:
        kinds = reference_kinds(filediff)
        assert filediff._kinds == kinds
        assert filediff.render_lines() == [t for t, _ in kinds]
        assert filediff.text() == "\n".join(t for t, _ in kinds)
        assert filediff.changed_positions() == tuple(
            i for i, (_, k) in enumerate(kinds, start=1) if k in ("added", "removed")
        )
        assert change_run_starts(filediff) == reference_run_starts(kinds)
        # A FileDiff built by hand computes the same lines lazily.
        by_hand = FileDiff(filediff.old_path, filediff.new_path, filediff.hunks)
        assert by_hand._kinds == kinds


# --- Diff text strategy -----------------------------------------------------------

_TEXT = st.text(alphabet="ab =()+-\\@\t\u00e9\u2028", max_size=6)
# Mostly well-formed body lines: a few are blank or remarks, fewer have no marker.
_BODY = st.tuples(
    st.sampled_from(
        [*"+- " * 30, *[""] * 4, *["\\ No newline at end of file"] * 3, "x", "@@ -1 +1 @@", "--- a/q"]
    ),
    _TEXT,
).map(lambda p: p[0] if p[0][:1] in ("", "\\") else "".join(p))


@st.composite
def hunk_lines(draw):
    body = draw(st.lists(_BODY, max_size=8))
    old = sum(1 for r in body if r[:1] in ("-", " ", ""))
    new = sum(1 for r in body if r[:1] in ("+", " ", ""))
    old += draw(st.sampled_from([0] * 12 + [-1, 1]))
    new += draw(st.sampled_from([0] * 12 + [-1, 1]))
    old, new = max(old, 0), max(new, 0)
    old_count = "" if old == 1 and draw(st.booleans()) else f",{old}"
    new_count = "" if new == 1 and draw(st.booleans()) else f",{new}"
    tail = draw(st.sampled_from(["", "", " def f():"]))
    header = f"@@ -{draw(st.integers(0, 9))}{old_count} +{draw(st.integers(0, 9))}{new_count} @@{tail}"
    after = draw(st.sampled_from([[], [], ["\\ No newline at end of file"]]))
    return [header, *body, *after]


@st.composite
def diff_texts(draw):
    lines = []
    for k in range(draw(st.integers(0, 3))):
        lines += draw(st.sampled_from([[], ["diff --git a/f b/f"], ["index 1..2 100644"], [""]]))
        stamp = draw(st.sampled_from(["", "\t2024-01-01 00:00:00", "\tx\ty"]))
        old = draw(st.sampled_from([f"a/f{k}.py", "/dev/null", f"f{k} space.py"]))
        lines.append(f"--- {old}{stamp}")
        if draw(st.sampled_from([True] * 9 + [False])):
            lines.append(f"+++ b/f{k}.py{stamp}")
        for _ in range(draw(st.sampled_from([1, 1, 2, 3, 0]))):
            lines += draw(hunk_lines())
        if not draw(st.sampled_from([True] * 9 + [False])):
            lines.append(draw(st.sampled_from(["junk", "@@ bad @@", "Binary files differ"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + (ending if draw(st.booleans()) else "")


@settings(max_examples=1000, deadline=None)
@given(diff_texts())
def test_parser_matches_reference_on_generated_diffs(text):
    assert_parses_alike(text)


@pytest.mark.parametrize(
    "text",
    [
        # truncated hunk
        "--- a/f\n+++ b/f\n@@ -1,3 +1,3 @@\n a\n-b\n",
        # header counts exceeded, by an old and by a new line
        "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n-a\n-b\n+c\n",
        "--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n+a\n+b\n-c\n",
        # a body line with no marker
        "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n a\nb\n",
        # "\ No newline" inside a hunk and after its last line
        "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n-a\n\\ No newline at end of file\n+a\n"
        " b\n\\ No newline at end of file\n",
        # blank context lines
        "--- a/f\n+++ b/f\n@@ -1,3 +1,4 @@\n a\n\n+c\n\n",
        # tab-suffixed paths
        "--- a/f g.py\t2024-01-01 00:00:00\n+++ b/f g.py\t2024-01-02\n@@ -1 +1 @@\n-a\n+b\n",
        # no hunks, no '+++', a stray line, a malformed header
        "--- a/f\n+++ b/f\n",
        "--- a/f\n@@ -1 +1 @@\n",
        "--- a/f\n+++ b/f\n@@ -1 +1 @@\n-a\n+b\nstray\n",
        "--- a/f\n+++ b/f\n@@ -1 +1 @@ x\n-a\n+b\n@@ -x +1 @@\n",
        # an empty hunk, then a second file
        "--- a/f\n+++ b/f\n@@ -0,0 +0,0 @@\n--- a/g\n+++ b/g\n@@ -1 +1 @@\n-a\n+b\n",
    ],
)
def test_parser_matches_reference_on_edge_cases(text):
    assert_parses_alike(text)


@settings(max_examples=RUNS, deadline=None)
@given(st.lists(st.sampled_from(["context", "added", "removed", "other"]), max_size=12), st.data())
def test_hand_built_hunk_counts_match_reference(markers, data):
    old = sum(1 for m in markers if m in ("context", "removed"))
    new = sum(1 for m in markers if m in ("context", "added"))
    old_len = old + data.draw(st.sampled_from([0, 0, -1, 1]))
    new_len = new + data.draw(st.sampled_from([0, 0, -1, 1]))
    lines = tuple((m, "x") for m in markers)
    if (old_len, new_len) == (old, new):
        Hunk(1, old_len, 1, new_len, lines)
        return
    with pytest.raises(ValueError) as raised:
        Hunk(1, old_len, 1, new_len, lines)
    assert str(raised.value) == (
        f"hunk body ({old} old, {new} new lines) contradicts header (-{old_len} +{new_len})"
    )


# --- Split document ---------------------------------------------------------------


def reference_json(split, cl):
    document = {
        "version": 1,
        "description": cl.description,
        "topics": [
            {"index": t.index, "title": t.title, "coverage": round(split.coverage_of(t.index), 6)}
            for t in split.topics
        ],
        "files": [
            {
                "path": fa.path,
                "sections": [
                    {
                        "anchor": s.anchor,
                        "description": s.description,
                        "topic": s.topic_index,
                        "changed_lines": list(s.changed_lines),
                    }
                    for s in fa.sections
                ],
            }
            for fa in split.assignments
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# Non-ASCII, quotes, backslashes, control characters and U+2028.
_ODD_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f  é\U0001f600 a'),
        st.characters(),
    ),
    max_size=12,
)
_COVERAGE = st.one_of(
    st.sampled_from([1e-06, 0.0, 1.0, 0.5, 1 / 3, 2.5e-7, float("nan"), float("inf")]),
    st.floats(0, 1),
    st.integers(0, 1),
)


@st.composite
def documents(draw):
    count = draw(st.integers(0, 5))
    topics = tuple(Topic(i, draw(_ODD_TEXT.filter(str.strip))) for i in range(1, count + 1))
    coverage = tuple((t.index, draw(_COVERAGE)) for t in topics if draw(st.booleans()))
    sections = st.builds(
        Section,
        st.integers(0, 5000),
        _ODD_TEXT,
        st.integers(1, 7),
        st.lists(st.integers(1, 5000), max_size=6).map(tuple),
    )
    assignments = draw(
        st.lists(
            st.builds(FileAssignment, _ODD_TEXT, st.lists(sections, max_size=4).map(tuple)),
            max_size=4,
        )
    )
    split = VirtualSplit(topics, tuple(assignments), coverage)
    return split, ChangeList(draw(_ODD_TEXT), ())


@settings(max_examples=500, deadline=None)
@given(documents())
def test_split_json_matches_json_dumps(document):
    split, cl = document
    assert split_to_json(split, cl) == reference_json(split, cl)


def test_split_json_matches_json_dumps_on_empty_parts():
    empty_file = FileAssignment("a b\\\"c", ())
    empty_section = FileAssignment("f.py", (Section(3, "", 1, ()),))
    topics = (Topic(1, "t\x00"), Topic(2, "Other changes"))
    for assignments in [(), (empty_file,), (empty_section, empty_file)]:
        for coverage in [(), ((1, 1e-06), (2, 1.0)), ((1, 0.0),)]:
            split = VirtualSplit(topics, assignments, coverage)
            cl = ChangeList("", ())
            assert split_to_json(split, cl) == reference_json(split, cl)
    split = VirtualSplit((), (), ())
    assert split_to_json(split, ChangeList("é", ())) == reference_json(split, ChangeList("é", ()))


# --- Assembly and report windows ---------------------------------------------------


def reference_assignment(filediff, sections, catch_all):
    ordered = [catch_all, *sorted(sections, key=lambda s: s.anchor)]
    anchors = [s.anchor for s in ordered]
    owned = [[] for _ in ordered]
    for pos in filediff.changed_positions():
        owned[bisect_right(anchors, pos) - 1].append(pos)
    return tuple(
        Section(s.anchor, s.description, s.topic_index, tuple(lines))
        for s, lines in zip(ordered, owned)
        if lines or s is not catch_all
    )


def reference_html(split, cl, slices):
    esc = html.escape
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'><title>Virtual split</title>",
        "<style>body{font-family:sans-serif} pre{background:#f6f6f6;padding:8px}"
        " .muted{color:#999}</style></head><body>",
        f"<h1>Virtual split: {esc(cl.description)}</h1>",
        "<ol>",
    ]
    for topic in split.topics:
        parts.append(
            f"<li>{esc(topic.title)} "
            f"({split.coverage_of(topic.index) * 100:.1f}% of changed lines)</li>"
        )
    parts.append("</ol>")
    for topic in split.topics:
        if topic.index not in slices:
            continue
        parts.append(
            f"<details open><summary>{topic.index}. {esc(topic.title)} "
            f"({split.coverage_of(topic.index) * 100:.1f}%)</summary>"
        )
        for path, section, lines in slices[topic.index]:
            parts.append(f"<p><code>{esc(path)}</code>: {esc(section.description)}</p>")
            rendered = [
                f"<span class='muted'>{esc(text)}</span>" if muted else esc(text)
                for text, muted in lines
            ]
            parts.append("<pre>" + "\n".join(rendered) + "</pre>")
        parts.append("</details>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


_HTML_TEXT = st.text(alphabet="&<>\"' ax;#é", max_size=8)


@st.composite
def split_inputs(draw):
    """A one-file change list whose lines hold HTML specials, and sections
    with anchors at 0, repeated, and past the end of the diff."""
    body = draw(
        st.lists(st.tuples(st.sampled_from(["context", "added", "removed"]), _HTML_TEXT), max_size=30)
    )
    old = sum(1 for m, _ in body if m != "added")
    new = sum(1 for m, _ in body if m != "removed")
    filediff = FileDiff("a/<&>.py", "b/<&>.py", (Hunk(1, old, 1, new, tuple(body)),))
    total = len(body) + 3
    topics = ensure_other_changes((Topic(1, "A & <B>"), Topic(2, "\"C\" 'D'")))
    sections = draw(
        st.lists(
            st.builds(Section, st.integers(0, total + 5), _HTML_TEXT, st.sampled_from([1, 2, 3])),
            max_size=6,
        )
    )
    return ChangeList(draw(_HTML_TEXT), (filediff,)), tuple(sections), topics


@settings(max_examples=RUNS, deadline=None)
@given(split_inputs())
def test_assembly_and_report_windows_match_reference(inputs):
    cl, sections, topics = inputs
    split = assemble_split(cl, [sections], topics)
    (filediff,) = cl.files
    catch_all = Section(0, "Unassigned changes", 3)
    assert split.assignments[0].sections == reference_assignment(filediff, sections, catch_all)
    # Windows also for sections assembly would not produce: hand-built anchors.
    by_hand = VirtualSplit(
        split.topics,
        (FileAssignment(filediff.path, (catch_all, *sections)),),
        split.coverage,
    )
    for shown in (split, by_hand):
        slices = _section_slices(shown, cl)
        assert slices == reference_slices(shown, cl)
        assert _html_report(shown, cl, slices) == reference_html(shown, cl, slices)
