"""One line-numbering kernel behind ``number_lines``, ``number_diff`` and the
split report's numbered windows.

Each caller must give exactly what its ``f"{i:>3}|{line}"`` loop gave, from
a cold prefix table, across the table's growth past 999 lines, and when
several threads grow it at once.
"""

import sys
import threading
from bisect import bisect_right

import pytest

from nlo import source_model
from nlo.source_model import SourceUnit, number_lines
from nlo.vsplit import (
    ChangeList,
    FileAssignment,
    FileDiff,
    Hunk,
    Section,
    Topic,
    VirtualSplit,
    _section_slices,
    change_run_starts,
    number_diff,
)


def reference(lines, first=1):
    return [f"{i:>3}|{line}" for i, line in enumerate(lines, start=first)]


def reference_number_diff(filediff):
    numbered = "\n".join(reference(filediff.render_lines()))
    starts = change_run_starts(filediff)
    if not starts:
        return numbered
    return f"{numbered}\n\nChange blocks start at lines: " + ", ".join(map(str, starts))


def reference_slices(split, cl):
    """``_section_slices`` as one f-string per line."""
    files_by_path = {f.path: f for f in cl.files}
    slices = {}
    for assignment in split.assignments:
        rendered = files_by_path[assignment.path].render_lines()
        anchors = sorted(s.anchor for s in assignment.sections)
        for section in assignment.sections:
            start = max(section.anchor, 1)
            following = bisect_right(anchors, section.anchor)
            end = anchors[following] - 1 if following < len(anchors) else len(rendered)
            low, high = max(1, start - 3), min(len(rendered), end + 3)
            lines = [
                (f"{i:>3}|{rendered[i - 1]}", not start <= i <= end)
                for i in range(low, high + 1)
            ]
            slices.setdefault(section.topic_index, []).append((assignment.path, section, lines))
    return slices


def diff_of(total):
    """A one-file diff that renders to ``total`` lines (at least 4)."""
    body = tuple(
        ("added" if i % 5 else "context", f"line {i} = {i * 7}") for i in range(total - 3)
    )
    added = sum(1 for marker, _ in body if marker == "added")
    hunk = Hunk(1, len(body) - added, 1, len(body), body)
    return FileDiff("a/big.py", "b/big.py", (hunk,))


@pytest.fixture
def cold_table(monkeypatch):
    monkeypatch.setattr(source_model, "_prefixes", (), raising=False)


def test_number_lines_matches_reference_for_every_length(cold_table):
    lines = tuple(f"    x_{i} = f({i})  # {'|' * (i % 3)}" for i in range(999))
    for count in range(1, 1000):
        unit = SourceUnit(lines[:count])
        assert number_lines(unit) == "\n".join(reference(unit.lines))


@pytest.mark.parametrize("growth", ["rising", "cold-2100"])
def test_number_diff_matches_reference_past_999_lines(cold_table, growth):
    totals = [*range(4, 2101, 61), 998, 999, 1000, 1001, 2100]
    if growth == "cold-2100":
        totals = [2100]
    for total in totals:
        filediff = diff_of(total)
        assert len(filediff.render_lines()) == total
        assert number_diff(filediff) == reference_number_diff(filediff)


def test_section_windows_match_reference_past_999_lines(cold_table):
    filediff = diff_of(2100)
    cl = ChangeList("big change", (filediff,))
    anchors = [1, 4, 500, 996, 999, 1000, 1001, 1500, 1998, 2099, 2100]
    sections = (
        Section(0, "Unassigned changes", 3),
        *(Section(a, f"section at {a}", 1 + k % 2) for k, a in enumerate(anchors)),
    )
    split = VirtualSplit(
        topics=(Topic(1, "One"), Topic(2, "Two"), Topic(3, "Other changes")),
        assignments=(FileAssignment(filediff.path, sections),),
        coverage=((1, 0.5), (2, 0.5)),
    )
    assert _section_slices(split, cl) == reference_slices(split, cl)


def test_threads_growing_the_table_at_once_agree(cold_table):
    diffs = [diff_of(total) for total in (900, 1200, 2100, 3000, 4500)]
    expected = [reference_number_diff(d) for d in diffs]
    failures = []

    def work(order):
        for _ in range(3):
            for i in order:
                if number_diff(diffs[i]) != expected[i]:
                    failures.append(i)

    orders = ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 4, 0, 3, 1], [3, 0, 4, 1, 2])
    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
