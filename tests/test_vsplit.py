import difflib
import hashlib
import json
import random

import pytest

from nlo.errors import DiffParseError, TopicParseError
from nlo.gateway import CallableBackend, ScriptedBackend
from nlo.vsplit import (
    ChangeList,
    Section,
    Topic,
    apply_file_diff,
    assemble_split,
    change_run_starts,
    ensure_other_changes,
    generate_topics,
    number_diff,
    parse_sections,
    parse_topics,
    parse_unified_diff,
    render_split_report,
    split_changelist,
    split_file,
    split_from_json,
    split_to_json,
    strip_diff_numbering,
)

SIMPLE_DIFF = """\
--- a/alpha.py
+++ b/alpha.py
@@ -1,3 +1,4 @@
 a
 b
+new
 c"""

TWO_FILE_DIFF = SIMPLE_DIFF + "\n" + """\
--- a/beta.py
+++ b/beta.py
@@ -1,4 +1,4 @@
 x
-y
+Y
 z
 w"""


def make_diff(old_lines, new_lines, path):
    lines = list(
        difflib.unified_diff(
            old_lines, new_lines, fromfile=f"a/{path}", tofile=f"b/{path}", lineterm=""
        )
    )
    return "\n".join(lines)


class TestParseUnifiedDiff:
    def test_single_hunk_arithmetic(self):
        (filediff,) = parse_unified_diff(SIMPLE_DIFF)
        assert filediff.path == "alpha.py"
        (hunk,) = filediff.hunks
        assert (hunk.old_start, hunk.old_len, hunk.new_start, hunk.new_len) == (
            1,
            3,
            1,
            4,
        )
        assert [m for m, _ in hunk.lines] == ["context", "context", "added", "context"]

    def test_two_files_in_order(self):
        files = parse_unified_diff(TWO_FILE_DIFF)
        assert [f.path for f in files] == ["alpha.py", "beta.py"]

    def test_contradicting_counts_rejected(self):
        bad = "--- a/f\n+++ b/f\n@@ -1,3 +1,4 @@\n a\n b\n c"
        with pytest.raises(DiffParseError):
            parse_unified_diff(bad)

    def test_malformed_hunk_header_rejected(self):
        bad = "--- a/f\n+++ b/f\n@@ nonsense @@\n a"
        with pytest.raises(DiffParseError) as exc_info:
            parse_unified_diff(bad)
        assert exc_info.value.line_index == 3

    def test_missing_plus_header_rejected(self):
        with pytest.raises(DiffParseError):
            parse_unified_diff("--- a/f\n@@ -1 +1 @@\n-x\n+y")

    def test_git_metadata_lines_skipped(self):
        text = (
            "diff --git a/alpha.py b/alpha.py\n"
            "index 123..456 100644\n" + SIMPLE_DIFF
        )
        (filediff,) = parse_unified_diff(text)
        assert filediff.path == "alpha.py"

    def test_lengths_default_to_one(self):
        text = "--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y"
        (filediff,) = parse_unified_diff(text)
        assert filediff.hunks[0].old_len == 1

    def test_round_trip_through_difflib(self):
        old = [f"line{i}" for i in range(30)]
        new = old[:10] + ["inserted"] + old[12:25] + ["tail1", "tail2"]
        (filediff,) = parse_unified_diff(make_diff(old, new, "f.py"))
        assert apply_file_diff(old, filediff) == new

    @pytest.mark.parametrize(
        "text, message, line_index",
        [
            (SIMPLE_DIFF + "\nstray text", "unexpected line outside a file diff", 8),
            ("--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n a\n?b", "unexpected hunk body line", 5),
            ("--- a/f\n+++ b/f\n@@ -1,2 +1,1 @@\n a\n+b", "contradicts its header counts", 5),
            ("--- a/f\n+++ b/f\n" + SIMPLE_DIFF, "file diff contains no hunks", 3),
        ],
        ids=["stray-line", "bad-body-line", "body-longer-than-header", "no-hunk"],
    )
    def test_error_names_its_diff_line(self, text, message, line_index):
        with pytest.raises(DiffParseError, match=message) as exc_info:
            parse_unified_diff(text)
        assert exc_info.value.line_index == line_index
        assert str(exc_info.value).endswith(f"(diff line {line_index})")

    def test_no_newline_markers_skipped(self):
        marker = "\\ No newline at end of file"
        text = f"--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n{marker}\n+y\n{marker}\n{SIMPLE_DIFF}"
        first, second = parse_unified_diff(text)
        assert first.hunks[0].lines == (("removed", "x"), ("added", "y"))
        assert apply_file_diff(["x"], first) == ["y"]
        assert second.path == "alpha.py"


class TestNumberDiff:
    def test_single_run_hint(self):
        text = "--- a/f\n+++ b/f\n@@ -1,2 +1,3 @@\n+x\n a\n b"
        (filediff,) = parse_unified_diff(text)
        assert change_run_starts(filediff) == (4,)
        numbered = number_diff(filediff)
        assert numbered.splitlines()[0] == "  1|--- a/f"
        assert numbered.endswith("Change blocks start at lines: 4")

    def test_all_context_hunk_has_no_hints(self):
        text = "--- a/f\n+++ b/f\n@@ -1,2 +1,2 @@\n a\n b"
        (filediff,) = parse_unified_diff(text)
        assert change_run_starts(filediff) == ()
        assert "Change blocks" not in number_diff(filediff)

    def test_two_separated_runs(self):
        text = "--- a/f\n+++ b/f\n@@ -1,4 +1,4 @@\n a\n-b\n+B\n c\n-d\n+D"
        (filediff,) = parse_unified_diff(text)
        assert change_run_starts(filediff) == (5, 8)

    def test_numbering_strips_back(self):
        (filediff,) = parse_unified_diff(TWO_FILE_DIFF.split("--- a/beta.py")[0].rstrip())
        assert strip_diff_numbering(number_diff(filediff)) == filediff.text()


class TestParseTopics:
    def test_topics_after_marker(self):
        response = (
            "alpha.py adds the tree height metric.\n"
            "beta.py renames a variable.\n"
            "\n"
            "Topics:\n"
            "1. Analyzed AST height\n"
            "2. Removed unused code for directed graphs\n"
            "3. Other changes"
        )
        topics = parse_topics(response)
        assert [t.title for t in topics] == [
            "Analyzed AST height",
            "Removed unused code for directed graphs",
            "Other changes",
        ]
        assert [t.index for t in topics] == [1, 2, 3]

    def test_other_changes_appended_when_absent(self):
        topics = parse_topics("1. A")
        assert [t.title for t in topics] == ["A", "Other changes"]

    def test_no_numbered_line_raises(self):
        with pytest.raises(TopicParseError):
            parse_topics("no topics to be found here")

    def test_numbered_line_with_blank_title_skipped(self):
        topics = parse_topics("Topics:\n1.    \n2. Real work")
        assert [t.title for t in topics] == ["Real work", "Other changes"]
        cl = ChangeList(description="demo", files=parse_unified_diff(TWO_FILE_DIFF))
        with pytest.raises(TopicParseError):
            split_changelist(cl, ScriptedBackend(["Topics:\n1.    "]))

    def test_paren_numbering_accepted(self):
        topics = parse_topics("1) First\n2) Other changes")
        assert [t.title for t in topics] == ["First", "Other changes"]

    def test_generate_topics_via_backend(self):
        cl = ChangeList(description="demo", files=parse_unified_diff(TWO_FILE_DIFF))
        backend = ScriptedBackend(["Topics:\n1. Add new line\n2. Other changes"])
        topics = generate_topics(cl, backend)
        assert [t.title for t in topics] == ["Add new line", "Other changes"]


def two_topics():
    return ensure_other_changes([Topic(1, "Main work")])


class TestParseSections:
    def filediff(self):
        (filediff,) = parse_unified_diff(SIMPLE_DIFF)
        return filediff

    def test_good_line(self):
        sections, issues = parse_sections(
            "6|1| Add the new line", self.filediff(), two_topics()
        )
        assert issues == ()
        assert sections == (Section(6, "Add the new line", 1),)

    def test_unknown_topic_reassigned(self):
        sections, issues = parse_sections(
            "6|9| Mystery work", self.filediff(), two_topics()
        )
        assert [i.kind for i in issues] == ["unknown_topic_index"]
        assert sections[0].topic_index == 2  # Other changes

    def test_unknown_topic_counted_even_when_dropped_as_duplicate(self):
        sections, issues = parse_sections(
            "6|1| Kept\n6|9| Dropped duplicate", self.filediff(), two_topics()
        )
        assert [i.kind for i in issues] == [
            "unknown_topic_index",
            "duplicate_line_number",
        ]
        assert sections == (Section(6, "Kept", 1),)

    def test_empty_response_gives_zero_sections(self):
        sections, issues = parse_sections("", self.filediff(), two_topics())
        assert sections == () and issues == ()

    def test_malformed_and_bounds_and_duplicates(self):
        response = "garbage\n99|1| too far\n3|1| ok\n3|1| again\n2|1| unsorted"
        sections, issues = parse_sections(response, self.filediff(), two_topics())
        assert [i.kind for i in issues] == [
            "malformed_line",
            "line_number_out_of_bounds",
            "not_sorted",
            "duplicate_line_number",
        ]
        assert [s.anchor for s in sections] == [2, 3]

    def test_split_file_via_backend(self):
        backend = ScriptedBackend(["4|1| Add a line"])
        sections, issues = split_file(
            "demo", self.filediff(), two_topics(), backend
        )
        assert issues == ()
        assert sections[0].anchor == 4


class TestAssemble:
    def test_file_without_sections_goes_to_other_changes(self):
        files = parse_unified_diff(SIMPLE_DIFF)
        cl = ChangeList(description="d", files=files)
        split = assemble_split(cl, [()], two_topics())
        (assignment,) = split.assignments
        (section,) = assignment.sections
        assert section.topic_index == 2
        assert section.changed_lines == (6,)
        assert split.coverage_of(2) == 1.0

    def test_full_assignment_coverage_sums_to_one(self):
        files = parse_unified_diff(TWO_FILE_DIFF)
        cl = ChangeList(description="d", files=files)
        sections = [
            (Section(3, "alpha hunk", 1),),
            (Section(3, "beta hunk", 1),),
        ]
        split = assemble_split(cl, sections, two_topics())
        assert sum(f for _, f in split.coverage) == pytest.approx(1.0)
        assert split.coverage_of(1) == 1.0

    def test_seven_of_ten_gives_point_seven(self):
        old = [str(i) for i in range(20)]
        new = ["x" + str(i) if i < 7 else str(i) for i in range(20)]
        new2 = old[:17] + ["a", "b", "c"]
        files = parse_unified_diff(
            make_diff(old, new, "one.py") + "\n" + make_diff(old, new2, "two.py")
        )
        cl = ChangeList(description="d", files=files)
        changed_one = files[0].changed_positions()
        changed_two = files[1].changed_positions()
        assert len(changed_one) + len(changed_two) == 20
        # Assign 14 of the 20 changed lines (7 pairs) to topic 1 in file one,
        # leaving 6 in file two to fall to Other changes.
        sections_one = (Section(changed_one[0], "early renames", 1),)
        split = assemble_split(cl, [sections_one, ()], two_topics())
        assert split.coverage_of(1) == pytest.approx(len(changed_one) / 20)

    def test_changes_before_first_anchor_are_orphans(self):
        files = parse_unified_diff(SIMPLE_DIFF)
        cl = ChangeList(description="d", files=files)
        split = assemble_split(cl, [(Section(7, "late", 1),)], two_topics())
        (assignment,) = split.assignments
        assert assignment.sections[0].anchor == 0
        assert assignment.sections[0].changed_lines == (6,)
        assert assignment.sections[0].topic_index == 2

    def test_catch_all_topic_found_by_its_stripped_title(self):
        cl = ChangeList(description="d", files=parse_unified_diff(SIMPLE_DIFF))
        topics = (Topic(1, "Main work"), Topic(2, " other changes "))
        (assignment,) = assemble_split(cl, [()], topics).assignments
        assert assignment.sections == (Section(0, "Unassigned changes", 2, (6,)),)
        (section,) = parse_sections("6|9| Mystery", cl.files[0], topics)[0]
        assert section.topic_index == 2


class TestRenderSplitReport:
    def make_split(self):
        files = parse_unified_diff(TWO_FILE_DIFF)
        cl = ChangeList(description="Add new line and rename", files=files)
        sections = [
            (Section(3, "alpha work", 1),),
            (Section(3, "beta work", 1),),
        ]
        return assemble_split(cl, sections, two_topics()), cl

    def test_json_round_trip(self):
        split, cl = self.make_split()
        assert split_from_json(split_to_json(split, cl)) == split

    def test_terminal_shows_percentages(self):
        split, cl = self.make_split()
        text = render_split_report(split, cl)["terminal"]
        assert "1. Main work (100.0% of changed lines)" in text
        assert "2. Other changes (0.0% of changed lines)" in text

    def test_html_is_static_and_escaped(self):
        split, cl = self.make_split()
        html = render_split_report(split, cl)["html"]
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html

    def test_json_version_checked(self):
        split, cl = self.make_split()
        document = json.loads(split_to_json(split, cl))
        document["version"] = 99
        with pytest.raises(ValueError):
            split_from_json(json.dumps(document))


# --- Partition property over random diffs with adversarial responses --------


def random_changelist(rng: random.Random) -> ChangeList:
    parts = []
    for f in range(rng.randint(1, 4)):
        old = [f"line {f}.{i} {rng.randint(0, 9)}" for i in range(rng.randint(4, 30))]
        new = list(old)
        for _ in range(rng.randint(1, 6)):
            action = rng.choice(["del", "ins", "mod"])
            idx = rng.randrange(len(new)) if new else 0
            if action == "del" and new:
                del new[idx]
            elif action == "ins":
                new.insert(idx, f"inserted {rng.random():.3f}")
            elif new:
                new[idx] = new[idx] + " changed"
        if new == old:
            new.append("forced change")
        parts.append(make_diff(old, new, f"file{f}.py"))
    files = parse_unified_diff("\n".join(parts))
    return ChangeList(description=f"random cl {rng.random():.5f}", files=files)


ADVERSARIAL_SECTIONS = [
    "",  # empty
    "garbage response",  # malformed
    "2|1| a\n2|1| b",  # duplicate
    "5|9| unknown topic",  # unknown topic index
    "9|1| later\n3|1| earlier",  # unsorted
    "999|1| beyond the end",  # out of bounds
    "3|1| plain good section",
]

ADVERSARIAL_TOPICS = [
    "Topics:\n1. Main work",
    "Topics:\n1. Main work\n2. Other changes",
    "1. Solo topic",
]


def adversarial_backend():
    def respond(prompt: str) -> str:
        digest = int(hashlib.sha256(prompt.encode()).hexdigest(), 16)
        if "Partition this diff" in prompt.split("USER:")[-1]:
            return ADVERSARIAL_SECTIONS[digest % len(ADVERSARIAL_SECTIONS)]
        return ADVERSARIAL_TOPICS[digest % len(ADVERSARIAL_TOPICS)]

    return CallableBackend(respond)


def assert_partition(split, cl):
    for filediff, assignment in zip(cl.files, split.assignments):
        expected = list(filediff.changed_positions())
        got = sorted(
            pos for section in assignment.sections for pos in section.changed_lines
        )
        assert got == expected, f"partition broken for {assignment.path}"
    total = sum(fraction for _, fraction in split.coverage)
    if cl.total_changed_lines():
        assert abs(total - 1.0) <= 0.001


class TestPartitionProperty:
    def test_random_diffs_always_partition(self):
        rng = random.Random(20240824)
        backend = adversarial_backend()
        for _ in range(120):
            cl = random_changelist(rng)
            outcome = split_changelist(cl, backend)
            assert_partition(outcome.split, cl)

    def test_concurrent_equals_sequential(self):
        rng = random.Random(77)
        backend = adversarial_backend()
        for _ in range(25):
            cl = random_changelist(rng)
            sequential = split_changelist(cl, backend, max_workers=1)
            concurrent = split_changelist(cl, backend, max_workers=4)
            assert sequential.split == concurrent.split
