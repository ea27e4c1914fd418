"""Where a line ends: only at ``\\n``, ``\\r\\n`` or ``\\r``, as in Python and C.

``str.splitlines`` also ends a line at eight other characters; none of them
may split a line of code, a response line or a diff line.  In-place writes
keep the file's own line ending, and its last line ends only if it did.
"""

import ast
import json

import pytest
from hypothesis import given, settings, strategies as st

from nlo.cli import main
from nlo.generation import Constraint, constraint_accepts, parse_interleaved
from nlo.source_model import SourceUnit, _split_lines, number_lines
from nlo.triage import parse_triage
from nlo.vsplit import number_diff, parse_unified_diff, strip_diff_numbering

# Line breaks to str.splitlines, ordinary characters to Python and C.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

IN_LITERAL = 'def f():\n    s = "a\u2028b"\n    return s\n'
FORM_FEED = "def f(x):\n    y = x\n\f\n    return x\n"


def gen_in_place(capsys, tmp_path, text, response):
    path = tmp_path / "f.py"
    path.write_bytes(text.encode("utf-8"))
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps([response]), encoding="utf-8")
    argv = ["gen", str(path), "--in-place", "--responses-file", str(responses)]
    code = main(argv)
    capsys.readouterr()
    return code, path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_from_text_keeps_the_character_inside_one_line(char):
    unit = SourceUnit.from_text(f"x = 'a{char}b'\ny = 2\n")
    assert unit.lines == (f"x = 'a{char}b'", "y = 2")


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from(["a", " ", "\t", "\n", "\r", *NOT_LINE_ENDS])))
def test_split_lines_breaks_only_at_lf_crlf_and_cr(text):
    joined = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = _split_lines(text)
    assert "\n".join(lines) + "\n" * joined.endswith("\n") == joined
    assert not any("\n" in line or "\r" in line for line in lines)


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from("a \t\n\r")))
def test_split_lines_is_splitlines_without_the_eight(text):
    assert _split_lines(text) == text.splitlines()


def test_from_text_ends_lines_at_lf_crlf_and_cr():
    assert SourceUnit.from_text("a\r\nb\rc\nd").lines == ("a", "b", "c", "d")
    assert SourceUnit.from_text("a\n\n").lines == ("a", "")
    assert SourceUnit.from_text("").lines == ()


def test_gen_in_place_keeps_a_string_literal_whole(capsys, tmp_path):
    code, written = gen_in_place(capsys, tmp_path, IN_LITERAL, "3| Return it.")
    assert code == 0
    ast.parse(written)
    assert written == IN_LITERAL.replace("    return", "    #* Return it.\n    return")


def test_form_feed_line_is_one_line(capsys, tmp_path):
    assert "  4|    return x" in number_lines(SourceUnit.from_text(FORM_FEED))
    code, written = gen_in_place(capsys, tmp_path, FORM_FEED, "4| Return x.")
    assert code == 0
    assert written == FORM_FEED.replace("    return", "    #* Return x.\n    return")


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_parse_interleaved_matches_an_echoed_line(char):
    original = SourceUnit(lines=("def f():", f'    s = "a{char}b"', "    return s"))
    response = f'```\ndef f():\n    # Make s.\n    s = "a{char}b"\n    return s\n```'
    report = parse_interleaved(response, original)
    assert [i.kind for i in report.issues] == []
    assert [(s.anchor, s.text) for s in report.outline.statements] == [(2, "Make s.")]


def test_constraint_accepts_an_echoed_line():
    unit = SourceUnit(lines=("def f():", '    s = "a\u2028b"'))
    constraint = Constraint(unit.profile, unit.lines, (None, True))
    echoed = 'def f():\n    # Make s.\n    s = "a\u2028b"\n'
    assert constraint_accepts(constraint, echoed) == (True, None)
    assert constraint_accepts(constraint, 'def f():\n    s = "a\u2028b"\n') == (False, 2)


def test_unified_diff_hunk_line_holds_u2028():
    diff = '--- a/x.py\n+++ b/x.py\n@@ -1,1 +1,1 @@\n-s = "a"\n+s = "a\u2028b"\n'
    (filediff,) = parse_unified_diff(diff)
    assert filediff.hunks[0].lines == (("removed", 's = "a"'), ("added", 's = "a\u2028b"'))
    assert strip_diff_numbering(number_diff(filediff)) == diff.rstrip("\n")


CRLF_ANNOTATED = (
    b"def add(a, b):\r\n"
    b"  #* Add the two numbers.\r\n"
    b"  result = a + b\r\n"
    b"  return result\r\n"
)


def test_extract_then_render_in_place_keeps_crlf(capsys, tmp_path):
    path = tmp_path / "add.py"
    path.write_bytes(CRLF_ANNOTATED)
    assert main(["extract", str(path), "--in-place"]) == 0
    assert path.read_bytes() == CRLF_ANNOTATED.replace(b"  #* Add the two numbers.\r\n", b"")
    assert main(["render", str(path), "--in-place"]) == 0
    assert path.read_bytes() == CRLF_ANNOTATED
    capsys.readouterr()


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_gen_in_place_keeps_the_line_ending(capsys, tmp_path, ending):
    text = "def f(x):\n    y = x\n    return y\n".replace("\n", ending)
    code, written = gen_in_place(capsys, tmp_path, text, "3| Return y.")
    assert code == 0
    assert written == text.replace("    return", f"    #* Return y.{ending}    return")


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_parse_triage_reads_crlf_and_cr_as_lf(ending):
    lf = (
        "Reads the contacts and posts them to a remote host.\nThen it exits.\n\n"
        "Suspicion score:\n2\n\nNotes:\n"
        "Line 3: Sends the contacts\u2028to a remote host.\nLine 5: Exits quietly."
    )
    expected = parse_triage(lf, summary_line_width=24)
    assert parse_triage(lf.replace("\n", ending), summary_line_width=24) == expected
    assert expected.errors == () and expected.score == 2
    assert [(s.anchor, s.text) for s in expected.outline] == [
        (3, "Sends the contacts\u2028to a remote host."),
        (5, "Exits quietly."),
    ]


NO_FINAL_END = "def add(a, b):\n  return a + b"


def test_gen_in_place_keeps_a_missing_final_line_end(capsys, tmp_path):
    code, written = gen_in_place(capsys, tmp_path, NO_FINAL_END, "2| Add them.")
    assert code == 0
    assert written == "def add(a, b):\n  #* Add them.\n  return a + b"


def test_extract_then_render_in_place_keep_a_missing_final_line_end(capsys, tmp_path):
    annotated = CRLF_ANNOTATED.removesuffix(b"\r\n")
    path = tmp_path / "add.py"
    path.write_bytes(annotated)
    assert main(["extract", str(path), "--in-place"]) == 0
    assert path.read_bytes() == annotated.replace(b"  #* Add the two numbers.\r\n", b"")
    assert main(["render", str(path), "--in-place"]) == 0
    assert path.read_bytes() == annotated
    capsys.readouterr()
