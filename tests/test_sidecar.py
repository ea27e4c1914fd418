import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlo.cli import main
from nlo.errors import SidecarError, SidecarVersionError
from nlo.outline import Outline, OutlineStatement
from nlo.sidecar import (
    SCHEMA_VERSION,
    content_hash,
    sidecar_path,
    sidecar_read,
    sidecar_write,
)
from nlo.source_model import C_LIKE_PROFILE, PYTHON_PROFILE, LanguageProfile, SourceUnit

from conftest import TOUR_CODE, TOUR_STATEMENTS


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "tour.py"
    path.write_text(TOUR_CODE + "\n", encoding="utf-8")
    return path


class TestWriteRead:
    def test_round_trip_is_identity(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        outline = Outline(statements=TOUR_STATEMENTS)
        written = sidecar_write(unit, outline, source_file)
        read, stale = sidecar_read(source_file)
        assert read == written
        assert not stale
        assert read.outline() == outline
        assert len(written.statements) == 6

    def test_empty_outline_record(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        record = sidecar_write(unit, Outline(), source_file)
        assert record.statements == ()
        read, stale = sidecar_read(source_file)
        assert read.statements == () and not stale

    def test_snapshot_restores_unit(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        sidecar_write(unit, Outline(), source_file)
        record, _ = sidecar_read(source_file)
        assert record.snapshot_unit(unit.profile).lines == unit.lines

    def test_snapshot_keeps_the_c_like_profile(self, tmp_path):
        path = tmp_path / "f.c"
        unit = SourceUnit.from_text("int f() {\n  return 1;\n}", profile=C_LIKE_PROFILE)
        sidecar_write(unit, Outline(), path)
        record, _ = sidecar_read(path)
        assert record.snapshot_unit(C_LIKE_PROFILE) == unit

    def test_snapshot_of_a_config_defined_profile_reads_with_the_profile_passed(self, tmp_path):
        path = tmp_path / "f.lua"
        lua = LanguageProfile("lua", "--")
        unit = SourceUnit.from_text("local x = 1\nreturn x", profile=lua)
        sidecar_write(unit, Outline(), path)
        record, _ = sidecar_read(path)
        assert record.snapshot_unit(lua) == unit

    def test_invalid_outline_refused(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        with pytest.raises(SidecarError):
            sidecar_write(unit, Outline.of(OutlineStatement(0, "bad")), source_file)


class TestStaleness:
    def test_unmodified_source_is_fresh(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        sidecar_write(unit, Outline(), source_file)
        _, stale = sidecar_read(source_file)
        assert not stale

    def test_edited_source_is_stale(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        sidecar_write(unit, Outline(), source_file)
        source_file.write_text(TOUR_CODE + "\n# touched\n", encoding="utf-8")
        _, stale = sidecar_read(source_file)
        assert stale

    def test_hash_ignores_trailing_newline_count(self):
        a = SourceUnit.from_text("x = 1\n")
        b = SourceUnit.from_text("x = 1")
        assert content_hash(a) == content_hash(b)

    def test_hash_is_pinned_sha256(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        record = sidecar_write(unit, Outline(), source_file)
        assert record.content_hash.startswith("sha256:")


class TestErrors:
    def test_missing_record(self, tmp_path):
        with pytest.raises(SidecarError):
            sidecar_read(tmp_path / "nothing.py")

    def test_truncated_json(self, source_file):
        sidecar_path(source_file).write_text('{"version": 1, "sou', encoding="utf-8")
        with pytest.raises(SidecarError):
            sidecar_read(source_file)

    def test_version_mismatch(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        sidecar_write(unit, Outline(), source_file)
        document = json.loads(sidecar_path(source_file).read_text())
        document["version"] = SCHEMA_VERSION + 1
        sidecar_path(source_file).write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SidecarVersionError):
            sidecar_read(source_file)

    def test_anchor_ordering_enforced_on_read(self, source_file):
        unit = SourceUnit.from_text(source_file.read_text())
        sidecar_write(unit, Outline.of(OutlineStatement(2, "a")), source_file)
        document = json.loads(sidecar_path(source_file).read_text())
        document["statements"] = [
            {"line": 3, "text": "b", "verified": False},
            {"line": 2, "text": "a", "verified": False},
        ]
        sidecar_path(source_file).write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SidecarError):
            sidecar_read(source_file)


CODE = "def f(x):\n    y = x + 1\n    return y\n"
STATEMENT_FIELDS = ("line", "text", "verified")


def spoiled(directory: Path, field: str, value) -> Path:
    """``c.py`` with a fresh record of ``2| Add one.`` whose ``field`` (of the
    statement, of the record, or ``snapshot item``: the snapshot's second
    line) is replaced with ``value``."""
    path = directory / "c.py"
    path.write_text(CODE, encoding="utf-8")
    sidecar_write(SourceUnit.from_text(CODE), Outline.of(OutlineStatement(2, "Add one.")), path)
    document = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    if field in STATEMENT_FIELDS:
        document["statements"][0][field] = value
    elif field == "snapshot item":
        document["snapshot"][1] = value
    else:
        document[field] = value
    sidecar_path(path).write_text(json.dumps(document), encoding="utf-8")
    return path


SPOILED = [
    ("verified", "false"),
    ("text", None),
    ("text", "a\nb"),
    ("line", "2"),
    ("line", 2.9),
    ("line", True),
    ("snapshot", [1, 2, 3]),
    ("snapshot item", "a\nb"),
]


class TestFieldTypes:
    @pytest.mark.parametrize(("field", "value"), SPOILED)
    def test_a_field_of_the_wrong_type_is_refused(self, tmp_path, field, value):
        path = spoiled(tmp_path, field, value)
        with pytest.raises(SidecarError, match=field.split()[0]):
            sidecar_read(path)

    @pytest.mark.parametrize("command", ["check", "render", "finish"])
    @pytest.mark.parametrize(("field", "value"), SPOILED)
    def test_commands_exit_2_on_a_field_of_the_wrong_type(
        self, capsys, tmp_path, field, value, command
    ):
        path = spoiled(tmp_path, field, value)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nlo: sidecar") and len(err.splitlines()) == 1
        assert path.read_text(encoding="utf-8") == CODE

    def test_missing_defaults_and_unknown_keys_are_kept(self, tmp_path):
        path = spoiled(tmp_path, "comment", "written by hand")
        document = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
        del document["profile"], document["statements"][0]["verified"]
        sidecar_path(path).write_text(json.dumps(document), encoding="utf-8")
        record, stale = sidecar_read(path)
        assert (record.statements, record.profile_name, stale) == (
            ((2, "Add one.", False),),
            "python",
            False,
        )

    def test_a_record_without_a_snapshot_has_no_snapshot_unit(self, tmp_path):
        path = spoiled(tmp_path, "comment", None)
        document = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
        del document["snapshot"]
        sidecar_path(path).write_text(json.dumps(document), encoding="utf-8")
        assert sidecar_read(path)[0].snapshot_unit(PYTHON_PROFILE) is None


# The type each field holds in a valid record.
FIELD_TYPES = {
    "version": int,
    "source_path": str,
    "content_hash": str,
    "profile": str,
    "statements": list,
    "snapshot": list,
    "snapshot item": str,
    "line": int,
    "text": str,
    "verified": bool,
}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
BROKEN_LINES = st.builds(
    lambda head, end, tail: head + end + tail,
    st.text(max_size=4),
    st.sampled_from(["\n", "\r", "\r\n"]),
    st.text(max_size=4),
)


@st.composite
def spoilings(draw):
    """A field and a value of another JSON type for it, or, for ``text`` and
    a snapshot item, a string that holds a line break."""
    field = draw(st.sampled_from(sorted(FIELD_TYPES)))
    if field in ("text", "snapshot item") and draw(st.booleans()):
        return field, draw(BROKEN_LINES)
    return field, draw(JSON_VALUES.filter(lambda v: type(v) is not FIELD_TYPES[field]))


@settings(max_examples=200, deadline=None)
@given(spoiling=spoilings())
def test_a_field_of_another_type_exits_2_without_a_traceback(spoiling):
    with tempfile.TemporaryDirectory() as directory:
        path = spoiled(Path(directory), *spoiling)
        with pytest.raises(SidecarError):
            sidecar_read(path)
        for command in ("check", "render", "finish"):
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                assert main([command, str(path)]) == 2
            assert stderr.getvalue().startswith("nlo: sidecar")
            assert len(stderr.getvalue().splitlines()) == 1


class TestStarCommentedSource:
    """A source that carries its own outline as star comments is fresh when
    its code without them is the record's and the comments are its outline."""

    CODE = "def add(a, b):\n    result = a + b\n    return result\n"
    ANNOTATED = "def add(a, b):\n    #* Add them.\n    result = a + b\n    return result\n"

    def cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_check_reads_fresh_after_extract_and_render(self, capsys, tmp_path):
        path = tmp_path / "a.py"
        path.write_text(self.ANNOTATED, encoding="utf-8")
        assert self.cli(capsys, "extract", str(path), "--in-place")[0] == 0
        assert path.read_text(encoding="utf-8") == self.CODE
        assert self.cli(capsys, "render", str(path), "--in-place")[0] == 0
        assert path.read_text(encoding="utf-8") == self.ANNOTATED
        assert self.cli(capsys, "check", str(path)) == (0, "ok: 1 statements, fresh\n")
        assert sidecar_read(path)[1] is False
        assert self.cli(capsys, "render", str(path)) == (0, self.ANNOTATED)
        assert self.cli(capsys, "render", str(path), "--standalone") == (
            0,
            "def add(a, b):\n- Add them.\n",
        )

    @pytest.mark.parametrize(
        "edit",
        [
            ("#* Add them.", "#* Add both."),
            ("#* Add them.", "#*! Add them."),
            ("a + b", "b + a"),
            ("    return result\n", "    return result\n    #* Dangling.\n"),
            ("    result", "    #* Sum.\n    result"),
        ],
        ids=["comment-text", "verified-mark", "code", "dangling", "extra-comment"],
    )
    def test_an_edit_to_the_comments_or_the_code_reads_stale(self, capsys, tmp_path, edit):
        path = tmp_path / "a.py"
        path.write_text(self.CODE, encoding="utf-8")
        unit = SourceUnit.from_text(self.CODE)
        sidecar_write(unit, Outline(statements=(OutlineStatement(2, "Add them."),)), path)
        path.write_text(self.ANNOTATED.replace(*edit), encoding="utf-8")
        assert sidecar_read(path)[1] is True
        code, out = self.cli(capsys, "check", str(path))
        assert (code, out) == (2, f"stale: {sidecar_path(path)} no longer matches the source\n")
        assert main(["render", str(path)]) == 2

    def test_comments_are_read_with_the_configured_profile(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("nlo.yaml").write_text(
            "profiles:\n  - name: lua\n    line_comment_token: '--'\n", encoding="utf-8"
        )
        lua = LanguageProfile(name="lua", line_comment_token="--")
        code = "local x = 1\nreturn x\n"
        sidecar_write(
            SourceUnit.from_text(code, profile=lua),
            Outline(statements=(OutlineStatement(2, "Hand x back."),)),
            "f.lua",
        )
        Path("f.lua").write_text("local x = 1\n--* Hand x back.\nreturn x\n", encoding="utf-8")
        assert self.cli(capsys, "check", "f.lua") == (0, "ok: 1 statements, fresh\n")
        assert sidecar_read("f.lua", lua)[1] is False
        assert sidecar_read("f.lua")[1] is True  # read as Python, `--*` is code
