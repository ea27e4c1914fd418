import json

import pytest

from nlo.errors import SidecarError, SidecarVersionError
from nlo.outline import Outline, OutlineStatement
from nlo.sidecar import (
    SCHEMA_VERSION,
    content_hash,
    sidecar_path,
    sidecar_read,
    sidecar_write,
)
from nlo.source_model import C_LIKE_PROFILE, LanguageProfile, SourceUnit

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
        assert record.snapshot_unit().lines == unit.lines

    def test_snapshot_keeps_the_c_like_profile(self, tmp_path):
        path = tmp_path / "f.c"
        unit = SourceUnit.from_text("int f() {\n  return 1;\n}", profile=C_LIKE_PROFILE)
        sidecar_write(unit, Outline(), path)
        record, _ = sidecar_read(path)
        assert record.snapshot_unit() == unit

    def test_snapshot_of_a_config_defined_profile_raises(self, tmp_path):
        path = tmp_path / "f.lua"
        unit = SourceUnit.from_text("local x = 1\nreturn x", profile=LanguageProfile("lua", "--"))
        sidecar_write(unit, Outline(), path)
        record, _ = sidecar_read(path)
        with pytest.raises(ValueError, match="'lua'"):
            record.snapshot_unit()

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
