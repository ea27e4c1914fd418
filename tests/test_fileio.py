import os
import stat

import pytest

from nlo.fileio import write_text_atomic


def test_replaces_contents(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old", encoding="utf-8")
    write_text_atomic(target, "new ü\n")
    assert target.read_text(encoding="utf-8") == "new ü\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_write_keeps_old_bytes_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "half written \ud800 rest")  # fails mid-write
    monkeypatch.setattr(os, "replace", lambda *_: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        write_text_atomic(target, "fully written")  # fails at the rename
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_existing_file_keeps_its_mode(tmp_path):
    target = tmp_path / "script.py"
    target.write_text("x = 1\n", encoding="utf-8")
    target.chmod(0o751)
    write_text_atomic(target, "x = 2\n")
    assert stat.S_IMODE(target.stat().st_mode) == 0o751


def test_new_file_gets_the_write_text_mode(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("", encoding="utf-8")
    write_text_atomic(tmp_path / "new.txt", "")
    assert (tmp_path / "new.txt").stat().st_mode == reference.stat().st_mode


def test_writes_through_a_symlink(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("old", encoding="utf-8")
    (tmp_path / "link.txt").symlink_to(real)
    write_text_atomic(tmp_path / "link.txt", "new")
    assert (tmp_path / "link.txt").is_symlink()
    assert real.read_text(encoding="utf-8") == "new"
