"""The one way ``nlo`` reads a text file, writes one and checks a document's fields."""

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through a temporary file in its
    directory and ``os.replace``: readers and a crash of this process see the
    old bytes or the new, never a mix or a leftover temporary file.  No fsync,
    so not safe against power loss.  Keeps an existing target's mode bits; a
    new one gets ``0o666`` less the umask; symlinks are written through."""
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        if os.path.exists(target):
            os.chmod(temp, os.stat(target).st_mode & 0o7777)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def read_text(path: str | Path, newline: str | None = None) -> str:
    """``path`` decoded as UTF-8, with ``\r\n`` and ``\r`` read as ``\n``
    unless ``newline=""`` keeps every line ending as it is (as ``open`` does).
    Bytes that are not UTF-8 raise ``OSError`` naming the file, like any other
    file that cannot be read."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text: {exc}") from exc


def check_fields(fields: dict, table: dict, error: type[Exception], label: str) -> None:
    """Raise ``error`` for the first key of ``table`` whose value in ``fields``
    fails its check.  ``table`` maps a key to ``(check, expected wording)``;
    ``label`` leads the message, which echoes at most 60 characters of the value."""
    for key, (valid, expected) in table.items():
        if key in fields and not valid(fields[key]):
            raise error(f"{label}{key} must be {expected}, not {fields[key]!r:.60}")
