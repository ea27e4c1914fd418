"""Sidecar persistence: outlines stored next to the source, not inside it.

The record lives in ``<source>.nlo.json`` and is keyed by a content hash of
the bare code, so any edit to the source marks the record stale.  The hash
algorithm is pinned by the schema version to keep staleness reproducible.
A snapshot of the bare code lines supports the finish-changes workflow,
which needs the code as it was when the outline was written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import SidecarError, SidecarVersionError
from .fileio import check_fields, read_text, write_text_atomic
from .outline import Outline, OutlineStatement, validate
from .source_model import LanguageProfile, SourceUnit

SCHEMA_VERSION = 1  # version 1 pins sha256 over LF-joined lines

SIDECAR_SUFFIX = ".nlo.json"


def content_hash(unit: SourceUnit) -> str:
    digest = hashlib.sha256("\n".join(unit.lines).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


@dataclass(frozen=True)
class SidecarRecord:
    version: int
    source_path: str
    content_hash: str
    statements: tuple[tuple[int, str, bool], ...]  # (line, text, verified)
    profile_name: str = "python"
    snapshot: tuple[str, ...] | None = None  # bare code lines at write time

    def outline(self) -> Outline:
        return Outline(
            statements=tuple(
                OutlineStatement(anchor=line, text=text, verified=verified)
                for line, text, verified in self.statements
            )
        )

    def snapshot_unit(self, profile: LanguageProfile) -> SourceUnit | None:
        """The snapshot, read with its file's ``profile``; None if there is none."""
        if self.snapshot is None:
            return None
        return SourceUnit(lines=self.snapshot, profile=profile)


def sidecar_path(source_path: str | Path) -> Path:
    return Path(str(source_path) + SIDECAR_SUFFIX)


def sidecar_write(unit: SourceUnit, outline: Outline, source_path: str | Path) -> SidecarRecord:
    """Write the outline record, with a snapshot of the code, adjacent to the
    source file."""
    violations = validate(outline, unit)
    if violations:
        raise SidecarError(
            "refusing to persist an invalid outline: "
            + "; ".join(v.message for v in violations)
        )
    document = {
        "version": SCHEMA_VERSION,
        "source_path": str(source_path),
        "content_hash": content_hash(unit),
        "profile": unit.profile.name,
        "statements": [
            {"line": s.anchor, "text": s.text, "verified": s.verified}
            for s in outline.statements
        ],
        "snapshot": list(unit.lines),
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    write_text_atomic(sidecar_path(source_path), text)
    return _record(document)


def _record(document: dict) -> SidecarRecord:
    """The record a sidecar document holds."""
    return SidecarRecord(
        version=document["version"],
        source_path=document["source_path"],
        content_hash=document["content_hash"],
        statements=tuple(
            (s["line"], s["text"], s.get("verified", False)) for s in document["statements"]
        ),
        profile_name=document.get("profile", "python"),
        snapshot=tuple(document["snapshot"]) if "snapshot" in document else None,
    )


def _one_line(value) -> bool:
    return isinstance(value, str) and "\n" not in value and "\r" not in value


_STRING = (lambda v: isinstance(v, str), "a string")

# Each field of a record (sidecar.schema.json), with its check and the
# expected wording; a missing ``profile`` or ``verified`` keeps its default.
_FIELDS = {
    "source_path": _STRING,
    "content_hash": _STRING,
    "profile": _STRING,
    "statements": (
        lambda v: isinstance(v, list) and all(isinstance(s, dict) for s in v),
        "a list of objects",
    ),
    "snapshot": (
        lambda v: isinstance(v, list)
        and all(isinstance(line, str) for line in v)
        and _one_line("".join(v)),
        "a list of one-line strings",
    ),
}
_STATEMENT_FIELDS = {
    "line": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "text": (lambda v: _one_line(v) and v.strip() != "", "a non-blank one-line string"),
    "verified": (lambda v: type(v) is bool, "true or false"),
}


def sidecar_read(source_path: str | Path) -> tuple[SidecarRecord, bool]:
    """Load and re-validate a record; returns it with a staleness flag.

    Stale means the stored hash no longer matches the current source bytes.
    """
    target = sidecar_path(source_path)
    if not target.exists():
        raise SidecarError(f"no sidecar record at {target}")
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or malformed JSON
        raise SidecarError(f"sidecar record is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "version" not in document:
        raise SidecarError("sidecar record is missing its version field")
    if type(document["version"]) is not int or document["version"] != SCHEMA_VERSION:
        raise SidecarVersionError(
            f"sidecar schema version {document['version']!r} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    check_fields(document, _FIELDS, SidecarError, "sidecar ")
    try:
        for s in document["statements"]:
            check_fields(s, _STATEMENT_FIELDS, SidecarError, "sidecar statement ")
        record = _record(document)
    except KeyError as exc:
        raise SidecarError(f"sidecar record is missing its {exc.args[0]} field") from exc
    anchors = [line for line, _, _ in record.statements]
    if any(b <= a for a, b in zip(anchors, anchors[1:])):
        raise SidecarError("sidecar statements violate anchor ordering")
    source = Path(source_path)
    if not source.exists():
        return record, True
    stale = content_hash(SourceUnit.from_text(read_text(source))) != record.content_hash
    return record, stale
