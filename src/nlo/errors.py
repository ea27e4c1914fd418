"""Exception types shared across the package."""

from __future__ import annotations


class NloError(Exception):
    """Base class for all package errors."""


class InputError(NloError, ValueError):
    """An input a pipeline cannot use: an empty unit, one too long to number,
    an empty corpus or change list, or duplicate file paths in a change list."""


class PlacementError(NloError):
    """An outline does not fit its source unit."""

    def __init__(self, violations):
        self.violations = list(violations)
        details = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid outline placement: {details}")


class DanglingCommentError(NloError):
    """A star comment has no code line below it to anchor to."""


class FinishParseError(NloError):
    """A finish-changes response is missing its fenced code block."""


class DiffParseError(NloError):
    """A unified diff could not be parsed."""

    def __init__(self, message: str, line_index: int | None = None):
        self.line_index = line_index
        if line_index is not None:
            message = f"{message} (diff line {line_index})"
        super().__init__(message)


class TopicParseError(NloError):
    """A topic-list response contained no parseable topic line."""


class BackendError(NloError):
    """Transport or protocol failure talking to a completion backend."""


class ReplayMissError(BackendError):
    """A replay store has no recording for a request (strict mode)."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"no recorded response for request {key}")


class BudgetExceededError(BackendError):
    """A response exceeded the request's output budget."""


class SidecarError(NloError):
    """A sidecar record is missing, malformed, or invalid."""


class SidecarVersionError(SidecarError):
    """A sidecar record has an unsupported schema version."""
