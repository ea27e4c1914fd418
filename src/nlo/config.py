"""Workbench configuration: backend selection, model ids, profile overrides.

Settings load from a YAML file (``nlo.yaml`` in the working directory by
default) and individual values can be overridden by CLI flags.  The API key
is never stored in the file; header values may reference environment
variables as ``${VAR_NAME}``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import NloError
from .fileio import check_fields, read_text
from .gateway import (
    Backend,
    FixtureStore,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from .generation import TECHNIQUES
from .source_model import LanguageProfile

DEFAULT_CONFIG_NAME = "nlo.yaml"

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

# A ``profiles`` name is the extension it claims, without its dot.
_EXTENSION = re.compile(r"[^./\\\s]+")


class ConfigError(NloError):
    pass


@dataclass
class Settings:
    backend: str = "replay"  # replay | scripted | http
    backend_id: str = "http"  # identity recorded in fixture keys
    model: str = "default"
    fixtures: str = "fixtures"
    record: bool = False
    technique: str = "infilling"
    fewshot_set: str = "default"
    triage_set: str = "default"
    max_output: int | None = None
    temperature: float = 0.0
    responses_file: str | None = None  # scripted backend input
    http: dict = field(default_factory=dict)
    profiles: dict[str, LanguageProfile] = field(default_factory=dict)  # by lower-case extension


_STRING = (lambda v: isinstance(v, str), "a string")
_MAPPING = (lambda v: isinstance(v, dict), "a mapping")

# Every key the file may set, with its check and the expected wording.
_KEYS = {
    "backend": _STRING,
    "backend_id": _STRING,
    "model": _STRING,
    "fixtures": _STRING,
    "record": (lambda v: type(v) is bool, "true or false"),
    "technique": (lambda v: v in TECHNIQUES, " or ".join(TECHNIQUES)),
    "fewshot_set": _STRING,
    "triage_set": _STRING,
    "max_output": (lambda v: v is None or type(v) is int and v > 0, "a positive integer or null"),
    "temperature": (lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a finite number >= 0"),
    "responses_file": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "http": _MAPPING,
    "profiles": (
        lambda v: isinstance(v, list) and all(isinstance(entry, dict) for entry in v),
        "a list of mappings",
    ),
}

# The fields of the ``http`` mapping, checked the same way.
_HTTP_KEYS = {
    "url": _STRING,
    "request_template": _MAPPING,
    "response_path": (
        lambda v: isinstance(v, list) and all(type(step) in (str, int) for step in v),
        "a list of strings or integers",
    ),
    "headers": _MAPPING,
    "mode": (lambda v: v in ("flat", "chat"), "flat or chat"),
}

# The fields of one ``profiles`` entry; ``name`` and ``line_comment_token``
# are required.
_PROFILE_KEYS = {
    "name": (
        lambda v: isinstance(v, str) and _EXTENSION.fullmatch(v),
        "a file extension without its dot",
    ),
    "line_comment_token": (
        lambda v: isinstance(v, str) and v != "" and not any(c.isspace() for c in v),
        "a non-empty string without whitespace",
    ),
    "docstring_rule": (
        lambda v: v in ("python_triple_quote", "none"),
        "python_triple_quote or none",
    ),
}


def _profile(entry: dict) -> LanguageProfile:
    """One ``profiles`` entry as a profile, once its fields are checked."""
    for key in ("name", "line_comment_token"):
        if key not in entry:
            raise ConfigError(f"profiles entry is missing its {key} field")
    check_fields(entry, _PROFILE_KEYS, ConfigError, "profiles ")
    return LanguageProfile(
        name=entry["name"],
        line_comment_token=entry["line_comment_token"],
        docstring_rule=entry.get("docstring_rule", "none"),
    )


def load_settings(path: str | Path | None = None) -> Settings:
    """Load settings from an explicit path, or the default file if present."""
    settings = Settings()
    if path is None:
        candidate = Path(DEFAULT_CONFIG_NAME)
        if not candidate.exists():
            return settings
        path = candidate
    try:
        raw = yaml.safe_load(read_text(path)) or {}
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())  # PyYAML's message spans lines
        raise ConfigError(f"config file {path} is not valid YAML: {detail}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    check_fields(raw, _KEYS, ConfigError, "")
    for key in _KEYS.keys() & raw.keys():
        setattr(settings, key, raw[key])
    check_fields(settings.http, _HTTP_KEYS, ConfigError, "http.")
    # request_key hashes repr(temperature): a YAML `0` must key like the default 0.0
    settings.temperature = float(settings.temperature)
    settings.profiles = {}
    for profile in map(_profile, raw.get("profiles", [])):
        extension = profile.name.lower()  # extensions match in any case
        other = settings.profiles.get(extension)
        if other is not None and other.name != profile.name:
            raise ConfigError(
                f"profiles names {other.name!r} and {profile.name!r} differ only in case"
            )
        settings.profiles[extension] = profile
    return settings


def _expand_env(value: str) -> str:
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in os.environ:
            raise ConfigError(f"environment variable {name} is not set")
        return os.environ[name]

    return _ENV_REF.sub(replace, value)


def make_http_backend(settings: Settings) -> HttpBackend:
    http = settings.http
    for key in ("url", "request_template", "response_path"):
        if key not in http:
            raise ConfigError(f"http backend config is missing {key!r}")
    headers = {k: _expand_env(str(v)) for k, v in http.get("headers", {}).items()}
    config = HttpBackendConfig(
        url=http["url"],
        model_id=settings.model,
        request_template=http["request_template"],
        response_path=list(http["response_path"]),
        headers=headers,
        mode=http.get("mode", "flat"),
    )
    return HttpBackend(config)


def make_backend(settings: Settings) -> Backend:
    """The backend ``settings`` select, carrying their ``temperature`` and
    ``max_output`` for every request it is sent."""
    if settings.backend == "http":
        backend = make_http_backend(settings)
    elif settings.backend == "scripted":
        if not settings.responses_file:
            raise ConfigError("scripted backend needs responses_file")
        path = settings.responses_file
        try:
            responses = json.loads(read_text(path))
        except ValueError as exc:  # every JSON decode error is a ValueError
            raise ConfigError(f"responses file {path}: not JSON: {exc}") from exc
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise ConfigError(f"responses file {path} must hold a JSON list of strings")
        backend = ScriptedBackend(responses, model_id=settings.model)
    elif settings.backend == "replay":
        store = FixtureStore(settings.fixtures)
        inner = make_http_backend(settings) if settings.record else None
        backend = ReplayBackend(
            store,
            backend_id=settings.backend_id,
            model_id=settings.model,
            record_from=inner,
        )
    else:
        raise ConfigError(f"unknown backend kind: {settings.backend!r}")
    backend.temperature, backend.max_output = settings.temperature, settings.max_output
    return backend
