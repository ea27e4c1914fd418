"""Workbench configuration: backend selection, model ids, profile overrides.

Settings load from a YAML file (``nlo.yaml`` in the working directory by
default) and individual values can be overridden by CLI flags.  The API key
is never stored in the file; header values may reference environment
variables as ``${VAR_NAME}``.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import NloError
from .fileio import read_text
from .gateway import (
    Backend,
    FixtureStore,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from .generation import TECHNIQUES
from .source_model import LanguageProfile, PROFILES

DEFAULT_CONFIG_NAME = "nlo.yaml"

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


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
    profiles: dict[str, LanguageProfile] = field(default_factory=dict)

    def profile_registry(self) -> dict[str, LanguageProfile]:
        registry = dict(PROFILES)
        registry.update(self.profiles)
        return registry


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
    "max_output": (lambda v: v is None or type(v) is int, "an integer or null"),
    "temperature": (lambda v: type(v) in (int, float) and v >= 0, "a number >= 0"),
    "responses_file": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "http": _MAPPING,
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


def _check(raw: dict, table: dict, prefix: str = "") -> None:
    """Raise :class:`ConfigError` for the first key of ``table`` whose value
    in ``raw`` fails its check."""
    for key, (valid, expected) in table.items():
        if key in raw and not valid(raw[key]):
            raise ConfigError(f"{prefix}{key} must be {expected}, not {raw[key]!r}")


def load_settings(path: str | Path | None = None) -> Settings:
    """Load settings from an explicit path, or the default file if present."""
    settings = Settings()
    if path is None:
        candidate = Path(DEFAULT_CONFIG_NAME)
        if not candidate.exists():
            return settings
        path = candidate
    raw = yaml.safe_load(read_text(path)) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    _check(raw, _KEYS)
    for key in _KEYS.keys() & raw.keys():
        setattr(settings, key, raw[key])
    _check(settings.http, _HTTP_KEYS, "http.")
    # request_key hashes repr(temperature): a YAML `0` must key like the default 0.0
    settings.temperature = float(settings.temperature)
    try:
        for entry in raw.get("profiles", []):
            profile = LanguageProfile(
                name=entry["name"],
                line_comment_token=entry["line_comment_token"],
                docstring_rule=entry.get("docstring_rule", "none"),
            )
            settings.profiles[profile.name] = profile
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed profiles list: {exc!r}") from exc
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
    if settings.backend == "http":
        return make_http_backend(settings)
    if settings.backend == "scripted":
        if not settings.responses_file:
            raise ConfigError("scripted backend needs responses_file")
        responses = json.loads(read_text(settings.responses_file))
        if not isinstance(responses, list):
            raise ConfigError("responses_file must hold a JSON list of strings")
        return ScriptedBackend(responses, model_id=settings.model)
    if settings.backend == "replay":
        store = FixtureStore(settings.fixtures)
        inner = make_http_backend(settings) if settings.record else None
        return ReplayBackend(
            store,
            backend_id=settings.backend_id,
            model_id=settings.model,
            record_from=inner,
        )
    raise ConfigError(f"unknown backend kind: {settings.backend!r}")
