"""``load_settings`` reads the same settings whichever PyYAML loader parses.

The config is parsed with libyaml's ``CSafeLoader`` when PyYAML has it and
with the pure-Python ``SafeLoader`` otherwise; both build values with the
same safe constructor, so every ``nlo.yaml`` must load to equal settings
under either, or be refused by both as a :class:`ConfigError`.  The one
known exception is a tab inside a plain scalar: YAML allows it and libyaml
reads it, but PyYAML's pure-Python scanner refuses it.
"""

from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nlo.config import _HTTP_KEYS, _KEYS, ConfigError, Settings, load_settings

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)

# A value each key accepts, in the shape YAML writes it.
GOOD = {
    "backend": "http",
    "backend_id": "'id 2'",
    "model": "m-1",
    "fixtures": "store/",
    "record": "true",
    "technique": "interleaved",
    "fewshot_set": "default",
    "triage_set": '"t\\u00e9"',
    "max_output": "0x40",
    "temperature": "2.5e+1",
    "responses_file": "~",
    "http": "{url: 'http://h/x', request_template: {prompt: '{prompt}'}, headers: {A: b}}",
    "profiles": "[{name: lua, line_comment_token: '--', docstring_rule: none}]",
}
# Values of every type, well-formed or not.
OTHER = [
    "replay", "''", "0", "-1", "2048", "0.5", ".inf", "-.inf", ".nan", "false", "yes",
    "on", "null", "", "2020-01-01", "2020-13-45", "!!str 7", "!!int x", "!!float x",
    "!!binary x", "&a x", "*a", "|\n  block", "[a, 1]", "{}", "[{name: rb}]",
    "[unclosed", "{a: 1", "'open", '"open', "a: b", "@x", "`x", "%x",
    "!!python/object:os.system x", "- a\n - b", "*undefined", "a\tb", "a\x00b",
]
KEYS = sorted(_KEYS) + sorted(_HTTP_KEYS) + ["unknown"]

# Three lines in four give a key the value it accepts.
line = st.sampled_from(sorted(_KEYS)).flatmap(
    lambda key: st.sampled_from([GOOD[key]] * 3 * len(OTHER) + OTHER).map(
        lambda value: f"{key}: {value}"
    )
)
odd_line = st.tuples(
    st.sampled_from(["", "  ", "- ", "\t", "? "]),
    st.sampled_from(KEYS),
    st.sampled_from([": ", ":", " : ", " ", ":\t"]),
    st.one_of(st.sampled_from(OTHER), st.text(max_size=12)),
).map("".join)
documents = st.one_of(
    st.lists(st.one_of(line, line, line, line, odd_line), max_size=6).map("\n".join),
    st.text(max_size=40),
)

# PyYAML's pure-Python scanner refuses a tab inside a plain scalar, which
# YAML allows and libyaml reads as part of the scalar.
TAB_REFUSAL = "found character '\\t' that cannot start any token"


def test_every_key_has_a_value_it_accepts():
    assert GOOD.keys() == _KEYS.keys()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "nlo.yaml"


def _load(path):
    """The settings ``path`` loads to, or the message refusing it."""
    try:
        return load_settings(path)
    except ConfigError as exc:
        return str(exc)


@needs_libyaml
@settings(max_examples=400, deadline=None)
@given(text=documents)
def test_libyaml_and_pure_python_loaders_agree(config_path, text):
    config_path.write_text(text, encoding="utf-8")
    with mock.patch.object(yaml, "load", wraps=yaml.load) as load:
        fast = _load(config_path)
    assert load.call_args.kwargs["Loader"] is yaml.CSafeLoader
    with mock.patch.object(yaml, "CSafeLoader", yaml.SafeLoader):
        slow = _load(config_path)
    if isinstance(fast, Settings) and isinstance(slow, str) and TAB_REFUSAL in slow:
        return
    # Both refuse it (each loader words its own message), or both read the same.
    assert (isinstance(fast, str) and isinstance(slow, str)) or fast == slow


@needs_libyaml
def test_libyaml_reads_a_tab_inside_a_plain_scalar(tmp_path):
    config = tmp_path / "nlo.yaml"
    config.write_text("model: a\tb\n", encoding="utf-8")
    assert load_settings(config).model == "a\tb"


@pytest.mark.parametrize("value", ["!!int x", "!!float x", "!!timestamp 2020-13-45"])
def test_a_tag_its_constructor_refuses_is_a_config_error(tmp_path, value):
    config = tmp_path / "nlo.yaml"
    config.write_text(f"model: {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="is not valid YAML"):
        load_settings(config)


def test_load_settings_works_without_libyaml(tmp_path, monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    config = tmp_path / "nlo.yaml"
    config.write_text("model: m\ntemperature: 0\nmax_output: 64\n", encoding="utf-8")
    assert load_settings(config) == Settings(model="m", temperature=0.0, max_output=64)
    config.write_text("model: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="is not valid YAML"):
        load_settings(config)
