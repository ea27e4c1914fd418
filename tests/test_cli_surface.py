"""The direct reader (a plain argv read without argparse) against the full tree.

``main`` reads a plain command line with ``_read_argv`` and parses every
other one against ``build_parser()``; every argv must still exit, print and
parse exactly as it does against the full tree.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import nlo
from nlo import cli
from nlo.outline import Outline, OutlineStatement
from nlo.sidecar import sidecar_write
from nlo.source_model import SourceUnit

COMMANDS = [
    "gen", "render", "extract", "check", "finish", "split", "triage", "eval", "fixtures"
]

ARGVS = [
    ["-h"],
    *([name, "-h"] for name in COMMANDS),
    ["fixtures", "list", "-h"],
    ["fixtures", "add", "-h"],
    ["--version"],
    [],
    ["frobnicate"],
    ["gen"],
    ["gen", "f.py", "--bogus"],
    ["gen", "f.py", "--technique", "infilling", "--no-sidecar"],
    ["split", "--workers", "x"],
    ["split", "d.diff", "--description", "why", "--workers", "2"],
    ["eval", "--corpus", "c", "--technique", "infilling", "--model-id", "a"],
    ["fixtures", "add", "--fixtures", "s", "--model", "m"],
    ["fixtures", "list", "--fixtures", "s"],
    ["--conf", "x", "gen", "f.py"],
    ["--config", "x", "gen", "f.py"],
    ["--config=x", "gen", "f.py"],
    ["--config", "gen", "check", "f.py"],
    ["--config", "-x", "gen", "f.py"],
    ["--config=-x", "gen", "f.py"],
    ["--config", "x"],
    ["--", "gen", "f.py"],
]


class _Parsed(Exception):
    pass


def _run(monkeypatch, capsys, argv, *, full):
    """Exit code, stdout, stderr and Namespace of ``main(argv)``'s parse, by
    ``_read_argv`` or the parser; ``full`` makes ``main`` parse against the
    full tree."""
    parsed = []
    parse_args = cli._Parser.parse_args
    read_argv = cli._read_argv

    def stop_after_parse(self, args=None, namespace=None):
        parsed.append(parse_args(self, args, namespace))
        raise _Parsed

    def stop_after_read(argv):
        args = None if full else read_argv(argv)
        if args is not None:
            parsed.append(args)
            raise _Parsed
        return None

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "parse_args", stop_after_parse)
        patch.setattr(cli, "_read_argv", stop_after_read)
        try:
            cli.main(list(argv))
            code = "returned"
        except SystemExit as exc:
            code = exc.code
        except _Parsed:
            code = "parsed"
    out, err = capsys.readouterr()
    return code, out, err, parsed


@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a) or "no-args")
def test_narrow_path_matches_full_tree(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    direct = _run(monkeypatch, capsys, argv, full=False)
    full = _run(monkeypatch, capsys, argv, full=True)
    assert direct == full
    assert direct[0] in ("parsed", 0, cli.EXIT_USAGE)


@pytest.fixture
def parser_count(monkeypatch):
    count = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return count


@pytest.fixture
def source(tmp_path):
    """A source file with a fresh one-statement sidecar."""
    path = tmp_path / "add.py"
    path.write_text("def add(a, b):\n  return a + b\n", encoding="utf-8")
    unit = SourceUnit.from_text(path.read_text(encoding="utf-8"))
    sidecar_write(unit, Outline((OutlineStatement(2, "Add them."),)), str(path))
    return str(path)


class TestNarrowPathIsTaken:
    def test_named_command_builds_no_parser(self, parser_count, capsys, source):
        assert cli.main(["check", source]) == cli.EXIT_OK
        assert capsys.readouterr().out == "ok: 1 statements, fresh\n"
        assert parser_count[0] == 0

    def test_argv_defaults_to_sys_argv(
        self, parser_count, monkeypatch, capsys, tmp_path, source
    ):
        config = tmp_path / "nlo.yaml"
        config.write_text("technique: infilling\n", encoding="utf-8")
        argv = ["nlo", "--config", str(config), "check", source]
        monkeypatch.setattr(sys, "argv", argv)
        assert cli.main() == cli.EXIT_OK
        assert capsys.readouterr().out == "ok: 1 statements, fresh\n"
        assert parser_count[0] == 0

    @pytest.mark.parametrize("argv", [["-h"], ["--version"]], ids=["-h", "--version"])
    def test_help_and_version_build_the_full_tree(self, parser_count, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert parser_count[0] == 12


def test_check_builds_no_parser_and_imports_no_locale(source):
    # argparse imports locale for its first message lookup, which every
    # parser build makes; a fresh process shows what a real `nlo check` pays.
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "from nlo import cli\n"
        "code = cli.main(['check', sys.argv[1]])\n"
        "print(code, len(built), 'locale' in sys.modules)\n"
    )
    path = [str(Path(nlo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run(
        [sys.executable, "-c", code, source],
        capture_output=True, text=True, env=env, timeout=60, cwd=Path(source).parent,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok: 1 statements, fresh\n0 0 False\n"


# --- The reader against the full tree, argv by argv -----------------------------

PLAIN = [
    ["check", "f.py"],
    ["--config", "c.yaml", "render", "f.py", "--standalone"],
    ["--config=c.yaml", "extract", "--in-place", "f.py"],
    ["gen", "--technique=interleaved", "f.py", "--fixtures", "s", "--record"],
    ["finish", "f.py", "--apply", "--old", "o.py", "--backend", "scripted"],
    ["split", "--description", "why"],
    ["split", "--workers=2", "d.diff", "--description", "", "--json", "o.json"],
    ["triage", "dir", "--glob", "*.c", "--model", "m", "--backend-id", "b"],
    ["triage", "dir", "--workers", "2"],
    ["triage", "--workers=2", "dir", "--record"],
    ["eval", "--corpus", "c", "--technique", "infilling", "--technique", "interleaved",
     "--model-id", "a", "--model-id=b", "--workers", "2"],
    ["gen", "f.py", "--responses-file", "r.json", "--model", "a=b c"],
]


@pytest.fixture(scope="module")
def full_tree():
    return cli.build_parser()


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_argv_is_read_as_the_full_tree_parses_it(full_tree, argv):
    args = cli._read_argv(argv)
    assert args is not None
    assert args == full_tree.parse_args(argv)


def _subparsers():
    """Each command's subparser in the full tree."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


SUBPARSERS = _subparsers()
ALL_FLAGS = sorted({flag for sub in SUBPARSERS.values() for flag in sub._option_string_actions})
VALUES = ["x", "f.py", "", "a b", "a=b", "0", "infilling"]
DASHED = ["-", "-x", "-1", "--", "-2=3"]
ODD = ["-h", "--help", "--", "--version", "-", "--config", "--config=c", "-x", "--x=1"]
BAD_PREFIXES = [
    ["--conf", "c"], ["--config", "-x"], ["--config=-x"], ["--config"], ["--config", ""],
    ["--config", "c", "--config", "d"], ["--version"], ["-h"],
]
SPOILS = [
    "prefix", "odd", "abbreviate", "store_true value", "bad value", "dashed value",
    "no required", "drop", "extra",
]


def _valid_items(draw, sub):
    """Argument groups of a command line ``sub`` accepts, in declaration order."""
    items = []
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            items.append([draw(st.sampled_from(sorted(action.choices)))])
        elif not action.option_strings:
            if action.nargs != "?" or draw(st.booleans()):
                items.append([draw(st.sampled_from(VALUES))])
        elif action.required or draw(st.integers(0, 2)) == 0:
            flag = action.option_strings[-1]
            for _ in range(draw(st.integers(1, 2))):
                if action.nargs == 0:
                    items.append([flag])
                    continue
                if action.choices is not None:
                    value = draw(st.sampled_from(list(action.choices)))
                elif action.type is int:
                    value = draw(st.sampled_from(["0", "2", " 3"]))
                else:
                    value = draw(st.sampled_from(VALUES))
                items.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return items


@st.composite
def argvs(draw):
    """A command line built from the full tree's declarations; half of them
    spoiled once: a bad ``--config`` prefix, ``-h``, ``--``, ``--version``, an
    abbreviated flag, a value on a ``store_true`` flag, a bad choice or type,
    a value starting with ``-``, a required option left out, a dropped or an
    extra token."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate"]))
    sub = SUBPARSERS.get(command)
    actions = sub._option_string_actions if sub else {}
    items = draw(st.permutations(_valid_items(draw, sub))) if sub else []
    spoil = draw(st.sampled_from([None] * len(SPOILS) + SPOILS))
    event(f"spoil: {spoil}")
    if spoil == "no required":
        items = [i for i in items if not getattr(actions.get(i[0].split("=")[0]), "required", 0)]
    prefix = draw(st.sampled_from([[], ["--config", "c.yaml"], ["--config=c.yaml"]]))
    if spoil == "prefix":
        prefix = draw(st.sampled_from(BAD_PREFIXES))
    tokens = [command, *(token for item in items for token in item)]
    if spoil == "odd":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(ODD)))
    elif spoil == "extra":
        tokens.insert(draw(st.integers(1, len(tokens))), draw(st.sampled_from(VALUES)))
    elif spoil == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]

    def pick(fits):
        """The index of a random token holding a flag whose action ``fits``."""
        found = [i for i, t in enumerate(tokens) if fits(actions.get(t.split("=")[0]))]
        return draw(st.sampled_from(found)) if found else None

    if spoil == "abbreviate" and (at := pick(lambda a: a is not None)) is not None:
        flag, equals, value = tokens[at].partition("=")
        tokens[at] = flag[: draw(st.integers(3, len(flag) - 1))] + equals + value
    elif spoil == "store_true value" and (at := pick(lambda a: a and a.nargs == 0)) is not None:
        tokens[at] += "=" + draw(st.sampled_from(VALUES))
    elif spoil in ("bad value", "dashed value"):
        dashed = spoil == "dashed value"
        at = pick(lambda a: a and a.nargs != 0 and (dashed or a.choices or a.type))
        if at is not None:
            bad = draw(st.sampled_from(DASHED if dashed else ["bogus", "x1", "1.5"]))
            flag, equals, _value = tokens[at].partition("=")
            if equals:
                tokens[at] = f"{flag}={bad}"
            else:
                tokens[at + 1] = bad
    return [*prefix, *tokens]


@settings(max_examples=1000, deadline=None)
@given(argv=argvs())
def test_read_argv_agrees_with_the_full_tree(full_tree, argv):
    args = cli._read_argv(list(argv))
    event("read" if args is not None else "left to argparse")
    if args is None:
        return
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            full = full_tree.parse_args(list(argv))
        except SystemExit as exc:
            raise AssertionError(f"the full tree exits {exc.code}: {stderr.getvalue()}")
    assert args == full
