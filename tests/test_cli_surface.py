"""The narrow parser (only the invoked command declared) against the full tree.

``main`` declares one subparser when its argv names a command; every argv
must still exit, print and parse exactly as it does against ``build_parser()``.
"""

import argparse
import sys

import pytest

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
    """Exit code, stdout, stderr and Namespace of ``main(argv)``'s parse;
    ``full`` makes ``main`` parse against the full tree."""
    parsed = []
    parse_args = cli._Parser.parse_args

    def stop_after_parse(self, args=None, namespace=None):
        parsed.append(parse_args(self, args, namespace))
        raise _Parsed

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "parse_args", stop_after_parse)
        if full:
            build_parser = cli.build_parser
            patch.setattr(cli, "build_parser", lambda command=None: build_parser())
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
    narrow = _run(monkeypatch, capsys, argv, full=False)
    full = _run(monkeypatch, capsys, argv, full=True)
    assert narrow == full
    assert narrow[0] in ("parsed", 0, cli.EXIT_USAGE)


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
    def test_named_command_builds_two_parsers(self, parser_count, capsys, source):
        assert cli.main(["check", source]) == cli.EXIT_OK
        assert capsys.readouterr().out == "ok: 1 statements, fresh\n"
        assert parser_count[0] == 2

    def test_argv_defaults_to_sys_argv(
        self, parser_count, monkeypatch, capsys, tmp_path, source
    ):
        config = tmp_path / "nlo.yaml"
        config.write_text("technique: infilling\n", encoding="utf-8")
        argv = ["nlo", "--config", str(config), "check", source]
        monkeypatch.setattr(sys, "argv", argv)
        assert cli.main() == cli.EXIT_OK
        assert capsys.readouterr().out == "ok: 1 statements, fresh\n"
        assert parser_count[0] == 2

    @pytest.mark.parametrize("argv", [["-h"], ["--version"]], ids=["-h", "--version"])
    def test_help_and_version_build_the_full_tree(self, parser_count, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert parser_count[0] == 12
