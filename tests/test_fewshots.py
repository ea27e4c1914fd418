import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import nlo
from nlo import cli
from nlo.cli import main
from nlo.config import load_settings
from nlo.fewshots import (
    fewshot_set_dir,
    load_fewshot_set,
    load_triage_examples,
    parse_gold_outline,
)
from nlo.outline import OutlineStatement
from nlo.source_model import C_LIKE_PROFILE, SourceUnit


class TestParseGoldOutline:
    def test_reads_the_shipped_set(self):
        for path in sorted(fewshot_set_dir("default").glob("*.outline")):
            text = path.read_text(encoding="utf-8")
            outline = parse_gold_outline(text)
            assert len(outline) == len([ln for ln in text.splitlines() if ln.strip()])
            assert all(s.text.strip() and not s.verified for s in outline)

    def test_keeps_file_order_and_skips_blank_lines(self):
        outline = parse_gold_outline("3| Later section.\n\n2|Earlier section.\n")
        assert outline.statements == (
            OutlineStatement(3, "Later section."),
            OutlineStatement(2, "Earlier section."),
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("1| Fine.\nno number here\n", 2),
            ("1| Fine.\n\n4|   \n", 3),
            ("x| Not a number.\n", 1),
        ],
    )
    def test_malformed_line_raises(self, text, lineno):
        with pytest.raises(ValueError, match=f"outline line {lineno} is malformed"):
            parse_gold_outline(text)


def _copy_shipped_set(tmp_path):
    directory = tmp_path / "set"
    directory.mkdir()
    for path in fewshot_set_dir("default").iterdir():
        (directory / path.name).write_bytes(path.read_bytes())
    return directory


class TestLoadFewshotSet:
    def test_shipped_set_loads_every_pair_in_name_order(self):
        directory = fewshot_set_dir("default")
        stems = sorted(p.name[: -len(".outline")] for p in directory.glob("*.outline"))
        examples = load_fewshot_set("default")
        assert len(examples) == len(stems) == 8
        for stem, example in zip(stems, examples):
            code = (directory / f"{stem}.py").read_text(encoding="utf-8")
            gold = (directory / f"{stem}.outline").read_text(encoding="utf-8")
            assert example.unit == SourceUnit.from_text(code)
            assert example.gold == parse_gold_outline(gold)

    def test_stem_with_glob_metacharacters_loads(self, tmp_path):
        directory = _copy_shipped_set(tmp_path)
        for suffix in (".outline", ".py"):
            old = directory / f"03_retry_request{suffix}"
            old.rename(directory / f"x[1]{suffix}")
        examples = load_fewshot_set(str(directory))
        assert len(examples) == 8
        code = (directory / "x[1].py").read_text(encoding="utf-8")
        assert examples[-1].unit == SourceUnit.from_text(code)

    def test_two_sources_for_one_stem_raise(self, tmp_path):
        directory = _copy_shipped_set(tmp_path)
        (directory / "02_merge_intervals.c").write_text("int f(void);\n")
        message = (
            "expected exactly one source file for 02_merge_intervals.outline, found 2"
        )
        with pytest.raises(FileNotFoundError, match=message):
            load_fewshot_set(str(directory))

    def test_missing_source_raises(self, tmp_path):
        directory = _copy_shipped_set(tmp_path)
        (directory / "05_test_normalize.py").unlink()
        message = (
            "expected exactly one source file for 05_test_normalize.outline, found 0"
        )
        with pytest.raises(FileNotFoundError, match=message):
            load_fewshot_set(str(directory))

    def test_a_configured_profile_reads_its_examples(self, tmp_path):
        # A Lua example set under a `lua` profile: its demonstrations are
        # commented with `--`, as `gen` reads a `.lua` file.
        directory = tmp_path / "lua-set"
        directory.mkdir()
        (directory / "a.lua").write_text("local n = 0\nn = n + 1\n", encoding="utf-8")
        (directory / "a.outline").write_text("1| Start the count.\n2| Count one.\n", encoding="utf-8")
        config = tmp_path / "nlo.yaml"
        config.write_text(
            f"fewshot_set: '{directory}'\n"
            "profiles:\n  - name: LUA\n    line_comment_token: '--'\n",
            encoding="utf-8",
        )
        settings = load_settings(config)
        ((_user, reply),) = cli._prompt_configs(settings, ["interleaved"])["interleaved"]._shots
        assert reply == "```\n-- Start the count.\nlocal n = 0\n-- Count one.\nn = n + 1\n```"
        (example,) = load_fewshot_set(str(directory), settings.profiles)
        assert example.unit.profile == settings.profiles["lua"]


def test_import_loads_no_importlib_resources():
    # The shipped sets sit in the package directory, so finding them needs no
    # importlib.resources. Run without ``site``, which may import it itself.
    path = [Path(nlo.__file__).resolve().parents[1], Path(yaml.__file__).resolve().parents[1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    code = "import nlo.cli, sys; print('importlib.resources' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestSetResolution:
    """A set argument is a directory path, else the name of a shipped set."""

    SHIPPED = Path(nlo.__file__).parent / "data"

    def test_a_directory_path_loads_that_directory(self, tmp_path):
        fewshots, triage = tmp_path / "fewshots", tmp_path / "triage"
        fewshots.mkdir()
        triage.mkdir()
        (fewshots / "one.py").write_text("x = 1\n", encoding="utf-8")
        (fewshots / "one.outline").write_text("1| Set x.\n", encoding="utf-8")
        (triage / "one.code").write_text("int f(void);\n", encoding="utf-8")
        (triage / "one.pred").write_text("score: 1\n", encoding="utf-8")
        [example] = load_fewshot_set(str(fewshots))
        assert example.unit == SourceUnit.from_text("x = 1\n")
        [(unit, prediction)] = load_triage_examples(str(triage))
        assert unit.lines == ("int f(void);",) and prediction == "score: 1"

    def test_default_names_the_shipped_sets(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert fewshot_set_dir("default") == self.SHIPPED / "fewshots" / "default"
        assert load_fewshot_set("default") == load_fewshot_set(
            str(self.SHIPPED / "fewshots" / "default")
        )
        assert load_triage_examples("default") == load_triage_examples(
            str(self.SHIPPED / "triage" / "default")
        )

    def test_an_unknown_name_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError, match=r"^no few-shot set named 'nope'$"):
            load_fewshot_set("nope")
        with pytest.raises(FileNotFoundError, match=r"^no triage example set named 'nope'$"):
            load_triage_examples("nope")

    @pytest.mark.parametrize(
        "key, argv, message",
        [
            ("fewshot_set", ["gen", "f.py"], "no few-shot set named 'nope'"),
            ("triage_set", ["triage", "f.c"], "no triage example set named 'nope'"),
        ],
    )
    def test_an_unknown_name_in_the_config_exits_1(
        self, capsys, tmp_path, monkeypatch, key, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        Path("nlo.yaml").write_text(f"{key}: nope\n", encoding="utf-8")
        Path("f.py").write_text("x = 1\n", encoding="utf-8")
        Path("f.c").write_text("int f(void) { return 0; }\n", encoding="utf-8")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"nlo: {message}\n"


class TestTriageExamples:
    SHIPPED = Path(nlo.__file__).parent / "data" / "triage" / "default"

    def test_the_shipped_set_is_its_glob_pairs_in_name_order(self):
        expected = tuple(
            (
                SourceUnit.from_text(
                    pred.with_suffix(".code").read_text(encoding="utf-8"),
                    profile=C_LIKE_PROFILE,
                ),
                pred.read_text(encoding="utf-8").rstrip("\n"),
            )
            for pred in sorted(self.SHIPPED.glob("*.pred"))
        )
        assert len(expected) > 1
        assert load_triage_examples("default") == expected

    def test_a_prediction_without_its_code_raises(self, tmp_path):
        (tmp_path / "a.code").write_text("int f(void);\n", encoding="utf-8")
        (tmp_path / "a.pred").write_text("score: 1\n", encoding="utf-8")
        (tmp_path / "b.pred").write_text("score: 2\n", encoding="utf-8")
        (tmp_path / "c.code.txt").write_text("not a pair\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match=r"^missing code file for b\.pred$"):
            load_triage_examples(str(tmp_path))
