"""A prompt config renders its demonstrations once.

Every prompt built from one ``PromptConfig`` (or one triage example set)
repeats the same shot turns, so they are rendered on first use and reused.
These tests count the renders and check that a reused config builds the same
bytes as a fresh one, including when ``nlo eval --workers 2`` fills the cache
from two threads.
"""

import importlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from nlo import generation
from nlo.cli import main
from nlo.fewshots import load_fewshot_set, load_triage_examples
from nlo.gateway import FixtureStore, GenerationRequest, ReplayBackend
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    INTERLEAVED_INSTRUCTIONS,
    PromptConfig,
    build_prompt,
)
from nlo.source_model import C_LIKE_PROFILE, SourceUnit
from nlo.triage import build_triage_prompt

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402  (the benchmark's seeded input generator)

triage_module = importlib.import_module("nlo.triage")  # ``nlo.triage`` is also a function

INSTRUCTIONS = {"interleaved": INTERLEAVED_INSTRUCTIONS, "infilling": INFILLING_INSTRUCTIONS}


def fresh_config(technique):
    return PromptConfig(technique, INSTRUCTIONS[technique], load_fewshot_set())


def python_units(seed, count):
    rng = random.Random(seed)
    return [
        SourceUnit.from_text(synth.python_function(rng, i, rng.randint(3, 80)))
        for i in range(count)
    ]


def c_units(seed, count):
    return [SourceUnit.from_text(t, profile=C_LIKE_PROFILE) for t in synth.c_functions(seed, count)]


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts calls per first argument."""
    calls = Counter()
    original = getattr(module, name)

    def counted(unit, *args):
        calls[unit] += 1
        return original(unit, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestEachShotRendersOnce:
    def test_interleaved_shots(self, monkeypatch):
        calls = counting(monkeypatch, generation, "plain_comment_render")
        config = fresh_config("interleaved")
        for unit in python_units(1, 50):
            build_prompt(unit, config)
        assert calls == Counter(example.unit for example in config.few_shots)
        assert len(config.few_shots) == 8

    def test_infilling_shots(self, monkeypatch):
        calls = counting(monkeypatch, generation, "number_lines")
        config = fresh_config("infilling")
        units = python_units(2, 50)
        for unit in units:
            build_prompt(unit, config)
        for example in config.few_shots:
            assert calls[example.unit] == 1
        assert sum(calls.values()) == len(config.few_shots) + len(units)

    def test_triage_examples(self, monkeypatch):
        calls = counting(monkeypatch, triage_module, "number_lines")
        # Units no other test uses, so the example cache starts cold.
        examples = tuple(
            (unit, "Reads a value.\n\nSuspicion score:\n0\n\nNotes:\n<None>")
            for unit in c_units(9301, 3)
        )
        units = c_units(9302, 50)
        for unit in units:
            build_triage_prompt(unit, examples)
        for unit, _wire in examples:
            assert calls[unit] == 1
        assert sum(calls.values()) == len(examples) + len(units)


def same_bytes(a, b):
    return a.serialize() == b.serialize() and a.messages() == b.messages()


@pytest.mark.parametrize("technique", ["interleaved", "infilling"])
def test_reused_config_builds_the_bytes_of_a_fresh_one(technique):
    reused = fresh_config(technique)
    for unit in python_units(3, 40):
        assert same_bytes(build_prompt(unit, reused), build_prompt(unit, fresh_config(technique)))


def test_reused_triage_examples_build_the_bytes_of_fresh_ones():
    examples = load_triage_examples()
    for unit in c_units(4, 40):
        reused = build_triage_prompt(unit, examples)
        triage_module._example_turns.cache_clear()
        assert same_bytes(reused, build_triage_prompt(unit, load_triage_examples()))


def test_eval_with_two_workers_matches_one(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    store = FixtureStore(tmp_path / "fixtures")
    backend = ReplayBackend(store, backend_id="http", model_id="default")
    model = synth.SyntheticModel(7)
    for i, unit in enumerate(python_units(6, 24)):
        (corpus / f"f{i:02}.py").write_text(unit.text() + "\n", encoding="utf-8")
        for technique in INSTRUCTIONS:
            prompt = build_prompt(unit, fresh_config(technique))
            store.put(backend.key_for(GenerationRequest(prompt=prompt)), model(prompt.serialize()))

    def run(workers):
        json_out = tmp_path / f"rows{workers}.json"
        argv = ["eval", "--corpus", str(corpus), "--fixtures", str(store.root)]
        argv += ["--workers", str(workers), "--json", str(json_out)]
        assert main(argv) == 0
        return capsys.readouterr().out, json_out.read_text(encoding="utf-8")

    one = run(1)
    assert run(2) == one
    rows = json.loads(one[1])["rows"]
    assert [r["technique"] for r in rows] == ["infilling", "interleaved"]
    assert all(r["none"] + r["minor"] + r["major"] == 24 for r in rows)
