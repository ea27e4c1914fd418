"""``nlo eval`` builds each unit's prompt once per technique and sends that
one prompt to every model.

The harness runs one job per (technique, unit); a job's prompt goes to the
backends in the order given, so each backend sees its requests in
(technique, unit) order, and the rows equal those of one evaluation per
backend.  Under the CLI, two workers print what one does.
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

from nlo import evalharness
from nlo.cli import main
from nlo.evalharness import evaluate_corpus
from nlo.fewshots import load_fewshot_set
from nlo.gateway import CallableBackend, FixtureStore, GenerationRequest, ReplayBackend
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    INTERLEAVED_INSTRUCTIONS,
    PromptConfig,
    build_prompt,
)
from nlo.source_model import SourceUnit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402  (the benchmark's seeded input generator)

INSTRUCTIONS = {"interleaved": INTERLEAVED_INSTRUCTIONS, "infilling": INFILLING_INSTRUCTIONS}
MODELS = ("model-a", "model-b", "model-c")


def configs():
    few_shots = load_fewshot_set()
    return {t: PromptConfig(t, text, few_shots) for t, text in INSTRUCTIONS.items()}


def synth_units(seed, count):
    rng = random.Random(seed)
    return [
        SourceUnit.from_text(synth.python_function(rng, i, rng.randint(3, 60)))
        for i in range(count)
    ]


def recording_backends(root, model):
    """One replay backend per model id, each recording from ``model`` and
    logging the flat prompts it is asked for, in order."""
    logs, backends = {}, []
    for model_id in MODELS:
        log = logs[model_id] = []

        def respond(prompt, log=log):
            log.append(prompt)
            return model(prompt)

        store = FixtureStore(root / model_id)
        backends.append(
            ReplayBackend(store, model_id=model_id, record_from=CallableBackend(respond))
        )
    return backends, logs


def test_each_prompt_is_built_once_and_sent_to_every_backend(tmp_path, monkeypatch):
    units = synth_units(11, 10)
    techniques = configs()
    built = Counter()
    original = evalharness.build_prompt

    def counted(unit, config):
        built[(config.technique, unit)] += 1
        return original(unit, config)

    monkeypatch.setattr(evalharness, "build_prompt", counted)
    backends, logs = recording_backends(tmp_path, synth.SyntheticModel(5))
    rows = evaluate_corpus(units, techniques, backends)

    order = [(technique, unit) for technique in sorted(techniques) for unit in units]
    assert built == Counter(order)
    assert set(built.values()) == {1}
    expected = [original(unit, techniques[technique]).serialize() for technique, unit in order]
    assert all(logs[model_id] == expected for model_id in MODELS)
    # Sharing prompts does not change a row: each equals that backend's own run.
    alone = [row for backend in backends for row in evaluate_corpus(units, techniques, [backend])]
    assert rows == sorted(alone, key=lambda row: (row.backend_id, row.technique))
    assert [(row.backend_id, row.technique) for row in rows] == [
        (model_id, technique) for model_id in MODELS for technique in sorted(techniques)
    ]


def test_eval_with_two_models_prints_the_same_under_two_workers(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    store = FixtureStore(tmp_path / "fixtures")
    models = {"model-a": synth.SyntheticModel(3), "model-b": synth.SyntheticModel(4)}
    techniques = configs()
    for i, unit in enumerate(synth_units(12, 16)):
        (corpus / f"f{i:02}.py").write_text(unit.text() + "\n", encoding="utf-8")
        for config in techniques.values():
            prompt = build_prompt(unit, config)
            for model_id, model in models.items():
                backend = ReplayBackend(store, backend_id="http", model_id=model_id)
                key = backend.key_for(GenerationRequest(prompt=prompt))
                store.put(key, model(prompt.serialize()))

    def run(workers):
        json_out = tmp_path / f"rows{workers}.json"
        argv = ["eval", "--corpus", str(corpus), "--fixtures", str(store.root)]
        argv += [arg for model_id in models for arg in ("--model-id", model_id)]
        argv += ["--workers", str(workers), "--json", str(json_out)]
        assert main(argv) == 0
        return capsys.readouterr().out, json_out.read_text(encoding="utf-8")

    one = run(1)
    assert run(2) == one
    rows = json.loads(one[1])["rows"]
    assert [(r["backend"], r["technique"]) for r in rows] == [
        (model_id, technique) for model_id in models for technique in sorted(techniques)
    ]
    assert all(r["none"] + r["minor"] + r["major"] == 16 for r in rows)
