import pytest

from nlo.evalharness import (
    EvalRow,
    classify_report,
    eval_rows_to_json,
    evaluate_corpus,
    render_eval_table,
)
from nlo.gateway import FixtureStore, GenerationRequest, ReplayBackend
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    ParseIssue,
    ParseReport,
    PromptConfig,
    build_prompt,
)
from nlo.outline import Outline, OutlineStatement
from nlo.source_model import SourceUnit


def report_with(kinds):
    statements = (OutlineStatement(1, "s"),) if "empty_outline" not in kinds else ()
    return ParseReport(
        outline=Outline(statements=statements),
        issues=tuple(ParseIssue(k) for k in kinds),
    )


class TestClassify:
    def test_clean_report(self):
        assert classify_report(report_with([])) == "none"

    def test_only_minor(self):
        assert classify_report(report_with(["missing_blank_line"])) == "minor"

    def test_major_wins_over_minor(self):
        mixed = report_with(["missing_blank_line", "changed_code"])
        assert classify_report(mixed) == "major"


def corpus_of(count):
    units = []
    for i in range(count):
        units.append(
            SourceUnit.from_text(
                f"def f{i}(x):\n  y = x + {i}\n  z = y * 2\n  w = z - 1\n"
                f"  v = w + 3\n  u = v // 2\n  return u"
            )
        )
    return units


def record_clean_fixtures(store, corpus, config, model_id, statement_counts):
    """Record one clean infilling response per unit, with the given number
    of statements each."""
    backend = ReplayBackend(store, backend_id="http", model_id=model_id)
    for unit, count in zip(corpus, statement_counts):
        prompt = build_prompt(unit, config)
        key = backend.key_for(GenerationRequest(prompt=prompt))
        anchors = [2, 3, 4, 5, 6][:count]
        response = "\n".join(f"{a}| Statement about line {a}." for a in anchors)
        store.put(key, response, meta={"model": model_id})
    return backend


class TestEvaluateCorpus:
    def test_single_unit_clean_fixture(self, tmp_path):
        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        corpus = corpus_of(1)
        backend = record_clean_fixtures(
            FixtureStore(tmp_path), corpus, config, "test-model", [3]
        )
        rows = evaluate_corpus(corpus, {"infilling": config}, [backend])
        assert rows == [
            EvalRow(
                backend_id="test-model",
                technique="infilling",
                none=1,
                minor=0,
                major=0,
                avg_statements=3.0,
            )
        ]

    def test_thirty_unit_corpus_shape(self, tmp_path):
        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        corpus = corpus_of(30)
        # 23 functions with 4 statements and 7 with 5: 127 total, 4.23 mean.
        counts = [4] * 23 + [5] * 7
        backend = record_clean_fixtures(
            FixtureStore(tmp_path), corpus, config, "clean-model", counts
        )
        (row,) = evaluate_corpus(corpus, {"infilling": config}, [backend])
        assert (row.none, row.minor, row.major) == (30, 0, 0)
        assert f"{row.avg_statements:.2f}" == "4.23"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate_corpus([], {}, [])

    def test_rows_sorted_by_backend_then_technique(self, tmp_path):
        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        corpus = corpus_of(2)
        store = FixtureStore(tmp_path)
        backend_b = record_clean_fixtures(store, corpus, config, "model-b", [2, 2])
        backend_a = record_clean_fixtures(store, corpus, config, "model-a", [1, 1])
        rows = evaluate_corpus(corpus, {"infilling": config}, [backend_b, backend_a])
        assert [r.backend_id for r in rows] == ["model-a", "model-b"]

    def test_repeated_model_id_rejected(self):
        from nlo.errors import InputError
        from nlo.gateway import ScriptedBackend

        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        backends = [ScriptedBackend(["2| s"], model_id=m) for m in ("m", "n", "m")]
        with pytest.raises(InputError, match="'m'"):
            evaluate_corpus(corpus_of(1), {"infilling": config}, backends)

    def test_replay_miss_aborts(self, tmp_path):
        from nlo.errors import ReplayMissError

        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        backend = ReplayBackend(FixtureStore(tmp_path), model_id="missing")
        with pytest.raises(ReplayMissError):
            evaluate_corpus(corpus_of(1), {"infilling": config}, [backend])

    def test_both_techniques_produce_separate_rows(self, tmp_path):
        from nlo.generation import INTERLEAVED_INSTRUCTIONS, plain_comment_render
        from nlo.outline import Outline, OutlineStatement

        corpus = corpus_of(2)
        store = FixtureStore(tmp_path)
        backend = ReplayBackend(store, backend_id="http", model_id="dual-model")
        infill_config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        inter_config = PromptConfig(
            technique="interleaved", instructions=INTERLEAVED_INSTRUCTIONS
        )
        for unit in corpus:
            outline = Outline.of(OutlineStatement(2, "Do the arithmetic."))
            infill_key = backend.key_for(
                GenerationRequest(prompt=build_prompt(unit, infill_config))
            )
            store.put(infill_key, "2| Do the arithmetic.")
            inter_key = backend.key_for(
                GenerationRequest(prompt=build_prompt(unit, inter_config))
            )
            store.put(inter_key, plain_comment_render(unit, outline))
        rows = evaluate_corpus(
            corpus,
            {"infilling": infill_config, "interleaved": inter_config},
            [backend],
        )
        assert [(r.backend_id, r.technique) for r in rows] == [
            ("dual-model", "infilling"),
            ("dual-model", "interleaved"),
        ]
        assert all((r.none, r.minor, r.major) == (2, 0, 0) for r in rows)

    def test_concurrent_fanout_matches_sequential(self, tmp_path):
        config = PromptConfig(
            technique="infilling", instructions=INFILLING_INSTRUCTIONS
        )
        corpus = corpus_of(6)
        backend = record_clean_fixtures(
            FixtureStore(tmp_path), corpus, config, "fan-model", [2, 3, 4, 2, 3, 4]
        )
        sequential = evaluate_corpus(corpus, {"infilling": config}, [backend])
        concurrent = evaluate_corpus(
            corpus, {"infilling": config}, [backend], max_workers=4
        )
        assert sequential == concurrent


class TestRendering:
    def row(self):
        return EvalRow(
            backend_id="clean-model",
            technique="infilling",
            none=30,
            minor=0,
            major=0,
            avg_statements=127 / 30,
        )

    def test_table_formats_two_decimals(self):
        table = render_eval_table([self.row()])
        assert "clean-model" in table
        assert "4.23" in table

    def test_json_rows(self):
        import json

        document = json.loads(eval_rows_to_json([self.row()]))
        assert document["version"] == 1
        assert document["rows"][0]["none"] == 30
