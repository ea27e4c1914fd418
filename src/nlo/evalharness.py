"""Corpus evaluation: how often each backend/technique parses cleanly.

Each (unit, technique) pair builds its prompt once and sends it to every
backend, parsing each reply with the technique's parser.  Reports are
bucketed per backend and technique into functions with no issues, only
minor issues, or at least one major issue, alongside the average statement
count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .fanout import fan_out
from .gateway import Backend, _ask
from .generation import PromptConfig, _parser, build_prompt
from .source_model import SourceUnit

EVAL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EvalRow:
    backend_id: str
    technique: str
    none: int
    minor: int
    major: int
    avg_statements: float


def classify_report(report) -> str:
    """Bucket one report: major wins over minor; no issues means clean."""
    if report.has_major():
        return "major"
    if report.issues:
        return "minor"
    return "none"


def evaluate_corpus(
    corpus: list[SourceUnit],
    configs: dict[str, PromptConfig],
    backends: list[Backend],
    max_workers: int = 1,
) -> list[EvalRow]:
    """Run every (unit, technique, backend) combination and tabulate.

    ``configs`` maps technique name to the prompt config to use for it.
    Each (technique, unit) job builds one prompt and sends it to every
    backend in order, with that backend's ``temperature`` and ``max_output``;
    ``max_workers`` threads run the jobs.
    Rows come back sorted by backend id then technique; a model id given
    twice is an :class:`InputError`, as its rows would merge.
    """
    if not corpus:
        raise InputError("corpus is empty")
    if not configs or not backends:
        raise ValueError("need at least one technique config and one backend")
    models = [backend.model_id for backend in backends]
    repeated = next((m for i, m in enumerate(models) if m in models[:i]), None)
    if repeated is not None:  # rows are keyed by model id
        raise InputError(f"model id {repeated!r} given more than once")
    jobs = [
        (technique, config, unit)
        for technique, config in sorted(configs.items())
        for unit in corpus
    ]

    def run(job):  # one prompt, sent to every backend, then dropped
        _technique, config, unit = job
        prompt = build_prompt(unit, config)
        parse = _parser(config.technique)
        return [parse(_ask(prompt, backend), unit) for backend in backends]

    results = fan_out(run, jobs, max_workers)

    buckets: dict[tuple[str, str], dict[str, int]] = {}
    statements: dict[tuple[str, str], int] = {}
    for (technique, _config, _unit), reports in zip(jobs, results):
        for backend, report in zip(backends, reports):
            key = (backend.model_id, technique)
            buckets.setdefault(key, {"none": 0, "minor": 0, "major": 0})
            buckets[key][classify_report(report)] += 1
            statements[key] = statements.get(key, 0) + len(report.outline)
    rows = [
        EvalRow(
            backend_id=model,
            technique=technique,
            none=counts["none"],
            minor=counts["minor"],
            major=counts["major"],
            avg_statements=statements[(model, technique)] / len(corpus),
        )
        for (model, technique), counts in sorted(buckets.items())
    ]
    return rows


def render_eval_table(rows: list[EvalRow]) -> str:
    """A fixed-width table: backend, technique, none/minor/major, avg stmts."""
    header = f"{'Backend':<28} {'Technique':<12} {'None':>5} {'Minor':>6} {'Major':>6} {'Avg Stmts':>10}"
    rule = "-" * len(header)
    lines = [header, rule]
    for row in rows:
        lines.append(
            f"{row.backend_id:<28} {row.technique:<12} "
            f"{row.none:>5} {row.minor:>6} {row.major:>6} "
            f"{row.avg_statements:>10.2f}"
        )
    return "\n".join(lines) + "\n"


def eval_rows_to_json(rows: list[EvalRow]) -> str:
    document = {
        "version": EVAL_SCHEMA_VERSION,
        "rows": [
            {
                "backend": row.backend_id,
                "technique": row.technique,
                "none": row.none,
                "minor": row.minor,
                "major": row.major,
                "avg_statements": round(row.avg_statements, 6),
            }
            for row in rows
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
