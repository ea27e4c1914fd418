"""The ``nlo`` command line.

Commands: gen, render, extract, check, finish, split, triage, eval,
fixtures.  Exit codes: 0 success, 1 usage, 2 parse or major-issue failure,
3 backend failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import _KEYS, ConfigError, Settings, load_settings, make_backend
from .errors import BackendError, InputError, NloError
from .evalharness import evaluate_corpus, eval_rows_to_json, render_eval_table
from .fanout import fan_out_iter
from .fewshots import load_fewshot_set, load_triage_examples
from .fileio import read_text, write_text_atomic
from .gateway import FixtureStore, GenerationRequest, _record_meta, request_key, user_prompt
from .generation import (
    TECHNIQUES,
    PromptConfig,
    _INSTRUCTIONS,
    _require_lines,
    generate_outline,
    infill_text,
)
from .maintenance import EditSession, finish_changes
from .outline import (
    extract,
    remap_anchors,
    render_interleaved,
    render_standalone,
    validate,
)
from .sidecar import sidecar_path, sidecar_read, sidecar_write
from .source_model import SourceUnit, profile_for_path
from .triage import triage
from .vsplit import ChangeList, parse_unified_diff, render_split_report, split_changelist

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BACKEND = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _prompt_configs(settings: Settings, techniques) -> dict[str, PromptConfig]:
    """One prompt config per technique, sharing one load of the few-shot set."""
    try:
        few_shots = load_fewshot_set(settings.fewshot_set, settings.profiles)
    except ValueError as exc:  # a malformed or ill-fitting gold outline
        raise ConfigError(f"few-shot set {settings.fewshot_set!r}: {exc}") from exc
    return {
        t: PromptConfig(technique=t, instructions=_INSTRUCTIONS[t], few_shots=few_shots)
        for t in techniques
    }


def _load_unit(path: str, settings: Settings) -> SourceUnit:
    profile = profile_for_path(path, settings.profiles)
    return SourceUnit.from_text(read_text(path), profile=profile)


def _write_source(path: str, unit: SourceUnit) -> None:
    """Write ``unit`` over ``path``, ending each line as the file's first line
    ends; the last line ends only if the file's last line did."""
    with open(path, encoding="utf-8", newline="") as source:
        first, rest = source.readline(), source.read()
    ending = first[len(first.rstrip("\r\n")) :] or "\n"
    last = ending if (rest or first).endswith(("\n", "\r")) else ""
    write_text_atomic(path, ending.join(unit.lines) + last)


@contextmanager
def _naming(name):
    """Prefix an :class:`InputError` raised inside with the input's name."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _apply_overrides(settings: Settings, args) -> Settings:
    for name in ("backend", "backend_id", "model", "fixtures", "technique"):
        value = getattr(args, name, None)
        if isinstance(value, str):
            setattr(settings, name, value)
    if getattr(args, "record", False):
        settings.record = True
    if getattr(args, "responses_file", None):
        settings.responses_file = args.responses_file
        settings.backend = "scripted"
    return settings


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=["replay", "scripted", "http"])
    sub.add_argument("--backend-id", dest="backend_id")
    sub.add_argument("--model")
    sub.add_argument("--fixtures", help="replay fixture store directory")
    sub.add_argument("--record", action="store_true", help="record replay misses")
    sub.add_argument(
        "--responses-file",
        dest="responses_file",
        help="JSON list of scripted responses (implies --backend scripted)",
    )


def _add_workers_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        help="model calls in flight at once (default: 4 for an HTTP model, "
        "recording included; else 1)",
    )


def _workers(args, backends) -> int:
    """``--workers``, or by default as many calls as every backend takes at once."""
    if args.workers is not None:
        return args.workers
    return min(backend.in_flight for backend in backends)


def build_parser() -> _Parser:
    """The ``nlo`` parser with every command's subparser."""
    parser = _Parser(prog="nlo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nlo {__version__}")
    parser.add_argument("--config", help="path to a YAML config file")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, declare, _run) in _COMMANDS.items():
        declare(commands.add_parser(name, help=help_text))
    return parser


class _Declared:
    """Collects the ``add_argument`` calls of a command's ``_*_options``
    function, which declares to it as it does to its argparse subparser."""

    def __init__(self):
        self.options: dict[str, dict] = {}  # flag -> add_argument kwargs
        self.positionals: list[dict] = []

    def add_argument(self, name: str, **kwargs) -> None:
        if name.startswith("-"):
            self.options[name] = {"dest": name.lstrip("-").replace("-", "_"), **kwargs}
        else:
            self.positionals.append({"dest": name, **kwargs})


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the full parser returns for a plain ``argv``, read
    without building a parser; None for any other argv.

    Plain is an optional leading ``--config V`` or ``--config=V``, a command
    other than ``fixtures``, then only that command's positionals and exact
    declared long flags (``--name value``, ``--name=value``, a bare
    ``store_true`` flag), with no value or positional starting with ``-``,
    and every type, choice, required option and positional count satisfied.
    Help, ``--version``, abbreviations, ``--`` and every argv argparse would
    refuse give None, so argparse alone writes help, usage and errors."""
    config, rest = None, argv
    if len(rest) > 1 and rest[0] == "--config":
        config, rest = rest[1], rest[2:]
    elif rest and rest[0].startswith("--config="):
        config, rest = rest[0][len("--config=") :], rest[1:]
    if config is not None and config.startswith("-"):
        return None
    if not rest or rest[0] not in _COMMANDS or rest[0] == "fixtures":
        return None
    declared = _Declared()
    _COMMANDS[rest[0]][1](declared)
    values: dict = {}
    positionals: list[str] = []
    args = iter(rest[1:])
    for arg in args:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        flag, equals, text = arg.partition("=")
        spec = declared.options.get(flag)
        if spec is None or "nargs" in spec:
            return None
        action = spec.get("action")
        if action == "store_true":
            if equals:
                return None
            values[spec["dest"]] = True
            continue
        if action not in (None, "append"):
            return None
        if not equals:
            text = next(args, "-")  # a missing value refuses like a flag
        if text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if action == "append":
            value = [*values.get(spec["dest"], ()), value]
        values[spec["dest"]] = value
    for spec in declared.options.values():
        if spec["dest"] not in values:
            if spec.get("required"):
                return None
            switch = spec.get("action") == "store_true"
            values[spec["dest"]] = spec.get("default", False if switch else None)
    for spec in declared.positionals:
        nargs = spec.get("nargs")
        if positionals and nargs in (None, "?"):
            values[spec["dest"]] = positionals.pop(0)
        elif nargs == "?":
            values[spec["dest"]] = spec.get("default")
        else:
            return None
    if positionals:
        return None
    return argparse.Namespace(config=config, command=rest[0], **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        settings = load_settings(args.config)
        settings = _apply_overrides(settings, args)
        _help_text, _declare, run = _COMMANDS[args.command]
        return run(args, settings)
    except ConfigError as exc:
        print(f"nlo: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"nlo: backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (InputError, OSError) as exc:
        print(f"nlo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NloError as exc:
        print(f"nlo: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _gen_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")
    sub.add_argument("--technique", choices=TECHNIQUES)
    sub.add_argument(
        "--in-place",
        action="store_true",
        help="write star comments into the file instead of the sidecar",
    )
    sub.add_argument("--no-sidecar", action="store_true", help="print only")
    _add_backend_flags(sub)


def _cmd_gen(args, settings: Settings) -> int:
    technique = args.technique or settings.technique
    annotated = _load_unit(args.file, settings)
    unit, _existing = extract(annotated)
    config = _prompt_configs(settings, [technique])[technique]
    backend = make_backend(settings)
    with _naming(args.file):
        report = generate_outline(unit, config, backend)
    print(infill_text(report.outline))
    for issue in report.issues:
        print(f"issue[{issue.severity}] {issue.kind}: {issue.detail}", file=sys.stderr)
    if report.has_major():
        return EXIT_PARSE
    if args.in_place:
        _write_source(args.file, render_interleaved(unit, report.outline))
    elif not args.no_sidecar:
        sidecar_write(unit, report.outline, args.file)
    return EXIT_OK


def _read_fresh_sidecar(path: str):
    record, stale = sidecar_read(path)
    if stale:
        raise NloError(
            f"sidecar for {path} is stale (source changed); regenerate with 'nlo gen'"
        )
    return record


def _render_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")
    sub.add_argument("--standalone", action="store_true", help="bullets, no code")
    sub.add_argument(
        "--in-place", action="store_true", help="write star comments into the file"
    )


def _cmd_render(args, settings: Settings) -> int:
    unit = _load_unit(args.file, settings)
    record = _read_fresh_sidecar(args.file)
    outline = record.outline()
    if args.standalone:
        print(render_standalone(unit, outline))
        return EXIT_OK
    rendered = render_interleaved(unit, outline)
    if args.in_place:
        _write_source(args.file, rendered)
    else:
        print(rendered.text())
    return EXIT_OK


def _extract_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")
    sub.add_argument(
        "--in-place",
        action="store_true",
        help="strip the comments from the file and store them in the sidecar",
    )


def _cmd_extract(args, settings: Settings) -> int:
    annotated = _load_unit(args.file, settings)
    unit, outline = extract(annotated)
    print(infill_text(outline))
    if args.in_place:
        _write_source(args.file, unit)
        sidecar_write(unit, outline, args.file)
    return EXIT_OK


def _check_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")


def _cmd_check(args, settings: Settings) -> int:
    record, stale = sidecar_read(args.file)
    if stale:
        print(f"stale: {sidecar_path(args.file)} no longer matches the source")
        return EXIT_PARSE
    unit = _load_unit(args.file, settings)
    violations = validate(record.outline(), unit)
    if violations:
        for violation in violations:
            print(f"violation[{violation.kind}] {violation.message}")
        return EXIT_PARSE
    print(f"ok: {len(record.statements)} statements, fresh")
    return EXIT_OK


def _finish_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file")
    sub.add_argument("--apply", action="store_true", help="write the result back")
    sub.add_argument(
        "--old", help="bare snapshot file to treat as the old code (with sidecar)"
    )
    _add_backend_flags(sub)


def _cmd_finish(args, settings: Settings) -> int:
    annotated = _load_unit(args.file, settings)
    current_unit, current_outline = extract(annotated)
    has_star_comments = len(annotated.lines) != len(current_unit.lines)

    if args.old:
        # OLD is an earlier copy of FILE, whatever its name: read it alike.
        old_unit = SourceUnit.from_text(read_text(args.old), profile=annotated.profile)
        old_record, _ = sidecar_read(args.old)
        old_outline = old_record.outline()
    else:
        record, _stale = sidecar_read(args.file)
        old_unit = record.snapshot_unit(annotated.profile)
        if old_unit is None:
            raise NloError(
                "sidecar has no code snapshot; pass --old or regenerate with 'nlo gen'"
            )
        old_outline = record.outline()
    if not has_star_comments:
        current_outline, _ = remap_anchors(old_outline, old_unit, current_unit)

    try:
        session = EditSession(
            old_unit=old_unit,
            old_outline=old_outline,
            current_unit=current_unit,
            current_outline=current_outline,
        )
    except ValueError as exc:  # a sidecar outline that no longer fits its code
        raise NloError(str(exc)) from exc
    backend = make_backend(settings)
    result = finish_changes(session, backend, path=args.file)
    if result.reasoning:
        print(result.reasoning, file=sys.stderr)
    print(result.diff)
    if args.apply:
        new_unit = result.new_unit
        if has_star_comments:
            new_unit = render_interleaved(new_unit, result.new_outline)
        _write_source(args.file, new_unit)
        sidecar_write(result.new_unit, result.new_outline, args.file)
    return EXIT_OK


def _split_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("diff", nargs="?", default="-", help="diff file, or - for stdin")
    sub.add_argument("--description", required=True)
    sub.add_argument("--json", dest="json_out", help="write the split JSON here")
    sub.add_argument("--html", dest="html_out", help="write the static HTML here")
    _add_workers_flag(sub)
    _add_backend_flags(sub)


def _cmd_split(args, settings: Settings) -> int:
    if args.diff == "-":
        name, text = "<stdin>", sys.stdin.read()
    else:
        name, text = args.diff, read_text(args.diff)
    files = parse_unified_diff(text)
    with _naming(name):
        cl = ChangeList(description=args.description, files=files)
        backend = make_backend(settings)
        outcome = split_changelist(cl, backend, max_workers=_workers(args, [backend]))
    reports = render_split_report(outcome.split, cl)
    if args.json_out:
        write_text_atomic(args.json_out, reports["json"])
    if args.html_out:
        write_text_atomic(args.html_out, reports["html"])
    print(reports["terminal"], end="")
    for path, issues in outcome.file_issues:
        for issue in issues:
            print(
                f"issue[{issue.severity}] {path}: {issue.kind}: {issue.detail}",
                file=sys.stderr,
            )
    return EXIT_OK


def _triage_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", help="a function file, or a directory of them")
    sub.add_argument("--glob", default="*", help="pattern for directory mode")
    _add_workers_flag(sub)
    _add_backend_flags(sub)


def _triage_record(path: Path, settings: Settings, backend, examples) -> dict:
    unit = _load_unit(str(path), settings)
    with _naming(path):
        result = triage(unit, backend, examples=examples)
    prediction = result.prediction
    return {
        "path": str(path),
        "score": prediction.score,
        "summary": prediction.summary,
        "outline": [
            {"line": s.anchor, "text": s.text} for s in prediction.outline.statements
        ],
        "errors": list(prediction.errors),
        "consistent": result.consistent,
    }


def _cmd_triage(args, settings: Settings) -> int:
    backend = make_backend(settings)
    examples = load_triage_examples(settings.triage_set)
    target = Path(args.path)
    if target.is_dir():
        paths = [path for path in sorted(target.glob(args.glob)) if path.is_file()]
        if not paths:
            raise InputError(f"{target}: no file matches {args.glob!r}")
        histogram: dict[str, int] = {}

        def one(path: Path) -> dict:
            return _triage_record(path, settings, backend, examples)

        # Each record prints once it and every earlier one are done, so the
        # output, and where a failure cuts it, is the sequential run's.
        for record in fan_out_iter(one, paths, _workers(args, [backend])):
            print(json.dumps(record, sort_keys=True))
            histogram[str(record["score"])] = histogram.get(str(record["score"]), 0) + 1
        print(json.dumps({"score_histogram": histogram}, sort_keys=True))
        return EXIT_OK
    record = _triage_record(target, settings, backend, examples)
    print(json.dumps(record, indent=2, sort_keys=True))
    return EXIT_OK


def _eval_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", required=True, help="directory of source files")
    sub.add_argument(
        "--technique",
        action="append",
        choices=TECHNIQUES,
        help="repeatable; default is both",
    )
    sub.add_argument(
        "--model-id",
        action="append",
        dest="models",
        help="repeatable; each model evaluated against the same store",
    )
    sub.add_argument("--json", dest="json_out", help="write rows as JSON here")
    _add_workers_flag(sub)
    _add_backend_flags(sub)


def _cmd_eval(args, settings: Settings) -> int:
    corpus = []
    for path in sorted(Path(args.corpus).glob("*.py")):
        unit = _load_unit(str(path), settings)
        with _naming(path):  # the harness sees units, not their paths
            _require_lines(unit)
        corpus.append(unit)
    techniques = args.technique or TECHNIQUES
    configs = _prompt_configs(settings, techniques)
    models = args.models or [settings.model]
    backends = [make_backend(replace(settings, model=model)) for model in models]
    workers = _workers(args, backends)
    with _naming(args.corpus):
        rows = evaluate_corpus(corpus, configs, backends, max_workers=workers)
    print(render_eval_table(rows), end="")
    if args.json_out:
        write_text_atomic(args.json_out, eval_rows_to_json(rows))
    return EXIT_OK


def _fixtures_options(sub: argparse.ArgumentParser) -> None:
    fixtures_sub = sub.add_subparsers(dest="fixtures_command", required=True)
    flist = fixtures_sub.add_parser("list", help="list recorded request hashes")
    flist.add_argument("--fixtures", required=True)
    fadd = fixtures_sub.add_parser("add", help="record one prompt/response pair")
    fadd.add_argument("--fixtures", required=True)
    fadd.add_argument("--backend-id", dest="backend_id", default="http")
    fadd.add_argument("--model", required=True)
    fadd.add_argument("--temperature", type=float, default=0.0)
    fadd.add_argument("--system", default="", help="system text for the prompt")
    fadd.add_argument("--prompt-file", required=True, help="user turn text file")
    fadd.add_argument("--response-file", required=True)


def _cmd_fixtures(args, settings: Settings) -> int:
    store = FixtureStore(args.fixtures)
    if args.fixtures_command == "list":
        for key in store.keys():
            print(key)
        return EXIT_OK
    valid, expected = _KEYS["temperature"]  # the rule nlo.yaml's temperature obeys
    if not valid(args.temperature):
        raise InputError(f"--temperature must be {expected}, not {args.temperature!r}")
    # nlo builds no prompt holding "\r", so a prompt file keys as its LF form;
    # a response replays as recorded, so it is kept byte for byte.
    prompt = user_prompt(args.system, read_text(args.prompt_file))
    request = GenerationRequest(prompt=prompt, temperature=args.temperature)
    key = request_key(args.backend_id, args.model, request)
    meta = _record_meta(args.backend_id, args.model, args.temperature)
    store.put(key, read_text(args.response_file, newline=""), meta=meta)
    print(key)
    return EXIT_OK


# The command table, in help order: name -> (help text, the function that
# declares the command's options on its subparser, the handler).
_COMMANDS = {
    "gen": ("generate an outline for a source file", _gen_options, _cmd_gen),
    "render": ("render the sidecar outline", _render_options, _cmd_render),
    "extract": (
        "read the outline held in a file's star comments",
        _extract_options,
        _cmd_extract,
    ),
    "check": ("validate a sidecar against its source", _check_options, _cmd_check),
    "finish": ("have the model finish a started edit", _finish_options, _cmd_finish),
    "split": ("virtually split a unified diff", _split_options, _cmd_split),
    "triage": (
        "score decompiled functions for suspicion",
        _triage_options,
        _cmd_triage,
    ),
    "eval": ("tabulate parse quality over a corpus", _eval_options, _cmd_eval),
    "fixtures": ("inspect or extend a replay store", _fixtures_options, _cmd_fixtures),
}


if __name__ == "__main__":
    sys.exit(main())
