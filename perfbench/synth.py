"""Seeded benchmark inputs and a synthetic model.

Inputs are pure functions of a seed: Python functions, C-like decompiled
functions and multi-file unified diffs.  The model is a pure function of the
prompt text: it answers the five prompt kinds the package sends (outline
generation in both techniques, diff topics, diff sections, triage and finish
changes) and injects one taxonomy fault into a seeded share of about 1 in 8
responses, so the parsers' repair paths run.  Every answer comes with the
result a correct parser must recover from it, which the output checks use.

The same :class:`SyntheticModel` serves setup recording and the HTTP stub.
"""

from __future__ import annotations

import functools
import hashlib
import io
import random
import re
import tokenize

FAULT_SHARE = 8  # one response in FAULT_SHARE carries a fault

GEN_FAULTS = {
    "infilling": {
        "minor": ("not_sorted", "commented_empty_line"),
        "major": ("malformed_line", "line_number_out_of_bounds", "duplicate_line_number"),
    },
    "interleaved": {
        "minor": (
            "extra_blank_line",
            "missing_blank_line",
            "changed_trailing_comment",
            "extra_prediction_lines",
        ),
        "major": ("consecutive_comment", "changed_code"),
    },
}
SECTION_FAULTS = (
    "unknown_topic_index",
    "not_sorted",
    "duplicate_line_number",
    "malformed_line",
    "line_number_out_of_bounds",
)
TRIAGE_FAULTS = ("duplicate", "unsorted", "malformed")

SUSPICIOUS = (
    ("getDeviceId", "Reads the device identifier."),
    ("content://sms", "Queries the SMS inbox."),
    ("sendTextMessage", "Sends an SMS message without user interaction."),
    ("getLastKnownLocation", "Reads the last known location."),
    ("getRuntime().exec", "Runs a shell command."),
    ("openConnection", "Opens a network connection to a remote host."),
)

_NAMES = (
    "alpha", "beta", "count", "total", "items", "record", "buffer", "offset",
    "limit", "payload", "result", "cursor", "header", "token", "window",
    "batch", "score", "weight", "entries", "config",
)
_CALLS = (
    "fetch", "compute", "normalize", "merge", "lookup", "encode", "decode",
    "update", "collect", "validate", "resolve", "render",
)
_VERBS = (
    "Compute", "Prepare", "Check", "Collect", "Update", "Validate", "Build",
    "Handle", "Normalize", "Merge",
)
_TOPIC_TITLES = (
    "Refactor request parsing",
    "Add cache invalidation",
    "Tighten input validation",
    "Rename internal helpers",
    "Improve error reporting",
    "Speed up batch processing",
)


def digest(*parts) -> int:
    """A stable 64-bit hash of the parts (independent of PYTHONHASHSEED)."""
    text = "\x00".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# --- Python functions ---------------------------------------------------------


def python_function(rng: random.Random, index: int, n_lines: int) -> str:
    """A syntactically valid function of about ``n_lines`` lines.

    Bodies mix docstrings, multi-line calls, brackets inside string literals,
    triple-quoted strings, nested blocks, plain comments and blank lines.
    """
    name = f"{rng.choice(_CALLS)}_{rng.choice(_NAMES)}_{index}"
    a, b, c = rng.sample(_NAMES, 3)
    lines: list[str] = []
    if rng.random() < 0.25:
        lines += [f"def {name}(", f"    {a},", f"    {b}=None,", f"    {c}=0,", "):"]
    else:
        lines.append(f"def {name}({a}, {b}=None, {c}=0):")
    style = rng.random()
    if style < 0.4:
        lines.append(f'    """{rng.choice(_VERBS)} the {a} records."""')
    elif style < 0.85:
        lines += [
            f'    """{rng.choice(_VERBS)} the {a} records.',
            "",
            f"    The {b} argument (optional) limits the {c} scan.",
            '    """',
        ]
    while len(lines) < n_lines - 1:
        lines += _python_block(rng, (a, b, c))
        if rng.random() < 0.3 and len(lines) < n_lines - 2:
            lines.append("")
    lines.append(f"    return {rng.choice((a, b, c))}")
    return "\n".join(lines) + "\n"


def _python_block(rng: random.Random, args) -> list[str]:
    v = f"{rng.choice(_NAMES)}_{rng.randrange(100)}"
    a = rng.choice(args)
    call = rng.choice(_CALLS)
    k = rng.randrange(1, 50)
    kind = rng.randrange(9)
    if kind == 0:
        return [f"    {v} = {call}({a}, {k}) + {k}"]
    if kind == 1:
        return [f'    {v} = str({a}).split("[")[0] + ")"']
    if kind == 2:
        return [
            f"    {v} = {call}(",
            f"        {a},",
            f'        key="{rng.choice(_NAMES)} (draft",',
            f"        limit={k},",
            "    )",
        ]
    if kind == 3:
        return [
            f'    {v} = """',
            f"    {rng.choice(_NAMES)} section (",
            f"    value: {k}",
            '    """.strip()',
        ]
    if kind == 4:
        return [
            f"    for {v} in {a} or ():",
            f"        if {v} is None:",
            "            continue",
            f"        {a} = {call}({v})",
        ]
    if kind == 5:
        return [
            f"    if {a} > {k}:",
            f"        {v} = {call}({a})",
            "    else:",
            f"        {v} = {{'{a}': [{k}, ({k} + 1)]}}",
        ]
    if kind == 6:
        return [
            "    try:",
            f"        {v} = {call}({a})",
            "    except (KeyError, ValueError):",
            f"        {v} = None",
        ]
    if kind == 7:
        return [f"    # {rng.choice(_NAMES)} handling follows", f"    {v} = {a}"]
    return [f"    {v} = [{call}(x) for x in range({k})]"]


def _sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` sizes from low to high, skewed small, in seeded order.

    Every seed gets the same sizes, so seeds vary content, not workload size.
    """
    sizes = [int(low + (high - low) * ((i + 0.5) / count) ** 3) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def python_functions(seed: int, tag: str, count: int) -> list[str]:
    rng = random.Random(f"{seed}:{tag}")
    sizes = _sizes(rng, count, 10, 400)
    return [python_function(rng, i, n) for i, n in enumerate(sizes)]


def edit_function(text: str, seed: int) -> str:
    """Insert one assignment above a body statement, chosen by the seed."""
    lines = text.splitlines()
    starts = _statement_starts(lines)
    at = starts[digest(seed, "edit", text) % len(starts)]
    indent = lines[at - 1][: len(lines[at - 1]) - len(lines[at - 1].lstrip())]
    marker = digest(seed, "marker", text) % 1000
    lines.insert(at - 1, f"{indent}edit_marker = {marker}")
    return "\n".join(lines) + "\n"


# --- C-like decompiled functions ----------------------------------------------

_BENIGN_C = (
    "String v{n} = p1.getPackageName();",
    "int v{n} = p1.getResources().getIdentifier(\"title\", \"id\", v0);",
    "android.widget.TextView v{n} = this.findViewById(v{m});",
    "v{m}.setText(\"Loading (please wait)\");",
    "this.q{n}.add(v{m});",
    "int v{n} = v{m}.length() + {k};",
    "java.util.ArrayList v{n} = new java.util.ArrayList();",
)
_SUSPICIOUS_C = (
    "String v{n} = ((android.telephony.TelephonyManager) p1.getSystemService(\"phone\")).getDeviceId();",
    "android.database.Cursor v{n} = p1.getContentResolver().query(android.net.Uri.parse(\"content://sms/inbox\"), 0, 0, 0, 0);",
    "android.telephony.SmsManager.getDefault().sendTextMessage(\"{k}\", 0, v{m}, 0, 0);",
    "android.location.Location v{n} = v{m}.getLastKnownLocation(\"gps\");",
    "java.lang.Process v{n} = java.lang.Runtime.getRuntime().exec(\"su -c id\");",
    "java.net.HttpURLConnection v{n} = (java.net.HttpURLConnection) v{m}.openConnection();",
)


def c_function(rng: random.Random, index: int, n_lines: int) -> str:
    suspicious = index % 2 == 0
    lines = [f"public void m{index}(android.content.Context p1) {{"]
    depth = 1
    n = 0
    while len(lines) < n_lines:
        n += 1
        pad = "  " * depth
        roll = rng.random()
        if roll < 0.1 and depth < 3:
            lines.append(f"{pad}if (v{rng.randrange(n)} != 0) {{")
            depth += 1
            continue
        if roll < 0.2 and depth > 1:
            depth -= 1
            lines.append("  " * depth + "}")
            continue
        pool = _SUSPICIOUS_C if suspicious and rng.random() < 0.12 else _BENIGN_C
        lines.append(
            pad + rng.choice(pool).format(n=n, m=rng.randrange(n), k=rng.randrange(100))
        )
    while depth > 1:
        depth -= 1
        lines.append("  " * depth + "}")
    lines += ["  return;", "}"]
    return "\n".join(lines) + "\n"


def c_functions(seed: int, count: int) -> list[str]:
    rng = random.Random(f"{seed}:c")
    return [c_function(rng, i, n) for i, n in enumerate(_sizes(rng, count, 8, 60))]


# --- Multi-file unified diffs ---------------------------------------------------


def unified_diff(seed: int, tag: str, n_files: int, changed_per_file: int):
    """A multi-file diff and, per file, the 1-based positions of its changed
    lines within the file's rendered diff (headers included)."""
    rng = random.Random(f"{seed}:diff:{tag}")
    out: list[str] = []
    changed: dict[str, list[int]] = {}
    for f in range(n_files):
        path = f"src/{tag}/module_{f}.py"
        out += [f"diff --git a/{path} b/{path}", f"--- a/{path}", f"+++ b/{path}"]
        positions: list[int] = []
        rendered = 2
        old_line = new_line = 1
        remaining = changed_per_file
        while remaining > 0:
            gap = rng.randrange(5, 40)
            old_line += gap
            new_line += gap
            body: list[str] = []
            n_old = n_new = 0
            for run in range(rng.randrange(1, 4)):
                for _ in range(3):
                    body.append(f" context_{rng.randrange(1000)} = {run}")
                    n_old += 1
                    n_new += 1
                removed = min(remaining, rng.randrange(0, 6))
                added = min(remaining - removed, rng.randrange(1, 8))
                body += [f"-    value_{rng.randrange(1000)} = compute({k})" for k in range(removed)]
                body += [f"+    value_{rng.randrange(1000)} = compute_fast({k})" for k in range(added)]
                n_old += removed
                n_new += added
                remaining -= removed + added
                if remaining <= 0:
                    break
            for _ in range(3):
                body.append(f" tail_{rng.randrange(1000)} = 0")
                n_old += 1
                n_new += 1
            out.append(f"@@ -{old_line},{n_old} +{new_line},{n_new} @@ def f_{f}():")
            rendered += 1
            for line in body:
                rendered += 1
                if line[0] in "+-":
                    positions.append(rendered)
            out += body
            old_line += n_old
            new_line += n_new
        changed[path] = positions
    return "\n".join(out) + "\n", changed


# --- Prompt reading --------------------------------------------------------------


def last_user_turn(prompt: str) -> str:
    start = prompt.rindex("\n\nUSER:\n") + len("\n\nUSER:\n")
    end = prompt.rindex("\n\nASSISTANT:")
    return prompt[start:end]


def _between(text: str, start: str, end: str) -> str:
    i = text.index(start) + len(start)
    return text[i : text.index(end, i)]


def _statement_starts(lines: list[str]) -> tuple[int, ...]:
    return _starts_of("\n".join(lines))


@functools.lru_cache(maxsize=64)
def _starts_of(code: str) -> tuple[int, ...]:
    """1-based lines starting a statement at the function body's indentation,
    excluding the docstring and clause keywords.  Uses the tokenizer, so
    strings and brackets are handled exactly."""
    tokens = tokenize.generate_tokens(io.StringIO(code + "\n").readline)
    starts: list[tuple[int, int, int, str]] = []
    expect = True
    for tok in tokens:
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            expect = True
        elif tok.type not in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
            if expect:
                starts.append((tok.start[0], tok.start[1], tok.type, tok.string))
            expect = False
    body = starts[1:]
    if not body:
        return ()
    column = body[0][1]
    if body[0][2] == tokenize.STRING:
        body = body[1:]
    return tuple(
        line
        for line, col, _, word in body
        if col == column and word not in ("else", "elif", "except", "finally")
    )


def _statement_text(seed: int, line: str) -> str:
    words = re.findall(r"[A-Za-z]+", line)
    noun = next((w for w in words if w not in ("for", "if", "in", "try", "return", "or", "is")), "state")
    verb = _VERBS[digest(seed, "verb", line) % len(_VERBS)]
    return f"{verb} the {noun} step."


def gold_outline(seed: int, lines: list[str]) -> list[tuple[int, str]]:
    starts = _statement_starts(lines)
    target = 2 if len(lines) < 25 else (3 if len(lines) < 80 else 5)
    k = min(target, len(starts))
    picks = sorted({starts[(j * len(starts)) // k] for j in range(k)})
    return [(a, _statement_text(seed, lines[a - 1])) for a in picks]


# --- The model -------------------------------------------------------------------


class SyntheticModel:
    """Answers prompts from their text alone.

    ``gen_severities`` limits which fault severities outline-generation
    answers may carry: a workload whose commands must all succeed uses
    ``("minor",)``.
    """

    def __init__(self, seed: int, gen_severities=("minor", "major")):
        self.seed = seed
        self.gen_severities = tuple(gen_severities)

    def __call__(self, prompt: str) -> str:
        return self.answer(prompt)[0]

    def answer(self, prompt: str) -> tuple[str, dict]:
        """(response, expectation) for one flat prompt."""
        user = last_user_turn(prompt)
        if user.startswith("Please help me understand this code, with line numbers"):
            return self._gen(user, "infilling")
        if user.startswith("Please help me understand this code:"):
            return self._gen(user, "interleaved")
        if "Please finish my changes." in user:
            return self._finish(user)
        if user.endswith("Summarize each file's changes, then list the topics."):
            return self._topics(user)
        if user.endswith("Partition this diff into sections and assign each to a topic."):
            return self._sections(user)
        if user.startswith("Review this decompiled function"):
            return self._triage(user)
        raise ValueError("unrecognised prompt")

    def _fault(self, key: str, menu) -> str | None:
        if digest(self.seed, "fault", key) % FAULT_SHARE or not menu:
            return None
        return menu[digest(self.seed, "kind", key) % len(menu)]

    # Outline generation ---------------------------------------------------------

    def _gen(self, user: str, technique: str):
        code = _between(user, "```\n", "\n```\n\nIdentify")
        if technique == "infilling":
            code = "\n".join(line.split("|", 1)[1] for line in code.split("\n"))
        lines = code.split("\n")
        gold = gold_outline(self.seed, lines)
        menu = [k for s in self.gen_severities for k in GEN_FAULTS[technique][s]]
        fault = self._fault(code, menu)
        if technique == "infilling":
            response, fault = _infilling_response(lines, gold, fault)
        else:
            response, fault = _interleaved_response(lines, gold, fault)
        severity = None
        if fault is not None:
            severity = "minor" if fault in GEN_FAULTS[technique]["minor"] else "major"
        return response, {
            "kind": "gen",
            "technique": technique,
            "outline": gold,
            "issues": [fault] if fault else [],
            "severity": severity,
        }

    # Finish changes ------------------------------------------------------------

    def _finish(self, user: str):
        old = _between(user, "with its outline:\n```\n", "\n```\n\nHere is the current")
        current = _between(user, "started making changes:\n```\n", "\n```\n\nPlease finish")
        old_bare = {ln for ln in old.split("\n") if not ln.lstrip().startswith("#*")}
        lines = current.split("\n")
        out: list[str] = []
        added = None
        for line in lines:
            code = line.strip() and not line.lstrip().startswith("#")
            if added is None and code and line not in old_bare:
                indent = line[: len(line) - len(line.lstrip())]
                added = line.strip()
                out.append(f"{indent}#* Record the edit marker for the next step.")
            out.append(line)
        reasoning = (
            f"Changes: the user added `{added}`.\n"
            "Reasoning: the new line starts a section, so it gets its own outline statement."
        )
        response = reasoning + "\n\n```python\n" + "\n".join(out) + "\n```"
        return response, {"kind": "finish", "added": added}

    # Virtual split -------------------------------------------------------------

    def _topics(self, user: str):
        diffs = _between(user, "File diffs:\n", "\n\nSummarize each file's changes")
        paths = [ln[6:] for ln in diffs.split("\n") if ln.startswith("+++ b/")]
        count = 2 + digest(self.seed, "topics", len(paths), paths[0]) % 3
        first = digest(self.seed, "first", paths[0]) % len(_TOPIC_TITLES)
        titles = [_TOPIC_TITLES[(first + i) % len(_TOPIC_TITLES)] for i in range(count)]
        summary = "\n".join(f"{p} changes several helper functions." for p in paths)
        listing = "\n".join(f"{i}. {t}" for i, t in enumerate(titles + ["Other changes"], 1))
        return f"{summary}\n\nTopics:\n{listing}", {"kind": "topics", "titles": titles}

    def _sections(self, user: str):
        path = _between(user, "Diff of ", ", with line numbers added")
        numbered, _, rest = _between(
            user, "for reference:\n", "\n\nTopics:\n"
        ).rpartition("\n\nChange blocks start at lines: ")
        starts = [int(s) for s in rest.split(", ")]
        limit = numbered.count("\n") + 1
        topics = user.rsplit("\n\nTopics:\n", 1)[1].split("\n\n")[0].count("\n") + 1
        # Some files leave their first change block unassigned, so assembly
        # must file it under "Other changes".
        first = 1 if digest(self.seed, "orphans", path) % 4 == 0 and len(starts) > 1 else 0
        lines = []
        for j, start in enumerate(starts[first:], start=first):
            if j > first and digest(self.seed, "merge", path, start) % 3 == 0:
                continue
            topic = 1 + digest(self.seed, "topic", path, start) % topics
            lines.append(f"{start}|{topic}| Update the values computed near diff line {start}.")
        fault = self._fault(path, SECTION_FAULTS)
        if fault == "not_sorted" and len(lines) < 2:
            fault = None
        if fault == "unknown_topic_index":
            anchor = lines[0].split("|")[0]
            lines[0] = f"{anchor}|{topics + 2}| Update the leading values."
        elif fault == "not_sorted":
            lines[0], lines[1] = lines[1], lines[0]
        elif fault == "duplicate_line_number":
            lines.insert(1, lines[0].split("|")[0] + "|1| Repeated section.")
        elif fault == "malformed_line":
            lines.append("See the hunks above for details.")
        elif fault == "line_number_out_of_bounds":
            lines.append(f"{limit + 4}|1| Past the end of the diff.")
        return "\n".join(lines), {
            "kind": "sections",
            "path": path,
            "issues": [fault] if fault else [],
        }

    # Triage --------------------------------------------------------------------

    def _triage(self, user: str):
        numbered = _between(user, "```\n", "\n```\n\nSummarize")
        notes: list[tuple[int, str]] = []
        for line in numbered.split("\n"):
            number, _, code = line.partition("|")
            for token, text in SUSPICIOUS:
                if token in code:
                    notes.append((int(number), text))
                    break
        score = min(3, len(notes))
        if score == 0:
            summary = "This function reads local state and updates the UI. It has no security impact."
        else:
            summary = (
                f"This function makes {len(notes)} sensitive call(s). "
                "Together they suggest data collection without user consent."
            )
        fault = self._fault(numbered, TRIAGE_FAULTS) if len(notes) >= 2 else None
        wire = [f"Line {n}: {t}" for n, t in notes]
        errors: list[str] = []
        if fault == "duplicate":
            wire.insert(1, f"Line {notes[0][0]}: Repeats the first note.")
            errors.append(f"[duplicate line number: {notes[0][0]}]")
        elif fault == "unsorted":
            wire[0], wire[1] = wire[1], wire[0]
        elif fault == "malformed":
            wire.append("Also worth a closer look.")
            errors.append("[malformed outline line]")
        body = "\n".join(wire) if wire else "<None>"
        response = f"{summary}\n\nSuspicion score:\n{score}\n\nNotes:\n{body}"
        return response, {
            "kind": "triage",
            "score": score,
            "summary": summary,
            "outline": notes,
            "errors": errors,
        }


def _infilling_response(lines, gold, fault):
    out = [f"{a}| {t}" for a, t in gold]
    if fault == "not_sorted" and len(out) >= 2:
        out[0], out[1] = out[1], out[0]
    elif fault == "commented_empty_line":
        previous = 0
        for j, (a, t) in enumerate(gold):
            if a - 1 > previous and not lines[a - 2].strip():
                out[j] = f"{a - 1}| {t}"
                break
            previous = a
        else:
            fault = None
    elif fault == "malformed_line":
        out.append("Note: the sections above cover the whole function.")
    elif fault == "line_number_out_of_bounds":
        out.append(f"{len(lines) + 5}| Summarize the trailing code.")
    elif fault == "duplicate_line_number":
        out.insert(1, f"{gold[0][0]}| Repeat the first summary.")
    else:
        fault = None
    return "\n".join(out), fault


def _interleaved_response(lines, gold, fault):
    anchors = {a: t for a, t in gold}
    starts = _statement_starts(lines)
    target = None
    if fault == "extra_blank_line":
        target = next(
            (s for s in starts if s not in anchors and lines[s - 2].strip()), None
        )
    elif fault == "missing_blank_line":
        target = next(
            (i for i in range(2, len(lines)) if not lines[i - 1].strip() and i + 1 not in anchors),
            None,
        )
    elif fault == "changed_trailing_comment":
        target = next(
            (
                s
                for s in starts
                if s not in anchors and "#" not in lines[s - 1] and '"' not in lines[s - 1]
                and "'" not in lines[s - 1] and not lines[s - 1].rstrip().endswith((":", "(", ","))
            ),
            None,
        )
    elif fault == "consecutive_comment":
        target = gold[0][0]
    elif fault in ("changed_code", "extra_prediction_lines"):
        target = len(lines)
    if target is None:
        fault = None
    out: list[str] = []
    for i, line in enumerate(lines, start=1):
        indent = line[: len(line) - len(line.lstrip())]
        if i in anchors:
            text = anchors[i]
            if fault == "consecutive_comment" and i == target:
                head, tail = text.split(" ", 1)
                out += [f"{indent}# {head}", f"{indent}# {tail}"]
            else:
                out.append(f"{indent}# {text}")
        if i == target and fault == "extra_blank_line":
            out.append("")
        if i == target and fault == "missing_blank_line":
            continue
        if i == target and fault == "changed_trailing_comment":
            out.append(f"{line}  # keep as is")
            continue
        if i == target and fault == "changed_code":
            out.append(f"{line} or None")
            continue
        out.append(line)
    if fault == "extra_prediction_lines":
        out.append("print('done')")
    return "```\n" + "\n".join(out) + "\n```", fault
