"""Agreement between the constraint acceptor and ``parse_interleaved``.

Both implement one contract: the response repeats the code and adds
comments only at legal places.  A response the acceptor accepts must
therefore parse into a valid outline with no major issue, except the two
the acceptor allows by design: a run of comments in one slot
(``consecutive_comment``) and a response with no comment at all
(``empty_outline``).
"""

import random

from nlo.generation import build_constraint, constraint_accepts, parse_interleaved
from nlo.outline import validate
from nlo.source_model import LineClass, leading_whitespace
from oracles import oracle_legal_positions, random_unit

UNITS_TO_CHECK = 3000
CANDIDATES_PER_UNIT = 6
ALLOWED_MAJOR = {"consecutive_comment", "empty_outline"}


def comment_run(unit, position, rng):
    """One to three comment lines for the slot above ``position``: plain,
    star, or a copy of one of the unit's own comment lines."""
    indent = leading_whitespace(unit.line(position))
    token = unit.profile.line_comment_token
    originals = [
        line for i, line in enumerate(unit.lines, start=1)
        if unit.classify(i) is LineClass.COMMENT
    ]
    run = []
    for j in range(rng.randint(1, 3)):
        kind = rng.choice(["plain", "star", "original"])
        if kind == "original" and originals:
            run.append(rng.choice(originals))
        elif kind == "star":
            run.append(f"{indent}{token}* starred note {position}.{j}")
        else:
            run.append(f"{indent}{token} summary {position}.{j}")
    return run


def candidate_for(unit, rng):
    """Comment runs above random positions, legal ones more often, so the
    acceptor also sees placements it must reject."""
    legal = oracle_legal_positions(unit)
    chosen = {
        p for p in range(1, len(unit) + 1) if rng.random() < (0.4 if p in legal else 0.1)
    }
    out = []
    for i, line in enumerate(unit.lines, start=1):
        if i in chosen:
            out.extend(comment_run(unit, i, rng))
        out.append(line)
    return "\n".join(out)


def test_accepted_responses_parse_into_valid_outlines():
    rng = random.Random(2307)
    accepted_total = consecutive_total = 0
    for _ in range(UNITS_TO_CHECK):
        unit = random_unit(rng)
        constraint = build_constraint(unit)
        for _ in range(CANDIDATES_PER_UNIT):
            candidate = candidate_for(unit, rng)
            accepted, _ = constraint_accepts(constraint, candidate)
            if not accepted:
                continue
            accepted_total += 1
            report = parse_interleaved(candidate, unit)
            kinds = {i.kind for i in report.issues if i.severity == "major"}
            assert kinds <= ALLOWED_MAJOR, (
                f"accepted candidate {candidate!r} for {unit.lines} "
                f"parsed with {sorted(kinds - ALLOWED_MAJOR)}"
            )
            assert validate(report.outline, unit) == [], (
                f"accepted candidate {candidate!r} for {unit.lines} "
                f"parsed into an invalid outline {report.outline}"
            )
            consecutive_total += "consecutive_comment" in kinds
    assert accepted_total > 10000 and consecutive_total > 5000
