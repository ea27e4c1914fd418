"""Prompt bytes are part of the replay contract: a recorded store is keyed on
them, so any change to how a ``build_*`` function lays out its turns makes
every existing recording miss.  Each digest below is the ``request_key`` of
one fixed input per prompt function, computed before those functions were
moved onto ``gateway.user_prompt``; a change here means old fixture stores
stop replaying."""

import pytest

from conftest import TOUR_CODE, TOUR_STATEMENTS
from nlo.fewshots import load_fewshot_set, load_triage_examples
from nlo.gateway import ChatPrompt, GenerationRequest, request_key, user_prompt
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    INTERLEAVED_INSTRUCTIONS,
    FewShotExample,
    PromptConfig,
    build_prompt,
)
from nlo.maintenance import EditSession, build_finish_prompt
from nlo.outline import Outline, OutlineStatement
from nlo.source_model import C_LIKE_PROFILE, SourceUnit
from nlo.triage import build_triage_prompt
from nlo.vsplit import (
    ChangeList,
    Topic,
    build_sections_prompt,
    build_topics_prompt,
    parse_unified_diff,
)

DIFF = """\
--- a/alpha.py
+++ b/alpha.py
@@ -1,3 +1,4 @@
 a
 b
+new
 c
--- a/beta.py
+++ b/beta.py
@@ -1,4 +1,4 @@
 x
-y
+Y
 z
 w"""

DECOMPILED = """\
public void m0(android.content.Context p1) {
  String v1 = p1.getPackageName();
  android.telephony.SmsManager.getDefault().sendTextMessage("5", 0, v1, 0, 0);
  return;
}"""


def _tour():
    return SourceUnit.from_text(TOUR_CODE)


def _infilling():
    config = PromptConfig("infilling", INFILLING_INSTRUCTIONS, load_fewshot_set())
    return build_prompt(_tour(), config)


def _interleaved():
    config = PromptConfig("interleaved", INTERLEAVED_INSTRUCTIONS, load_fewshot_set())
    return build_prompt(_tour(), config)


def _triage():
    unit = SourceUnit.from_text(DECOMPILED, profile=C_LIKE_PROFILE)
    return build_triage_prompt(unit, load_triage_examples())


def _finish():
    old = _tour()
    current = SourceUnit.from_text(TOUR_CODE.replace("tour_cost = 0.0", "tour_cost = 0"))
    outline = Outline(statements=TOUR_STATEMENTS)
    return build_finish_prompt(EditSession(old, outline, current, outline))


def _topics():
    return build_topics_prompt(ChangeList("Add a line; capitalize y.", parse_unified_diff(DIFF)))


def _sections():
    topics = (Topic(1, "Add a line"), Topic(2, "Capitalize y"))
    return build_sections_prompt("Add a line; capitalize y.", parse_unified_diff(DIFF)[1], topics)


def _user():
    return user_prompt("Answer briefly.", "What is 2 + 2?\r\nExplain.")


@pytest.mark.parametrize(
    "build, digest",
    [
        (_infilling, "c88d9f98d7c672651d99c2d30d76235a37e012464a8449f2809767752ac84feb"),
        (_interleaved, "a1d010de50a01c83e21dbb9443ee9852329da0484377d9961c2fff993f28d203"),
        (_triage, "9ef0f2d2b6ee87a71dade8f4828123c0bafebe4a95af1fb47909c0d717e5e2d7"),
        (_finish, "dd77be703b79c72bfb4fbf13b084e1b9d098114dcdd4c7be904133d63c4e3b29"),
        (_topics, "d0fc112a98af18a288b02a4d20feb60b7a36cbad4e54e61b33753c83bede76b8"),
        (_sections, "52e0eb2f99fb49c91dcc83c9cc615bc73f7be76d33a4106a8ed86837d3eed5a8"),
        (_user, "647015096bc5e054c9ce49af3f07e554056450dac18ba950fd5e9f1624794161"),
    ],
)
def test_prompt_bytes_are_pinned(build, digest):
    request = GenerationRequest(prompt=build(), temperature=0.0)
    assert request_key("http", "pinned", request) == digest


# Odd-shaped prompts: no turns, a lone user turn, empty texts, non-ASCII text,
# a NUL inside an id and a non-zero temperature.  ``request_key`` hashes the
# system text and every turn but the last two apart from those two, so these
# are the shapes where either part is empty or short.  Each digest was
# computed by the one-pass formula, the SHA-256 of the NUL-joined backend id,
# model id, temperature repr and ``serialize()`` text.
SYSTEM = "Outline the code."


def _custom_config(technique):
    shots = (
        FewShotExample(
            SourceUnit.from_text("total = 0\nfor x in xs:\n    total += x\n"),
            Outline((OutlineStatement(1, "Sum the values — all of them."),)),
        ),
        FewShotExample(
            SourceUnit.from_text("naïve = 'ß'\nprint(naïve)\n"),
            Outline(
                (OutlineStatement(1, "Keep the naïve spelling."), OutlineStatement(2, "Show it ✓."))
            ),
        ),
    )
    return PromptConfig(technique, "Décris chaque étape — en bref ✓.", shots)


def _non_ascii(technique):
    return lambda: build_prompt(SourceUnit.from_text("é = 1\nprint(é)\n"), _custom_config(technique))


def _one_shot():
    return user_prompt(SYSTEM, "x = 1", [("q", "a")])


@pytest.mark.parametrize(
    "build, model, temperature, digest",
    [
        (
            lambda: ChatPrompt(SYSTEM, ()),
            "pinned",
            0.0,
            "e958953e18189f088f1cc850746cc23ff7292e0270528804bbcb173932069879",
        ),
        (
            lambda: ChatPrompt(SYSTEM, (("user", "x = 1"),)),
            "pinned",
            0.0,
            "65bff74d6e8a8cea18b028f54914df25adb7f7d97b41d23d146d19324a1dea9e",
        ),
        (
            lambda: user_prompt("", ""),
            "pinned",
            0.0,
            "a0ac1842e338c665cab67734d66c3737a68912655caae1297adfd22234cdced3",
        ),
        (
            _non_ascii("infilling"),
            "pinned",
            0.0,
            "2da123125d941d94b219701c2b70d9b7e24d1ca32d3d5404c54c4fc1a72b9350",
        ),
        (
            _non_ascii("interleaved"),
            "pinned",
            0.0,
            "18aec49165346bc00ada45b3d52543c7e13def4d5a81ebdb6b76a9351ea96998",
        ),
        (
            _one_shot,
            "m\x00odel",
            0.0,
            "853beb591f1917c65ee8197fbd339ebefec44ac5a49fb0600f607f899c565543",
        ),
        (_one_shot, "pinned", 0.0, "26f00b7ac4db70b89da9e66099a2668a48153e9170abe33d6ffce1b29c0bc807"),
        (_one_shot, "pinned", 0.7, "1925d5fee8a497a489c6bf377bf678330a2ad176156509d65d5a672179575f92"),
    ],
    ids=[
        "no-turns",
        "one-user-turn",
        "empty-texts-no-shots",
        "non-ascii-custom-set-infilling",
        "non-ascii-custom-set-interleaved",
        "nul-in-model-id",
        "temperature-0.0",
        "temperature-0.7",
    ],
)
def test_odd_prompt_shapes_are_pinned(build, model, temperature, digest):
    request = GenerationRequest(prompt=build(), temperature=temperature)
    assert request_key("http", model, request) == digest
