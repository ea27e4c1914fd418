"""Prompt bytes are part of the replay contract: a recorded store is keyed on
them, so any change to how a ``build_*`` function lays out its turns makes
every existing recording miss.  Each digest below is the ``request_key`` of
one fixed input per prompt function, computed before those functions were
moved onto ``gateway.user_prompt``; a change here means old fixture stores
stop replaying."""

import pytest

from conftest import TOUR_CODE, TOUR_STATEMENTS
from nlo.fewshots import load_fewshot_set, load_triage_examples
from nlo.gateway import GenerationRequest, request_key, user_prompt
from nlo.generation import (
    INFILLING_INSTRUCTIONS,
    INTERLEAVED_INSTRUCTIONS,
    PromptConfig,
    build_prompt,
)
from nlo.maintenance import EditSession, build_finish_prompt
from nlo.outline import Outline
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
