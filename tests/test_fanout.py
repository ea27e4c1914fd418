"""Ordered fan-out, and how many calls each backend has in flight by default.

``fan_out_iter`` yields results in input order as they complete, raises the
first failure in input order after the results before it, and starts no
call once one has failed or the caller has stopped reading.
"""

import random
import sys
import threading
import time

import pytest

from nlo.config import Settings, make_backend
from nlo.errors import BackendError
from nlo.evalharness import evaluate_corpus
from nlo.fanout import fan_out, fan_out_iter
from nlo.gateway import (
    CallableBackend,
    FixtureStore,
    HttpBackend,
    HttpBackendConfig,
    ReplayBackend,
    ScriptedBackend,
)
from nlo.generation import INFILLING_INSTRUCTIONS, PromptConfig
from nlo.source_model import SourceUnit


class Counter:
    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def add(self, item):
        with self._lock:
            self.calls.append(item)


def test_results_keep_input_order_when_later_calls_finish_first():
    def slow_first(item):
        time.sleep(0.005 * (8 - item))
        return item * 10

    assert list(fan_out_iter(slow_first, list(range(8)), 4)) == [i * 10 for i in range(8)]
    assert fan_out(slow_first, list(range(8)), 4) == [i * 10 for i in range(8)]


@pytest.mark.parametrize("workers", [1, 4])
def test_the_first_failure_in_input_order_is_raised_after_the_results_before_it(workers):
    def fn(item):
        if item == 2:
            time.sleep(0.05)  # fails after item 5 has failed
            raise ValueError("item 2")
        if item == 5:
            raise ValueError("item 5")
        return item

    seen = []
    with pytest.raises(ValueError, match="item 2"):
        for result in fan_out_iter(fn, list(range(8)), workers):
            seen.append(result)
    assert seen == [0, 1]


def test_order_and_first_failure_hold_under_fast_thread_switching():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(30):
            failing = set(random.Random(trial).sample(range(40), 3))

            def fn(item):
                if item in failing:
                    raise ValueError(item)
                return item

            seen = []
            with pytest.raises(ValueError) as raised:
                for result in fan_out_iter(fn, list(range(40)), 8):
                    seen.append(result)
            assert raised.value.args == (min(failing),)
            assert seen == list(range(min(failing)))
    finally:
        sys.setswitchinterval(switch)


def test_no_call_starts_after_one_fails():
    counter = Counter()

    def fail(item):
        counter.add(item)
        raise ValueError(item)

    for _ in range(20):
        counter.calls.clear()
        with pytest.raises(ValueError, match="^0$"):
            fan_out(fail, list(range(20)), 4)
        assert len(counter.calls) <= 4


def test_no_call_starts_after_the_caller_stops_reading():
    counter = Counter()

    def slow(item):
        counter.add(item)
        time.sleep(0.01)
        return item

    results = fan_out_iter(slow, list(range(20)), 2)
    assert next(results) == 0
    results.close()
    assert len(counter.calls) <= 4


def test_a_failing_backend_is_not_called_once_per_item():
    counter = Counter()

    def down(prompt):
        counter.add(prompt)
        raise BackendError("model is down")

    corpus = [SourceUnit.from_text(f"def f{i}():\n    return {i}\n") for i in range(20)]
    config = PromptConfig(technique="infilling", instructions=INFILLING_INSTRUCTIONS)
    with pytest.raises(BackendError):
        evaluate_corpus(corpus, {"infilling": config}, [CallableBackend(down)], max_workers=4)
    assert len(counter.calls) <= 4  # one failed call per worker, at most


def http_backend():
    return HttpBackend(HttpBackendConfig("http://127.0.0.1:9/", "m", {}, ["text"]))


class TestInFlight:
    def test_remote_models_take_four_calls_at_once(self, tmp_path):
        assert http_backend().in_flight == 4
        recording = ReplayBackend(FixtureStore(tmp_path), record_from=http_backend())
        assert recording.in_flight == 4

    def test_local_backends_take_one(self, tmp_path):
        assert ScriptedBackend([]).in_flight == 1
        assert CallableBackend(str).in_flight == 1
        assert ReplayBackend(FixtureStore(tmp_path)).in_flight == 1
        recording = ReplayBackend(FixtureStore(tmp_path), record_from=CallableBackend(str))
        assert recording.in_flight == 1

    def test_make_backend_strict_replay_takes_one(self, tmp_path):
        assert make_backend(Settings(fixtures=str(tmp_path / "store"))).in_flight == 1
