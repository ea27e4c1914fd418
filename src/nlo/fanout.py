"""Ordered fan-out of independent calls over a thread pool."""

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator


def fan_out(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` threads when
    more than one is allowed and there is more than one item; results keep
    the input order either way."""
    return list(fan_out_iter(fn, items, workers))


def fan_out_iter(fn, items, workers: int) -> Iterator:
    """``fn(item)`` for each item, yielded in input order as soon as it and
    every earlier result are done, on up to ``workers`` threads when more
    than one is allowed and there is more than one item.

    The first failure in input order is raised after the results before it,
    as a loop would raise it.  Once a call fails, or the caller stops
    iterating, no further call starts; calls already running finish before
    the failure is raised."""
    if workers <= 1 or len(items) <= 1:
        for item in items:
            yield fn(item)
        return
    first_failure = len(items)  # the index of the earliest failed call
    lock = threading.Lock()

    def call(index, item):
        nonlocal first_failure
        if index > first_failure:  # never read: the caller stops at the failure
            return None
        try:
            return fn(item)
        except BaseException:
            with lock:
                first_failure = min(first_failure, index)
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for future in [pool.submit(call, *pair) for pair in enumerate(items)]:
            yield future.result()
    finally:
        first_failure = -1  # the caller is done: start nothing more
        pool.shutdown(cancel_futures=True)
