"""Ordered fan-out of independent calls over a thread pool."""

from concurrent.futures import ThreadPoolExecutor


def fan_out(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` threads when
    more than one is allowed and there is more than one item; results keep
    the input order either way."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]
