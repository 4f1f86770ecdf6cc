"""Thread-pool helper with deterministic, index-ordered reduction.

The LMD_THREADS environment variable caps worker threads (default 1, i.e.
serial). Results always come back in input order, so outputs are identical
regardless of thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

__all__ = ["thread_count", "ordered_map"]


def thread_count() -> int:
    raw = os.environ.get("LMD_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as e:
        raise ValueError(f"LMD_THREADS must be a positive integer, got '{raw}'") from e
    if n < 1:
        raise ValueError(f"LMD_THREADS must be a positive integer, got {n}")
    return n


def ordered_map(fn, items) -> list:
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        # each call runs in a copy of the caller's context, so np.errstate reaches the workers
        return list(pool.map(lambda ctx, x: ctx.run(fn, x), [copy_context() for _ in items], items))
