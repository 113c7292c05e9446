"""The package's one place of parallelism: a thread pool per call.

Work goes to threads only where numpy releases the GIL for most of it (filling
arrays from a generator, BLAS products on one thread each). Results come back
in input order, and each item's result depends on the item alone, so the
bytes never depend on how many threads ran. The pool has one thread per CPU
the process may run on (its affinity mask), and it is shut down before the
call returns.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    """CPUs in this process's affinity mask, or the CPU count where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], computed on a thread pool."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: at module level it would add to every process's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
