"""The package's one place of parallelism: a thread pool per call.

Work goes to threads only where numpy releases the GIL for most of it (filling
arrays from a generator, BLAS products on one thread each). Results come back
in input order, and each item's result depends on the item alone, so the
bytes never depend on how many threads ran. The pool has one thread per CPU
the process may run on (its affinity mask), and it is shut down before the
call returns.

Its one caller is lepage.projected_blocks: on the Gaussian route one task
draws and projects one scale pair; on the atom route one task forms one axis
level's atom columns, or one row of blocks. A task keeps these rules:
- factors, plans and envelope values are computed by the caller before the
  map, since plan builds write to caches and call traced functions;
- no task enters _blas.one_thread: the caller's block covers every task, and
  a nested one would restore the thread counts while others still run;
- no task calls a function that a tracer may rebind from outside (the
  tables' psi, lepage.envelope, ...): the tracer's span stack is not
  thread-safe;
- a task makes its own scratch, and the caller makes any output that outlives
  a task: memory a worker thread frees stays in its own malloc arena and adds
  to the peak, so a task's scratch must stay small. On 2 CPUs with one BLAS
  thread, a process that synthesized two 512^2 alpha = 1.5 fields of 20 000
  atoms, one 128^2 alpha = 1.5 field and six more 512^2 fields peaked at
  130.6-132.1 MB (ru_maxrss, 10 runs) with the atom route's tasks making
  their own 2.6 MB phase tables and the caller making the axis-1 columns;
  at 141.0-157.3 MB (5 runs) with the workers making those columns too; and
  at 143.6-148.0 MB (5 runs) with one caller-made 10.6 MB phase buffer per
  worker.
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
