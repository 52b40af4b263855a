"""A worker pool for independent tasks: the folds of loocv and study replications."""

from __future__ import annotations

import os
import sys

_TASK = None  # (fn, state) of the pool this process works for


def _start(fn, state) -> None:
    global _TASK
    _TASK = fn, state


def _call(i):
    fn, state = _TASK
    return fn(state, i)


def _pmap(fn, state, count: int) -> list:
    """[fn(state, i) for i in range(count)], on one forked worker per usable CPU.

    Workers fork from this process, so they inherit state and fn; only the
    indices and the results are pickled, and results come back in index
    order.  Without a second task or a second usable CPU (as
    os.sched_getaffinity counts them, so taskset limits the workers),
    without fork, or inside a pool worker, the same calls run here, one
    after another.  An exception raised by fn is raised here.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count)
    loaded = sys.modules.get("multiprocessing")
    nested = loaded is not None and loaded.current_process().daemon
    if workers < 2 or not hasattr(os, "fork") or nested:
        return [fn(state, i) for i in range(count)]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    # leaving the block on an error terminates and joins the workers
    with context.Pool(workers, _start, (fn, state)) as pool:
        results = pool.map(_call, range(count), chunksize=1)
        pool.close()
        pool.join()
    return results
