"""One forked process pool for independent numbered work items.

The eigensolver's slicing windows, the walker's batches of Philox blocks
and the chunks of orders of a Bessel zero search are each a list of items
numbered 0..count-1 that share one large read-only job (an operator, a
domain, the orders).  ``fork_map`` runs them on forked workers,
one per usable CPU, which inherit the job without pickling it, and returns
the results in item order, so a caller that merges them in that order gets
the same bits for any number of workers.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import NumericalError


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pool_size(items: int) -> int:
    """Worker processes for `items` work items; 1 runs them in this process.

    Workers are forked, so they inherit the job without pickling.  A
    daemonic process (itself a multiprocessing worker) may not fork them,
    and a process running other Python threads does not: a forked child
    inherits every lock those threads hold and could wait on one forever.
    """
    if (items < 2 or "fork" not in mp.get_all_start_methods()
            or mp.current_process().daemon or threading.active_count() > 1):
        return 1
    return min(_usable_cpus(), items)


# Thread-count setters of the OpenBLAS builds numpy and scipy ship or link.
_OPENBLAS_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads",
                     "scipy_openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Run every loaded OpenBLAS on one thread in this process.

    The workers already fill the usable CPUs, and an OpenBLAS thread pool in
    each one oversubscribes them: on a 2-vCPU Xeon, two workers with two
    BLAS threads each took 3.4 s for the windows of the h = 1/64 anomaly
    operator, one process 1.8 s.  OpenBLAS reads its thread count from the
    environment only when it loads, so the loaded builds are found in
    /proc/self/maps and set through their own entry points.  Without
    /proc, or for another BLAS, this does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


# (fn, job) of the running fork_map, inherited by each forked worker.
_worker_job = None


def _adopt_job(fn, job, pin_blas: bool) -> None:
    global _worker_job
    _worker_job = (fn, job)
    if pin_blas:
        _one_blas_thread()


def _run_item(i: int):
    fn, job = _worker_job
    return fn(job, i)


def fork_map(fn, job, count: int, stage: str, pin_blas: bool = True) -> list:
    """``[fn(job, i) for i in range(count)]`` on a pool of forked workers.

    One worker per usable CPU (``os.sched_getaffinity``) takes the next item
    as it finishes one.  The items run here instead when there is one
    usable CPU or one item, when the platform cannot fork, when this
    process is itself a daemonic multiprocessing worker, or when it runs
    other Python threads.  fn and job reach the workers through the fork;
    only i and the results are pickled.  An exception an item raises
    reaches the caller; a worker that dies raises ``NumericalError(stage)``.

    Each worker runs OpenBLAS on one thread (``_one_blas_thread``) unless
    pin_blas is False, which suits an fn that makes no BLAS call.  Pinning
    restarts OpenBLAS's thread pool in the forked worker: with OpenBLAS at
    its default thread count on a 2-vCPU Xeon, an empty two-item pool took
    about 43 ms pinned and 14 ms unpinned.
    """
    workers = _pool_size(count)
    if workers == 1:
        return [fn(job, i) for i in range(count)]
    try:
        with ProcessPoolExecutor(workers, mp.get_context("fork"),
                                 _adopt_job, (fn, job, pin_blas)) as pool:
            return list(pool.map(_run_item, range(count)))
    except BrokenProcessPool as exc:
        raise NumericalError(stage, f"the worker pool broke: {exc}") from exc
