"""One forked process pool for independent numbered work items.

The eigensolver's jobs, the walker's batches of Philox blocks and the
chunks of orders of a Bessel zero search are each a list of items
numbered 0..count-1 that share one large read-only job (an operator, a
domain, the orders).  ``fork_map`` runs them on forked workers,
one per usable CPU, which inherit the job without pickling it, and returns
the results in item order, so a caller that merges them in that order gets
the same bits for any number of workers.  A dense eigh's last bits depend
on its BLAS thread count, so a map whose items call BLAS runs them on one
OpenBLAS thread (``one_blas_thread``), whatever the caller's count.

The caller loads every module its items use before it calls ``fork_map``
or enters ``one_blas_thread``.  Workers die after each map, so a module
only a worker imports is imported again in every worker of every pool;
and ``one_blas_thread`` pins only the OpenBLAS builds already loaded, so
scipy's, loaded inside the block, would run at its default thread count.
"""

from __future__ import annotations

import contextlib
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


# Thread-count entry points of the OpenBLAS builds numpy and scipy ship or
# link, as (setters, getters).
_OPENBLAS_ENTRIES = (("openblas_set_num_threads", "scipy_openblas_set_num_threads",
                      "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                      "scipy_openblas_get_num_threads64_"))


def _openblas() -> list:
    """(set, get) thread-count entry points of every loaded OpenBLAS.

    OpenBLAS reads its thread count from the environment only when it
    loads, so the loaded builds are found in /proc/self/maps and reached
    through their own entry points.  Without /proc, or for another BLAS,
    the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return []
    entries = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter, getter = (next((getattr(lib, name) for name in names
                                if hasattr(lib, name)), None)
                          for names in _OPENBLAS_ENTRIES)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            entries.append((setter, getter))
    return entries


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS of this process on one thread inside the block.

    The earlier counts come back on exit, also after an exception; other
    Python threads of this process share the setting meanwhile.  Pooled
    workers already fill the usable CPUs: on a 2-vCPU Xeon, two workers with
    two BLAS threads each took 3.4 s for the windows of the h = 1/64 anomaly
    operator, one process 1.8 s.
    """
    entries = _openblas()
    before = [get() for _, get in entries]
    for set_, _ in entries:
        set_(1)
    try:
        yield
    finally:
        for (set_, _), n in zip(entries, before):
            set_(n)


# (fn, job) of the running fork_map, inherited by each forked worker.
_worker_job = None


def _adopt_job(fn, job) -> None:
    global _worker_job
    _worker_job = (fn, job)


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

    Unless pin_blas is False, for an fn that makes no BLAS call, the whole
    map runs inside ``one_blas_thread()``, whose one thread workers inherit.
    """
    with one_blas_thread() if pin_blas else contextlib.nullcontext():
        workers = _pool_size(count)
        if workers == 1:
            return [fn(job, i) for i in range(count)]
        try:
            with ProcessPoolExecutor(workers, mp.get_context("fork"),
                                     _adopt_job, (fn, job)) as pool:
                return list(pool.map(_run_item, range(count)))
        except BrokenProcessPool as exc:
            raise NumericalError(stage, f"the worker pool broke: {exc}") from exc
