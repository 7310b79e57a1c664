"""A two-way split of large numpy work between the calling thread and one
worker thread, for the two cores of the machine psformer targets.

`parts(n, work)` cuts range(n) in two, at n // 2 unless told where, when
`work` reaches FLOOR, and leaves it whole below; `run(fn, jobs)` calls fn on
each part, the first on the worker and the second on the caller, and
returns once both are done. Where the process may use only one CPU, both
parts run on the caller, in order. The parts depend on shapes alone, so a
result's bits never depend on how many CPUs the process sees.

A job runs only numpy on arrays: it creates no Tensor and calls no traced
function, so autodiff's one-thread rule and any tracer's span stack are
untouched. It writes its results into arrays the caller allocated, so the
worker's malloc arena holds no result and does not grow. numpy releases the
interpreter lock in BLAS calls and in ufunc loops, which is where the time
of a large product goes.

Keep BLAS at one thread: BLAS threads on top of this split oversubscribe a
two-core machine.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Least work worth a hand-off: 2^21 multiply-adds of a product, or elements
# updated. Below it the hand-off costs more than the half it moves. It also
# keeps each half of a product at 2^20 multiply-adds or more: OpenBLAS sends
# products under 10^6 multiply-adds to its small-matrix kernels, whose bits
# can differ from the general kernel's, so a split must leave both halves on
# the side of that line the whole product is on.
FLOOR = 1 << 21

# Threads besides the caller's that run parts: one where the process may use
# two CPUs or more, none where it may use only one.
WORKERS = 1 if len(os.sched_getaffinity(0)) > 1 else 0

_lock = threading.Lock()
_executor = None


def _forget_executor() -> None:
    """A forked child inherits the executor but not its thread."""
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_executor)


def _worker() -> ThreadPoolExecutor:
    global _executor
    with _lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=1,
                                           thread_name_prefix="psformer-pool")
        return _executor


def parts(n: int, work: int, at: int | None = None) -> tuple:
    """range(n) as one slice when work is under FLOOR, else as two parts
    split at `at`, by default n // 2."""
    if work < FLOOR or n < 2:
        return (slice(0, n),)
    at = n // 2 if at is None else at
    return (slice(0, at), slice(at, n))


def run(fn, jobs) -> None:
    """fn(job) for each of one or two jobs; with two and a worker, the first
    runs on the worker while the caller runs the second. Returns when every
    job has finished; raises the caller's error if its job failed, else the
    worker's."""
    if len(jobs) == 1 or not WORKERS:
        for job in jobs:
            fn(job)
        return
    first, second = jobs
    future = _worker().submit(fn, first)
    try:
        fn(second)
    finally:
        # The first job writes into the caller's arrays: wait for it even
        # when the second failed.
        error = future.exception()
    if error is not None:
        raise error
