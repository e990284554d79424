"""The one process-pool driver, shared by the scan and the counting sweep.

`ProcessPoolExecutor` under fork starts every worker up front, so a pool
is never sized past the CPUs this process may run on or the work it has;
it holds a few tasks per worker in flight, so untaken results never pile up.
Importing it took about a third of `import fareysum.cli`, so it is bound
on the first pooled call, and a serial run never imports it.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from .numtheory import require_range

IN_FLIGHT_PER_WORKER = 4
ProcessPoolExecutor = None  # concurrent.futures.ProcessPoolExecutor, once a pool is needed


def worker_count(jobs: int, tasks: int) -> int:
    """min(jobs, usable CPUs, tasks), and at least 1; refuses jobs below 1."""
    require_range("jobs", jobs, 1)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))


def _listed(fn: Callable, item) -> list:
    """A pooled task: fn(item) as a list, since a generator cannot be pickled back."""
    return list(fn(item))


def ordered_map(fn: Callable, items: Sequence, jobs: int) -> Iterator[Iterable]:
    """fn(item) for every item, in input order, where fn returns an iterable.
    With one worker it runs in this process and each result is passed on as
    fn returned it; otherwise over a pool of `worker_count(jobs, len(items))`
    processes holding at most IN_FLIGHT_PER_WORKER tasks per worker in flight,
    and each result crosses back as a list.  `jobs` is checked at the call,
    before any item runs.  A pool whose worker died raises `ChildProcessError`,
    an `OSError`."""
    workers = worker_count(jobs, len(items))
    return map(fn, items) if workers == 1 else _pooled(fn, items, workers)


def _pooled(fn: Callable, items: Sequence, workers: int) -> Iterator[list]:
    """`ordered_map` over a pool of `workers` processes."""
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import BrokenExecutor
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for item in items:
                pending.append(pool.submit(_listed, fn, item))
                if len(pending) == IN_FLIGHT_PER_WORKER * workers:
                    yield pending.popleft().result()
            yield from (future.result() for future in pending)
    except BrokenExecutor as exc:
        # a worker that died (killed, out of memory) is a failed run, not a bug
        raise ChildProcessError(f"a worker process died: {exc}") from exc
