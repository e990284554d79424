"""The one process-pool driver, shared by the scan and the counting sweep.

Workers are forked, so they inherit the function and its items and no
input is pickled: each reads item indices from one pipe and writes its
pickled results to another.  A pool is never sized past the usable CPUs
or the work, and holds a few items per worker in flight.  `pickle` loads
on the first pooled call; without `os.fork` every run is serial.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from .numtheory import require_range

IN_FLIGHT_PER_WORKER = 4
_SIZE_BYTES = 8  # the length prefix of a pickled result


def worker_count(jobs: int, tasks: int) -> int:
    """min(jobs, usable CPUs, tasks), and at least 1; refuses jobs below 1.
    Without `os.fork` it is 1."""
    require_range("jobs", jobs, 1)
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))


def ordered_map(fn: Callable, items: Sequence, jobs: int) -> Iterator[Iterable]:
    """fn(item) for every item, in input order, where fn returns an iterable.
    With one worker it runs in this process and each result is passed on as
    fn returned it; otherwise over `worker_count(jobs, len(items))` forked
    processes, with at most IN_FLIGHT_PER_WORKER items per worker sent out
    and not yet passed on, and each result crosses back as a list.  `jobs`
    is checked at the call, before any item runs.  An exception raised by
    fn in a worker is raised here with its own type, from a cause that holds
    its traceback in the worker; a worker that died raises
    `ChildProcessError`, an `OSError`.  No worker outlives the iteration,
    however it ends."""
    workers = worker_count(jobs, len(items))
    return map(fn, items) if workers == 1 else _pooled(fn, items, workers)


def _pooled(fn: Callable, items: Sequence, workers: int) -> Iterator[list]:
    """`ordered_map` over `workers` forked processes.  The next item goes to
    the worker with the fewest items in flight, while fewer than
    IN_FLIGHT_PER_WORKER * workers items are sent out and not yet passed on;
    so no worker holds more than IN_FLIGHT_PER_WORKER.  Results are read as
    they arrive and passed on in input order."""
    import pickle
    import select
    import signal

    pids, tasks, results = [], [], []
    queues = [deque() for _ in range(workers)]  # each worker's items in flight, oldest first
    ready = {}  # results read ahead of the next item to pass on
    arrivals = select.poll()
    sent = passed = 0
    finished = False

    def send_more():
        nonlocal sent
        while sent < min(len(items), passed + IN_FLIGHT_PER_WORKER * workers):
            w = min(range(workers), key=lambda w: len(queues[w]))
            if not queues[w]:
                arrivals.register(results[w], select.POLLIN)
            queues[w].append(sent)
            try:
                os.write(tasks[w], b"%d\n" % sent)
            except BrokenPipeError:
                pass  # the worker died: its result pipe is at EOF, and reading it says so
            sent += 1
            if sent == len(items):
                # every worker exits once its queue is done, while the last results are read
                for fd in tasks:
                    os.close(fd)
                tasks.clear()

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            tasks.append(task_w)
            results.append(result_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, task_r, result_w, tasks + results)
            finally:  # the parent's alone: a worker leaves only through os._exit
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
        send_more()
        while passed < len(items):
            if passed in ready:
                value = ready.pop(passed)
                passed += 1
                yield value
                send_more()
                continue
            for fd, _ in arrivals.poll():
                w = results.index(fd)
                size = _read(fd, _SIZE_BYTES)
                frame = None if size is None else _read(fd, int.from_bytes(size, "little"))
                if frame is None:  # EOF, or a truncated result: the worker is gone
                    _, status = os.waitpid(pids[w], 0)
                    pids[w] = None
                    code = os.waitstatus_to_exitcode(status)
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(f"a worker process died: {how}")
                ok, value = pickle.loads(frame)
                if not ok:
                    exc, trace = value
                    raise exc from _RemoteTraceback(trace)
                ready[queues[w].popleft()] = value
                if not queues[w]:
                    arrivals.unregister(fd)
        finished = True
    finally:
        for fd in tasks + results:
            os.close(fd)
        for pid in filter(None, pids):
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _RemoteTraceback(Exception):
    """The cause of an exception raised in a worker: its traceback there, as text."""


def _read(fd: int, size: int) -> bytes | None:
    """Exactly `size` bytes from `fd`; None at EOF, even after part of them."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _serve(fn: Callable, items: Sequence, task_fd: int, result_fd: int, inherited: list[int]) -> None:
    """A worker's life: for each index read from `task_fd`, write
    (True, list(fn(items[index]))) to `result_fd`, pickled after its length,
    and exit 0 at EOF; on any exception, write (False, (exc, its traceback
    text)) and exit 1.  It first closes the parent's pipe ends it inherited:
    an index pipe's write end held here would keep its worker, this one or a
    sibling, from ever reaching EOF.  Only `os._exit` ends it, so it never
    flushes the parent's buffers (stdout among them) nor runs its exit hooks."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(task_fd, "rb") as indices, open(result_fd, "wb") as out:

            def write(value):
                data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                out.write(len(data).to_bytes(_SIZE_BYTES, "little") + data)
                out.flush()

            try:
                for line in indices:
                    write((True, list(fn(items[int(line)]))))
                code = 0
            except BaseException as exc:  # sent to the parent; the worker exits below
                import traceback

                trace = traceback.format_exc()
                try:
                    write((False, (exc, trace)))
                except Exception:
                    write((False, (RuntimeError(repr(exc)), trace)))
    finally:
        os._exit(code)
