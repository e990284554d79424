"""The one process-pool driver, shared by the scan and the counting sweep.

Workers are forked, so they inherit the function and its items and no
input is pickled: all take item indices from one shared pipe, and each
writes its pickled results to its own.  A pool is never sized past the
usable CPUs or the work, and holds a few items per worker in flight.
`pickle` loads on the first pooled call; without `os.fork` every run is serial.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Sequence

from .numtheory import require_range

IN_FLIGHT_PER_WORKER = 4
_WORD_BYTES = 8  # an index record, and the length prefix of a pickled result


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
    processes, with at most IN_FLIGHT_PER_WORKER * workers items sent out
    and not yet passed on, and each result crosses back as a list.  `jobs`
    is checked at the call, before any item runs.  An exception raised by
    fn in a worker is raised here with its own type, from a cause that holds
    its traceback in the worker; a worker that died raises
    `ChildProcessError`, an `OSError`.  No worker outlives the iteration,
    however it ends."""
    workers = worker_count(jobs, len(items))
    return map(fn, items) if workers == 1 else _pooled(fn, items, workers)


def _pooled(fn: Callable, items: Sequence, workers: int) -> Iterator[list]:
    """`ordered_map` over `workers` forked processes, which all take item
    indices from one shared pipe as they come free.  The parent writes the
    first window of them before the first fork, then one more per result
    passed on, so at most IN_FLIGHT_PER_WORKER * workers are sent out and
    not yet passed on.  Results carry their index; they are read as they
    arrive and passed on in input order."""
    import pickle
    import select
    import signal

    task_r, task_w = os.pipe()  # the read end is held here to the end, so no write meets EPIPE
    pids, tasks, results = [], [task_w], []
    ready = {}  # results read ahead of the next item to pass on
    arrivals = select.poll()
    sent = passed = 0
    finished = False

    def send_more():
        nonlocal sent
        while sent < min(len(items), passed + IN_FLIGHT_PER_WORKER * workers):
            # one record a write, under PIPE_BUF: no worker reads part of another's
            os.write(task_w, sent.to_bytes(_WORD_BYTES, "little"))
            sent += 1
            if sent == len(items):  # each worker exits 0 once it has drained the pipe
                os.close(tasks.pop())

    try:
        send_more()
        for _ in range(workers):
            result_r, result_w = os.pipe()
            results.append(result_r)
            arrivals.register(result_r, select.POLLIN)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, task_r, result_w, tasks + results)
            finally:  # the parent's alone: a worker leaves only through os._exit
                os.close(result_w)
            pids.append(pid)
        while passed < len(items):
            if passed in ready:
                value = ready.pop(passed)
                passed += 1
                yield value
                send_more()
                continue
            for fd, _ in arrivals.poll():
                w = results.index(fd)
                size = _read(fd, _WORD_BYTES)
                frame = None if size is None else _read(fd, int.from_bytes(size, "little"))
                if frame is None:  # EOF, or a truncated result: the worker is gone
                    _, status = os.waitpid(pids[w], 0)
                    pids[w] = None
                    code = os.waitstatus_to_exitcode(status)
                    if code == 0 and not tasks and any(pids):  # it drained the closed pipe; others remain
                        arrivals.unregister(fd)
                        continue
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(f"a worker process died: {how}")
                index, value = pickle.loads(frame)
                if index is None:
                    exc, trace = value
                    raise exc from _RemoteTraceback(trace)
                ready[index] = value
        finished = True
    finally:
        for fd in [task_r] + tasks + results:
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
    """A worker's life: for each index read from the shared `task_fd`, one
    record a read, write (index, list(fn(items[index]))) to `result_fd`,
    pickled after its length, and exit 0 at EOF; on any exception, write
    (None, (exc, its traceback text)) and exit 1.  It first closes the
    parent's pipe ends it inherited: the index pipe's write end held here
    would keep every worker from ever reaching EOF.  Only `os._exit` ends
    it, so it never flushes the parent's buffers (stdout among them) nor
    runs its exit hooks."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(result_fd, "wb") as out:

            def write(value):
                data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                out.write(len(data).to_bytes(_WORD_BYTES, "little") + data)
                out.flush()

            try:
                while record := os.read(task_fd, _WORD_BYTES):
                    index = int.from_bytes(record, "little")
                    write((index, list(fn(items[index]))))
                code = 0
            except BaseException as exc:  # sent to the parent; the worker exits below
                import traceback

                trace = traceback.format_exc()
                try:
                    write((None, (exc, trace)))
                except Exception:
                    write((None, (RuntimeError(repr(exc)), trace)))
    finally:
        os._exit(code)
