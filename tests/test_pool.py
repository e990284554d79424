"""Tests for the process-pool driver shared by the scan and the sweep.

The pools here are real: `forks` records the pid of every worker forked,
fails a test that outlasts a deadline (a pipe end left open in a worker
hangs the pool), and checks afterwards that no child of this process is
left, killing any it finds.  `paused` holds a pooled run after its first result until its
workers have started every item they were sent.
"""

import os
import signal
import time
from collections import Counter

import pytest

from fareysum import cli, counting, experiments, pool
from fareysum.experiments import ExperimentConfig, run_scan
from fareysum.pool import ordered_map, worker_count

TABLE = {"n": 12, "d": 9, "b_start": 10 ** 8 + 1}


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight usable CPUs, whatever this machine has."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def _too_slow(signum, frame):
    raise TimeoutError("the pooled run did not finish in 30 s")


@pytest.fixture
def forks(eight_cpus, monkeypatch):
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(pool.os, "fork", recorded)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(30)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        left = _reap(pids)
    assert left == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _reap(pids):
    """The pids that are still children of this process, each killed and reaped."""
    left = []
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            left.append(pid)
        except ChildProcessError:
            pass
    return left


@pytest.fixture
def paused(monkeypatch, tmp_path):
    """paused(module) makes `module`'s ordered_map log the pid of each item a
    worker starts and hold after the first result until the log is settled;
    returns a list that gets the items and the number started per pid."""
    log = tmp_path / "started.log"

    def pause(module):
        seen = []

        def held(fn, items, jobs):
            def logged(item):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return fn(item)

            results = pool.ordered_map(logged, items, jobs)
            first = next(results)
            seen.append(list(items))
            seen.append(_settled(log, pool.IN_FLIGHT_PER_WORKER * 2))
            yield first
            yield from results

        monkeypatch.setattr(module, "ordered_map", held)
        return seen

    return pause


def _settled(log, expected):
    """Items started per pid once `expected` have started and a while has
    passed in which a worker running ahead would have started more."""
    deadline = time.monotonic() + 30
    while (not log.exists() or len(log.read_text().split()) < expected) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)
    return sorted(Counter(log.read_text().split()).values())


class TestWorkerCount:
    def test_smallest_of_jobs_cpus_and_tasks(self, eight_cpus):
        assert worker_count(1, 100) == 1
        assert worker_count(4, 100) == 4
        assert worker_count(10 ** 6, 100) == 8
        assert worker_count(10 ** 6, 3) == 3

    def test_at_least_one(self, eight_cpus):
        assert worker_count(4, 0) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
        assert worker_count(10 ** 6, 100) == 3
        monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
        assert worker_count(10 ** 6, 100) == 1

    def test_serial_without_fork(self, eight_cpus, monkeypatch):
        monkeypatch.delattr(pool.os, "fork")
        assert worker_count(4, 100) == 1
        with pytest.raises(ValueError, match="^jobs must be an integer >= 1, got 0$"):
            worker_count(0, 100)


class TestPoolSize:
    def test_scan_pool_is_bounded(self, forks):
        config = ExperimentConfig(**TABLE, c_list=(1, 2), b_count=10)
        report = run_scan(config, jobs=10 ** 6)
        assert len(forks) == 8
        assert report == run_scan(config)
        assert len(forks) == 8

    def test_scan_keeps_a_bounded_window_in_flight(self, forks, paused):
        # 40 cells over 2 workers make 16 runs of 2 or 3 cells: the workers start
        # 8 runs between them, and no more until the first result is passed on
        config = ExperimentConfig(**TABLE, c_list=(1, 2), b_count=20)
        serial = run_scan(config)
        seen = paused(experiments)
        assert run_scan(config, jobs=2) == serial
        runs, started = seen
        assert len(forks) == 2
        assert sorted(map(len, runs)) == [2] * 8 + [3] * 8
        assert sum(started) == pool.IN_FLIGHT_PER_WORKER * 2 == 8

    def test_scan_of_one_cell_starts_no_pool(self, forks):
        config = ExperimentConfig(**TABLE, c_list=(1,), b_count=1)
        assert run_scan(config, jobs=4) == run_scan(config)
        assert forks == []

    def test_sweep_pool_is_bounded_by_tasks(self, forks):
        report = counting.verify_theorem2(5, 4, jobs=10 ** 6)
        assert len(forks) == 5
        assert report == counting.verify_theorem2(5, 4)

    def test_sweep_rows_pool_is_bounded(self, forks, tmp_path):
        # the pooled sweep writes, row for row, what the serial sweep_rows yields
        pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
        report = counting.verify_theorem2(20, 4, jobs=10 ** 6, csv_path=str(pooled))
        assert len(forks) == 8
        assert report == counting.verify_theorem2(20, 4, csv_path=str(serial))
        rows = list(counting.sweep_rows(20, 4))
        assert len(forks) == 8
        assert all(isinstance(row, counting.SweepRow) for row in rows)
        assert len(rows) == report.rows_checked
        assert pooled.read_bytes() == serial.read_bytes() == b"".join(
            [b"n,m,d,c,brute,formula,closed_form,ok\r\n"]
            + [b"%d,%d,%d,%d,%d,%d,%d,%d\r\n" % row for row in rows])

    @pytest.mark.parametrize("csv", [False, True])
    def test_sweep_keeps_a_bounded_window_of_n_in_flight(self, forks, paused, csv, tmp_path):
        # 40 values of n over 2 workers: the workers start 8 between them, and no
        # more until the first result is passed on
        path = str(tmp_path / "sweep.csv") if csv else None
        serial = counting.verify_theorem2(40, 3)
        seen = paused(counting)
        assert counting.verify_theorem2(40, 3, jobs=2, csv_path=path) == serial
        assert len(forks) == 2
        ns, started = seen
        assert ns == list(range(1, 41))
        assert sum(started) == pool.IN_FLIGHT_PER_WORKER * 2


def _square(x):
    return [x * x]


def _first_only(x):
    """Fast for item 0; any other item outlasts the test's deadline."""
    if x:
        time.sleep(60)
    return [x]


def _slow_last(x):
    """[x], after 0.5 s on item 19."""
    if x == 19:
        time.sleep(0.5)
    return [x]


def _killed_after_the_first(x):
    """[0] for item 0; any other item kills its worker after 0.2 s."""
    if x:
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    return [x]


def _pid_of(x):
    """The worker's pid, after 0.1 s on an even item."""
    if x % 2 == 0:
        time.sleep(0.1)
    return [os.getpid()]


def _broken(fn, is_bad, how):
    """fn, except that an item `is_bad` accepts makes the worker raise
    ValueError, kill itself with SIGKILL, or exit 0; never in this process."""
    parent = os.getpid()

    def broken(item, *args, **kwargs):
        if is_bad(item):
            assert os.getpid() != parent, "a broken item ran in the test process"
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "exit 0":
                os._exit(0)
            raise ValueError(f"item {item!r} is bad")
        return fn(item, *args, **kwargs)

    return broken


class TestNoWorkerOutlivesTheCall:
    """Three workers, so that a pipe end one worker kept of another's hangs the test."""

    def test_a_pooled_run(self, forks):
        assert list(ordered_map(_square, range(50), 3)) == [[x * x] for x in range(50)]
        assert len(forks) == 3

    def test_an_exception_keeps_its_type(self, forks):
        with pytest.raises(ValueError, match="^item 17 is bad$"):
            list(ordered_map(_broken(_square, (17).__eq__, "raise"), range(50), 3))
        assert len(forks) == 3

    def test_an_unpicklable_exception_crosses_as_its_repr(self, forks):
        def fn(x):
            raise ValueError(lambda: x)

        with pytest.raises(RuntimeError, match=r"^ValueError\(<function "):
            list(ordered_map(fn, range(50), 3))

    def test_a_killed_worker(self, forks):
        with pytest.raises(ChildProcessError, match="^a worker process died: killed by signal 9$"):
            list(ordered_map(_broken(_square, (17).__eq__, "kill"), range(50), 3))
        assert len(forks) == 3

    def test_a_run_closed_after_its_first_result(self, forks):
        # the workers busy on later items are killed, not waited for
        results = ordered_map(_first_only, range(50), 3)
        assert next(results) == [0]
        results.close()
        assert len(forks) == 3

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_pipe_end_outlives_the_call(self, forks):
        # the shared index pipe's two ends are the parent's too
        before = len(os.listdir("/proc/self/fd"))
        assert list(ordered_map(_square, range(50), 3)) == [[x * x] for x in range(50)]
        with pytest.raises(ValueError):
            list(ordered_map(_broken(_square, (17).__eq__, "raise"), range(50), 3))
        results = ordered_map(_first_only, range(50), 3)
        assert next(results) == [0]
        results.close()
        assert len(forks) == 9
        assert len(os.listdir("/proc/self/fd")) == before


class TestTheSharedIndexPipe:
    """Three workers read item indices from one pipe: each index must reach
    exactly one of them, whole.  The parent holds the pipe open until the
    run ends, so no worker leaves early, and one that does is dead."""

    def test_every_item_once_in_order(self, forks):
        assert list(ordered_map(_square, range(2000), 3)) == list(map(_square, range(2000)))
        assert len(forks) == 3

    def test_workers_that_drain_the_pipe_are_not_dead(self, forks):
        # two workers find the pipe drained while the third is still busy on
        # item 19: they wait on it, idle, until the run ends
        assert list(ordered_map(_slow_last, range(20), 3)) == [[x] for x in range(20)]
        assert len(forks) == 3

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_no_worker_exits_before_the_run_ends(self, forks):
        results = ordered_map(_slow_last, range(20), 3)
        assert [next(results) for _ in range(19)] == [[x] for x in range(19)]
        time.sleep(0.2)  # while item 19 runs, time for an idle worker to exit
        probe = os.WEXITED | os.WNOHANG | os.WNOWAIT  # looks, reaps nothing
        assert [pid for pid in forks if os.waitid(os.P_PID, pid, probe)] == []
        assert list(results) == [[19]]
        assert len(forks) == 3

    @pytest.mark.parametrize("bad", [5, 45])
    def test_a_worker_that_exits_0_in_an_item_is_dead(self, forks, bad):
        # item 5 is taken while most of the items are still to be sent, item 45
        # once the last index is sent: either way the worker left before the end
        with pytest.raises(ChildProcessError, match="^a worker process died: exit status 0$"):
            list(ordered_map(_broken(_square, bad.__eq__, "exit 0"), range(50), 3))
        assert len(forks) == 3

    def test_every_worker_killed(self, forks):
        with pytest.raises(ChildProcessError, match="^a worker process died: killed by signal 9$"):
            list(ordered_map(_broken(_square, lambda x: True, "kill"), range(50), 3))
        assert len(forks) == 3

    def test_every_worker_killed_after_a_result(self, forks):
        # the index written once item 0 is passed on finds no worker left to read it
        results = ordered_map(_killed_after_the_first, range(50), 3)
        assert next(results) == [0]
        time.sleep(1)
        with pytest.raises(ChildProcessError, match="^a worker process died: killed by signal 9$"):
            next(results)
        assert len(forks) == 3


def test_a_worker_exception_keeps_its_traceback(forks):
    def f(x):
        return [1 / (x - 3)]

    with pytest.raises(ZeroDivisionError) as caught:
        list(ordered_map(f, range(8), 2))
    trace = str(caught.value.__cause__)
    assert trace.startswith("Traceback (most recent call last):")
    assert ", in f\n    return [1 / (x - 3)]\n" in trace


def test_items_go_to_the_least_busy_worker(forks):
    # i % 2 would give one worker every slow item; a worker done with its
    # fast ones takes the next items from the pipe instead
    pids = [pid for [pid] in ordered_map(_pid_of, range(12), 2)]
    assert len(set(pids[0::2])) == 2


def test_jobs_below_one_is_refused_before_any_work(tmp_path):
    # ordered_map checks jobs when it is called, so the sweep never opens its CSV
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="^jobs must be an integer >= 1, got 0$"):
        counting.verify_theorem2(3, 2, jobs=0, csv_path=str(path))
    assert list(tmp_path.iterdir()) == []


CLI_FORMS = {
    "scan": (["scan", "--n", "12", "--d", "9", "--c", "1,2", "--b-start", "100000001",
              "--b-count", "10", "--jobs", "3", "--csv"],
             experiments, "_scan_cells", lambda cells: (2, 100000004) in [cell[1:] for cell in cells]),
    "verify-counting": (["verify-counting", "--max-n", "10", "--max-d", "3", "--jobs", "3", "--csv"],
                        counting, "_n_blocks", (7).__eq__),
}


def _fails_in_a_worker(monkeypatch, capsys, tmp_path, forks, form, how):
    """Run a CLI form whose one bad item breaks its worker; the error lines."""
    argv, module, name, is_bad = CLI_FORMS[form]
    monkeypatch.setattr(module, name, _broken(getattr(module, name), is_bad, how))
    code = cli.main(argv + [str(tmp_path / "report.csv")])
    out, err = capsys.readouterr()
    assert code == 1
    assert len(forks) == 3
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    return err.splitlines()


@pytest.mark.parametrize("form", sorted(CLI_FORMS))
def test_dead_worker_is_an_error_not_a_traceback(monkeypatch, capsys, tmp_path, forks, form):
    assert _fails_in_a_worker(monkeypatch, capsys, tmp_path, forks, form, "kill") == [
        "fareysum: error: a worker process died: killed by signal 9"]


@pytest.mark.parametrize("form", sorted(CLI_FORMS))
def test_worker_exception_is_an_error_not_a_traceback(monkeypatch, capsys, tmp_path, forks, form):
    [line] = _fails_in_a_worker(monkeypatch, capsys, tmp_path, forks, form, "raise")
    assert line.startswith("fareysum: error: item ") and line.endswith(" is bad")
