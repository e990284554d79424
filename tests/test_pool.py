"""Tests for the process-pool driver shared by the scan and the sweep.

No test here starts a process pool: `ProcessPoolExecutor` is replaced by a
stand-in that records `max_workers` and runs every task in this process.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from fareysum import cli, counting, pool
from fareysum.experiments import ExperimentConfig, run_scan
from fareysum.pool import worker_count


class RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its size and the
    largest number of submitted tasks whose result was not yet taken."""

    sizes: list[int] = []
    in_flight = peak_in_flight = 0

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        RecordingPool.in_flight += 1
        RecordingPool.peak_in_flight = max(RecordingPool.peak_in_flight, RecordingPool.in_flight)
        return DoneFuture(fn(*args))


class DoneFuture:
    """A finished task; taking its result ends its time in flight."""

    def __init__(self, value):
        self.value = value

    def result(self):
        RecordingPool.in_flight -= 1
        return self.value


class DeadWorkerPool(RecordingPool):
    """A stand-in whose workers have all died: every task's result raises."""

    def submit(self, fn, *args):
        return DeadFuture()


class DeadFuture:
    def result(self):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight usable CPUs, and RecordingPool in place of every process pool."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes = []
    RecordingPool.in_flight = RecordingPool.peak_in_flight = 0


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


class TestPoolSize:
    def test_scan_pool_is_bounded(self, eight_cpus):
        config = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=10)
        report = run_scan(config, jobs=10 ** 6)
        assert RecordingPool.sizes == [8]
        assert report == run_scan(config)

    def test_scan_keeps_a_bounded_window_in_flight(self, eight_cpus):
        # 40 cells over 2 workers make 20 runs of 2: at most 4 per worker wait at once
        config = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=20)
        report = run_scan(config, jobs=2)
        assert RecordingPool.sizes == [2]
        assert RecordingPool.peak_in_flight == pool.IN_FLIGHT_PER_WORKER * 2 == 8
        assert RecordingPool.in_flight == 0
        assert report == run_scan(config)

    def test_scan_of_one_cell_starts_no_pool(self, eight_cpus):
        config = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=1)
        run_scan(config, jobs=4)
        assert RecordingPool.sizes == []

    def test_sweep_pool_is_bounded_by_tasks(self, eight_cpus):
        report = counting.verify_theorem2(5, 4, jobs=10 ** 6)
        assert RecordingPool.sizes == [5]
        assert report == counting.verify_theorem2(5, 4)

    def test_sweep_rows_pool_is_bounded(self, eight_cpus, tmp_path):
        # the pooled sweep writes, row for row, what the serial sweep_rows yields
        pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
        report = counting.verify_theorem2(20, 4, jobs=10 ** 6, csv_path=str(pooled))
        assert RecordingPool.sizes == [8]
        assert report == counting.verify_theorem2(20, 4)
        rows = list(counting.sweep_rows(20, 4))
        assert RecordingPool.sizes == [8]
        assert all(isinstance(row, counting.SweepRow) for row in rows)
        assert counting.write_sweep_csv(str(serial), rows) == report.rows_checked
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("csv", [False, True])
    def test_sweep_keeps_a_bounded_window_of_n_in_flight(self, eight_cpus, csv, tmp_path):
        # 40 values of n over 2 workers: at most 4 per worker wait at once
        path = str(tmp_path / "sweep.csv") if csv else None
        report = counting.verify_theorem2(40, 3, jobs=2, csv_path=path)
        assert RecordingPool.sizes == [2]
        assert RecordingPool.peak_in_flight == pool.IN_FLIGHT_PER_WORKER * 2 == 8
        assert RecordingPool.in_flight == 0
        assert report == counting.verify_theorem2(40, 3)


def test_jobs_below_one_is_refused_before_any_work(tmp_path):
    # ordered_map checks jobs when it is called, so the sweep never opens its CSV
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="^jobs must be an integer >= 1, got 0$"):
        counting.verify_theorem2(3, 2, jobs=0, csv_path=str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "12", "--d", "9", "--c", "1,2", "--b-start", "100000001", "--b-count", "10",
     "--jobs", "2", "--csv"],
    ["verify-counting", "--max-n", "10", "--max-d", "3", "--jobs", "2", "--csv"],
], ids=["scan", "verify-counting"])
def test_dead_worker_is_an_error_not_a_traceback(eight_cpus, monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(pool, "ProcessPoolExecutor", DeadWorkerPool)
    code = cli.main(argv + [str(tmp_path / "report.csv")])
    out, err = capsys.readouterr()
    assert code == 1
    assert RecordingPool.sizes == [2]
    assert out == ""
    assert err.splitlines() == [
        "fareysum: error: a worker process died: "
        "A process in the process pool was terminated abruptly"]
    assert list(tmp_path.iterdir()) == []
