"""Tests for the worker-count bound shared by the scan and the sweep.

No test here starts a process pool: `ProcessPoolExecutor` is replaced by a
stand-in that records `max_workers` and maps in this process.
"""

import pytest

from fareysum import counting, experiments, pool
from fareysum.experiments import ExperimentConfig, run_scan
from fareysum.pool import worker_count


class RecordingPool:
    """Serial stand-in for ProcessPoolExecutor that records its size."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def eight_cpus(monkeypatch):
    """Eight usable CPUs, and RecordingPool in place of every process pool."""
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(counting, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.sizes = []


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

    def test_scan_of_one_cell_starts_no_pool(self, eight_cpus):
        config = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=1)
        run_scan(config, jobs=4)
        assert RecordingPool.sizes == []

    def test_sweep_pool_is_bounded_by_tasks(self, eight_cpus):
        report = counting.verify_theorem2(5, 4, jobs=10 ** 6)
        assert RecordingPool.sizes == [5]
        assert report == counting.verify_theorem2(5, 4)

    def test_sweep_rows_pool_is_bounded(self, eight_cpus):
        rows = list(counting.sweep_rows(20, 4, jobs=10 ** 6))
        assert RecordingPool.sizes == [8]
        assert rows == list(counting.sweep_rows(20, 4))
        assert all(isinstance(row, counting.SweepRow) for row in rows)
