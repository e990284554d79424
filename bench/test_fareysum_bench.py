"""Tests of the benchmark itself: its reference, its inputs and its checks."""

from __future__ import annotations

import importlib
import json
import os
import random
import signal
import time
from pathlib import Path

import pytest

import refcheck
import run
import speed
from tracing import HOOKS, Tracer
from workloads import WORKLOADS, ScanSpec, SweepSpec, random_b_values, sweep_row_count

from fareysum import cli, counting, experiments
from fareysum.dedekind import dedekind_naive
from fareysum.numtheory import sigma

ROOT = Path(__file__).resolve().parent.parent


def test_reference_matches_naive_for_every_pair_up_to_200():
    for b in range(1, 201):
        for a in range(-2, b + 2):
            assert refcheck.dedekind12(a, b) == 12 * dedekind_naive(a, b), (a, b)


def test_reference_on_large_imprimitive_and_negative_arguments():
    rng = random.Random(7)
    for _ in range(200):
        b = rng.randrange(10 ** 12, 10 ** 13)
        a = rng.randrange(-10 ** 13, 10 ** 13)
        g = rng.randrange(1, 50)
        assert refcheck.dedekind12(a * g, b * g) == refcheck.dedekind12(a, b)
        assert refcheck.dedekind12(-a, b) == -refcheck.dedekind12(a, b)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_depend_only_on_seed_and_batch(name):
    workload = WORKLOADS[name]
    for seed in (0, 1, 12345):
        for index in (-1, 0, 3):
            first = workload.calls(seed, index, "out", 2)
            assert first == workload.calls(seed, index, "out", 2)
    assert [c.argv for c in workload.calls(1, 0, "out", 2)] != \
        [c.argv for c in workload.calls(4, 0, "out", 2)]


def test_random_b_values_are_the_ones_the_scan_draws():
    config = experiments.ExperimentConfig(
        n=30, d=7, c_list=(1,), b_start=10 ** 15, b_count=25,
        b_mode=experiments.B_MODE_RANDOM, rng_seed=2 ** 63 + 5)
    assert random_b_values(2 ** 63 + 5, 10 ** 15, 25) == experiments.scan_b_values(config)


@pytest.mark.parametrize("max_n,max_d", [(1, 1), (6, 4), (12, 9), (17, 5)])
def test_row_count_formula_and_row_order(max_n, max_d):
    rows = [(r.n, r.m, r.d, r.c) for r in counting.sweep_rows(max_n, max_d)]
    assert len(rows) == sweep_row_count(max_n, max_d)
    assert rows == list(refcheck.sweep_keys(SweepSpec(max_n, max_d)))


def test_row_count_at_the_issue_grid():
    assert sweep_row_count(80, 30) == 102304


def _scan_call(tmp_path, name="table_scan"):
    return WORKLOADS[name].calls(3, -1, str(tmp_path), 1)[0]


def test_scan_check_passes_real_output_and_flags_a_changed_digit(tmp_path, monkeypatch):
    monkeypatch.setattr(refcheck, "SAMPLE_EVERY", 1)
    call = _scan_call(tmp_path)
    assert cli.main(list(call.argv)) == 0
    rng = random.Random(0)
    failed, counts = refcheck.check_scan(call.spec, 0, call.csv_path, call.json_path, rng)
    assert failed == 0 and counts["cells"] == call.items
    lines = Path(call.csv_path).read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.endswith(tuple("0123456789")))
    lines[i] = lines[i][:-1] + ("1" if lines[i][-1] != "1" else "2")
    Path(call.csv_path).write_text("\n".join(lines) + "\n")
    failed, _ = refcheck.check_scan(call.spec, 0, call.csv_path, None, rng)
    assert failed >= 1


def test_scan_check_flags_a_failed_call(tmp_path):
    call = _scan_call(tmp_path)
    failed, _ = refcheck.check_scan(call.spec, 1, call.csv_path, None, random.Random(0))
    assert failed == call.items


def test_sweep_check_flags_a_changed_and_a_missing_row(tmp_path, capsys):
    call = WORKLOADS["counting_sweep"].calls(0, -1, str(tmp_path), 1)[0]
    assert cli.main(list(call.argv)) == 0
    stdout = capsys.readouterr().out
    assert refcheck.check_sweep(call.spec, 0, call.csv_path, stdout, call.items) == 0
    lines = Path(call.csv_path).read_text().splitlines()
    assert lines[1] == "1,1,1,0,1,1,1,1"
    lines[1] = "1,1,1,0,2,1,1,1"
    del lines[-1]
    Path(call.csv_path).write_text("\n".join(lines) + "\n")
    assert refcheck.check_sweep(call.spec, 0, call.csv_path, stdout, call.items) == 2


def test_tracer_counts_calls_and_restores_every_hook(tmp_path):
    def hooked(module, name):
        return getattr(importlib.import_module(f"fareysum.{module}"), name)

    originals = {(m, n): hooked(m, n) for m, n, _ in HOOKS}
    call = _scan_call(tmp_path, "wide_scan")
    assert isinstance(call.spec, ScanSpec)
    tracer = Tracer()
    with tracer.installed():
        assert tracer.call("cli", cli.main, list(call.argv)) == 0
    assert tracer.missing == []
    for (m, n), fn in originals.items():
        assert hooked(m, n) is fn
    retained = tracer.reasons["none"]
    assert sum(tracer.reasons.values()) == call.items
    assert tracer.calls["dedekind"] == retained * (sigma(call.spec.n) + 1)
    assert tracer.terms == retained * sigma(call.spec.n)


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("pooled", [False, True])
def test_probe_samples_while_open_and_restores_the_process(pooled):
    cpus = sorted(os.sched_getaffinity(0))
    probe = speed.Probe(cpus if pooled else None)
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        probe.speed()
    with probe.sampling():
        end = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2 and probe.speed() > 0
    assert 0 < probe.stolen_s < 4 * speed.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sorted(os.sched_getaffinity(0)) == cpus


def test_setup_sample_times_the_import_at_reference_and_raw_speed():
    at_reference, raw = run.setup_sample()
    assert 0 < raw < 30 and 0 < at_reference < 30
