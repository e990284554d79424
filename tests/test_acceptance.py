"""Acceptance suite: one test per pinned criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
while the suite executes.  Where the two table-facing pins come from:

  * criterion 3 pins S(3504214, 31537789) to 25573.432, the exact value
    806529511236/31537789.  The O(log b) evaluator, the O(b) oracle and an
    integer direct summation 3 * sum_k (2k - b)(2(ak mod b) - b) / b^2 all
    give this fraction, and it puts S/E - 1 at about -1.8e-4;
  * criterion 6 pins the M1/M2 shares of the reference table, which are
    taken over 10,000 consecutive b from 10^8 + 1 and from 10^9 + 1 (all
    four pinned values match those windows at every printed digit, while
    500-b windows swing over roughly 92-100 percent), so it scans those
    windows and compares the one-decimal rendering of the `#agg` rows.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

from conftest import draw_context
from fareysum.counting import verify_theorem2
from fareysum.dedekind import dedekind_fast, dedekind_naive
from fareysum.experiments import (
    B_MODE_RANDOM,
    RULED_OUT_NONE,
    ExperimentConfig,
    format_fixed,
    run_example,
    run_scan,
    write_scan_csv,
    write_scan_json,
)
from fareysum.farey import farey_context, is_farey_neighbour
from fareysum.knopp import decompose, three_term_residual, verify_identity


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    return ok


@lru_cache(maxsize=1)
def _identity_corpus():
    """500 randomized decompositions: a, b <= 1e5, gcd(a, b) = 1, n <= 24."""
    rng = random.Random(20250809)
    out = []
    while len(out) < 500:
        b = rng.randint(1, 10 ** 5)
        a = rng.randint(1, 10 ** 5)
        if gcd(a, b) != 1:
            continue
        d = rng.randint(1, 12)
        c = rng.randint(0, d - 1)
        if gcd(c, d) != 1 or a * d == b * c:
            continue
        n = rng.randint(1, 24)
        out.append(decompose(a, b, c, d, n))
    return tuple(out)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    for b in range(2, 301):
        for a in range(1, b):
            if dedekind_fast(a, b) != dedekind_naive(a, b):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10
    assert _report(
        1, ok, f"fast == naive on all pairs up to b=300, exact; "
               f"mismatches={mismatches}, {elapsed:.1f}s (budget 10s)"
    )


def test_criterion_2_knopp_identity():
    t0 = time.time()
    bad = sum(1 for dec in _identity_corpus() if not verify_identity(dec))
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 30
    assert _report(
        2, ok, f"sum of terms equals sigma(n)*S(a,b) exactly on 500 randomized "
               f"decompositions; failures={bad}, {elapsed:.1f}s (budget 30s)"
    )


def test_criterion_3_example_regression():
    t0 = time.time()
    report = run_example()
    elapsed = time.time() - t0
    checks = [
        ("S within 0.001 of 25573.432",
         abs(float(report.decomposition.base_sum) - 25573.432) <= 0.001),
        ("S exactly 806529511236/31537789",
         report.decomposition.base_sum == Fraction(806529511236, 31537789)),
        ("E within 0.001 of 25578.093",
         abs(float(report.decomposition.base_expected) - 25578.093) <= 0.001),
        ("term count 28", len(report.decomposition.terms) == 28),
        ("max deviation 0.04659 +/- 0.00001 at (6, 1)",
         abs(float(report.max_deviation) - 0.04659) <= 0.00001 and report.max_at == (6, 1)),
        ("mean deviation 0.0060 +/- 0.0001", abs(float(report.mean_deviation) - 0.0060) <= 0.0001),
        ("under 1s", elapsed < 1),
    ]
    failed = [name for name, good in checks if not good]
    _report(3, not failed, f"worked-example regression; failed sub-checks: {failed or 'none'}")
    assert not failed, (
        f"failed: {failed}; S(3504214, 31537789) = {report.decomposition.base_sum} "
        f"~ {float(report.decomposition.base_sum):.3f}, expected 806529511236/31537789 ~ 25573.432 "
        f"(confirmed by the O(b) oracle and an integer direct summation)"
    )


def test_criterion_4_counting_sweep():
    t0 = time.time()
    report = verify_theorem2(200, 50)
    elapsed = time.time() - t0
    ok = report.ok and elapsed < 60
    assert _report(
        4, ok, f"brute = formula = n/m over {report.rows_checked} cells "
               f"(n<=200, d<=50); violations={len(report.violations)}, "
               f"{elapsed:.1f}s (budget 60s)"
    )


def test_criterion_5_q_prime_relation():
    bad = 0
    for dec in _identity_corpus():
        for t in dec.terms:
            if t.k * t.m * t.q_prime != dec.n * dec.q:
                bad += 1
    assert _report(
        5, bad == 0, f"k*m*q' = n*q exactly for every term of the identity corpus; "
                     f"failures={bad}"
    )


def test_criterion_6_table_reproduction():
    t0 = time.time()
    results = []
    for b_start in (10 ** 8 + 1, 10 ** 9 + 1):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=b_start, b_count=10000)
        agg = run_scan(cfg, jobs=2).aggregates[0]
        results.append(
            {
                "m1_lt": format_fixed(agg.percent(agg.m1_lt_t1_lo), 1),
                "m1_ge": format_fixed(agg.percent(agg.m1_ge_t1_hi), 1),
                "m2_lt": format_fixed(agg.percent(agg.m2_lt_t2_lo), 1),
            }
        )
    elapsed = time.time() - t0
    low, high = results
    checks = [
        ("1e8 M1<0.01 renders 93.4", low["m1_lt"] == "93.4"),
        ("1e8 M1>=0.05 renders 1.2", low["m1_ge"] == "1.2"),
        ("1e8 M2<0.01 renders 73.6", low["m2_lt"] == "73.6"),
        ("1e9 M1<0.01 renders 97.9", high["m1_lt"] == "97.9"),
        ("under 5min", elapsed < 300),
    ]
    failed = [name for name, good in checks if not good]
    _report(
        6, not failed,
        f"10000-b tables: 1e8 gives {low['m1_lt']}/{low['m1_ge']}/{low['m2_lt']}, "
        f"1e9 gives M1<0.01 = {high['m1_lt']}; {elapsed:.1f}s; failed: {failed or 'none'}",
    )
    assert not failed, (
        f"failed: {failed}; the reference table's shares are taken over 10,000 "
        f"consecutive b from 1e8+1 and 1e9+1 (93.43/1.24/73.65 and 97.90 for the "
        f"floor-minus-1-then-minus-2 neighbour choice), compared at one decimal"
    )


def test_criterion_7_three_term_residual():
    t0 = time.time()
    rng = random.Random(7070)
    bad = 0
    for _ in range(200):
        b, c, d, a = draw_context(rng, 100, 10 ** 5)
        ctx = farey_context(b, c, d, a)
        residual = three_term_residual(ctx)
        in_bound = abs(residual) < ctx.q
        matched = any(12 * dedekind_fast(u, ctx.q) == residual for u in range(ctx.q))
        if not (in_bound and matched):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 30
    assert _report(
        7, ok, f"|residual| < q and residual in {{S(u, q)}} for 200 random contexts "
               f"(b <= 1e5); failures={bad}, {elapsed:.1f}s (budget 30s)"
    )


def test_criterion_8_theorem1_conclusions():
    t0 = time.time()
    rng = random.Random(8080)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        b, c, d, a = draw_context(rng, 10 ** 5, 10 ** 8, n=n, d_hi=4)
        dec = decompose(a, b, c, d, n, require_theorem1=True)
        for t in dec.terms:
            ap, bp, cp, dp = t.reduced
            if not is_farey_neighbour(bp, cp, dp, ap):
                bad += 1
            if not t.sum_value > 0:
                bad += 1
            if t.expected != Fraction(t.m * t.m, n) * dec.base_expected:
                bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 60
    assert _report(
        8, ok, f"every term of 200 premise-passing decompositions is a neighbour "
               f"with positive sum and expected = m^2/n * E; failures={bad}, "
               f"{elapsed:.1f}s (budget 60s)"
    )


def test_criterion_9_determinism(tmp_path):
    cfg = ExperimentConfig(
        n=12, d=9, c_list=(1, 2), b_start=10 ** 7 + 19, b_count=40,
        b_mode=B_MODE_RANDOM, rng_seed=20250809,
    )
    outputs = []
    for tag in ("one", "two"):
        report = run_scan(cfg)
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        write_scan_csv(report, str(csv_path))
        write_scan_json(report, str(json_path))
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    identical = outputs[0] == outputs[1]
    retained = sum(1 for r in report.records if r.ruled_out_reason == RULED_OUT_NONE)
    assert _report(
        9, identical, f"two scans with the identical config produced byte-identical "
                      f"CSV and JSON ({retained} retained records)"
    )
