"""Tests for neighbour selection, scan records/aggregates, and reports."""

import json
import random
import re
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import floor, gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import prime_to, window_max_q
from fareysum import cli, experiments, knopp
from fareysum.experiments import (
    B_MODE_RANDOM,
    RULED_OUT_GCD,
    RULED_OUT_NONE,
    RULED_OUT_PREMISES,
    ExperimentConfig,
    format_decimal,
    format_fixed,
    mean_deviations,
    run_example,
    run_scan,
    scan_b_values,
    scan_csv_lines,
    scan_report_to_dict,
    select_neighbour,
    splitmix64,
    write_scan_csv,
    write_scan_json,
)
from fareysum.farey import satisfies_theorem1_premises, theorem1_premise_failure
from fareysum.knopp import decompose, deviation_profile
from fareysum.numtheory import sigma


def seeded_cells(n, d, c_list, lo, seed, per_c=2):
    """Decompositions of `per_c` retained cells per c, b drawn from [lo, 10 lo)."""
    rng = random.Random(seed)
    decs = []
    for c in c_list:
        kept = 0
        while kept < per_c:
            b = rng.randrange(lo, 10 * lo)
            a, _ = select_neighbour(b, c, d, n)
            if a is not None:
                decs.append(decompose(a, b, c, d, n))
                kept += 1
    return decs


class TestFormatting:
    def test_decimal_round_half_even(self):
        assert format_decimal(Fraction(1, 3), 5) == "0.33333"
        assert format_decimal(Fraction(25, 2), 3) == "12.5"
        assert format_decimal(Fraction(10, 3)) == "3.33333333333"

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(-10 ** 40, 10 ** 40), den=st.integers(1, 10 ** 40),
           sig_digits=st.integers(1, 20))
    @example(num=0, den=7, sig_digits=1)
    @example(num=-25, den=2, sig_digits=2)
    @example(num=10 ** 40, den=3, sig_digits=20)
    def test_decimal_matches_the_local_context_form(self, num, den, sig_digits):
        # the rendering format_decimal replaced, kept here as the reference
        value = Fraction(num, den)
        with localcontext() as ctx:
            ctx.prec = sig_digits
            ctx.rounding = ROUND_HALF_EVEN
            expected = str(Decimal(value.numerator) / Decimal(value.denominator))
        assert format_decimal(value, sig_digits) == expected

    def test_fixed_places(self):
        assert format_fixed(Fraction(934, 10), 1) == "93.4"
        assert format_fixed(Fraction(1, 8), 2) == "0.12"  # ties to even
        assert format_fixed(Fraction(3, 8), 2) == "0.38"
        assert format_fixed(Fraction(-1, 8), 2) == "-0.12"
        assert format_fixed(Fraction(7), 0) == "7"

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(-10 ** 30, 10 ** 30), den=st.integers(1, 10 ** 30),
           places=st.integers(0, 8), tie=st.booleans())
    @example(num=1, den=8, places=2, tie=False)
    @example(num=-1, den=8, places=2, tie=False)
    @example(num=-5, den=2, places=0, tie=False)
    @example(num=-1, den=100, places=1, tie=False)  # a negative that rounds to "0.0"
    @example(num=10 ** 30, den=3, places=8, tie=False)
    def test_fixed_matches_the_divmod_form(self, num, den, places, tie):
        # a tie puts the value exactly halfway between two renderings
        value = Fraction(2 * num + 1, 2 * 10 ** places) if tie else Fraction(num, den)
        # the rendering format_fixed replaced, kept here as the reference
        scaled = value * 10 ** places
        q, r = divmod(scaled.numerator, scaled.denominator)
        double = 2 * r
        if double > scaled.denominator or (double == scaled.denominator and q % 2):
            q += 1
        sign = "-" if q < 0 else ""
        q = abs(q)
        if places == 0:
            expected = f"{sign}{q}"
        else:
            expected = f"{sign}{q // 10 ** places}.{q % 10 ** places:0{places}d}"
        assert format_fixed(value, places) == expected


class TestSplitMix64:
    def test_reference_vector(self):
        # published splitmix64 outputs for seed 0
        assert list(islice(splitmix64(0), 3)) == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_range_is_uniformly_covered(self):
        # b_start = 1 draws from [1, 10)
        config = ExperimentConfig(n=1, d=9, c_list=(1,), b_start=1, b_count=2000,
                                  b_mode=B_MODE_RANDOM, rng_seed=99)
        assert set(scan_b_values(config)) == set(range(1, 10))

    def test_words_that_would_bias_the_draw_are_dropped(self, monkeypatch):
        # the span is 9, so words at or above 2^64 - (2^64 mod 9) are rejected
        limit = (1 << 64) - (1 << 64) % 9
        seeds = []

        def words(seed):
            seeds.append(seed)
            return iter([limit, limit - 1, 5])

        monkeypatch.setattr(experiments, "splitmix64", words)
        config = ExperimentConfig(n=1, d=9, c_list=(1,), b_start=1, b_count=2,
                                  b_mode=B_MODE_RANDOM, rng_seed=7)
        assert scan_b_values(config) == [1 + (limit - 1) % 9, 1 + 5] == [9, 6]
        assert seeds == [7]


class TestSelectNeighbour:
    def test_exact_floor_matches_window(self):
        # the chosen a always sits inside the admissible window
        b, c, d, n = 31537789, 1, 9, 12
        a, reason = select_neighbour(b, c, d, n)
        assert reason == RULED_OUT_NONE
        f = (b * c * n * d + isqrt(b * d)) // (n * d * d)
        assert a in (f - 1, f - 2)
        assert satisfies_theorem1_premises(b, c, d, a, n)
        # the worked example's hand-picked a is inside the same window
        q_example = 9 * 3504214 - b
        assert 0 < q_example <= window_max_q(b, d, n)

    def test_degenerate_point(self):
        b, n = 99999989, 5
        a, reason = select_neighbour(b, 0, 1, n)
        assert reason == RULED_OUT_NONE
        assert gcd(a, b) == 1
        assert a == a * 1 - b * 0  # q = a when c = 0, d = 1
        f = isqrt(b) // n
        assert a in (f - 1, f - 2)

    def test_ruled_out_fraction_small(self):
        ruled = 0
        for b in range(10 ** 8 + 1, 10 ** 8 + 101):
            a, reason = select_neighbour(b, 1, 9, 12)
            if a is None:
                assert reason == RULED_OUT_GCD
                ruled += 1
        assert ruled <= 20

    def test_small_b_is_a_premise_failure(self):
        # b = 253 <= d^3 = 729 fails the alpha premise for every n; f - 1 is
        # prime to b here and f - 2 is not, and neither may change the reason
        assert select_neighbour(253, 1, 9, 1) == (None, RULED_OUT_PREMISES)
        assert select_neighbour(465, 1, 9, 1) == (None, RULED_OUT_PREMISES)
        assert select_neighbour(729, 1, 9, 1) == (None, RULED_OUT_PREMISES)

    def test_first_coprime_candidate_wins(self):
        found = False
        for b in range(10 ** 7 + 1, 10 ** 7 + 500):
            f = (b * 9 * 12 + isqrt(b * 9)) // (12 * 81)
            if gcd(f - 1, b) == 1 and satisfies_theorem1_premises(b, 1, 9, f - 1, 12):
                a, _ = select_neighbour(b, 1, 9, 12)
                assert a == f - 1
                found = True
                break
        assert found


def floor_of_root_sum(x: int, y: int, z: int) -> int:
    """floor((x + sqrt(y)) / z) for y >= 0, z >= 1, by bisection on the squared
    test f z - x <= sqrt(y)  <=>  f z - x <= 0 or (f z - x)^2 <= y."""
    lo, hi = x // z, (x + y + 1) // z + 1  # lo passes the test, hi fails it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = mid * z - x
        if t <= 0 or t * t <= y:
            lo = mid
        else:
            hi = mid
    return lo


class TestSelectNeighbourFloor:
    """The a-choice's floor at a perfect square b d, and one step of b below."""

    @staticmethod
    def expected_a(b: int, c: int, d: int, n: int, f: int) -> int | None:
        admissible = [a for a in (f - 1, f - 2)
                      if gcd(a, b) == 1 and satisfies_theorem1_premises(b, c, d, a, n)]
        return admissible[0] if admissible else None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 10 ** 6), st.integers(0, 11), st.integers(1, 12))
    def test_perfect_square(self, d, t, c_seed, n):
        # b = d t^2 makes sqrt(b d) = d t, so alpha/n = t / (n d) exactly
        c = prime_to(d, c_seed) % d
        b = d * t * t
        assume(d ** 3 < b - 1)
        f = floor(Fraction(b * c, d) + Fraction(t, n * d))
        assert f == floor_of_root_sum(b * c * n * d, b * d, n * d * d)
        assert select_neighbour(b, c, d, n)[0] == self.expected_a(b, c, d, n, f)
        # b - 1: (b - 1) d = (d t)^2 - d is no square once d t > 1
        f = floor_of_root_sum((b - 1) * c * n * d, (b - 1) * d, n * d * d)
        assert select_neighbour(b - 1, c, d, n)[0] == self.expected_a(b - 1, c, d, n, f)


class TestMeanDeviations:
    def test_worked_example(self):
        dec = decompose(3504214, 31537789, 1, 9, 12, require_theorem1=True)
        m1, m2 = mean_deviations(dec)
        assert abs(float(m1) - 0.0060) < 0.0001
        assert m2 > m1 > 0

    def test_zero_when_sums_equal_expected(self):
        # a row stores S[r,j] as N / b'; set (b', N) to E[r,j]'s own terms
        dec = decompose(3504214, 31537789, 1, 9, 12)
        forced = tuple(
            row[:5] + (t.expected.denominator,) + row[6:8] + (t.expected.numerator,)
            for row, t in zip(dec.rows, dec.terms)
        )
        exact = dec._replace(rows=forced)
        assert mean_deviations(exact) == (0, 0)

    def test_m1_count_guard(self):
        dec = decompose(3504214, 31537789, 1, 9, 12)
        assert dec.rows[0][3] == 3  # m of term (1, 0); forcing m = 1 breaks the count
        forced = dec.rows[0][:3] + (1,) + dec.rows[0][4:]
        mutated = dec._replace(rows=(forced,) + dec.rows[1:])
        with pytest.raises(ValueError):
            mean_deviations(mutated)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: [decompose(3504214, 31537789, 1, 9, 12)], id="worked_example"),
        pytest.param(lambda: [decompose(2, 7, 1, 2, 6)], id="q_negative_n6"),
        pytest.param(lambda: [decompose(1, 101, 1, 9, 12)], id="q_negative_n12"),
        pytest.param(lambda: seeded_cells(12, 9, (1, 2, 4, 5, 7, 8), 10 ** 8, 8), id="table_1e8"),
        pytest.param(lambda: seeded_cells(30, 7, (1, 2, 3), 10 ** 15, 15), id="wide_1e15"),
    ])
    def test_integer_sums_match_the_fraction_oracle(self, build):
        # the oracle divides S by E as Fractions, so it shares no integer
        # pair with the code under test; q < 0 makes every E negative
        for dec in build():
            devs = [abs(t.sum_value / t.expected - 1) for t in dec.terms]
            assert [v for (_, _, _, v) in deviation_profile(dec)] == devs
            ones = [v for t, v in zip(dec.terms, devs) if t.m == 1]
            expected = (sum(devs, Fraction(0)) / sigma(dec.n), sum(ones, Fraction(0)) / dec.n)
            assert mean_deviations(dec) == expected
            assert min(expected) >= 0

    def test_rows_outside_the_common_denominator_match_the_fraction_oracle(self):
        # b' values that divide no n b widen the sum's denominator; every
        # deviation stays nonzero, so a wrongly scaled part would show
        dec = decompose(3504214, 31537789, 1, 9, 12)
        den = dec.n * (dec.n * dec.d * dec.b) ** 2
        rows = tuple(row[:5] + (row[5] * 7 + i + 1,) + row[6:8] + (row[8] * 7 + 3,)
                     for i, row in enumerate(dec.rows))
        mutated = dec._replace(rows=rows)
        assert sum(den % y != 0 for *_, y in knopp._deviation_pairs(mutated)) > 20
        devs = [abs(t.sum_value / t.expected - 1) for t in mutated.terms]
        assert min(devs) > 0
        ones = [v for t, v in zip(mutated.terms, devs) if t.m == 1]
        assert mean_deviations(mutated) == (sum(devs, Fraction(0)) / 28, sum(ones, Fraction(0)) / 12)

    def test_unit_m_count_is_n(self):
        rng = random.Random(101)
        for _ in range(20):
            b = rng.randint(10 ** 7, 10 ** 8)
            a, reason = select_neighbour(b, 1, 9, 12)
            if a is None:
                continue
            dec = decompose(a, b, 1, 9, 12, require_theorem1=True)
            assert sum(1 for t in dec.terms if t.m == 1) == 12


class TestConfigValidation:
    def test_rejects_bad_c(self):
        with pytest.raises(ValueError, match=re.escape("c/d must be reduced: gcd(3, 9) = 3")):
            ExperimentConfig(n=12, d=9, c_list=(3,), b_start=10, b_count=1)
        with pytest.raises(ValueError, match=re.escape("c must be an integer in [0, 8], got 9")):
            ExperimentConfig(n=12, d=9, c_list=(9,), b_start=10, b_count=1)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="unknown b_mode"):
            ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10, b_count=1, b_mode="walk")

    def test_rejects_empty_c_list(self):
        with pytest.raises(ValueError, match="c_list must not be empty"):
            ExperimentConfig(n=12, d=9, c_list=(), b_start=10, b_count=1)

    def test_rejects_n_above_limit(self):
        # refused up front by the decomposition's own bound, not only once a
        # retained cell is decomposed; n = 0 falls outside the same [1, 10000]
        for n in (10001, 0):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer in [1, 10000], got {n}")):
                ExperimentConfig(n=n, d=1, c_list=(0,), b_start=5, b_count=3)
        assert ExperimentConfig(n=10000, d=1, c_list=(0,), b_start=5, b_count=3).n == 10000

    def test_rejects_non_positive_d(self):
        with pytest.raises(ValueError, match="d must be an integer >= 1, got 0"):
            ExperimentConfig(n=12, d=0, c_list=(0,), b_start=5, b_count=3)

    def test_rejects_a_random_span_past_one_word(self):
        # past 2^64 // 9 no 64-bit word lies below the rejection limit, so no draw would end
        top = (1 << 64) // 9
        with pytest.raises(ValueError, match=re.escape(f"b_start must be an integer in [1, {top}], got {top + 1}")):
            ExperimentConfig(n=1, d=1, c_list=(0,), b_start=top + 1, b_count=1, b_mode=B_MODE_RANDOM)
        [b] = scan_b_values(ExperimentConfig(n=1, d=1, c_list=(0,), b_start=top, b_count=1, b_mode=B_MODE_RANDOM))
        assert top <= b < 10 * top
        assert ExperimentConfig(n=1, d=1, c_list=(0,), b_start=top + 1, b_count=1).b_start == top + 1

    def test_rejects_repeated_c(self):
        # a repeated c would be scanned twice and reported in two #agg rows
        with pytest.raises(ValueError, match=re.escape("c = 1 is repeated in c_list")):
            ExperimentConfig(n=12, d=9, c_list=(1, 2, 1), b_start=10, b_count=1)


class TestScan:
    def test_empty_scan(self):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8, b_count=0)
        report = run_scan(cfg)
        assert report.records == ()
        agg = report.aggregates[0]
        assert agg.retained == agg.ruled_out == 0
        assert agg.percent(agg.m1_lt_t1_lo) is None
        lines = list(scan_csv_lines(report))
        assert lines == ["b,c,a,ruled_out,m1,m2", "#agg,1,0,0,,,,"]

    def test_records_ordered_by_c_then_b(self):
        cfg = ExperimentConfig(n=12, d=9, c_list=(2, 1), b_start=10 ** 7 + 1, b_count=5)
        report = run_scan(cfg)
        keys = [(rec.c, rec.b) for rec in report.records]
        assert keys == [(c, b) for c in (2, 1) for b in range(10 ** 7 + 1, 10 ** 7 + 6)]

    def test_retained_records_are_valid(self):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1, 4), b_start=10 ** 7 + 1, b_count=40)
        report = run_scan(cfg)
        for rec in report.records:
            if rec.ruled_out_reason == RULED_OUT_NONE:
                assert gcd(rec.a, rec.b) == 1
                assert satisfies_theorem1_premises(rec.b, rec.c, 9, rec.a, 12)
                assert rec.m1 > 0 and rec.m2 > 0
            else:
                assert rec.a is None and rec.m1 is None and rec.m2 is None

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(n=12, d=9, c_list=(1, 2, 4, 5, 7, 8), b_start=10 ** 8 + 1, b_count=20),
        ExperimentConfig(n=30, d=7, c_list=(1, 2, 3), b_start=10 ** 15, b_count=4,
                         b_mode=B_MODE_RANDOM, rng_seed=5),
    ], ids=["table_1e8", "wide_1e15"])
    def test_retained_records_meet_theorem1_premises(self, cfg):
        # the scan decomposes without re-checking: select_neighbour's check must hold
        report = run_scan(cfg)
        kept = [r for r in report.records if r.ruled_out_reason == RULED_OUT_NONE]
        assert kept
        for rec in kept:
            assert theorem1_premise_failure(rec.b, rec.c, cfg.d, rec.a, cfg.n) is None

    def test_aggregate_counts_match_records(self):
        # the table's six c; the window holds gcd-failed cells, so ruled_out is exercised
        cfg = ExperimentConfig(n=12, d=9, c_list=(1, 2, 4, 5, 7, 8), b_start=10 ** 8 + 1, b_count=60)
        report = run_scan(cfg)
        assert any(r.ruled_out_reason == RULED_OUT_GCD for r in report.records)
        assert [agg.c for agg in report.aggregates] == list(cfg.c_list)
        for agg in report.aggregates:
            rows = [r for r in report.records if r.c == agg.c]
            kept = [r for r in rows if r.ruled_out_reason == RULED_OUT_NONE]
            assert agg == (agg.c, len(kept), len(rows) - len(kept),
                           sum(1 for r in kept if r.m1 >= Fraction(5, 100)),
                           sum(1 for r in kept if r.m1 < Fraction(1, 100)),
                           sum(1 for r in kept if r.m2 >= Fraction(10, 100)),
                           sum(1 for r in kept if r.m2 < Fraction(1, 100)))

    def test_m2_minus_m1_nonnegative_on_average(self):
        # aggregate tendency at desk scale, not a per-record invariant
        cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=120)
        report = run_scan(cfg)
        kept = [r for r in report.records if r.ruled_out_reason == RULED_OUT_NONE]
        assert len(kept) >= 100
        assert sum((r.m2 - r.m1 for r in kept), Fraction(0)) >= 0

    def test_scale_trend(self):
        # the M1 < 0.01 share improves from b ~ 1e8 to b ~ 1e9
        shares = []
        for b_start in (10 ** 8 + 1, 10 ** 9 + 1):
            cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=b_start, b_count=300)
            agg = run_scan(cfg).aggregates[0]
            shares.append(agg.percent(agg.m1_lt_t1_lo))
        assert shares[1] > shares[0]

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 7 + 1, b_count=12)
        assert run_scan(cfg, jobs=2) == run_scan(cfg, jobs=1)

    def test_random_mode_is_seed_deterministic(self):
        cfg = ExperimentConfig(
            n=12, d=9, c_list=(1,), b_start=10 ** 6 + 1, b_count=25,
            b_mode=B_MODE_RANDOM, rng_seed=424242,
        )
        bs = scan_b_values(cfg)
        assert bs == scan_b_values(cfg)
        assert all(10 ** 6 + 1 <= b < 10 ** 7 + 10 for b in bs)
        assert run_scan(cfg) == run_scan(cfg)


class TestReports:
    def test_csv_and_json_are_deterministic(self, tmp_path):
        cfg = ExperimentConfig(
            n=12, d=9, c_list=(1, 2), b_start=10 ** 7 + 1, b_count=20,
            b_mode=B_MODE_RANDOM, rng_seed=7,
        )
        paths = []
        for run in ("one", "two"):
            report = run_scan(cfg)
            csv_path = tmp_path / f"{run}.csv"
            json_path = tmp_path / f"{run}.json"
            write_scan_csv(report, str(csv_path))
            write_scan_json(report, str(json_path))
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_json_field_names(self, tmp_path):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 7 + 1, b_count=3)
        report = run_scan(cfg)
        payload = scan_report_to_dict(report)
        assert set(payload) == {"config", "records", "aggregates"}
        assert set(payload["config"]) == {
            "n", "d", "c_list", "b_start", "b_count", "b_mode", "rng_seed",
            "thresholds", "generator",
        }
        assert payload["config"]["generator"] == "splitmix64"
        assert set(payload["records"][0]) == {"b", "c", "a", "m1", "m2", "ruled_out_reason"}
        path = tmp_path / "report.json"
        write_scan_json(report, str(path))
        assert json.loads(path.read_text())["config"]["n"] == 12

    @pytest.mark.parametrize("config, jobs", [
        pytest.param(ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=0), 1, id="empty"),
        pytest.param(ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=5, b_count=4), 1, id="all_ruled_out"),
        pytest.param(ExperimentConfig(n=12, d=9, c_list=(1, 4), b_start=10 ** 8, b_count=6,
                                      b_mode=B_MODE_RANDOM, rng_seed=42), 1, id="random"),
        pytest.param(ExperimentConfig(n=30, d=7, c_list=(1, 2, 3), b_start=10 ** 15, b_count=5,
                                      b_mode=B_MODE_RANDOM, rng_seed=7), 2, id="jobs2"),
    ])
    def test_json_bytes_are_the_json_module_bytes(self, tmp_path, config, jobs):
        # the writer fills a record template; json.dumps of the dict view is the oracle
        report = run_scan(config, jobs=jobs)
        path = tmp_path / "report.json"
        write_scan_json(report, str(path))
        expected = json.dumps(scan_report_to_dict(report), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_json_is_streamed(self, tmp_path):
        # the writer never holds the whole text: past the dict it renders, its
        # peak stays under half the file, however many records there are, and
        # under a fixed 64 KB, which holding every record's text would exceed
        cfg = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=10)
        report = run_scan(cfg)
        report = report._replace(records=report.records * 100)
        path = tmp_path / "report.json"
        write_scan_json(report, str(path))  # imports json outside the measurement
        tracemalloc.start()
        try:
            scan_report_to_dict(report)
            dict_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            write_scan_json(report, str(path))
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert write_peak - dict_peak < path.stat().st_size // 2
        assert write_peak < 64 * 1024, write_peak

    def test_csv_is_streamed(self, tmp_path):
        # as the JSON writer: the CSV writer's peak stays under a quarter of
        # the file, which a writer that joined every line would exceed, and
        # under a fixed 64 KB, which a writer holding a thousand lines at once exceeds
        cfg = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=10)
        report = run_scan(cfg)
        report = report._replace(records=report.records * 1000)
        path = tmp_path / "report.csv"
        write_scan_csv(report, str(path))  # warm-up: first-call caches
        tracemalloc.start()
        try:
            write_scan_csv(report, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size // 4, (peak, path.stat().st_size)
        assert peak < 64 * 1024, peak
        # one bool, not pytest's diff of two 20,000-line texts
        same = path.read_text() == "".join(f"{line}\n" for line in scan_csv_lines(report))
        assert same, "the written file is not the lines of scan_csv_lines, each ending in a newline"

    def test_csv_layout(self):
        cfg = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=8)
        report = run_scan(cfg)
        lines = list(scan_csv_lines(report))
        assert lines[0] == "b,c,a,ruled_out,m1,m2"
        data = [l for l in lines[1:] if not l.startswith("#agg,")]
        footer = [l for l in lines[1:] if l.startswith("#agg,")]
        assert len(data) == 8 and len(footer) == 1
        for line in data:
            fields = line.split(",")
            assert len(fields) == 6
            if fields[3] == RULED_OUT_NONE:
                assert float(fields[4]) > 0


class TestRunExample:
    def test_matches_reference_statistics(self):
        report = run_example()
        dec = report.decomposition
        assert (dec.b, dec.c, dec.d, dec.a, dec.n) == (31537789, 1, 9, 3504214, 12)
        assert len(dec.terms) == 28
        assert abs(float(report.decomposition.base_expected) - 25578.093) < 0.001
        assert report.max_at == (6, 1)
        assert abs(float(report.max_deviation) - 0.04659) < 0.00001
        assert abs(float(report.mean_deviation) - 0.0060) < 0.0001

    def test_exact_sum_value(self):
        # the exact value, confirmed by the direct-summation oracle; the
        # acceptance suite pins a different target, see there
        report = run_example()
        assert abs(float(report.decomposition.base_sum) - 25573.432) < 0.001


def test_computation_reads_rows_not_terms(monkeypatch, capsys):
    # only reports render KnoppTerms: a scan, the example and the identity
    # check all read a decomposition's integer rows
    def refuse(dec):
        raise AssertionError("terms rendered outside a report")

    monkeypatch.setattr(knopp.Decomposition, "terms", property(refuse))
    config = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=5)
    assert any(rec.m1 is not None for rec in run_scan(config).records)
    assert run_example().max_at == (6, 1)
    assert knopp.verify_identity(decompose(3504214, 31537789, 1, 9, 12))
    assert cli.main(["example"]) == 0
    assert "mean deviation ~ 0.00600072" in capsys.readouterr().out
