"""Tests for the multiplicity counts: unit counting, the divisor-sum formula,
multiplicativity, and the n/m closed form."""

import csv
import os
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareysum import counting
from fareysum.counting import (
    BRUTE_LIMIT,
    CountingQuery,
    count_A_brute,
    count_A_formula,
    lemma1_count,
    multiplicity_histogram,
    sweep_rows,
    verify_lemma3,
    verify_theorem2,
)
from fareysum.numtheory import d_part, divisors, euler_phi, sigma


def lemma1_brute(r: int, d: int, s: int) -> int:
    return sum(1 for k in range(r) if gcd(s + k * d, r) == 1)


class TestLemma1:
    def test_always_odd(self):
        # 1 + 2k is odd for every k, so all four residues count
        assert lemma1_count(4, 2, 1) == lemma1_brute(4, 2, 1) == 4

    def test_single_residue(self):
        for d, s in ((1, 0), (5, 2), (9, 4)):
            assert lemma1_count(1, d, s) == 1

    def test_mixed_primes(self):
        assert lemma1_count(6, 5, 2) == lemma1_brute(6, 5, 2) == 2

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            lemma1_count(6, 4, 2)

    def test_matches_brute_force(self):
        for r in range(1, 201):
            for d in range(1, 51):
                for s in range(d):
                    if gcd(s, d) == 1:
                        assert lemma1_count(r, d, s) == lemma1_brute(r, d, s)


class TestCountA:
    def test_full_multiplicity(self):
        for c, d in ((1, 9), (0, 1), (3, 5)):
            assert count_A_brute(CountingQuery(12, 12, c, d)) == 1

    def test_unit_multiplicity(self):
        assert count_A_brute(CountingQuery(12, 1, 1, 9)) == 12

    def test_hand_enumeration(self):
        # n=4, c=1, d=3: the 7 pairs give m = 1,2,1,1,4,1,2, so A(4, 2) = 2
        assert count_A_brute(CountingQuery(4, 2, 1, 3)) == 2

    def test_formula_hand_expansion(self):
        # delta=1: r=2 contributes 1, r=4 contributes phi(2)=1
        assert count_A_formula(CountingQuery(4, 2, 1, 3)) == 2

    def test_formula_prime_power_case(self):
        for p in (2, 3, 5):
            for e in (1, 2, 3):
                q = CountingQuery(p ** e, p ** e, 1, p + 1)
                assert count_A_formula(q) == 1

    def test_formula_with_shared_prime(self):
        q = CountingQuery(12, 3, 1, 9)
        assert count_A_formula(q) == count_A_brute(q) == 4

    def test_brute_size_limit(self):
        with pytest.raises(ValueError):
            count_A_brute(CountingQuery(2 * 10 ** 4, 1, 0, 1))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            CountingQuery(12, 5, 1, 9)  # m does not divide n
        with pytest.raises(ValueError):
            CountingQuery(12, 3, 3, 9)  # gcd(c, d) != 1
        with pytest.raises(ValueError):
            CountingQuery(12, 3, 9, 9)  # c out of range

    @pytest.mark.parametrize("n, c, d, text", [
        (12, 1, 0, "d must be an integer >= 1, got 0"),
        (12, 1, -3, "d must be an integer >= 1, got -3"),
        (0, 1, 9, "n must be an integer >= 1, got 0"),
        (12, True, 9, "c must be an integer, got True"),
        (12, 1.0, 9, "c must be an integer, got 1.0"),
    ])
    def test_histogram_validation(self, n, c, d, text):
        with pytest.raises(ValueError) as caught:
            multiplicity_histogram(n, c, d)
        assert str(caught.value) == text
        if not text.startswith("c"):  # the query states the rule for n and d in the same words
            with pytest.raises(ValueError, match=f"^{text}$"):
                CountingQuery(n, 1, c, d)

    def test_counting_result_agreement(self):
        rng = random.Random(89)
        for _ in range(80):
            n = rng.randint(1, 300)
            m = rng.choice(divisors(n))
            d = rng.randint(1, 30)
            c = rng.choice([x for x in range(d) if gcd(x, d) == 1])
            query = CountingQuery(n, m, c, d)
            assert count_A_brute(query) == count_A_formula(query) == n // m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, BRUTE_LIMIT), st.integers(0, 63), st.integers(0, 63),
           st.integers(1, 1000), st.integers(0, 1000))
    @example(n=2 ** 13, i=5, j=9, k=1, x=0)  # m = 2^5, d = 2^9
    @example(n=7560, i=21, j=52, k=1, x=7)  # m = 2^2 3^2, d = 2^2 3^3 5
    def test_formula_is_n_over_m(self, n, i, j, k, x):
        # m is a divisor of n; d = g k' <= 1000 with g a divisor of n, so d
        # shares prime powers with n whenever g > 1
        divs = divisors(n)
        m = divs[i % len(divs)]
        shared = [g for g in divs if g <= 1000]
        g = shared[j % len(shared)]
        d = g * ((k - 1) % (1000 // g) + 1)
        cs = [c for c in range(d) if gcd(c, d) == 1]
        assert count_A_formula(CountingQuery(n, m, cs[x % len(cs)], d)) == n // m

    def test_formula_independent_of_c(self):
        for n in (12, 36, 60):
            for d in (7, 9, 12):
                for m in divisors(n):
                    values = {
                        count_A_formula(CountingQuery(n, m, c, d))
                        for c in range(d)
                        if gcd(c, d) == 1
                    }
                    assert len(values) == 1

    def test_histogram_totals_sigma(self):
        rng = random.Random(97)
        for _ in range(60):
            n = rng.randint(1, 400)
            d = rng.randint(1, 30)
            c = rng.choice([x for x in range(d) if gcd(x, d) == 1])
            hist = multiplicity_histogram(n, c, d)
            assert sum(hist.values()) == sigma(n)
            assert all(n % m == 0 for m in hist)


def literal_histogram(n: int, c: int, d: int) -> Counter:
    return Counter(gcd((n // r) * c + j * d, r * d) for r in divisors(n) for j in range(r))


class TestHistogramTables:
    # sigma(n) d against the 2^16-entry table bound: sigma(1) 2^16 and
    # sigma(7) 2^13 are exactly at it; 2^16 + 1, 8 (2^13 + 1) and 28 * 2341
    # are past it; (200, 50) is the README's default sweep
    @pytest.mark.parametrize("n, d, tabled", [
        (1, 2 ** 16, True), (1, 2 ** 16 + 1, False), (7, 2 ** 13, True), (7, 2 ** 13 + 1, False),
        (12, 2340, True), (12, 2341, False), (1, 1, True), (7, 1, True), (60, 1, True),
        (200, 50, True), (6, 800, True), (80, 30, True),
    ])
    def test_equals_the_literal_enumeration(self, n, d, tabled):
        assert (sigma(n) * d <= counting._TABLE_LIMIT) == tabled
        cs = [c for c in range(d) if gcd(c, d) == 1]
        for c in {cs[0], cs[-1], cs[len(cs) // 2], cs[-1] - 7 * d, cs[0] + 3 * d, -cs[-1]}:
            counting._gcd_tables.cache_clear()
            assert multiplicity_histogram(n, c, d) == literal_histogram(n, c, d), (n, c, d)
            assert counting._gcd_tables.cache_info().misses == tabled

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 400), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 200))
    def test_any_c_matches_the_literal_enumeration(self, n, c, d):
        # c need not be prime to d, nor in [0, d)
        assert multiplicity_histogram(n, c, d) == literal_histogram(n, c, d)

    @pytest.mark.parametrize("n, d", [(1, 1), (1, 7), (12, 9), (30, 7), (64, 12), (60, 36), (97, 5)])
    def test_every_table_is_its_gcd_row(self, n, d):
        tables = counting._gcd_tables(n, d)
        assert len(tables) == len(divisors(n))
        for r, (k, table) in zip(divisors(n), tables):
            assert k == n // r
            assert table == [gcd(x, r * d) for x in range(r * d)], (n, d, r)

    def test_tables_live_for_one_block(self):
        counting._gcd_tables.cache_clear()
        multiplicity_histogram(12, 1, 9)
        multiplicity_histogram(12, 2, 9)
        assert counting._gcd_tables.cache_info()[:2] == (1, 1)  # hits, misses
        multiplicity_histogram(12, 1, 10)
        assert counting._gcd_tables.cache_info().currsize == 1

    def test_past_the_bound_allocates_no_table(self):
        multiplicity_histogram(12, 1, 7)  # warm-up: first-call caches
        tracemalloc.start()
        try:
            hist = multiplicity_histogram(12, 1, 10 ** 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert hist == literal_histogram(12, 1, 10 ** 12)


class TestSweepMemos:
    """The sweep's memos, numtheory's divisors (of n and of each r d its sieve
    steps through) and Lemma 1's count per (s, gcd(s, d')), hold their rules'
    values and stay bounded."""

    GRID = [(r, d) for r in range(1, 81) for d in range(1, 31)]

    def test_lemma1_is_its_rule_at_gcd_s_d(self):
        # (s)_d' has the primes of gcd(s, d'), so the formula's key loses nothing
        counting._lemma1.cache_clear()
        for _ in range(2):  # cold, then warm
            for r, d in self.GRID:
                part = d_part(r, d)
                assert counting._lemma1(r, d) == part * euler_phi(r // part), (r, d)
                assert counting._lemma1(r, gcd(r, d)) == part * euler_phi(r // part), (r, d)
        assert counting._lemma1.cache_info().hits > 0
        for r, d in self.GRID[::7]:
            assert counting._lemma1(r, gcd(r, d)) == lemma1_brute(r, d, 1), (r, d)

    def test_caches_stay_bounded_through_a_sweep(self, tmp_path):
        memos = (divisors, counting._lemma1)
        for memo in memos:
            memo.cache_clear()
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        assert verify_theorem2(80, 30, csv_path=str(cold)).ok
        for memo in memos:
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize, (memo, info)
        assert verify_theorem2(80, 30, csv_path=str(warm)).ok
        assert warm.read_bytes() == cold.read_bytes()


class TestLemma3:
    def test_small_case(self):
        assert verify_lemma3(4, 3, 6, 1, 5)

    def test_trivial_factor(self):
        for n, m in ((12, 4), (9, 3), (7, 1)):
            assert verify_lemma3(1, n, m, 1, 4)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            verify_lemma3(4, 6, 2, 1, 5)

    def test_exhaustive_sweep(self):
        for n1 in range(1, 31):
            for n2 in range(1, 31):
                if gcd(n1, n2) != 1:
                    continue
                for m in divisors(n1 * n2):
                    for d in range(1, 21):
                        assert verify_lemma3(n1, n2, m, 1 % d, d)


def refuse_histograms(*args):
    raise AssertionError("no histogram may be built past the cap")


class TestTheorem2Sweep:
    def test_small_sweep_clean(self):
        report = verify_theorem2(40, 12)
        assert report.ok
        assert report.violations == ()
        # every (n, d, c) cell contributes one row per divisor of n
        expected = sum(
            len(divisors(n)) * sum(1 for c in range(d) if gcd(c, d) == 1)
            for n in range(1, 41)
            for d in range(1, 13)
        )
        assert report.rows_checked == expected

    def test_multiplicity_profile_n12(self):
        hist = multiplicity_histogram(12, 1, 9)
        assert dict(hist) == {1: 12, 2: 6, 3: 4, 4: 3, 6: 2, 12: 1}
        ratios = {Fraction(m * m, 12) for m in hist}
        assert ratios == {
            Fraction(1, 12),
            Fraction(1, 3),
            Fraction(3, 4),
            Fraction(4, 3),
            Fraction(3),
            Fraction(12),
        }

    def test_prime_profile(self):
        for p in (2, 3, 5, 7, 11):
            hist = multiplicity_histogram(p, 1, 4 if p != 2 else 3)
            assert dict(hist) == {1: p, p: 1}

    def test_weighted_identity(self):
        for n in range(1, 201):
            total = sum(Fraction(n, m) * Fraction(m * m, n) for m in divisors(n))
            assert total == sigma(n)

    def test_parallel_matches_serial(self):
        serial = verify_theorem2(25, 8, jobs=1)
        parallel = verify_theorem2(25, 8, jobs=2)
        assert serial == parallel

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_theorem2(0, 10)

    def test_brute_cap_is_checked_before_any_work(self, monkeypatch):
        monkeypatch.setattr(counting, "multiplicity_histogram", refuse_histograms)
        for sweep in (verify_theorem2, sweep_rows):
            with pytest.raises(ValueError, match=r"max_n must be an integer in \[1, 10000\], got 10001"):
                sweep(10 ** 4 + 1, 1)
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, 10000\], got 10001"):
            count_A_brute(CountingQuery(10 ** 4 + 1, 1, 0, 1))

    def test_max_d_cap_is_checked_before_any_work(self, monkeypatch):
        # the brute cap bounds max_d too, so a huge max_d is refused, not walked
        monkeypatch.setattr(counting, "multiplicity_histogram", refuse_histograms)
        for sweep in (verify_theorem2, sweep_rows):
            for max_d in (10 ** 4 + 1, 10 ** 30):
                with pytest.raises(ValueError, match=rf"^max_d must be an integer in \[1, 10000\], got {max_d}$"):
                    sweep(1, max_d)

    def test_hooked_calls_keep_their_shape(self, monkeypatch, tmp_path):
        # one histogram per (n, d, c), one formula per (n, d, m) and one CSV writer
        calls = Counter()

        def counted(name):
            fn = getattr(counting, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(counting, name, wrapper)

        for name in ("multiplicity_histogram", "count_A_formula", "write_sweep_csv"):
            counted(name)
        assert verify_theorem2(12, 9, csv_path=str(tmp_path / "sweep.csv")).ok
        assert calls == {"multiplicity_histogram": 336, "count_A_formula": 315, "write_sweep_csv": 1}


class TestSweepViolations:
    """The block consumer, fed a formula that is wrong for every m = 3."""

    MAX_N, MAX_D = 12, 4

    @pytest.fixture
    def wrong_for_m3(self, monkeypatch):
        formula = counting.count_A_formula
        # pool workers are forked, so they see the patched formula too
        monkeypatch.setattr(counting, "count_A_formula",
                            lambda query: formula(query) + (query.m == 3))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("with_csv", [False, True])
    def test_every_run_reports_the_same_violations(self, wrong_for_m3, jobs, with_csv, tmp_path):
        path = str(tmp_path / "sweep.csv") if with_csv else None
        report = verify_theorem2(self.MAX_N, self.MAX_D, jobs=jobs, csv_path=path)
        keys = [(n, 3, d, c) for n in range(3, self.MAX_N + 1, 3)
                for d in range(1, self.MAX_D + 1) for c in range(d) if gcd(c, d) == 1]
        assert [(v.n, v.m, v.d, v.c) for v in report.violations] == keys
        assert all(v.brute == v.closed_form == v.n // 3 == v.formula - 1 and v.ok == 0
                   for v in report.violations)
        assert report.rows_checked == sum(
            len(divisors(n)) * sum(1 for c in range(d) if gcd(c, d) == 1)
            for n in range(1, self.MAX_N + 1) for d in range(1, self.MAX_D + 1))
        assert report == verify_theorem2(self.MAX_N, self.MAX_D)
        if with_csv:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == report.rows_checked
            assert {row["ok"] for row in rows} == {"0", "1"}
            bad = [tuple(int(row[k]) for k in ("n", "m", "d", "c")) for row in rows if row["ok"] == "0"]
            assert bad == keys

    def test_brute_and_formula_must_also_equal_n_over_m(self, wrong_for_m3, monkeypatch):
        histogram = counting.multiplicity_histogram

        def also_wrong_for_m3(n, c, d):
            hist = histogram(n, c, d)
            if n % 3 == 0:
                hist[3] += 1
            return hist

        monkeypatch.setattr(counting, "multiplicity_histogram", also_wrong_for_m3)
        report = verify_theorem2(self.MAX_N, self.MAX_D)
        assert {(v.n, v.m) for v in report.violations} == {(3, 3), (6, 3), (9, 3), (12, 3)}
        assert all(v.brute == v.formula == v.closed_form + 1 for v in report.violations)

    @pytest.fixture
    def histogram_wrong_for_m3(self, monkeypatch):
        histogram = counting.multiplicity_histogram

        def wrong_at_c1(n, c, d):
            hist = histogram(n, c, d)
            if n % 3 == 0 and c == 1:
                hist[3] += 1
            return hist

        # at d = 3 and 4, one c of a block disagrees and the others agree
        monkeypatch.setattr(counting, "multiplicity_histogram", wrong_at_c1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_zero_count_key_changes_no_byte(self, monkeypatch, jobs, tmp_path):
        # a histogram with a key of count 0 reads n/m at every m | n, so a
        # comparison of those counts passes it, but it is not the dict {m: n/m}:
        # its c goes to the block's bad map and is rendered row by row, to the same bytes
        clean, path = tmp_path / "clean.csv", tmp_path / "sweep.csv"
        expected = verify_theorem2(self.MAX_N, self.MAX_D, jobs=jobs, csv_path=str(clean))
        histogram = counting.multiplicity_histogram

        def with_a_zero_key(n, c, d):
            hist = histogram(n, c, d)
            hist[0] = 0  # no gcd is 0
            return hist

        monkeypatch.setattr(counting, "multiplicity_histogram", with_a_zero_key)
        for n in range(1, self.MAX_N + 1):
            for _, d, expected_m, cs, bad in counting._n_blocks(n, self.MAX_D):
                assert bad == {c: [k for _, _, k in expected_m] for c in cs}, (n, d)
        report = verify_theorem2(self.MAX_N, self.MAX_D, jobs=jobs, csv_path=str(path))
        assert report == expected and report.violations == ()
        assert path.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("patch", ["wrong_for_m3", "histogram_wrong_for_m3"])
    def test_csv_is_every_row_of_sweep_rows(self, request, patch, jobs, tmp_path):
        request.getfixturevalue(patch)
        path = tmp_path / "sweep.csv"
        report = verify_theorem2(self.MAX_N, self.MAX_D, jobs=jobs, csv_path=str(path))
        rows = list(sweep_rows(self.MAX_N, self.MAX_D))
        assert path.read_bytes() == csv_bytes(rows)
        assert report.rows_checked == len(rows)
        assert report.violations == tuple(row for row in rows if not row.ok)
        assert 0 < len(report.violations) < len(rows)


def csv_bytes(rows) -> bytes:
    """The sweep CSV of `rows`, each rendered on its own."""
    lines = ["n,m,d,c,brute,formula,closed_form,ok\r\n"]
    lines += ["%d,%d,%d,%d,%d,%d,%d,%d\r\n" % row for row in rows]
    return "".join(lines).encode()


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        written = verify_theorem2(10, 5, csv_path=str(path)).rows_checked
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == written
        assert set(rows[0]) == {"n", "m", "d", "c", "brute", "formula", "closed_form", "ok"}
        assert all(row["ok"] == "1" for row in rows)
        for row in rows:
            assert int(row["brute"]) == int(row["formula"]) == int(row["closed_form"])
        assert [tuple(map(int, row.values())) for row in rows] == list(sweep_rows(10, 5))

    def test_serial_sweep_streams_its_csv(self, tmp_path):
        # one (n, d) block at a time: the peak is a fraction of the CSV, which
        # a sweep that held its rows would exceed.  The first run's peak also
        # holds what the caches fill; the second, warm run's is streaming alone
        path = str(tmp_path / "sweep.csv")
        verify_theorem2(2, 3, csv_path=path)  # warm-up: imports and first-call caches
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                report = verify_theorem2(4, 120, csv_path=path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.ok and report.rows_checked == 35088
        size = os.path.getsize(path)
        assert peaks[0] < size / 4, (peaks, size)
        assert peaks[1] < size / 8, (peaks, size)
