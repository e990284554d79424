"""Tests for the Petersson-Knopp decomposition machinery."""

import random
from fractions import Fraction
from itertools import count, islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import draw_base, draw_context
from fareysum import knopp
from fareysum.dedekind import dedekind_fast, dedekind_naive
from fareysum.experiments import select_neighbour
from fareysum.farey import PremiseError, farey_context, is_farey_neighbour
from fareysum.knopp import (
    _deviation_pairs,
    _farey_terms,
    decompose,
    deviation_profile,
    identity_discrepancy,
    three_term_residual,
    verify_identity,
)
from fareysum.numtheory import divisors, sigma


def S(a: int, b: int) -> Fraction:
    return 12 * dedekind_fast(a, b)


class TestDecompose:
    def test_hand_example(self):
        # (a=1, b=3, c=0, d=1, n=2): S(2,3), S(1,6), S(4,6) = -2/3, 10/3, -2/3
        dec = decompose(1, 3, 0, 1, 2)
        assert [t.sum_value for t in dec.terms] == [
            Fraction(-2, 3),
            Fraction(10, 3),
            Fraction(-2, 3),
        ]
        assert sum(t.sum_value for t in dec.terms) == 2 == sigma(2) * Fraction(2, 3)
        assert verify_identity(dec)

    def test_single_term_for_n1(self):
        dec = decompose(5, 13, 0, 1, 1)
        assert len(dec.terms) == 1
        term = dec.terms[0]
        assert (term.r, term.j, term.k, term.m) == (1, 0, 1, 1)
        assert term.sum_value == dec.base_sum == S(5, 13)

    def test_worked_example_terms(self):
        dec = decompose(3504214, 31537789, 1, 9, 12, require_theorem1=True)
        assert len(dec.terms) == 28 == sigma(12)
        by_rj = {(t.r, t.j): t for t in dec.terms}
        special = by_rj[(6, 1)]
        assert special.m == 1
        assert special.expected == dec.base_expected / 12

    def test_terms_are_immutable(self):
        term = decompose(3504214, 31537789, 1, 9, 12).terms[0]
        with pytest.raises(AttributeError):
            term.sum_value = term.expected
        with pytest.raises(AttributeError):
            term.m = 1

    def test_term_count_is_sigma(self):
        for n in range(1, 201):
            dec = decompose(3, 7, 0, 1, n)
            assert len(dec.terms) == sigma(n)

    def test_order_is_r_then_j(self):
        dec = decompose(3, 7, 1, 2, 12)
        keys = [(t.r, t.j) for t in dec.terms]
        assert keys == [(r, j) for r in divisors(12) for j in range(r)]

    def test_reduced_quadruples_are_reduced(self):
        rng = random.Random(61)
        for _ in range(50):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 24)
            for t in decompose(a, b, c, d, n).terms:
                ap, bp, cp, dp = t.reduced
                assert gcd(ap, bp) == 1
                assert gcd(cp, dp) == 1
                assert t.sum_value == S(ap, bp)

    def test_divisibility_of_k_and_m(self):
        rng = random.Random(67)
        for _ in range(60):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 200)
            for t in decompose(a, b, c, d, n).terms:
                assert n % t.k == 0
                assert n % t.m == 0

    def test_q_prime_relation(self):
        rng = random.Random(71)
        for _ in range(60):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 24)
            dec = decompose(a, b, c, d, n)
            for t in dec.terms:
                assert t.k * t.m * t.q_prime == n * dec.q

    def test_expected_value_consistency(self):
        rng = random.Random(73)
        for _ in range(60):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 24)
            dec = decompose(a, b, c, d, n)
            total = sum((t.expected for t in dec.terms), Fraction(0))
            assert total == sigma(n) * dec.base_expected

    def test_theorem1_conclusions_on_worked_example(self):
        dec = decompose(3504214, 31537789, 1, 9, 12, require_theorem1=True)
        for t in dec.terms:
            ap, bp, cp, dp = t.reduced
            assert is_farey_neighbour(bp, cp, dp, ap)
            assert t.sum_value > 0
            assert t.expected == Fraction(t.m * t.m, 12) * dec.base_expected
            # E[r, j] is also directly b'/(d'q')
            assert t.expected == Fraction(bp, dp * t.q_prime)

    def test_premise_error_names_inequality(self):
        with pytest.raises(PremiseError, match="alpha"):
            decompose(9, 50, 0, 1, 12, require_theorem1=True)

    def test_rejects_degenerate_base(self):
        with pytest.raises(ValueError):
            decompose(2, 3, 2, 3, 4)

    def test_rejects_unreduced_farey_data(self):
        with pytest.raises(ValueError):
            decompose(1, 5, 2, 4, 3)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            decompose(1, 5, 0, 1, 10 ** 4 + 1)

    def test_rendered_terms_match_a_naive_oracle(self):
        # S[r,j] by direct summation and E[r,j] from E(a, b) = b / (d q),
        # on bases with q of either sign and a not always prime to b
        rng = random.Random(101)  # three of its six bases have q < 0
        signs = set()
        for g in (1, 2, 3, 1, 2, 3):
            a, b, c, d, n = draw_base(rng, 10 ** 4 // g, 24)
            a, b = a * g, b * g
            q = a * d - b * c
            signs.add(q > 0)
            dec = decompose(a, b, c, d, n)
            base_expected = Fraction(b, d * q)
            for t in dec.terms:
                assert t.sum_value == 12 * dedekind_naive((n // t.r) * a + t.j * b, t.r * b)
                assert t.expected == Fraction(t.m * t.m, n) * base_expected
        assert signs == {False, True}
        # a replaced decomposition renders its own rows
        row = dec.rows[-1]
        changed = dec._replace(rows=dec.rows[:-1] + (row[:8] + (row[8] + row[5],),))
        assert changed.terms[:-1] == dec.terms[:-1]
        assert changed.terms[-1].sum_value == dec.terms[-1].sum_value + 1


@pytest.mark.parametrize("c, d, n", [(1, 9, 12), (0, 1, 6), (11, 9, 12), (40, 7, 30), (-5, 9, 12), (-13, 4, 24)])
def test_farey_term_table_matches_per_term_gcds(c, d, n):
    # c >= d and c < 0 included: the table is not limited to 0 <= c < d
    expected = []
    for r in divisors(n):
        for j in range(r):
            num_c, rd = (n // r) * c + j * d, r * d
            m = gcd(num_c, rd)
            expected.append((m, num_c // m, rd // m))
    table = _farey_terms(c, d, n)
    assert [entry[:3] for entry in table] == expected
    for _, c1, d1, u1, v1, n1 in table:
        assert u1 * c1 + v1 * d1 == 1
        assert n1 == 12 * d1 * dedekind_naive(c1, d1)  # S(c', d') = N1 / d'
    dec = decompose(1, 10 ** 6 + 3, c, d, n)
    assert [(row[3], row[6], row[7]) for row in dec.rows] == expected


def assert_rows_match_the_long_route(dec):
    # N = b' S(a', b'), with S(a', b') straight from the Euclid pass on (a', b')
    for _, _, _, _, a1, b1, _, _, num in dec.rows:
        assert num == b1 * 12 * dedekind_fast(a1, b1)


class TestShortPairRoute:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10 ** 18), st.integers(-10 ** 18, 10 ** 18), st.integers(1, 12),
        st.integers(-40, 40), st.integers(1, 60), st.integers(1, 6),
    )
    def test_rows_equal_the_long_route(self, b, a, d, c, n, g):
        # a of either sign and, through g, not prime to b; c outside [0, d)
        assume(gcd(c, d) == 1)
        a, b = a * g, b * g
        assume(a * d != b * c)
        assert_rows_match_the_long_route(decompose(a, b, c, d, n))

    @pytest.mark.parametrize("a, b, c, d, n, q", [
        (-1, 3, 0, 1, 1, -1),  # q' = -1
        (1, 3, 0, 1, 1, 1),  # |q'| = 1, so x' = 0 mod 1
        (5, 13, 7, 5, 12, -66),  # q < 0, so every q' = n q / (k m) < 0
        (3504214, 31537789, 1, 9, 12, 137),  # the worked example
    ])
    def test_edge_cases(self, a, b, c, d, n, q):
        dec = decompose(a, b, c, d, n)
        assert dec.q == q
        assert_rows_match_the_long_route(dec)

    def test_d_prime_one_has_u_zero_v_one(self):
        # (c, d) = (0, 1): every r = 1 entry, and j = 0 for any r, has d' = 1
        table = _farey_terms(0, 1, 6)
        assert table[0] == (1, 0, 1, 0, 1, 0)
        assert_rows_match_the_long_route(decompose(7, 10 ** 18 + 9, 0, 1, 6))


@pytest.mark.parametrize("warm", [False, True])
def test_decompose_calls_dedekind_fast_once_per_term_plus_base(monkeypatch, warm):
    # the benchmark's call shape: sigma(n) + 1 calls to knopp.dedekind_fast,
    # the base on (a, b) and each term on the short modulus n |q| / (k m)
    calls = []

    def counted(a, b):
        calls.append(b)
        return dedekind_fast(a, b)

    monkeypatch.setattr(knopp, "dedekind_fast", counted)
    rng = random.Random(107)
    for _ in range(20):
        a, b, c, d, n = draw_base(rng, 10 ** 15, 30)
        _farey_terms.cache_clear()
        if warm:
            decompose(a, b, c, d, n)
        calls.clear()
        dec = decompose(a, b, c, d, n)
        assert len(calls) == sigma(n) + 1
        assert calls[0] == b
        assert calls[1:] == [n * abs(dec.q) // (k * m) for _, _, k, m, *_ in dec.rows]


class TestVerifyIdentity:
    def test_randomized_fuzz(self):
        rng = random.Random(79)
        for _ in range(200):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 24)
            dec = decompose(a, b, c, d, n)
            assert verify_identity(dec)
            assert identity_discrepancy(dec) == 0

    def test_mutation_is_detected(self):
        dec = decompose(3, 7, 0, 1, 6)
        row = dec.rows[2]  # S[r,j] = N / b', so N + b' adds exactly 1
        bad_row = row[:8] + (row[8] + row[5],)
        mutated = dec._replace(rows=dec.rows[:2] + (bad_row,) + dec.rows[3:])
        assert not verify_identity(mutated)
        assert identity_discrepancy(mutated) == 1


class TestDeviationProfile:
    def test_worked_example_statistics(self):
        dec = decompose(3504214, 31537789, 1, 9, 12, require_theorem1=True)
        devs = deviation_profile(dec)
        assert [(r, j) for (r, j, _, _) in devs] == [(t.r, t.j) for t in dec.terms]
        largest = max(devs, key=lambda t: t[3])
        assert (largest[0], largest[1]) == (6, 1)
        assert abs(float(largest[3]) - 0.04659) < 0.00001
        mean = sum((v for (_, _, _, v) in devs), Fraction(0)) / 28
        assert abs(float(mean) - 0.0060) < 0.0001

    def test_exact_match_gives_zero(self):
        dec = decompose(3504214, 31537789, 1, 9, 12)
        e = dec.terms[0].expected  # store S[1,0] = N / b' as E[1,0]'s own terms
        forced = dec.rows[0][:5] + (e.denominator,) + dec.rows[0][6:8] + (e.numerator,)
        mutated = dec._replace(rows=(forced,) + dec.rows[1:])
        assert deviation_profile(mutated)[0][3] == 0

    def test_denominators_are_positive_and_q_zero_is_refused(self):
        # E[r,j] = m^2 b / (n d q) vanishes nowhere once q = 0 is refused,
        # and q < 0 makes E negative, which the pair's x must absorb
        rng = random.Random(89)
        negative = 0
        for _ in range(100):
            a, b, c, d, n = draw_base(rng, 10 ** 4, 24)
            dec = decompose(a, b, c, d, n)
            negative += dec.q < 0
            assert all(y > 0 for *_, y in _deviation_pairs(dec))
        assert negative > 20
        with pytest.raises(ValueError, match="degenerate"):
            decompose(2, 3, 2, 3, 4)


def test_every_term_is_close_to_its_expected_value():
    # the three-term relation in the module docstring gives
    #   S[r,j] - E[r,j] = S(c', d') + S(x', |q'|) + d'/(b'q') + q'/(b'd') - 3e
    # with E[r,j] = b'/(d'q'), and Rademacher-Grosswald bound |S(x, q)| by
    # (q - 1)(q - 2)/q: the paper's "close to its expected value", term by term
    def assert_close(dec):
        for t in dec.terms:
            _, b1, c1, d1 = t.reduced
            q1 = abs(t.q_prime)
            bound = (abs(S(c1, d1)) + 3 + Fraction(d1, b1 * q1) + Fraction(q1, b1 * d1)
                     + Fraction((q1 - 1) * (q1 - 2), q1))
            assert abs(t.sum_value - t.expected) <= bound, (dec, t)

    rng = random.Random(113)
    signs = set()
    for _ in range(300):
        a, b, c, d, n = draw_base(rng, 10 ** 6, 60, d_hi=15)
        dec = decompose(rng.choice((1, -1)) * a, b, c, d, n)
        signs.add(dec.q > 0)
        assert_close(dec)
    assert signs == {False, True}
    for n, d, c_list, b_start in ((12, 9, (1, 2, 4, 5, 7, 8), 10 ** 8), (30, 7, (1, 2, 3), 10 ** 15)):
        cells = ((b, c, select_neighbour(b, c, d, n)[0]) for b in count(b_start + 1) for c in c_list)
        for b, c, a in islice(((b, c, a) for b, c, a in cells if a is not None), 8):
            assert_close(decompose(a, b, c, d, n))


class TestThreeTermResidual:
    def test_q1_vanishes(self):
        for b in (4, 100, 628, 10 ** 6 + 3):
            ctx = farey_context(b, 0, 1, 1)
            assert ctx.q == 1
            assert three_term_residual(ctx) == 0

    def test_worked_example_bound(self):
        ctx = farey_context(31537789, 1, 9, 3504214)
        assert abs(three_term_residual(ctx)) < ctx.q == 137

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_residual_is_a_dedekind_sum(self, seed):
        # S(t, q) with u c + v d = 1 and t = -(u a + v b) mod q; every such
        # (u, v) gives the same t, since (u + d, v - c) moves u a + v b by q
        b, c, d, a = draw_context(random.Random(seed), 100, 10 ** 12)
        ctx = farey_context(b, c, d, a)
        u = pow(c, -1, d)
        v = (1 - u * c) // d
        t = -(u * a + v * b) % ctx.q
        residual = three_term_residual(ctx)
        assert residual == S(t, ctx.q)
        assert abs(residual) < ctx.q
