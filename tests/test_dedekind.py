"""Tests for the sawtooth function and the Dedekind sum evaluators.

Three independent routes to s(a, b) are compared: the direct summation
`dedekind_naive`, the integer continued-fraction form `dedekind_fast`, and
the rational reciprocity chain `dedekind_reciprocity` kept here as a
reference.  The sawtooth function and the defining sum built on it are
test oracles and live here too.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fareysum.dedekind import NAIVE_LIMIT, dedekind_fast, dedekind_naive


def sawtooth(t: Fraction | int) -> Fraction:
    """((t)): t - floor(t) - 1/2 for non-integer t, and 0 for integer t."""
    t = Fraction(t)
    if t.denominator == 1:
        return Fraction(0)
    return t - (t.numerator // t.denominator) - Fraction(1, 2)


def dedekind_by_definition(a: int, b: int) -> Fraction:
    """The defining sum, straight off the sawtooth function."""
    return sum(
        (sawtooth(Fraction(k, b)) * sawtooth(Fraction(a * k, b)) for k in range(1, b + 1)),
        Fraction(0),
    )


def dedekind_reciprocity(a: int, b: int) -> Fraction:
    """s(a, b) in O(log b) exact rational steps down the Euclidean chain.

    Imprimitive input reduces first via s(ag, bg) = s(a, b); the chain then
    applies s(a, b) = -s(b mod a, a) - 1/4 + (a^2 + b^2 + 1)/(12ab), which
    preserves gcd(a, b) = 1 down to the base case s(0, 1) = 0.
    """
    a %= b
    if a == 0:
        return Fraction(0)
    g = gcd(a, b)
    a, b = a // g, b // g
    total = Fraction(0)
    sign = 1
    while a > 0:
        total += Fraction(sign * (a * a + b * b + 1 - 3 * a * b), 12 * a * b)
        sign = -sign
        a, b = b % a, a
    return total


def S(a: int, b: int) -> Fraction:
    """The normalized sum S(a, b) = 12 s(a, b)."""
    return 12 * dedekind_fast(a, b)


class TestSawtooth:
    def test_integer_is_zero(self):
        assert sawtooth(3) == 0
        assert sawtooth(Fraction(-7)) == 0
        assert sawtooth(0) == 0

    def test_quarter(self):
        assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)

    def test_negative_third(self):
        # floor(-1/3) = -1, so ((−1/3)) = −1/3 + 1 − 1/2
        t = Fraction(-1, 3)
        floor = t.numerator // t.denominator
        assert sawtooth(t) == t - floor - Fraction(1, 2) == Fraction(1, 6)

    @given(st.fractions(max_denominator=10 ** 4))
    def test_periodicity(self, t):
        assert sawtooth(t + 1) == sawtooth(t)

    @given(st.fractions(max_denominator=10 ** 4))
    def test_odd_function(self, t):
        assert sawtooth(-t) == -sawtooth(t)


class TestNaive:
    def test_half(self):
        assert dedekind_naive(1, 2) == 0

    def test_third_by_hand(self):
        # ((1/3))^2 + ((2/3))^2 = 1/36 + 1/36
        assert dedekind_naive(1, 3) == Fraction(1, 18)

    def test_two_thirds(self):
        assert dedekind_naive(2, 3) == dedekind_by_definition(2, 3) == Fraction(-1, 18)

    def test_matches_definition(self):
        for b in range(1, 40):
            for a in range(0, b):
                assert dedekind_naive(a, b) == dedekind_by_definition(a, b)

    def test_refuses_large_modulus(self):
        with pytest.raises(ValueError, match=rf"b must be an integer in \[1, {NAIVE_LIMIT}\], got {NAIVE_LIMIT + 1}"):
            dedekind_naive(1, NAIVE_LIMIT + 1)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            dedekind_naive(1, 0)


def euclid_length(a: int, b: int) -> int:
    """Division steps of Euclid on (b, a), for 0 < a < b."""
    t = 0
    while a:
        a, b = b % a, a
        t += 1
    return t


def fibonacci_pairs(limit: int) -> list[tuple[int, int]]:
    """Consecutive (F_k, F_k+1) up to `limit`: the longest Euclid chains for their size."""
    pairs = [(1, 2)]
    while pairs[-1][1] <= limit:
        a, b = pairs[-1]
        pairs.append((b, a + b))
    return pairs[:-1]


class TestFast:
    @pytest.mark.parametrize("pairs, parities", [
        pytest.param([(1, 10 ** 12 + 39)], {1}, id="a_1_odd_t"),
        pytest.param([(10 ** 12 + 38, 10 ** 12 + 39)], {0}, id="a_b_minus_1_even_t"),
        pytest.param(fibonacci_pairs(10 ** 40), {0, 1}, id="fibonacci_to_1e40"),
    ])
    def test_inverse_from_either_exit(self, pairs, parities):
        # a* comes from the Euclid pass itself, read differently at the
        # odd-t and the even-t exit; reciprocity never forms a*
        assert {euclid_length(a, b) % 2 for a, b in pairs} == parities
        for a, b in pairs:
            for g in (1, 6, 10 ** 20 + 1):
                for signed in (a, -a):
                    assert dedekind_fast(signed * g, b * g) == dedekind_reciprocity(signed * g, b * g)

    def test_closed_form_one_over_b(self):
        # s(1, b) = (b-1)(b-2)/(12b), itself cross-checked against the oracle
        for b in range(1, 120):
            closed = Fraction((b - 1) * (b - 2), 12 * b)
            assert dedekind_naive(1, b) == closed
            assert dedekind_fast(1, b) == closed
        assert dedekind_fast(1, 6) == Fraction(10, 36)

    def test_oracle_equivalence_grid(self):
        for b in range(1, 120):
            for a in range(0, b):
                fast = dedekind_fast(a, b)
                assert fast == dedekind_reciprocity(a, b) == dedekind_naive(a, b)

    def test_oracle_equivalence_imprimitive_and_large_a(self):
        rng = random.Random(11)
        for _ in range(300):
            b = rng.randint(1, 2000)
            a = rng.randint(-3 * b, 3 * b)
            fast = dedekind_fast(a, b)
            assert fast == dedekind_reciprocity(a, b) == dedekind_naive(a, b)

    def test_rejects_nonpositive_modulus(self):
        for b in (0, -1, -(2 ** 70)):
            with pytest.raises(ValueError):
                dedekind_fast(1, b)

    def test_periodicity_randomized(self):
        rng = random.Random(5)
        for _ in range(500):
            b = rng.randint(1, 10 ** 6)
            a = rng.randint(-b, b)
            assert dedekind_fast(a + b, b) == dedekind_fast(a, b)

    def test_worked_example_value(self):
        s = 12 * dedekind_fast(3504214, 31537789)
        assert abs(float(s) - 25573.432) < 0.001


class TestThreeRoutes:
    """dedekind_fast, dedekind_reciprocity and dedekind_naive agree exactly."""

    @given(st.integers(1, 2000), st.integers(-10 ** 4, 10 ** 4))
    def test_small_moduli(self, b, a):
        fast = dedekind_fast(a, b)
        assert fast == dedekind_reciprocity(a, b) == dedekind_naive(a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 2 ** 256),
        st.integers(-(2 ** 258), 2 ** 258),
        st.integers(1, 10 ** 6),
    )
    def test_large_moduli_negative_and_imprimitive(self, b, a, g):
        assert dedekind_fast(a, b) == dedekind_reciprocity(a, b)
        assert dedekind_fast(a * g, b * g) == dedekind_reciprocity(a * g, b * g)
        assert dedekind_fast(a * g, b * g) == dedekind_fast(a, b)

    @settings(deadline=None)
    @given(st.integers(1, 2 ** 256), st.integers(1, 2 ** 256))
    def test_reciprocity_law(self, a, b):
        assume(gcd(a, b) == 1)
        lhs = dedekind_fast(a, b) + dedekind_fast(b, a)
        assert lhs == Fraction(a * a + b * b + 1, 12 * a * b) - Fraction(1, 4)

    @given(st.integers(-(2 ** 256), 2 ** 256))
    def test_modulus_one(self, a):
        assert dedekind_fast(a, 1) == dedekind_reciprocity(a, 1) == 0
        assert dedekind_naive(a, 1) == 0

    @given(st.integers(1, 2 ** 256), st.integers(-(2 ** 64), 2 ** 64))
    def test_multiple_of_modulus(self, b, k):
        assert dedekind_fast(k * b, b) == dedekind_reciprocity(k * b, b) == 0


class TestNormalized:
    def test_third(self):
        assert S(1, 3) == Fraction(2, 3)

    def test_zero_numerator(self):
        assert S(0, 5) == 0

    def test_scaling_invariance_small(self):
        assert S(2, 6) == S(1, 3) == Fraction(2, 3)

    def test_scaling_invariance_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            b = rng.randint(1, 500)
            a = rng.randint(0, b)
            d = rng.randint(1, 50)
            assert S(a * d, b * d) == S(a, b)

    def test_denominator_divides_b(self):
        rng = random.Random(23)
        for _ in range(300):
            b = rng.randint(1, 5000)
            a = rng.randint(0, b)
            assert b % S(a, b).denominator == 0

    def test_rademacher_bound(self):
        for d in range(2, 501):
            for c in range(1, d):
                if gcd(c, d) == 1:
                    assert abs(S(c, d)) < d
