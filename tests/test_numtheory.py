"""Tests for the exact arithmetic and multiplicative-function layer."""

import random
import re
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareysum.numtheory import (
    d_part,
    divisors,
    euler_phi,
    factorize,
    sigma,
)


def euclid_by_hand(x: int, y: int) -> int:
    x, y = abs(x), abs(y)
    while y:
        x, y = y, x % y
    return x


class TestGcd:
    """`math.gcd` conventions that the coprimality checks rely on."""

    def test_small(self):
        assert gcd(12, 18) == 6

    def test_identity(self):
        assert gcd(0, 7) == 7
        assert gcd(7, 0) == 7

    def test_both_zero(self):
        assert gcd(0, 0) == 0

    def test_negative_arguments(self):
        assert gcd(-12, 18) == 6
        assert gcd(12, -18) == 6
        assert gcd(-12, -18) == 6

    def test_worked_example_term_gcd(self):
        # k(6, 1) of the worked example; the Euclid loop is the oracle
        x = 2 * 3504214 + 31537789
        y = 6 * 31537789
        expected = euclid_by_hand(x, y)
        assert gcd(x, y) == expected == 3

    @given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
    def test_matches_euclid(self, x, y):
        assert gcd(x, y) == euclid_by_hand(x, y)


class TestIsqrt:
    """`math.isqrt` as the exact window predicates use it."""

    def test_zero(self):
        assert isqrt(0) == 0

    def test_small(self):
        assert isqrt(17) == 4

    def test_worked_example_window_width(self):
        # floor(100 * alpha / n) for b=31537789, d=9, n=12 is 1733, so the
        # admissible width alpha/n - 1 is 16.33...
        b, d, n = 31537789, 9, 12
        hundredths = isqrt(b * d * 10 ** 4) // (n * d * d)
        assert hundredths == 1733
        assert isqrt(b * d) // (n * d * d) - 1 == 16

    @given(st.integers(0, 2 ** 128))
    def test_floor_bounds(self, x):
        r = isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


class TestParts:
    def test_forced_by_definition(self):
        assert d_part(12, 10) == 4
        assert 12 // d_part(12, 10) == 3

    def test_no_shared_primes(self):
        for r in (1, 5, 36, 97):
            assert d_part(r, 1) == 1
            assert r // d_part(r, 1) == r

    def test_factorization_oracle(self):
        # d_part(8, 6): primes of 8 are {2}, 2 | 6, so the whole of 8
        facs = dict(factorize(8))
        expected = prod(p ** e for p, e in facs.items() if 6 % p == 0)
        assert d_part(8, 6) == expected == 8
        assert 8 // d_part(8, 6) == 1

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    def test_split_properties(self, r, d):
        part = d_part(r, d)
        free = r // part
        assert part * free == r
        assert gcd(free, d) == 1
        # every prime of the d-part divides d
        for p, _ in factorize(part):
            assert d % p == 0


class TestMultiplicativeFunctions:
    def test_sigma_worked_example(self):
        assert sigma(12) == 28

    def test_identity_cases(self):
        assert euler_phi(1) == 1
        assert sigma(1) == 1
        assert divisors(1) == (1,)

    def test_sigma_partial_sums(self):
        # against the divisor-list oracle; the total through 12 is 127
        brute = sum(
            sum(k for k in range(1, n + 1) if n % k == 0) for n in range(1, 13)
        )
        assert sum(sigma(n) for n in range(1, 13)) == brute == 127

    def test_divisors_brute_force(self):
        for n in range(1, 200):
            assert divisors(n) == tuple(k for k in range(1, n + 1) if n % k == 0)

    def test_divisors_of_the_sweep_sieve_grid(self):
        # the Theorem 2 sweep sieves each gcd table with divisors(r * d)[1:],
        # r <= 80, d <= 30; the oracle is a sieve of every k's divisors
        grid = [(r, d) for r in range(1, 81) for d in range(1, 31)]
        limit = 80 * 30
        brute = [[] for _ in range(limit + 1)]
        for e in range(1, limit + 1):
            for k in range(e, limit + 1, e):
                brute[k].append(e)
        divisors.cache_clear()
        for _ in range(2):  # cold, then warm
            for r, d in grid:
                divs = divisors(r * d)
                assert divs == tuple(brute[r * d]), (r, d)
                # r d's divisors are the products of r's and d's
                assert divs == tuple(sorted({a * b for a in divisors(r) for b in divisors(d)})), (r, d)
        assert divisors.cache_info().hits > 0

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_divisors_refuses_what_is_not_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {n!r}")):
            divisors(n)

    def test_cached_divisors_cannot_be_changed(self):
        first = divisors(36)
        with pytest.raises(TypeError):
            first[0] = 5
        with pytest.raises(AttributeError):
            first.append(72)
        assert divisors(36) is first
        assert first == (1, 2, 3, 4, 6, 9, 12, 18, 36)

    def test_phi_brute_force(self):
        for n in range(1, 200):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    def test_multiplicativity_random_coprime(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 300:
            m = rng.randint(1, 10 ** 3)
            n = rng.randint(1, 10 ** 3)
            if gcd(m, n) != 1 or m * n > 10 ** 6:
                continue
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            assert sigma(m * n) == sigma(m) * sigma(n)
            checked += 1

    def test_factorize_invariants(self):
        for n in (1, 2, 97, 360, 2 ** 10, 999983, 10 ** 6):
            fn = factorize(n)
            assert prod(p ** e for p, e in fn) == n
            primes = [p for p, _ in fn]
            assert primes == sorted(primes)
            assert len(set(primes)) == len(primes)
            assert all(e >= 1 for _, e in fn)
            for p in primes:
                assert all(p % q != 0 for q in range(2, p)) or p < 4
        # every n up to 10^4, the largest any CLI or benchmark path factorizes,
        # against a smallest-prime-factor sieve
        limit = 10 ** 4
        spf = list(range(limit + 1))
        for p in range(2, isqrt(limit) + 1):
            if spf[p] == p:
                for k in range(p * p, limit + 1, p):
                    spf[k] = min(spf[k], p)
        for n in range(1, limit + 1):
            expected, m = {}, n
            while m > 1:
                expected[spf[m]] = expected.get(spf[m], 0) + 1
                m //= spf[m]
            assert factorize(n) == tuple(sorted(expected.items()))

    def test_factorize_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestExactRational:
    """`fractions.Fraction`, the package's exact rational type."""

    def test_lowest_terms_invariant(self):
        x = Fraction(6, -8)
        assert (x.numerator, x.denominator) == (-3, 4)
        assert Fraction(0, 5) == Fraction(0, 1)

    @settings(max_examples=200)
    @given(
        st.fractions(max_denominator=10 ** 9),
        st.fractions(max_denominator=10 ** 9),
    )
    def test_addition_is_exact(self, x, y):
        assert (x + y) - y == x

    @given(st.fractions(max_denominator=10 ** 6))
    def test_always_reduced(self, x):
        y = x + Fraction(1, 3)
        assert gcd(y.numerator, y.denominator) == 1
        assert y.denominator >= 1
