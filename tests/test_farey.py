"""Tests for Farey point/neighbour predicates and expected values."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import alpha_premise_holds, draw_context, prime_to, window_max_q
from fareysum.dedekind import dedekind_fast
from fareysum.farey import (
    FareyContext,
    farey_context,
    is_farey_neighbour,
    satisfies_theorem1_premises,
    theorem1_premise_failure,
)
from fareysum.knopp import decompose


def base_expected(ctx: FareyContext) -> Fraction:
    """E(a, b) = b/(dq), as the n = 1 decomposition carries it."""
    return decompose(ctx.a, ctx.b, ctx.c, ctx.d, 1).base_expected


class TestFareyPoint:
    """The rules on the Farey point b*c/d, which `farey_context` enforces."""

    def test_valid(self):
        ctx = farey_context(31537789, 1, 9, 3504214)
        assert (ctx.b, ctx.c, ctx.d) == (31537789, 1, 9)

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError, match=re.escape("c/d must be reduced: gcd(2, 4) = 2")):
            farey_context(1000, 2, 4, 501)

    def test_rejects_large_order(self):
        with pytest.raises(ValueError, match="Farey order out of range"):
            farey_context(27, 1, 3, 10)

    def test_rejects_small_b(self):
        # b <= 3 needs no guard of its own: with q, d >= 1, d(q+d)^2 >= 4 > b
        with pytest.raises(ValueError, match="not a right-half Farey neighbour"):
            farey_context(3, 0, 1, 1)


class TestIsFareyNeighbour:
    def test_worked_example(self):
        assert is_farey_neighbour(31537789, 1, 9, 3504214)

    def test_boundary_exact(self):
        # q = 9, d (q + d)^2 = 100 <= b = 100: right on the edge
        assert is_farey_neighbour(100, 0, 1, 9)
        assert not is_farey_neighbour(100, 0, 1, 11)

    def test_left_of_point_is_false(self):
        # q = ad - bc <= 0 (equality is impossible for valid arguments)
        assert not is_farey_neighbour(100, 1, 3, 33)

    def test_rejections(self):
        with pytest.raises(ValueError, match="c/d must be reduced"):
            is_farey_neighbour(1000, 2, 4, 7)
        with pytest.raises(ValueError, match="Farey order out of range"):
            is_farey_neighbour(27, 1, 3, 7)
        with pytest.raises(ValueError, match="a must be prime to b"):
            is_farey_neighbour(100, 0, 1, 10)

    def test_accepts_c_at_least_d(self):
        # reduced quadruples from decompositions may carry c >= d;
        # point = 10^6 * 7/3, a = 2333341 gives q = 23, 3 * 26^2 <= 10^6
        assert is_farey_neighbour(10 ** 6, 7, 3, 2333341)

    def test_agrees_with_float_when_margin_clear(self):
        rng = random.Random(31)
        for _ in range(2000):
            b = rng.randint(50, 10 ** 9)
            d = rng.randint(1, 20)
            if d ** 3 >= b:
                continue
            c = rng.randint(0, d - 1)
            if math.gcd(c, d) != 1:
                continue
            a = rng.randint((b * c) // d - 5, (b * c) // d + 2 * d + int(b ** 0.5))
            if math.gcd(a, b) != 1:
                continue
            q = a * d - b * c
            lhs = q / d
            rhs = math.sqrt(b / d ** 3) - 1
            if abs(lhs - rhs) > 1e-6 and q != 0:
                assert is_farey_neighbour(b, c, d, a) == (0 < lhs <= rhs)

    def test_neighbours_have_positive_sums(self):
        rng = random.Random(37)
        for _ in range(120):
            b, c, d, a = draw_context(rng, 100, 10 ** 6)
            assert is_farey_neighbour(b, c, d, a)
            assert 12 * dedekind_fast(a, b) > 0


class TestFareyContext:
    def test_worked_example_q(self):
        ctx = farey_context(31537789, 1, 9, 3504214)
        assert ctx.q == 9 * 3504214 - 31537789 == 137
        # q/d ~ 15.22 matches a - b c/d
        assert 15 < Fraction(ctx.q, ctx.d) < 16

    def test_c_normalization_shifts_a(self):
        base = farey_context(31537789, 1, 9, 3504214)
        shifted = farey_context(31537789, 1 + 2 * 9, 9, 3504214 + 2 * 31537789)
        assert shifted == base

    def test_rejects_non_neighbour(self):
        with pytest.raises(ValueError, match="not a right-half Farey neighbour"):
            farey_context(100, 0, 1, 11)
        with pytest.raises(ValueError, match="not a right-half Farey neighbour"):
            farey_context(100, 1, 3, 33)

    @pytest.mark.parametrize("b, c, d, a, failure", [
        (100, 1, 3, 33, "strict positivity fails: q = ad - bc = -1 <= 0"),
        (100, 0, 1, 11, "admissible window fails: n^2 (q+d)^2 d = 144 > b = 100 (q=11)"),
    ], ids=["positivity", "window"])
    def test_rejection_names_the_failing_inequality(self, b, c, d, a, failure):
        message = f"a is not a right-half Farey neighbour: {failure}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            farey_context(b, c, d, a)

    def test_accessors(self):
        ctx = farey_context(100, 0, 1, 9)
        assert isinstance(ctx, FareyContext)
        assert (ctx.b, ctx.c, ctx.d, ctx.a, ctx.q) == (100, 0, 1, 9, 9)


class TestExpectedValue:
    def test_worked_example(self):
        ctx = farey_context(31537789, 1, 9, 3504214)
        e = base_expected(ctx)
        assert e == Fraction(31537789, 1233)
        assert abs(float(e) - 25578.093) < 0.001

    def test_degenerate_point_zero(self):
        for b in (4, 100, 12345):
            ctx = farey_context(b, 0, 1, 1)
            assert ctx.q == 1
            assert base_expected(ctx) == b

    def test_positive_and_above_cube_root(self):
        rng = random.Random(41)
        for _ in range(150):
            b, c, d, a = draw_context(rng, 30, 10 ** 8)
            ctx = farey_context(b, c, d, a)
            e = base_expected(ctx)
            assert e > 0
            # E > b^(1/3), exactly: (b/(dq))^3 > b <=> b^2 > (dq)^3
            assert b * b > (d * ctx.q) ** 3


class TestTheorem1Premises:
    def test_worked_example(self):
        assert satisfies_theorem1_premises(31537789, 1, 9, 3504214, 12)

    def test_n1_reduces_to_neighbour_with_alpha_floor(self):
        rng = random.Random(43)
        for _ in range(300):
            b = rng.randint(4, 10 ** 6)
            d = rng.randint(1, 12)
            if d ** 3 >= b:
                continue
            c = rng.randint(0, d - 1)
            if math.gcd(c, d) != 1:
                continue
            a = rng.randint((b * c) // d - 2, (b * c) // d + 2 * d + 40)
            if math.gcd(a, b) != 1:
                continue
            expected = is_farey_neighbour(b, c, d, a) and b >= 4 * d ** 3
            assert satisfies_theorem1_premises(b, c, d, a, 1) == expected

    def test_window_threshold_from_worked_example(self):
        # alpha/n - 1 >= 10 exactly at b = 12702096 for d = 9, n = 12.  Every a
        # with q = 90 there is even, like b, so the premise check itself is
        # pinned at its equality by TestEqualityCases::test_window_edge.
        assert window_max_q(12702095, 9, 12) == 89
        assert window_max_q(12702096, 9, 12) == 90

    def test_failure_messages_name_the_inequality(self):
        msg = theorem1_premise_failure(31537789, 1, 9, 3504214, 100)
        assert msg is not None and "alpha" in msg
        # a too far right: window inequality fails
        b, c, d, n = 31537789, 1, 9, 12
        a = (b * c) // d + 200
        while math.gcd(a, b) != 1:
            a += 1
        msg = theorem1_premise_failure(b, c, d, a, n)
        assert msg is not None and "window" in msg
        # a left of the point
        msg = theorem1_premise_failure(b, 1, 9, 2, 12)
        assert msg is not None and "positivity" in msg

    def test_all_draws_pass(self):
        rng = random.Random(47)
        for _ in range(100):
            b, c, d, a = draw_context(rng, 10 ** 5, 10 ** 8, n=12, d_hi=4)
            assert satisfies_theorem1_premises(b, c, d, a, 12)
            assert theorem1_premise_failure(b, c, d, a, 12) is None


class TestMaxNeighbourDistance:
    def test_matches_predicate_boundary(self):
        rng = random.Random(53)
        for _ in range(500):
            b = rng.randint(10, 10 ** 9)
            d = rng.randint(1, 15)
            n = rng.randint(1, 12)
            q = max(window_max_q(b, d, n), 0)
            if q >= 1:
                assert n * n * (q + d) ** 2 * d <= b
            assert n * n * (q + 1 + d) ** 2 * d > b


class TestEqualityCases:
    """Each exact inequality at equality, and one step of b past it.

    At equality d | q, because a d = q + b c and d | b in every case below;
    so q = d j and a = (q + b c) / d is an integer.  The step past is b - 1
    with a kept: q grows by c >= 0 while b shrinks by one.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 10 ** 6), st.integers(0, 11))
    def test_neighbour_edge(self, d, j_seed, c_seed):
        # a = j + d^2 (j+1)^2 c is prime to b = d^3 (j+1)^2 when j is prime to d
        c = prime_to(d, c_seed) % d
        q = d * prime_to(d, j_seed)
        b = d * (q + d) ** 2
        a = (q + b * c) // d
        assume(math.gcd(a, b - 1) == 1)
        assert a * d - b * c == q and math.gcd(a, b) == 1
        assert is_farey_neighbour(b, c, d, a)
        assert not is_farey_neighbour(b - 1, c, d, a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 10 ** 4), st.integers(0, 8))
    @example(12, 9, 11, 1)  # the worked example's n and d: b = 15116544, q = 99
    def test_window_edge(self, n, d, j_seed, c_seed):
        c = prime_to(d, c_seed) % d
        q = d * prime_to(n * d, j_seed)
        b = n * n * (q + d) ** 2 * d
        a = (q + b * c) // d
        assume(alpha_premise_holds(b - 1, d, n) and math.gcd(a, b - 1) == 1)
        assert math.gcd(a, b) == 1
        assert theorem1_premise_failure(b, c, d, a, n) is None
        failure = theorem1_premise_failure(b - 1, c, d, a, n)
        assert failure is not None and failure.startswith("admissible window fails")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 60), st.integers(0, 59), st.integers(0, 8))
    def test_alpha_edge(self, d, k, j_seed, c_seed):
        # n = k^2 makes 2 d^3 n^(5/2) an integer: L = 2 d^3 k^5 gives L^2 = 4 d^6 n^5
        c = prime_to(d, c_seed) % d
        n = k * k
        b = d ** 3 * n * n * (n + 1) + 2 * d ** 3 * k ** 5
        q = d * (1 + j_seed % k)  # q <= d k keeps n^2 (q+d)^2 d <= d^3 k^4 (k+1)^2 = b
        a = (q + b * c) // d
        assume(math.gcd(a, b) == 1 and math.gcd(a, b - 1) == 1)
        assert (b - d ** 3 * n * n * (n + 1)) ** 2 == 4 * d ** 6 * n ** 5
        assert theorem1_premise_failure(b, c, d, a, n) is None
        failure = theorem1_premise_failure(b - 1, c, d, a, n)
        assert failure is not None and failure.startswith("alpha lower bound fails")
