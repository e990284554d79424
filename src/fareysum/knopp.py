"""The Petersson-Knopp decomposition of a normalized Dedekind sum.

For every n >= 1 the identity

    sum over r | n, 0 <= j < r of  S((n/r) a + j b, r b)  =  sigma(n) S(a, b)

holds unconditionally.  Relative to Farey data (c, d), each term carries the
gcds k = ((n/r) a + j b, r b) and m = ((n/r) c + j d, r d), a reduced
quadruple (a', b', c', d') with q' = a'd' - b'c' = n q / (k m), and the
expected value (m^2 / n) E(a, b).  Under the exact premises checked by
`farey.satisfies_theorem1_premises`, every reduced quadruple is itself a
Farey neighbour and every term is positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .dedekind import dedekind_fast
from .farey import FareyContext, PremiseError, require_farey_point, theorem1_premise_failure
from .numtheory import divisors, require_range, sigma

N_LIMIT = 10 ** 4


class KnoppTerm(NamedTuple):
    """One (r, j) term of a decomposition (immutable)."""

    r: int
    j: int
    k: int  # gcd((n/r) a + j b, r b)
    m: int  # gcd((n/r) c + j d, r d)
    reduced: tuple[int, int, int, int]  # (a', b', c', d')
    sum_value: Fraction  # S[r, j]
    expected: Fraction  # E[r, j] = (m^2 / n) E(a, b)
    q_prime: int  # a'd' - b'c'


class Decomposition(NamedTuple):
    """All sigma(n) terms of S(a, b) relative to the Farey data (c, d).

    `rows` holds each term as integers (r, j, k, m, a', b', c', d', N) with
    S[r, j] = N / b', ordered by (r ascending, j ascending); `terms` renders
    them as `KnoppTerm`s on each read.
    """

    n: int
    a: int
    b: int
    c: int
    d: int
    q: int  # ad - bc
    base_sum: Fraction  # S(a, b)
    rows: tuple[tuple[int, ...], ...]

    @property
    def base_expected(self) -> Fraction:  # E(a, b) = b / (d q)
        return Fraction(self.b, self.d * self.q)

    @property
    def terms(self) -> tuple[KnoppTerm, ...]:
        e = Fraction(self.b, self.n * self.d * self.q)  # E[r, j] = m^2 e
        return tuple(KnoppTerm(r, j, k, m, (a1, b1, c1, d1), Fraction(num, b1), m * m * e, a1 * d1 - b1 * c1)
                     for r, j, k, m, a1, b1, c1, d1, num in self.rows)


def decompose(
    a: int, b: int, c: int, d: int, n: int, require_theorem1: bool = False
) -> Decomposition:
    """Evaluate every (r, j) term eagerly as a row, in (r, j) lexicographic order.

    The identity needs nothing beyond b, d >= 1, gcd(c, d) = 1 and ad != bc,
    so arbitrary bases are accepted; `require_theorem1` opts in to the exact
    premise check and raises PremiseError naming the failing inequality.
    Each term is a pure function of (a, b, c, d, n, r, j), so the list is
    deterministic however the terms are evaluated.
    """
    require_farey_point(b, c, d)
    require_range("n", n, 1, N_LIMIT)
    require_range("a", a)
    q = a * d - b * c
    if q == 0:
        raise ValueError("degenerate base: ad = bc")
    if require_theorem1:
        failure = theorem1_premise_failure(b, c, d, a, n)
        if failure is not None:
            raise PremiseError(failure)
    base_sum = 12 * dedekind_fast(a, b)
    rows = []
    for r in divisors(n):
        rb, rd = r * b, r * d
        num_a, num_c = (n // r) * a, (n // r) * c  # (n/r) a + j b and (n/r) c + j d at j = 0
        for j in range(r):
            k = gcd(num_a, rb)
            m = gcd(num_c, rd)
            b1 = rb // k
            s = dedekind_fast(num_a, rb)  # 12 s = N / b', its denominator divides 12 b'
            rows.append((r, j, k, m, num_a // k, b1, num_c // m, rd // m,
                         12 * b1 // s.denominator * s.numerator))
            num_a += b
            num_c += d
    return Decomposition(n, a, b, c, d, q, base_sum, tuple(rows))


def identity_discrepancy(dec: Decomposition) -> Fraction:
    """sum of S[r, j] minus sigma(n) S(a, b); zero exactly when the identity holds."""
    total = sum((Fraction(num, b1) for _, _, _, _, _, b1, _, _, num in dec.rows), Fraction(0))
    return total - sigma(dec.n) * dec.base_sum


def verify_identity(dec: Decomposition) -> bool:
    """Exact check of the decomposition identity (true for any correct build)."""
    return identity_discrepancy(dec) == 0


def _deviation_pairs(dec: Decomposition) -> list[tuple[int, int, int, int, int]]:
    """Per row, (r, j, m, x, y) with |S[r,j]/E[r,j] - 1| = x / y, y > 0, unreduced.

    S[r,j] = N / b' and E[r,j] = m^2 b / (n d q), so x = |N n d q - b' m^2 b|
    and y = b' m^2 b, which is positive whatever the sign of q.
    """
    ndq, b = dec.n * dec.d * dec.q, dec.b
    pairs = []
    for r, j, _, m, _, b1, _, _, num in dec.rows:
        y = b1 * m * m * b
        pairs.append((r, j, m, abs(num * ndq - y), y))
    return pairs


def deviation_profile(dec: Decomposition) -> list[tuple[int, int, int, Fraction]]:
    """Per-term (r, j, m, |S[r,j]/E[r,j] - 1|), in the decomposition's order."""
    return [(r, j, m, Fraction(x, y)) for r, j, m, x, y in _deviation_pairs(dec)]


def three_term_residual(ctx: FareyContext) -> Fraction:
    """S(a,b) - S(c,d) - (b^2 + d^2 + q^2)/(bdq) + 3.

    By the three-term relation this equals S(t, q), t = -(u a + v b) mod q
    for any u, v with u c + v d = 1, so the caller may rely on |result| < q.
    """
    b, c, d, a, q = ctx.b, ctx.c, ctx.d, ctx.a, ctx.q
    return 12 * dedekind_fast(a, b) - 12 * dedekind_fast(c, d) - Fraction(b * b + d * d + q * q, b * d * q) + 3
