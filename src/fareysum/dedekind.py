"""Dedekind sums, evaluated exactly.

s(a, b) is the classical sawtooth-product sum over k = 1..b, and
S(a, b) = 12 s(a, b) is the normalized form used everywhere else in the
package.  The direct summation is kept as a test oracle with an O(b) cost
cap.  The fast path is the integer continued-fraction form: for
0 < a < b coprime, with q_1, ..., q_t the partial quotients of b/a
(Euclid on (b, a) takes t division steps) and a* = a^-1 mod b,

    12 s(a, b) = sum_i (-1)^(i+1) q_i + (a + a*) / b - (3 if t is odd else 1)

(Hickerson, J. reine angew. Math. 290 (1977); Knuth, TAOCP vol. 2,
section 3.3.3; Rademacher-Grosswald, *Dedekind Sums* (1972)).  The Euclid
pass also yields a*, with no second pass through `pow(a, -1, b)`; it runs
in O(log b) integer steps, builds one `Fraction` per call, and agrees with
the oracle bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .numtheory import require_range

NAIVE_LIMIT = 10 ** 6


def dedekind_naive(a: int, b: int) -> Fraction:
    """s(a, b) by direct summation; refuses b beyond `NAIVE_LIMIT`.

    For b not dividing x, ((x/b)) = (2(x mod b) - b) / (2b), so the whole
    sum is an integer over the common denominator 4b^2.
    """
    require_range("b", b, 1, NAIVE_LIMIT)
    total = 0
    m = 0  # a*k mod b, updated incrementally
    for k in range(1, b):
        m = (m + a) % b
        if m:
            total += (2 * k - b) * (2 * m - b)
    return Fraction(total, 4 * b * b)


def dedekind_fast(a: int, b: int) -> Fraction:
    """s(a, b) in O(log b) integer steps, via the continued fraction of b/a.

    Imprimitive input reduces first via s(ag, bg) = s(a, b).  The loop runs
    Euclid on (b, a) two steps at a time, accumulating the alternating sum
    of the partial quotients and a's coefficients; it leaves through the
    first exit when t is odd and through the second when t is even.
    """
    require_range("b", b, 1)
    require_range("a", a)
    a %= b
    if a == 0:
        return Fraction(0)
    g = gcd(a, b)
    if g != 1:
        a, b = a // g, b // g
    alternating = 0
    x, y = b, a
    ux, uy = 0, 1  # x = -ux a and y = uy a (mod b)
    while True:
        q = x // y
        x -= q * y
        alternating += q
        if not x:  # y = 1 = uy a
            correction, inverse = 3, uy % b
            break
        ux += q * uy
        q = y // x
        y -= q * x
        alternating -= q
        if not y:  # x = 1 = -ux a
            correction, inverse = 1, -ux % b
            break
        uy += q * ux
    return Fraction((alternating - correction) * b + a + inverse, 12 * b)
