"""Shared random generators for neighbour contexts and decomposition bases.

Everything here re-derives the admission windows from scratch (isqrt-based)
so that test inputs do not depend on the predicates under test.
"""

from __future__ import annotations

import random
from math import gcd, isqrt


def alpha_premise_holds(b: int, d: int, n: int) -> bool:
    """alpha >= n^(3/2) + n, via the squared form used as a generation oracle."""
    lhs = b - d ** 3 * n * n * (n + 1)
    return lhs >= 0 and lhs * lhs >= 4 * d ** 6 * n ** 5


def window_max_q(b: int, d: int, n: int) -> int:
    """Largest q with n^2 (q+d)^2 d <= b (may be <= 0)."""
    return isqrt(b // (n * n * d)) - d


def prime_to(m: int, start: int) -> int:
    """The first x >= start with gcd(x, m) = 1."""
    return next(x for x in range(start, start + m + 1) if gcd(x, m) == 1)


def draw_context(
    rng: random.Random,
    b_lo: int,
    b_hi: int,
    n: int = 1,
    d_hi: int = 9,
) -> tuple[int, int, int, int]:
    """(b, c, d, a) with gcd(a, b) = 1 inside the n-window of a Farey point.

    n = 1 yields a plain right-half Farey neighbour; n > 1 additionally
    requires the alpha premise, so every draw satisfies the exact
    Theorem-1 premises by construction.
    """
    while True:
        b = rng.randint(b_lo, b_hi)
        if b < 4:
            continue
        d = rng.randint(1, d_hi)
        if d ** 3 >= b or not alpha_premise_holds(b, d, n):
            continue
        q_max = window_max_q(b, d, n)
        if q_max < 1:
            continue
        c = rng.randint(0, d - 1)
        if gcd(c, d) != 1:
            continue
        a_lo = (b * c) // d + 1
        a_hi = (b * c + q_max) // d
        if a_hi < a_lo:
            continue
        a = rng.randint(a_lo, a_hi)
        q = a * d - b * c
        if q < 1 or q > q_max or gcd(a, b) != 1:
            continue
        return b, c, d, a


def draw_base(
    rng: random.Random,
    b_hi: int,
    n_hi: int,
    d_hi: int = 12,
) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, n) for identity fuzzing: gcd(a, b) = 1, ad != bc,
    no neighbour condition whatsoever."""
    while True:
        b = rng.randint(1, b_hi)
        a = rng.randint(1, b_hi)
        if gcd(a, b) != 1:
            continue
        d = rng.randint(1, d_hi)
        c = rng.randint(0, d - 1)
        if gcd(c, d) != 1:
            continue
        if a * d == b * c:
            continue
        n = rng.randint(1, n_hi)
        return a, b, c, d, n
