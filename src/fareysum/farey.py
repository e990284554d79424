"""Farey points and Farey neighbours, decided by exact integer predicates.

alpha = sqrt(b / d^3) is never materialized as a number.  Every condition
involving it is rewritten as a polynomial inequality in b, d, n, q by
isolating the radical and squaring (with the sign precondition checked
first), so boundary cases are classified exactly.  With q = ad - bc:

    q/d <= alpha - 1      <=>  d (q + d)^2 <= b
    q/d <= alpha/n - 1    <=>  n^2 (q + d)^2 d <= b
    alpha >= n^(3/2) + n  <=>  L >= 0 and L^2 >= 4 d^6 n^5,
                               where L = b - d^3 n^2 (n + 1)

Only right-half neighbours (q > 0, hence S(a, b) > 0) are supported.
"""

from __future__ import annotations

from typing import NamedTuple

from .numtheory import require_coprime, require_range


class PremiseError(ValueError):
    """A required exact inequality does not hold."""


def require_reduced_c(c: int, d: int) -> None:
    """Reject a Farey numerator c unless c lies in [0, d) and c/d is reduced."""
    require_range("c", c, 0, d - 1)
    require_coprime(c, d, "c/d must be reduced")


def require_farey_point(b: int, c: int, d: int) -> None:
    """Reject b*c/d unless b, d >= 1 and c/d is reduced; c may lie outside [0, d)."""
    require_range("b", b, 1)
    require_range("d", d, 1)
    require_range("c", c)
    require_coprime(c, d, "c/d must be reduced")


def _window_failure(b: int, c: int, d: int, a: int, n: int) -> str | None:
    """Reject data that is not a Farey point with d^3 < b, a prime to b and n >= 1;
    then name the failing half of 0 < q/d <= alpha/n - 1, or None."""
    require_farey_point(b, c, d)
    if d ** 3 >= b:
        raise ValueError(f"Farey order out of range: d^3 = {d ** 3} >= b = {b}")
    require_range("a", a)
    require_coprime(a, b, "a must be prime to b")
    require_range("n", n, 1)
    q = a * d - b * c
    if q <= 0:
        return f"strict positivity fails: q = ad - bc = {q} <= 0"
    window = n * n * (q + d) ** 2 * d
    if window > b:
        return f"admissible window fails: n^2 (q+d)^2 d = {window} > b = {b} (q={q})"
    return None


class FareyContext(NamedTuple):
    """A Farey neighbour a of the point b*c/d, with c in [0, d) and q = ad - bc > 0."""

    b: int
    c: int
    d: int
    a: int
    q: int


def farey_context(b: int, c: int, d: int, a: int) -> FareyContext:
    """Build a validated neighbour context, normalizing c into [0, d).

    Shifting c by t*d moves the Farey point by t*b, so a shifts by the same
    multiple of b (harmless by periodicity of S); q is unchanged, and so is
    every condition `is_farey_neighbour` checks.
    """
    failure = _window_failure(b, c, d, a, 1)
    if failure is not None:
        raise ValueError(f"a is not a right-half Farey neighbour: {failure}")
    t = c // d
    return FareyContext(b, c - t * d, d, a - t * b, a * d - b * c)


def is_farey_neighbour(b: int, c: int, d: int, a: int) -> bool:
    """Exact test of 0 < a - b*c/d <= alpha - 1, i.e. q > 0 and d(q+d)^2 <= b.

    c is not required to lie in [0, d): reduced quadruples arising from
    decompositions may carry c >= d, and the predicate is unaffected.
    """
    return _window_failure(b, c, d, a, 1) is None


def theorem1_premise_failure(b: int, c: int, d: int, a: int, n: int) -> str | None:
    """Name of the first failing premise inequality, or None if all hold."""
    window = _window_failure(b, c, d, a, n)
    lhs = b - d ** 3 * n * n * (n + 1)
    if lhs < 0 or lhs * lhs < 4 * d ** 6 * n ** 5:
        return (
            "alpha lower bound fails: need b - d^3 n^2 (n+1) >= 0 and "
            f"(b - d^3 n^2 (n+1))^2 >= 4 d^6 n^5 (b={b}, d={d}, n={n})"
        )
    return window


def satisfies_theorem1_premises(b: int, c: int, d: int, a: int, n: int) -> bool:
    """Exact test of alpha >= n^(3/2) + n together with 0 < q/d <= alpha/n - 1."""
    return theorem1_premise_failure(b, c, d, a, n) is None
