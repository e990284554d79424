"""Exact integer arithmetic and elementary multiplicative number theory.

Every value here is an int or a tuple of ints; floating point never
participates in a decision anywhere in the package.  The rest of the
package uses `math.gcd` and `math.isqrt` directly, and its rational values
are `fractions.Fraction`, which keeps numerator and denominator in lowest
terms with a positive denominator after every operation.  `require_range`
and `require_coprime` are the package's one home for its range and
coprimality rules, and for their texts.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, primes ascending, by trial division."""
    require_range("n", n, 1)
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def require_range(name: str, value: int, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError unless value is an int in [lo, hi], >= lo when hi is None, or any int when lo is None."""
    if type(value) is not int or lo is not None and (value < lo or hi is not None and value > hi):
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def require_coprime(x: int, y: int, rule: str) -> None:
    """Raise ValueError("<rule>: gcd(x, y) = g") unless gcd(x, y) = 1."""
    g = math.gcd(x, y)
    if g != 1:
        raise ValueError(f"{rule}: gcd({x}, {y}) = {g}")


def d_part(r: int, d: int) -> int:
    """Largest divisor of r composed only of primes that also divide d.

    Iterated gcd peeling: each pass moves every shared prime's full power
    out of r, so no factorization is needed.
    """
    require_range("r", r, 1)
    require_range("d", d, 1)
    out = 1
    g = math.gcd(r, d)
    while g > 1:
        out *= g
        r //= g
        g = math.gcd(r, g)
    return out


def euler_phi(n: int) -> int:
    """Euler's totient function."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    total = 1
    for p, e in factorize(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


@lru_cache(maxsize=1 << 14)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending, by trial division: those up to
    sqrt(n), then their cofactors, so `factorize`'s cache keeps nothing of n.
    Cached, and a tuple so that no caller can change the value every later
    caller gets; the decomposition and the sweep read it at n, the sweep's gcd
    sieve at each r d, all up to their limit of 10^4."""
    require_range("n", n, 1)
    small = [e for e in range(1, math.isqrt(n) + 1) if n % e == 0]
    return tuple(small + [n // e for e in reversed(small) if e * e != n])
