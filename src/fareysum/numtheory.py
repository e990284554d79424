"""Exact integer arithmetic and elementary multiplicative number theory.

Every value here is an int or a tuple of ints; floating point never
participates in a decision anywhere in the package.  The rest of the
package uses `math.gcd` and `math.isqrt` directly, and its rational values
are `fractions.Fraction`, which keeps numerator and denominator in lowest
terms with a positive denominator after every operation.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Trial-division wheel past 2 and 3: candidates 5, 7, 11, 13, ... step 2, 4, 2, 4, ...
_WHEEL = (2, 4)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1, primes ascending, by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p, step = 5, 0
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += _WHEEL[step]
        step ^= 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


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
    if r < 1 or d < 1:
        raise ValueError("d_part expects positive integers")
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
    """All positive divisors of n, ascending.  Cached, and a tuple so that no
    caller can change the value every later caller gets; the cache covers
    every n up to the sweep's and the decomposition's limit of 10^4."""
    divs = [1]
    for p, e in factorize(n):
        divs = [q * p ** k for q in divs for k in range(e + 1)]
    return tuple(sorted(divs))
