"""Counting the multiplicities m(r, j) = gcd((n/r) c + j d, r d).

A(n, m) is the number of pairs (r, j) with r | n, 0 <= j < r whose
multiplicity equals m.  Three independent routes are kept side by side:
direct enumeration, the divisor-sum formula

    A(n, m) = sum over m' | r | n', (n/r, d) = delta of
              (r/m')_{d'} phi((r/m')_{d'}^perp)

with delta = (m, d), n' = n/delta, m' = m/delta, d' = d/delta, and the
closed form n/m.  The sweep cross-checks all three over configurable
bounds; its report serializes as CSV.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import chain, count, repeat
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .farey import require_reduced_c
from .numtheory import d_part, divisors, euler_phi, require_coprime, require_range
from .pool import ordered_map

BRUTE_LIMIT = 10 ** 4
SWEEP_MAX_N_DEFAULT = 200
SWEEP_MAX_D_DEFAULT = 50


class _CountingFields(NamedTuple):
    n: int
    m: int
    c: int
    d: int


class CountingQuery(_CountingFields):
    """Parameters (n, m, c, d) of one multiplicity count, with m | n."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CountingQuery:
        self = super().__new__(cls, *args, **kwargs)
        require_range("n", self.n, 1)
        require_range("d", self.d, 1)
        require_range("m", self.m, 1, self.n)
        if self.n % self.m != 0:
            raise ValueError(f"m = {self.m} must be a positive divisor of n = {self.n}")
        require_reduced_c(self.c, self.d)
        return self

    # _replace builds through _make, so both validate
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def _lemma1(r: int, d: int) -> int:
    """Lemma 1's count (r)_d phi((r)_d^perp), without `lemma1_count`'s checks."""
    part = d_part(r, d)
    return part * euler_phi(r // part)


def lemma1_count(r: int, d: int, s: int) -> int:
    """#{k mod r : gcd(s + k d, r) = 1} = (r)_d phi((r)_d^perp), gcd(s, d) = 1."""
    require_range("r", r, 1)
    require_range("d", d, 1)
    require_coprime(s, d, "s must be prime to d")
    return _lemma1(r, d)


def multiplicity_histogram(n: int, c: int, d: int) -> Counter:
    """Tally of m(r, j) over all r | n, 0 <= j < r (sigma(n) pairs in total)."""
    return Counter(chain.from_iterable(
        map(gcd, range((n // r) * c, (n // r) * c + r * d, d), repeat(r * d))
        for r in divisors(n)
    ))


def count_A_brute(query: CountingQuery) -> int:
    """A(n, m) by direct enumeration of all sigma(n) pairs (r, j), for n <= BRUTE_LIMIT."""
    require_range("n", query.n, 1, BRUTE_LIMIT)
    return multiplicity_histogram(query.n, query.c, query.d)[query.m]


def count_A_formula(query: CountingQuery) -> int:
    """A(n, m) by the divisor-sum formula (independent of c)."""
    n, m, d = query.n, query.m, query.d
    delta = gcd(m, d)
    n1, m1, d1 = n // delta, m // delta, d // delta
    total = 0
    # the sum's m' | r | n' as r = m' s, s | n'/m': each term is Lemma 1's count at s
    for s in divisors(n1 // m1):
        if gcd(n // (m1 * s), d) == delta:
            total += _lemma1(s, d1)
    return total


def verify_lemma3(n1: int, n2: int, m: int, c: int, d: int) -> bool:
    """Multiplicativity: A(n1 n2, m) = A(n1, (m, n1)) A(n2, (m, n2))."""
    require_range("n1", n1, 1)
    require_range("n2", n2, 1)
    require_coprime(n1, n2, "n1 and n2 must be coprime")
    whole = count_A_formula(CountingQuery(n1 * n2, m, c, d))
    part1 = count_A_formula(CountingQuery(n1, gcd(m, n1), c, d))
    part2 = count_A_formula(CountingQuery(n2, gcd(m, n2), c, d))
    return whole == part1 * part2


class SweepRow(NamedTuple):
    """One (n, m, d, c) check of brute force vs formula vs n/m; ok is 1 if
    all three agree and 0 if not, as the CSV writes it."""

    n: int
    m: int
    d: int
    c: int
    brute: int
    formula: int
    closed_form: int
    ok: int


class SweepReport(NamedTuple):
    """Outcome of a full cross-check sweep; `violations` is expected empty."""

    max_n: int
    max_d: int
    rows_checked: int
    violations: tuple[SweepRow, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _n_rows(n: int, max_d: int) -> Iterator[list[tuple]]:
    """The check rows of one n, one block per d, each in (c, m) order.  A row
    is a plain tuple with the fields of `SweepRow`, which crosses a process
    pool and reaches the CSV writer far more cheaply than a `SweepRow`."""
    divs = divisors(n)
    for d in range(1, max_d + 1):
        cs = [c for c in range(d) if gcd(c, d) == 1]
        # the formula does not depend on c, so compute it once per (n, d, m)
        expected = [(m, count_A_formula(CountingQuery(n, m, cs[0], d)), n // m) for m in divs]
        block = []
        for c in cs:
            hist = multiplicity_histogram(n, c, d)
            block += [(n, m, d, c, (brute := hist[m]), formula, closed,
                       1 if brute == formula == closed else 0)
                      for m, formula, closed in expected]
        yield block


def _sweep_blocks(max_n: int, max_d: int, jobs: int) -> Iterator[list[tuple]]:
    """Every row block of the sweep, ordered by (n, d).  The bounds are
    checked here, before any work starts."""
    require_range("max_n", max_n, 1, BRUTE_LIMIT)
    require_range("max_d", max_d, 1, BRUTE_LIMIT)
    return chain.from_iterable(
        ordered_map(partial(_n_rows, max_d=max_d), range(1, max_n + 1), jobs))


def sweep_rows(max_n: int, max_d: int) -> Iterator[SweepRow]:
    """Every check row, ordered by (n, d, c, m), computed in this process."""
    return map(SweepRow._make, chain.from_iterable(_sweep_blocks(max_n, max_d, 1)))


def verify_theorem2(
    max_n: int = SWEEP_MAX_N_DEFAULT,
    max_d: int = SWEEP_MAX_D_DEFAULT,
    jobs: int = 1,
    csv_path: str | None = None,
) -> SweepReport:
    """Cross-check brute = formula = n/m over all n <= max_n, m | n, d <= max_d,
    c in [0, d) prime to d, in one pass over the sweep's row blocks.  Only a
    violation becomes a `SweepRow`; violations are collected in (n, d, c, m)
    order.  With `csv_path`, every row is streamed to that CSV as it is checked.
    """
    blocks = _sweep_blocks(max_n, max_d, jobs)
    violations: list[SweepRow] = []

    def checked() -> Iterator[list[tuple]]:
        for block in blocks:
            if not all(map(itemgetter(-1), block)):
                violations.extend(SweepRow._make(row) for row in block if not row[-1])
            yield block

    if csv_path is None:
        rows_checked = sum(map(len, checked()))
    else:
        rows_checked = write_sweep_csv(csv_path, chain.from_iterable(checked()))
    return SweepReport(max_n, max_d, rows_checked, tuple(violations))


SWEEP_CSV_HEADER = SweepRow._fields
_SWEEP_CSV_LINE = ",".join(["%d"] * len(SWEEP_CSV_HEADER)) + "\r\n"


def write_sweep_csv(path: str, rows: Iterable[tuple]) -> int:
    """Stream sweep rows (`SweepRow`s or tuples of the same fields, ok as
    1/0) to CSV; returns the number of rows written."""
    tally = count()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_CSV_HEADER) + "\r\n")
        # csv's default dialect for plain ints; zip advances the tally once
        # per row, inside writelines' own loop
        fh.writelines(map(_SWEEP_CSV_LINE.__mod__, map(itemgetter(0), zip(rows, tally))))
    return next(tally)
