"""Counting the multiplicities m(r, j) = gcd((n/r) c + j d, r d).

A(n, m) is the number of pairs (r, j) with r | n, 0 <= j < r whose
multiplicity equals m.  Three independent routes are kept side by side:
direct enumeration, the divisor-sum formula

    A(n, m) = sum over m' | r | n', (n/r, d) = delta of
              (r/m')_{d'} phi((r/m')_{d'}^perp)

with delta = (m, d), n' = n/delta, m' = m/delta, d' = d/delta, and the
closed form n/m.  The sweep cross-checks all three over configurable
bounds; its report serializes as CSV.

The brute route reads one gcd for each of the sigma(n) pairs, so it stays
independent of Lemma 1.  For r | n, the (n/r) c + j d (j < r) are the
residues t + j' d mod r d (j' < r, t = (n/r) c mod d) in another order, so
their gcds with r d are T[t::d] of T[x] = gcd(x, r d), built by a divisor
sieve (T[::e] = e for each e | r d, ascending) while the (n, d) block's
sigma(n) d entries stay within _TABLE_LIMIT.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import chain, repeat
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .farey import require_reduced_c
from .numtheory import d_part, divisors, euler_phi, require_coprime, require_range
from .pool import ordered_map

BRUTE_LIMIT = 10 ** 4
_TABLE_LIMIT = 1 << 16
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


@lru_cache(maxsize=1)
def _gcd_tables(n: int, d: int) -> list[tuple[int, list[int]]]:
    """(n/r, T) for each r | n, T[x] = gcd(x, r d) for x < r d, by a divisor
    sieve: the last e | r d written at x is the largest that divides x.  One
    (n, d) block's tables are kept; the next block's evict them."""
    tables = []
    for r in divisors(n):
        table = [1] * (r * d)
        for e in sorted({a * b for a in divisors(r) for b in divisors(d)})[1:]:
            table[::e] = [e] * (r * d // e)
        tables.append((n // r, table))
    return tables


def multiplicity_histogram(n: int, c: int, d: int) -> Counter:
    """Tally of m(r, j) over all r | n, 0 <= j < r (sigma(n) pairs in total):
    r's gcds are T[(n/r) c mod d::d] of its sieve table in `_gcd_tables` while
    sigma(n) d <= _TABLE_LIMIT, else gcd runs per pair; one gcd per pair either way."""
    require_range("n", n, 1)
    require_range("c", c)
    require_range("d", d, 1)
    divs = divisors(n)
    if sum(divs) * d <= _TABLE_LIMIT:
        return Counter(chain.from_iterable(table[k * c % d::d] for k, table in _gcd_tables(n, d)))
    return Counter(chain.from_iterable(
        map(gcd, range((n // r) * c, (n // r) * c + r * d, d), repeat(r * d)) for r in divs))


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


def _n_blocks(n: int, max_d: int) -> Iterator[tuple]:
    """One block per d, (n, d, expected, cs, bad): (m, formula, n/m) for each m | n,
    the c prime to d, and bad, which maps each c whose brute counts (in m order) are
    not all n/m to them, or every c if the formula's are not.  It stands for
    tau(n) phi(d) rows, in (c, m) order, and ships little more than cs."""
    divs = divisors(n)
    closed = [n // m for m in divs]
    for d in range(1, max_d + 1):
        cs = [c for c in range(d) if gcd(c, d) == 1]
        # the formula does not depend on c, so compute it once per (n, d, m)
        formula = [count_A_formula(CountingQuery(n, m, cs[0], d)) for m in divs]
        counts = ((c, list(map(multiplicity_histogram(n, c, d).__getitem__, divs))) for c in cs)
        bad = {c: brute for c, brute in counts if brute != closed or formula != closed}
        yield n, d, list(zip(divs, formula, closed)), cs, bad


def _c_rows(n: int, d: int, expected: list, c: int, brute: list | None) -> list[tuple]:
    """One c's rows of a block, as tuples with `SweepRow`'s fields; brute None is n/m."""
    if brute is None:
        brute = [k for _, _, k in expected]
    return [(n, m, d, c, b, f, k, 1 if b == f == k else 0)
            for (m, f, k), b in zip(expected, brute)]


def _sweep_blocks(max_n: int, max_d: int, jobs: int) -> Iterator[tuple]:
    """Every block of the sweep, ordered by (n, d).  The bounds are checked
    here, before any work starts."""
    require_range("max_n", max_n, 1, BRUTE_LIMIT)
    require_range("max_d", max_d, 1, BRUTE_LIMIT)
    return chain.from_iterable(
        ordered_map(partial(_n_blocks, max_d=max_d), range(1, max_n + 1), jobs))


def sweep_rows(max_n: int, max_d: int) -> Iterator[SweepRow]:
    """Every check row, ordered by (n, d, c, m), computed in this process."""
    return (SweepRow._make(row) for n, d, expected, cs, bad in _sweep_blocks(max_n, max_d, 1)
            for c in cs for row in _c_rows(n, d, expected, c, bad.get(c)))


def verify_theorem2(
    max_n: int = SWEEP_MAX_N_DEFAULT,
    max_d: int = SWEEP_MAX_D_DEFAULT,
    jobs: int = 1,
    csv_path: str | None = None,
) -> SweepReport:
    """Cross-check brute = formula = n/m over all n <= max_n, m | n, d <= max_d,
    c in [0, d) prime to d, in one pass over the sweep's blocks.  Only a c
    that disagrees gets rows, and only their violations become `SweepRow`s,
    in (n, d, c, m) order.  With `csv_path`, every row is streamed to that CSV.
    """
    blocks = _sweep_blocks(max_n, max_d, jobs)
    violations: list[SweepRow] = []

    def checked() -> Iterator[tuple]:
        for n, d, expected, cs, bad in blocks:
            violations.extend(SweepRow._make(row) for c, brute in bad.items()
                              for row in _c_rows(n, d, expected, c, brute) if not row[-1])
            yield n, d, expected, cs, bad

    if csv_path is None:
        rows_checked = sum(len(expected) * len(cs) for _, _, expected, cs, _ in checked())
    else:
        rows_checked = write_sweep_csv(csv_path, checked())
    return SweepReport(max_n, max_d, rows_checked, tuple(violations))


SWEEP_CSV_HEADER = SweepRow._fields
_SWEEP_CSV_LINE = ",".join(["%d"] * len(SWEEP_CSV_HEADER)) + "\r\n"


def write_sweep_csv(path: str, blocks: Iterable[tuple]) -> int:
    """Stream `verify_theorem2`'s private (n, d) blocks to CSV as their rows,
    ok as 1/0, in csv's default dialect; returns the number of rows written.
    It keeps its name only as the benchmark's `counting.csv` layer."""
    rows = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_CSV_HEADER) + "\r\n")
        for n, d, expected, cs, bad in blocks:
            # a c not in bad reads n,m,d,c,k,k,k,1 with k = n/m: str(c) joined into these parts
            heads = [f"{n},{m},{d}," for m, _, _ in expected]
            tails = [f",{k},{k},{k},1\r\n" for _, _, k in expected]
            parts = [tail + head for tail, head in zip([""] + tails, heads + [""])]
            fh.write("".join([str(c).join(parts) if c not in bad else
                              "".join(map(_SWEEP_CSV_LINE.__mod__, _c_rows(n, d, expected, c, bad[c])))
                              for c in cs]))
            rows += len(expected) * len(cs)
    return rows
