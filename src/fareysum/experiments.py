"""Worked-example and table reproductions.

A scan walks a range of moduli b, picks a neighbour a just below the
admissible window's upper edge for each (b, c), decomposes, and aggregates
the mean relative deviations

    M1 = (1 / sigma(n)) * sum over all terms of |S[r,j]/E[r,j] - 1|
    M2 = (1 / n)        * sum over the m = 1 terms of the same

against the table's fixed thresholds.  All record values stay exact rationals;
rounding happens only when a report is rendered, so two runs of the same
config produce byte-identical CSV and JSON.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import chain, islice
from math import gcd, isqrt, lcm
from typing import Iterator, NamedTuple

from .farey import require_reduced_c, satisfies_theorem1_premises
from .knopp import Decomposition, _deviation_pairs, decompose, deviation_profile, require_n_in_range
from .numtheory import sigma
from .pool import ordered_map, worker_count

GENERATOR_ID = "splitmix64"

B_MODE_CONSECUTIVE = "consecutive"
B_MODE_RANDOM = "random"

RULED_OUT_NONE = "none"
RULED_OUT_GCD = "gcd_failed"
RULED_OUT_PREMISES = "premises_failed"

# The table's thresholds: M1 >= 5% and M1 < 1%, M2 >= 10% and M2 < 1%.
THRESHOLDS = {"t1_hi": Fraction(5, 100), "t1_lo": Fraction(1, 100),
              "t2_hi": Fraction(10, 100), "t2_lo": Fraction(1, 100)}

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream of 64-bit words from `seed`, for reproducible b draws."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def format_decimal(value: Fraction, sig_digits: int = 12) -> str:
    """Decimal rendering of an exact rational, round-half-even."""
    if sig_digits < 1:
        raise ValueError("sig_digits must be >= 1")
    with localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def format_fixed(value: Fraction, places: int) -> str:
    """Fixed-point rendering with exact round-half-even at `places` decimals."""
    scaled = value * 10 ** places
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    if places == 0:
        return f"{sign}{q}"
    return f"{sign}{q // 10 ** places}.{q % 10 ** places:0{places}d}"


class _ExperimentFields(NamedTuple):
    n: int
    d: int
    c_list: tuple[int, ...]
    b_start: int
    b_count: int
    b_mode: str = B_MODE_CONSECUTIVE
    rng_seed: int = 0


class ExperimentConfig(_ExperimentFields):
    """Scan parameters; the thresholds are the fixed `THRESHOLDS`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentConfig:
        n, d, c_list, b_start, b_count, b_mode, rng_seed = _ExperimentFields(*args, **kwargs)
        c_list = tuple(c_list)
        require_n_in_range(n)
        if d < 1:
            raise ValueError("d must be a positive integer")
        if b_start < 1 or b_count < 0:
            raise ValueError("b_start must be >= 1 and b_count >= 0")
        if b_mode not in (B_MODE_CONSECUTIVE, B_MODE_RANDOM):
            raise ValueError(f"unknown b_mode: {b_mode!r}")
        if not c_list:
            raise ValueError("c_list must not be empty")
        for i, c in enumerate(c_list):
            require_reduced_c(c, d)
            if c in c_list[:i]:
                raise ValueError(f"c = {c} is repeated in c_list")
        return super().__new__(cls, n, d, c_list, b_start, b_count, b_mode, rng_seed)

    # _replace builds through _make, so both validate
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class ScanRecord(NamedTuple):
    """Outcome for one (b, c) cell; a, m1, m2 are absent when ruled out."""

    b: int
    c: int
    a: int | None
    m1: Fraction | None
    m2: Fraction | None
    ruled_out_reason: str


_SHARES = ("m1_ge_t1_hi", "m1_lt_t1_lo", "m2_ge_t2_hi", "m2_lt_t2_lo")


class ScanAggregate(NamedTuple):
    """Per-c tallies over retained records; the four counts follow `_SHARES`."""

    c: int
    retained: int
    ruled_out: int
    m1_ge_t1_hi: int
    m1_lt_t1_lo: int
    m2_ge_t2_hi: int
    m2_lt_t2_lo: int

    def percent(self, count: int) -> Fraction | None:
        """count / retained as an exact percentage; None for an empty cell."""
        if self.retained == 0:
            return None
        return Fraction(100 * count, self.retained)

    def shares(self) -> list[str | None]:
        """The four percentages at one decimal, in `_SHARES` order; None for an empty cell."""
        pcts = (self.percent(getattr(self, name)) for name in _SHARES)
        return [None if p is None else format_fixed(p, 1) for p in pcts]


class ScanReport(NamedTuple):
    """All records in (c, b) order plus per-c aggregates, with the config echoed."""

    config: ExperimentConfig
    records: tuple[ScanRecord, ...]
    aggregates: tuple[ScanAggregate, ...]


def select_neighbour(b: int, c: int, d: int, n: int) -> tuple[int | None, str]:
    """The scan's a-choice: floor(b*c/d + alpha/n) minus 1, else minus 2.

    The floor is exact: b*c/d + alpha/n = (b c n d + sqrt(b d)) / (n d^2),
    and replacing sqrt(b d) by isqrt(b d) cannot move the floor across an
    integer.  Returns (a, "none"), or (None, reason) when both candidates
    fail the coprimality or premise checks.  A b <= d^3 fails the alpha
    premise (b > d^3 n^2 (n+1)) whatever a is, so it is ruled out at once.
    """
    if b < 1 or d < 1 or n < 1:
        raise ValueError("b, d, n must be positive integers")
    if d ** 3 >= b:
        return None, RULED_OUT_PREMISES
    f = (b * c * n * d + isqrt(b * d)) // (n * d * d)
    saw_coprime = False
    for a in (f - 1, f - 2):
        if gcd(a, b) != 1:
            continue
        saw_coprime = True
        if satisfies_theorem1_premises(b, c, d, a, n):
            return a, RULED_OUT_NONE
    return None, (RULED_OUT_PREMISES if saw_coprime else RULED_OUT_GCD)


def mean_deviations(dec: Decomposition) -> tuple[Fraction, Fraction]:
    """(M1, M2): mean deviation over all sigma(n) terms / over the n terms with m = 1.

    Each mean is one `Fraction`, summed from the terms' exact integer pairs
    over the lcm of their denominators.
    """
    devs = _deviation_pairs(dec)
    ones = [dev for dev in devs if dev[2] == 1]
    if len(ones) != dec.n:
        raise ValueError(
            f"{len(ones)} terms have m = 1, expected exactly n = {dec.n}"
        )
    means = []
    for group, size in ((devs, sigma(dec.n)), (ones, dec.n)):
        den = lcm(*(y for _, _, _, _, y in group))
        means.append(Fraction(sum(x * (den // y) for _, _, _, x, y in group), den * size))
    return means[0], means[1]


def scan_b_values(config: ExperimentConfig) -> list[int]:
    """The moduli a scan visits; random mode draws b_count values uniformly
    from [b_start, 10 * b_start), i.e. the same order of magnitude."""
    if config.b_mode == B_MODE_CONSECUTIVE:
        return list(range(config.b_start, config.b_start + config.b_count))
    span = 9 * config.b_start
    limit = (1 << 64) - (1 << 64) % span  # words at or above it would bias u % span
    words = (u for u in splitmix64(config.rng_seed) if u < limit)
    return [config.b_start + u % span for u in islice(words, config.b_count)]


def _scan_cells(cells: list[tuple[ExperimentConfig, int, int]]) -> list[ScanRecord]:
    """The records of a run of (config, c, b) cells, in order."""
    records = []
    for config, c, b in cells:
        a, reason = select_neighbour(b, c, config.d, config.n)
        m1 = m2 = None
        if a is not None:
            # select_neighbour has just checked the theorem 1 premises for this a
            m1, m2 = mean_deviations(decompose(a, b, c, config.d, config.n))
        records.append(ScanRecord(b, c, a, m1, m2, reason))
    return records


def _aggregate(config: ExperimentConfig, records: tuple[ScanRecord, ...]) -> tuple[ScanAggregate, ...]:
    t1_hi, t1_lo, t2_hi, t2_lo = THRESHOLDS.values()
    out = []
    for c in config.c_list:
        rows = [rec for rec in records if rec.c == c]
        kept = [rec for rec in rows if rec.ruled_out_reason == RULED_OUT_NONE]
        out.append(
            ScanAggregate(
                c=c,
                retained=len(kept),
                ruled_out=len(rows) - len(kept),
                m1_ge_t1_hi=sum(1 for r in kept if r.m1 >= t1_hi),
                m1_lt_t1_lo=sum(1 for r in kept if r.m1 < t1_lo),
                m2_ge_t2_hi=sum(1 for r in kept if r.m2 >= t2_hi),
                m2_lt_t2_lo=sum(1 for r in kept if r.m2 < t2_lo),
            )
        )
    return tuple(out)


def run_scan(config: ExperimentConfig, jobs: int = 1) -> ScanReport:
    """Scan every (c, b) cell; records and aggregates come out in (c, b)
    order whatever the execution schedule, so reports are deterministic."""
    bs = scan_b_values(config)
    cells = [(config, c, b) for c in config.c_list for b in bs]
    # about eight runs of cells per worker, each run one task
    workers = worker_count(jobs, len(cells))
    size = max(1, len(cells) // (8 * workers))
    runs = [cells[i:i + size] for i in range(0, len(cells), size)]
    records = tuple(chain.from_iterable(ordered_map(_scan_cells, runs, workers)))
    return ScanReport(config, records, _aggregate(config, records))


SCAN_CSV_HEADER = "b,c,a,ruled_out,m1,m2"


def scan_csv_lines(report: ScanReport) -> list[str]:
    """CSV lines: header, records in (c, b) order, then `#agg,` footer rows
    (c, retained, ruled_out, then the four percentages at one decimal)."""
    lines = [SCAN_CSV_HEADER]
    for rec in report.records:
        a = "" if rec.a is None else str(rec.a)
        m1 = "" if rec.m1 is None else format_decimal(rec.m1)
        m2 = "" if rec.m2 is None else format_decimal(rec.m2)
        lines.append(f"{rec.b},{rec.c},{a},{rec.ruled_out_reason},{m1},{m2}")
    for agg in report.aggregates:
        shares = ",".join(s or "" for s in agg.shares())
        lines.append(f"#agg,{agg.c},{agg.retained},{agg.ruled_out},{shares}")
    return lines


def write_scan_csv(report: ScanReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(scan_csv_lines(report)) + "\n")


def scan_report_to_dict(report: ScanReport) -> dict:
    """JSON-ready view: the config, each record and each aggregate carry their
    own fields, m1/m2 rendered to 12 significant digits; the config adds the
    thresholds and the generator, each aggregate its `pct_*` shares."""
    thresholds = {k: format_decimal(t) for k, t in THRESHOLDS.items()}
    return {
        "config": report.config._asdict() | {"thresholds": thresholds, "generator": GENERATOR_ID},
        "records": [
            rec._asdict() | {"m1": None if rec.m1 is None else format_decimal(rec.m1),
                             "m2": None if rec.m2 is None else format_decimal(rec.m2)}
            for rec in report.records
        ],
        "aggregates": [
            agg._asdict() | {"pct_" + name: s for name, s in zip(_SHARES, agg.shares())}
            for agg in report.aggregates
        ],
    }


def write_scan_json(report: ScanReport, path: str) -> None:
    import json  # here, not at the top: only a JSON report needs it
    with open(path, "w") as fh:
        json.dump(scan_report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


EXAMPLE_B = 31537789
EXAMPLE_C = 1
EXAMPLE_D = 9
EXAMPLE_A = 3504214
EXAMPLE_N = 12


class ExampleReport(NamedTuple):
    """The fully expanded worked example (b=31537789, c=1, d=9, a=3504214, n=12)."""

    decomposition: Decomposition
    deviations: tuple[tuple[int, int, int, Fraction], ...]
    max_deviation: Fraction
    max_at: tuple[int, int]
    mean_deviation: Fraction

    @property
    def sum_value(self) -> Fraction:
        return self.decomposition.base_sum

    @property
    def expected(self) -> Fraction:
        return self.decomposition.base_expected


def run_example() -> ExampleReport:
    """Decompose the worked example and collect its deviation statistics."""
    dec = decompose(EXAMPLE_A, EXAMPLE_B, EXAMPLE_C, EXAMPLE_D, EXAMPLE_N, require_theorem1=True)
    devs = tuple(deviation_profile(dec))
    r, j, _, value = max(devs, key=lambda t: t[3])
    return ExampleReport(dec, devs, value, (r, j), mean_deviations(dec)[0])
