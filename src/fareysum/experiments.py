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

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat
from math import gcd, isqrt
from operator import add
from typing import Iterator, NamedTuple

from .farey import require_farey_point, require_reduced_c, satisfies_theorem1_premises
from .knopp import N_LIMIT, Decomposition, _deviation_pairs, decompose, deviation_profile
from .numtheory import require_range, sigma
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

# A scan holds every record until its reports are written, about 550 bytes
# a cell at 1e8 (tracemalloc), so a scan at the limit holds ~0.55 GB per c.
B_COUNT_LIMIT = 10 ** 6


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream of 64-bit words from `seed`, for reproducible b draws."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


@lru_cache(maxsize=8)
def _context(prec: int) -> Context:
    return Context(prec=prec, rounding=ROUND_HALF_EVEN)


def format_decimal(value: Fraction, sig_digits: int = 12) -> str:
    """Decimal rendering of an exact rational, round-half-even."""
    require_range("sig_digits", sig_digits, 1)  # first: 12.0 would find the context of 12
    return str(_context(sig_digits).divide(value.numerator, value.denominator))


def format_fixed(value: Fraction, places: int) -> str:
    """Fixed-point rendering with exact round-half-even at `places` decimals."""
    digits = round(value * 10 ** places)  # exact, ties to even; .scaleb() would round to 28 digits
    return f"{Decimal(f'{digits}e-{places}'):f}"


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
        require_range("n", n, 1, N_LIMIT)
        require_range("d", d, 1)
        # a random b is one 64-bit word mod 9 b_start, so the span must fit in one word
        require_range("b_start", b_start, 1, (1 << 64) // 9 if b_mode == B_MODE_RANDOM else None)
        require_range("b_count", b_count, 0, B_COUNT_LIMIT)
        if b_mode not in (B_MODE_CONSECUTIVE, B_MODE_RANDOM):
            raise ValueError(f"unknown b_mode: {b_mode!r}")
        require_range("rng_seed", rng_seed, 0, _MASK64)
        if rng_seed and b_mode != B_MODE_RANDOM:  # an unused seed would still be echoed
            raise ValueError(f"rng_seed must be 0 unless b_mode is 'random', got {rng_seed}")
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
    require_farey_point(b, c, d)
    require_range("n", n, 1)
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
    """(M1, M2): mean deviation over all sigma(n) terms / over the n terms with m = 1,
    both summed in one pass from the terms' exact integer pairs."""
    # every y = b' m^2 b of a decomposition divides n (n d)^2 b^2, as b' | n b and m | n d
    den = dec.n * (dec.n * dec.d * dec.b) ** 2
    total = ones = count = 0
    for _, _, m, x, y in _deviation_pairs(dec):
        scale, rest = divmod(den, y)
        if rest:  # a row decompose never builds: widen den to lcm(den, y)
            widen = y // gcd(rest, y)
            den, total, ones = den * widen, total * widen, ones * widen
            scale = den // y
        part = x * scale
        total += part
        if m == 1:
            ones += part
            count += 1
    if count != dec.n:
        raise ValueError(f"{count} terms have m = 1, expected exactly n = {dec.n}")
    return Fraction(total, den * sigma(dec.n)), Fraction(ones, den * dec.n)


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
    """Every c's tallies, in one pass over the records."""
    t1_hi, t1_lo, t2_hi, t2_lo = THRESHOLDS.values()
    counts = {c: (0,) * 6 for c in config.c_list}  # retained, ruled_out, then the _SHARES counts
    for rec in records:
        m1, m2 = rec.m1, rec.m2
        hits = (0, 1, 0, 0, 0, 0) if m1 is None else (1, 0, m1 >= t1_hi, m1 < t1_lo, m2 >= t2_hi, m2 < t2_lo)
        counts[rec.c] = tuple(map(add, counts[rec.c], hits))
    return tuple(ScanAggregate(c, *tally) for c, tally in counts.items())


def run_scan(config: ExperimentConfig, jobs: int = 1) -> ScanReport:
    """Scan every (c, b) cell; records and aggregates come out in (c, b)
    order whatever the execution schedule, so reports are deterministic."""
    bs = scan_b_values(config)
    cells = [(config, c, b) for c in config.c_list for b in bs]
    # eight runs of cells per worker, each run one task, their sizes differing by at most one
    workers = worker_count(jobs, len(cells))
    count = max(1, min(len(cells), 8 * workers))
    runs = [cells[i * len(cells) // count:(i + 1) * len(cells) // count] for i in range(count)]
    records = tuple(chain.from_iterable(ordered_map(_scan_cells, runs, workers)))
    return ScanReport(config, records, _aggregate(config, records))


SCAN_CSV_HEADER = "b,c,a,ruled_out,m1,m2"


def _decimals(rec: ScanRecord) -> tuple[str | None, str | None]:
    """A record's m1 and m2 at 12 significant digits; None for a ruled-out record."""
    if rec.m1 is None:
        return None, None
    return format_decimal(rec.m1), format_decimal(rec.m2)


def scan_csv_lines(report: ScanReport) -> Iterator[str]:
    """CSV lines: header, records in (c, b) order, then `#agg,` footer rows
    (c, retained, ruled_out, then the four percentages at one decimal)."""
    yield SCAN_CSV_HEADER
    for rec in report.records:
        a = "" if rec.a is None else str(rec.a)
        m1, m2 = _decimals(rec)
        yield f"{rec.b},{rec.c},{a},{rec.ruled_out_reason},{m1 or ''},{m2 or ''}"
    for agg in report.aggregates:
        shares = ",".join(s or "" for s in agg.shares())
        yield f"#agg,{agg.c},{agg.retained},{agg.ruled_out},{shares}"


def write_scan_csv(report: ScanReport, path: str) -> None:
    """`scan_csv_lines`, each line ending in a newline, streamed through the file's buffer."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\n" for line in scan_csv_lines(report))


def _rendered(rec: ScanRecord) -> dict:
    """A record's fields, m1/m2 rendered to 12 significant digits, in field order."""
    return rec._asdict() | dict(zip(("m1", "m2"), _decimals(rec)))


def _report_head(report: ScanReport) -> dict:
    """The JSON view's config and aggregates: everything but the records."""
    thresholds = {k: format_decimal(t) for k, t in THRESHOLDS.items()}
    return {
        "config": report.config._asdict() | {"thresholds": thresholds, "generator": GENERATOR_ID},
        "aggregates": [
            agg._asdict() | {"pct_" + name: s for name, s in zip(_SHARES, agg.shares())}
            for agg in report.aggregates
        ],
    }


def scan_report_to_dict(report: ScanReport) -> dict:
    """JSON-ready view: the config, each record and each aggregate carry their
    own fields, m1/m2 rendered to 12 significant digits; the config adds the
    thresholds and the generator, each aggregate its `pct_*` shares."""
    return _report_head(report) | {"records": [_rendered(rec) for rec in report.records]}


def write_scan_json(report: ScanReport, path: str) -> None:
    """The bytes of `json.dumps(scan_report_to_dict(report), indent=2, sort_keys=True)`
    and a newline.  Only the head goes through `json`, whose indenting encoder
    is pure Python; each record is one fill of a template in sorted key order."""
    import json  # here, not at the top: only a JSON report needs it
    from json.encoder import encode_basestring_ascii as quote

    def value(v) -> str:
        return "null" if v is None else quote(v) if type(v) is str else repr(v)

    # "records" sorts after "aggregates" and "config", so it closes the object
    head = json.dumps(_report_head(report), indent=2, sort_keys=True)
    fields = ScanRecord._fields
    template = "    {{\n" + ",\n".join(
        f"      {quote(key)}: {{{fields.index(key)}}}" for key in sorted(fields)) + "\n    }}"
    records = (template.format(*map(value, _rendered(rec).values())) for rec in report.records)
    with open(path, "w", newline="") as fh:
        fh.write(head[:-2] + ',\n  "records": [')
        fh.writelines(map(str.__add__, chain(["\n"], repeat(",\n")), records))
        fh.write("\n  ]\n}\n" if report.records else "]\n}\n")


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


def run_example() -> ExampleReport:
    """Decompose the worked example and collect its deviation statistics."""
    dec = decompose(EXAMPLE_A, EXAMPLE_B, EXAMPLE_C, EXAMPLE_D, EXAMPLE_N, require_theorem1=True)
    devs = tuple(deviation_profile(dec))
    r, j, _, value = max(devs, key=lambda t: t[3])
    return ExampleReport(dec, devs, value, (r, j), mean_deviations(dec)[0])
