"""Output checks, against the benchmark's own exact reference.

Nothing here imports the program.  S(a, b) comes from the continued-fraction
form of the Dedekind sum (Barkan, Hickerson, Knuth): for 0 < a < b coprime,
with partial quotients q_1..q_t of b/a,

    12 s(a, b) = sum (-1)^(i+1) q_i + (a + a') / b - (3 if t is odd else 1)

where a a' = 1 (mod b).  The (r, j) terms, the neighbour choice and the
premise inequalities are re-derived from the paper's definitions, and values
are rendered as the reports do: 12 significant digits, round-half-even.
"""

from __future__ import annotations

import csv
import json
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

from workloads import ScanSpec, SweepSpec, coprime_residues, divisors

THRESHOLDS = {"t1_hi": Fraction(5, 100), "t1_lo": Fraction(1, 100),
              "t2_hi": Fraction(10, 100), "t2_lo": Fraction(1, 100)}
REASONS = ("none", "gcd_failed", "premises_failed")
SAMPLE_EVERY = 8  # about one cell in SAMPLE_EVERY gets the full exact recheck


def euclid_steps(a: int, b: int) -> int:
    """Division steps the reciprocity chain takes for s(a, b), b >= 1."""
    a %= b
    if a == 0:
        return 0
    g = gcd(a, b)
    a, b = a // g, b // g
    steps = 0
    while a:
        a, b = b % a, a
        steps += 1
    return steps


def dedekind12(a: int, b: int) -> Fraction:
    """S(a, b) = 12 s(a, b) exactly, for any integer a and b >= 1."""
    a %= b
    if a == 0:
        return Fraction(0)
    g = gcd(a, b)
    a, b = a // g, b // g
    alternating, sign, steps = 0, 1, 0
    x, y = b, a
    while y:
        q, r = divmod(x, y)
        alternating += sign * q
        sign, steps = -sign, steps + 1
        x, y = y, r
    tail = 3 if steps % 2 else 1
    return Fraction((alternating - tail) * b + a + pow(a, -1, b), b)


def premises_hold(b: int, c: int, d: int, a: int, n: int) -> bool:
    """alpha >= n^(3/2) + n and 0 < q/d <= alpha/n - 1, alpha = sqrt(b/d^3)."""
    lhs = b - d ** 3 * n * n * (n + 1)
    if lhs < 0 or lhs * lhs < 4 * d ** 6 * n ** 5:
        return False
    q = a * d - b * c
    return q > 0 and n * n * (q + d) ** 2 * d <= b


def select(b: int, c: int, d: int, n: int) -> tuple[int | None, str]:
    """floor(bc/d + alpha/n) - 1, else - 2, the first prime to b meeting the premises."""
    top = (b * c * n * d + isqrt(b * d)) // (n * d * d)
    coprime_seen = False
    for a in (top - 1, top - 2):
        if gcd(a, b) == 1:
            coprime_seen = True
            if premises_hold(b, c, d, a, n):
                return a, "none"
    return None, ("premises_failed" if coprime_seen else "gcd_failed")


def mean_deviations(a: int, b: int, c: int, d: int, n: int) -> tuple[Fraction, Fraction]:
    """(M1, M2): mean |S[r,j]/E[r,j] - 1| over all terms / over the m = 1 terms."""
    q = a * d - b * c
    total, ones, terms = Fraction(0), Fraction(0), 0
    for r in divisors(n):
        for j in range(r):
            m = gcd(n // r * c + j * d, r * d)
            expected = Fraction(m * m * b, n * d * q)
            dev = abs(dedekind12(n // r * a + j * b, r * b) / expected - 1)
            total += dev
            terms += 1
            if m == 1:
                ones += dev
    return total / terms, ones / n


def render(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def render_percent(count: int, retained: int) -> str:
    """100 count / retained at one decimal, round-half-even; '' when retained = 0."""
    if retained == 0:
        return ""
    q, r = divmod(1000 * count, retained)
    if 2 * r > retained or (2 * r == retained and q % 2):
        q += 1
    return f"{q // 10}.{q % 10}"


def _at_least(text: str, threshold: Fraction, exact) -> bool:
    """exact >= threshold, decided from the 12-digit rendering when it can be.

    Rounding is monotone and the thresholds have short decimals, so only a
    rendering equal to the threshold leaves the order open; then the exact
    value is recomputed.
    """
    shown = Fraction(Decimal(text))
    if shown != threshold:
        return shown > threshold
    return exact() >= threshold


def _well_formed(row: list[str], b: int, c: int) -> bool:
    """The record of cell (c, b): a, m1 and m2 present exactly when retained."""
    if len(row) != 6 or row[:2] != [str(b), str(c)] or row[3] not in REASONS:
        return False
    if row[3] != "none":
        return row[2] == row[4] == row[5] == ""
    try:
        int(row[2])
        return all(Decimal(x).is_finite() for x in row[4:])
    except (ValueError, ArithmeticError):
        return False


def check_scan(spec: ScanSpec, rc, csv_path: str, json_path: str | None,
               rng: random.Random) -> tuple[int, dict]:
    """Check one scan call's reports; returns (failed cells, counts)."""
    cells = [(c, b) for c in spec.c_list for b in spec.b_values]
    if rc != 0:
        return len(cells), {}
    with open(csv_path, newline="") as fh:
        lines = fh.read().splitlines()
    failed: set[int] = set()
    if not lines or lines[0] != "b,c,a,ruled_out,m1,m2":
        return len(cells), {}
    body = [line.split(",") for line in lines[1:]]
    records = [row for row in body if row[0] != "#agg"]
    agg_rows = [row for row in body if row[0] == "#agg"]
    counts = {"cells": len(cells), "retained": 0, "gcd_failed": 0, "premises_failed": 0}
    parsed = []
    for i, (c, b) in enumerate(cells):
        row = records[i] if i < len(records) else None
        if row is None or not _well_formed(row, b, c):
            failed.add(i)
            parsed.append(None)
            continue
        counts["retained" if row[3] == "none" else row[3]] += 1
        parsed.append(row)
        if rng.randrange(SAMPLE_EVERY) == 0:
            a, reason = select(b, c, spec.d, spec.n)
            if (reason, "" if a is None else str(a)) != (row[3], row[2]):
                failed.add(i)
            elif a is not None:
                m1, m2 = mean_deviations(a, b, c, spec.d, spec.n)
                if (render(m1), render(m2)) != (row[4], row[5]):
                    failed.add(i)
    if len(records) > len(cells):
        failed.update(range(len(cells)))

    tallies = {}
    for c in spec.c_list:
        idx = [i for i, (cc, _) in enumerate(cells) if cc == c]
        rows = [(i, parsed[i]) for i in idx if parsed[i] is not None]
        kept = [row for _, row in rows if row[3] == "none"]

        def exact(row, which):
            return lambda: mean_deviations(int(row[2]), int(row[0]), c, spec.d, spec.n)[which]

        t = THRESHOLDS
        m1_hi = sum(_at_least(row[4], t["t1_hi"], exact(row, 0)) for row in kept)
        m1_lo = sum(not _at_least(row[4], t["t1_lo"], exact(row, 0)) for row in kept)
        m2_hi = sum(_at_least(row[5], t["t2_hi"], exact(row, 1)) for row in kept)
        m2_lo = sum(not _at_least(row[5], t["t2_lo"], exact(row, 1)) for row in kept)
        tally = (len(kept), len(rows) - len(kept), m1_hi, m1_lo, m2_hi, m2_lo)
        tallies[c] = tally
        want = ["#agg", str(c), str(tally[0]), str(tally[1])] + [
            render_percent(x, tally[0]) for x in tally[2:]]
        if want not in agg_rows or len(agg_rows) != len(spec.c_list) or len(rows) != len(idx):
            failed.update(idx)

    if json_path is not None:
        failed.update(_check_json(spec, json_path, cells, parsed, tallies))
    return len(failed), counts


def _check_json(spec: ScanSpec, path: str, cells, parsed, tallies) -> set[int]:
    """Indices of cells whose JSON record or aggregate disagrees with the CSV."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        return set(range(len(cells)))
    config = doc.get("config", {})
    echo = {"n": spec.n, "d": spec.d, "c_list": list(spec.c_list), "b_start": spec.b_start,
            "b_count": spec.b_count, "b_mode": "random" if spec.random else "consecutive",
            "rng_seed": spec.rng_seed, "generator": "splitmix64"}
    if any(config.get(k) != v for k, v in echo.items()):
        return set(range(len(cells)))
    bad = set()
    records = doc.get("records", [])
    for i, row in enumerate(parsed):
        rec = records[i] if i < len(records) else {}
        if row is None or rec != {
            "b": int(row[0]), "c": int(row[1]), "a": int(row[2]) if row[2] else None,
            "m1": row[4] or None, "m2": row[5] or None, "ruled_out_reason": row[3]}:
            bad.add(i)
    aggs = {agg.get("c"): agg for agg in doc.get("aggregates", [])}
    names = ("m1_ge_t1_hi", "m1_lt_t1_lo", "m2_ge_t2_hi", "m2_lt_t2_lo")
    for c, tally in tallies.items():
        agg = aggs.get(c, {})
        want = {"c": c, "retained": tally[0], "ruled_out": tally[1]}
        for name, x in zip(names, tally[2:]):
            want[name] = x
            want["pct_" + name] = render_percent(x, tally[0]) or None
        if agg != want:
            bad.update(i for i, (cc, _) in enumerate(cells) if cc == c)
    return bad


def sweep_keys(spec: SweepSpec):
    """(n, m, d, c) of every sweep row, in the CSV's (n, d, c, m) order."""
    residues = {d: coprime_residues(d) for d in range(1, spec.max_d + 1)}
    for n in range(1, spec.max_n + 1):
        divs = divisors(n)
        for d in range(1, spec.max_d + 1):
            for c in residues[d]:
                for m in divs:
                    yield n, m, d, c


def check_sweep(spec: SweepSpec, rc, csv_path: str, stdout: str, expected_rows: int) -> int:
    """Check one verify-counting call; returns the number of failed rows.

    Every row must carry the expected (n, m, d, c) key in order and have
    brute = formula = n/m with n/m recomputed here.
    """
    if rc != 0 or f"checked {expected_rows} (n, m, d, c) cells" not in stdout \
            or ": 0 violation(s)" not in stdout:
        return expected_rows
    failed = 0
    seen = 0
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["n", "m", "d", "c", "brute", "formula", "closed_form", "ok"]:
            return expected_rows
        keys = sweep_keys(spec)
        for row in reader:
            seen += 1
            key = next(keys, None)
            if key is None:
                failed += 1
                continue
            n, m, d, c = key
            want = str(n // m)
            if row != [str(n), str(m), str(d), str(c), want, want, want, "1"]:
                failed += 1
    failed += max(expected_rows - seen, 0)
    return min(failed, expected_rows)
