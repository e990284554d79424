"""The benchmark's workloads: which `fareysum` CLI calls each batch makes.

A batch is a fixed amount of work whose inputs depend only on the seed and
the batch index, so a given (seed, index) always runs the same calls.  This
module imports nothing from the program; the inputs are made here and the
program only ever sees the resulting argument lists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

MASK64 = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: (next state, output)."""
    state = (state + SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def mix(*values: int) -> int:
    """A 64-bit value derived from a tuple of integers (seed, batch, ...)."""
    state = 0
    out = 0
    for v in values:
        state, out = splitmix64(state ^ (v & MASK64))
    return out


def random_b_values(seed: int, b_start: int, count: int) -> list[int]:
    """The b values `scan --random --seed seed` draws: uniform in
    [b_start, 10 b_start) from splitmix64, rejection-sampled."""
    span = 9 * b_start
    limit = (1 << 64) - (1 << 64) % span
    state = seed & MASK64
    out = []
    while len(out) < count:
        state, u = splitmix64(state)
        if u < limit:
            out.append(b_start + u % span)
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending, by trial division."""
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def coprime_residues(d: int) -> list[int]:
    """c in [0, d) with gcd(c, d) = 1."""
    return [c for c in range(d) if gcd(c, d) == 1]


def _phi_sum(max_d: int) -> int:
    return sum(len(coprime_residues(d)) for d in range(1, max_d + 1))


def sweep_row_count(max_n: int, max_d: int) -> int:
    """Rows of `verify-counting --csv`: sum over n <= N of tau(n), times
    sum over d <= D of phi(d)."""
    return sum(len(divisors(n)) for n in range(1, max_n + 1)) * _phi_sum(max_d)


def sweep_triples(max_n: int, max_d: int) -> int:
    """(n, d, c) triples of a sweep; one histogram each per pass."""
    return max_n * _phi_sum(max_d)


@dataclass(frozen=True)
class ScanSpec:
    """What one `scan` call computes, for the output checks."""

    n: int
    d: int
    c_list: tuple[int, ...]
    b_values: tuple[int, ...]
    b_start: int
    b_count: int
    random: bool
    rng_seed: int


@dataclass(frozen=True)
class SweepSpec:
    """What one `verify-counting` call computes, for the output checks."""

    max_n: int
    max_d: int


@dataclass(frozen=True)
class Call:
    """One in-process `fareysum.cli.main(argv)` call and what it must produce."""

    argv: tuple[str, ...]
    spec: ScanSpec | SweepSpec
    items: int
    csv_path: str
    json_path: str | None = None


def _scan_call(p: dict, b_start: int, count: int, rng_seed: int | None, out_dir: str,
               tag: str, jobs: int, with_json: bool) -> Call:
    csv_path = os.path.join(out_dir, f"scan_{tag}.csv")
    json_path = os.path.join(out_dir, f"scan_{tag}.json") if with_json else None
    argv = ["scan", "--n", str(p["n"]), "--d", str(p["d"]),
            "--c", ",".join(map(str, p["c"])),
            "--b-start", str(b_start), "--b-count", str(count), "--csv", csv_path]
    if json_path:
        argv += ["--json", json_path]
    if rng_seed is None:
        b_values = tuple(range(b_start, b_start + count))
    else:
        b_values = tuple(random_b_values(rng_seed, b_start, count))
        argv += ["--random", "--seed", str(rng_seed)]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    spec = ScanSpec(p["n"], p["d"], tuple(p["c"]), b_values, b_start, count,
                    rng_seed is not None, rng_seed or 0)
    return Call(tuple(argv), spec, count * len(p["c"]), csv_path, json_path)


def _table_batch(p: dict, seed: int, index: int, out_dir: str, jobs: int) -> list[Call]:
    count = p["warmup_b_count"] if index < 0 else p["b_count"]
    start = (mix(seed) % p["offset_windows"] + max(index, 0)) * p["b_count"]
    return [_scan_call(p, base + start, count, None, out_dir, f"w{k}", 1, with_json=True)
            for k, base in enumerate(p["b_bases"])]


def _wide_batch(p: dict, seed: int, index: int, out_dir: str, jobs: int) -> list[Call]:
    count = p["warmup_b_count"] if index < 0 else p["b_count"]
    return [_scan_call(p, p["b_start"], count, mix(seed, index), out_dir, "w0", jobs,
                       with_json=False)]


def _sweep_batch(p: dict, seed: int, index: int, out_dir: str, jobs: int) -> list[Call]:
    if index < 0:
        max_n, max_d = p["warmup_max_n"], p["warmup_max_d"]
    else:
        r = mix(seed)
        max_n, max_d = p["max_n"] - 1 + r % 3, p["max_d"] - 1 + (r >> 8) % 3
    csv_path = os.path.join(out_dir, "sweep.csv")
    argv = ("verify-counting", "--max-n", str(max_n), "--max-d", str(max_d), "--csv", csv_path)
    return [Call(argv, SweepSpec(max_n, max_d), sweep_row_count(max_n, max_d), csv_path)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict = field(hash=False)
    batch: Callable[..., list[Call]] = field(hash=False, repr=False)

    def calls(self, seed: int, index: int, out_dir: str, jobs: int) -> list[Call]:
        """The calls of batch `index`; index -1 is the small warm-up batch.
        `jobs` is the worker count a pooled workload asks the CLI for."""
        return self.batch(self.params, seed, index, out_dir, jobs)


# The why lines are copied into BENCHMARK.json; a test keeps them in step.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table_scan",
            "table config n=12 d=9 c=1,2,4,5,7,8, serial, 50-b windows above 1e8 and 1e9: "
            "the table-regeneration traffic, where dedekind and knopp gains must show",
            {"n": 12, "d": 9, "c": (1, 2, 4, 5, 7, 8), "b_bases": (10 ** 8 + 1, 10 ** 9 + 1),
             "b_count": 50, "offset_windows": 20000, "warmup_b_count": 2},
            _table_batch,
        ),
        Workload(
            "wide_scan",
            "random b in [1e15,1e16), n=30 d=7 c=1,2,3, 2 workers: 72 terms a cell, "
            "long Euclid chains, ~10% ruled out, records cross a process pool",
            {"n": 30, "d": 7, "c": (1, 2, 3), "b_start": 10 ** 15, "b_count": 60,
             "jobs": 2, "warmup_b_count": 2},
            _wide_batch,
        ),
        Workload(
            "counting_sweep",
            "verify-counting --csv near N=80 D=30, serial: only counting and numtheory run, "
            "so scan optimisations must leave it unchanged",
            {"max_n": 80, "max_d": 30, "warmup_max_n": 12, "warmup_max_d": 6},
            _sweep_batch,
        ),
    )
}
