"""Command-line interface.

Subcommands:
  sum              exact S(a, b) as a fraction and a decimal
  decompose        full term table of a Petersson-Knopp decomposition
  verify-counting  cross-check sweep of the three multiplicity counts
  scan             deviation scan over a range of b, with CSV/JSON reports
  example          the built-in worked example (b=31537789, n=12)

Exit codes: 0 success, 1 invalid arguments, an unwritable report path or a
pool worker that died, 2 verification failure.  Report paths are checked
before any work starts, and reports are written to temp files that replace
their targets only once all of them are complete, so a failed run leaves
no partial report set.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress

from . import counting, experiments, knopp
from .dedekind import dedekind_fast
from .experiments import format_decimal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments, and a subparser names
    itself ("fareysum scan: error:"); remap to 1 and one error prefix."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"fareysum: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _c_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fareysum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="print S(a, b) exactly and as a decimal")
    p_sum.add_argument("a", type=int)
    p_sum.add_argument("b", type=int)

    p_dec = sub.add_parser("decompose", help="print the (r, j) term table for S(a, b)")
    p_dec.add_argument("a", type=int)
    p_dec.add_argument("b", type=int)
    p_dec.add_argument("c", type=int)
    p_dec.add_argument("d", type=int)
    p_dec.add_argument("n", type=int)
    p_dec.add_argument("--require-theorem1", action="store_true")
    p_dec.add_argument("--json", action="store_true", help="emit the table as JSON")

    p_ver = sub.add_parser("verify-counting", help="run the counting cross-check sweep")
    p_ver.add_argument("--max-n", type=int, default=counting.SWEEP_MAX_N_DEFAULT)
    p_ver.add_argument("--max-d", type=int, default=counting.SWEEP_MAX_D_DEFAULT)
    p_ver.add_argument("--csv", metavar="PATH", help="also write every check row as CSV")
    p_ver.add_argument("--jobs", type=int, default=1)

    p_scan = sub.add_parser("scan", help="scan b values and aggregate deviation statistics")
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--d", type=int, required=True)
    p_scan.add_argument("--c", type=_c_list, required=True, metavar="LIST")
    p_scan.add_argument("--b-start", type=int, required=True)
    p_scan.add_argument("--b-count", type=int, required=True)
    p_scan.add_argument("--random", action="store_true", help="draw b uniformly from [b_start, 10*b_start)")
    p_scan.add_argument("--seed", type=int, default=0, metavar="U64")
    p_scan.add_argument("--csv", metavar="PATH")
    p_scan.add_argument("--json", metavar="PATH")
    p_scan.add_argument("--jobs", type=int, default=1)

    sub.add_parser("example", help="reproduce the built-in worked example")
    return parser


def _cmd_sum(args) -> int:
    value = 12 * dedekind_fast(args.a, args.b)
    print(f"S({args.a}, {args.b}) = {value} ~ {format_decimal(value)}")
    return EXIT_OK


def _check_report_path(path: str) -> None:
    """Refuse a report path that cannot be written, before any work starts."""
    if not path:
        raise ValueError("cannot write a report to an empty path")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"cannot write {path}: no such directory {directory}")
    if os.path.exists(path) and not os.path.isfile(path):  # a directory, FIFO, device or socket
        raise ValueError(f"cannot write {path}: it is not a regular file")


def _reserve_temp(path: str) -> str:
    """Create an empty temp file beside `path`, which also shows that its
    directory is writable; return its name."""
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    open(temp, "x").close()
    return temp


@contextmanager
def _atomic_reports(*paths: str | None):
    """Yield one temp path per report path (None for None).  Every path is
    checked first; the temp files replace their targets only after the body
    has written them all, and are removed if it fails, so a run leaves
    either every report or none.  Two reports may not share one file."""
    given = [path for path in paths if path is not None]
    for path in given:
        _check_report_path(path)
    if len({os.path.realpath(path) for path in given}) < len(given):
        raise ValueError(f"two reports name the same file: {' and '.join(given)}")
    temps: list[str | None] = []
    try:
        for path in paths:
            temps.append(None if path is None else _reserve_temp(path))
        yield temps
        for path, temp in zip(paths, temps):
            if temp is not None:
                os.replace(temp, path)
    finally:
        for temp in temps:
            if temp is not None:
                with suppress(FileNotFoundError):
                    os.remove(temp)


def _term_rows(dec) -> list[dict]:
    return [
        {"r": t.r, "j": t.j, "k": t.k, "m": t.m,
         **dict(zip(("a_prime", "b_prime", "c_prime", "d_prime"), t.reduced)),
         "sum_value": format_decimal(t.sum_value), "expected": format_decimal(t.expected),
         "deviation": format_decimal(deviation)}
        for t, (_, _, _, deviation) in zip(dec.terms, knopp.deviation_profile(dec))
    ]


def _cmd_decompose(args) -> int:
    dec = knopp.decompose(args.a, args.b, args.c, args.d, args.n, args.require_theorem1)
    rows = _term_rows(dec)
    if args.json:
        import json  # here, not at the top: only --json needs it
        print(json.dumps({
            "n": dec.n, "a": dec.a, "b": dec.b, "c": dec.c, "d": dec.d, "q": dec.q,
            "base_sum": format_decimal(dec.base_sum),
            "base_expected": format_decimal(dec.base_expected),
            "terms": rows,
        }, indent=2))
        return EXIT_OK
    print(f"S({dec.a}, {dec.b}) = {format_decimal(dec.base_sum)}   "
          f"E = {format_decimal(dec.base_expected)}   q = {dec.q}   sigma-terms: {len(rows)}")
    header = ("r", "j", "k", "m", "a_prime", "b_prime", "c_prime", "d_prime", "S[r,j]", "E[r,j]", "deviation")
    for line in [header] + [row.values() for row in rows]:
        print(" ".join(f"{v:>{w}}" for v, w in zip(line, (5, 5, 5, 5, 12, 14, 8, 8, 18, 18, 14))))
    return EXIT_OK


def _cmd_verify_counting(args) -> int:
    with _atomic_reports(args.csv) as (csv_temp,):
        report = counting.verify_theorem2(args.max_n, args.max_d, jobs=args.jobs,
                                          csv_path=csv_temp)
    if args.csv:
        print(f"wrote {args.csv}")
    print(f"checked {report.rows_checked} (n, m, d, c) cells "
          f"up to n={report.max_n}, d={report.max_d}: "
          f"{len(report.violations)} violation(s)")
    for row in report.violations[:20]:
        print(f"  VIOLATION n={row.n} m={row.m} d={row.d} c={row.c}: "
              f"brute={row.brute} formula={row.formula} n/m={row.closed_form}")
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_scan(args) -> int:
    config = experiments.ExperimentConfig(
        n=args.n,
        d=args.d,
        c_list=args.c,
        b_start=args.b_start,
        b_count=args.b_count,
        b_mode=experiments.B_MODE_RANDOM if args.random else experiments.B_MODE_CONSECUTIVE,
        rng_seed=args.seed,
    )
    with _atomic_reports(args.csv, args.json) as (csv_temp, json_temp):
        report = experiments.run_scan(config, jobs=args.jobs)
        if csv_temp:
            experiments.write_scan_csv(report, csv_temp)
        if json_temp:
            experiments.write_scan_json(report, json_temp)
    for path in (args.csv, args.json):
        if path:
            print(f"wrote {path}")
    labels = (f"{op}{format_decimal(t)}" for op, t in
              zip(("M1>=", "M1<", "M2>=", "M2<"), experiments.THRESHOLDS.values()))
    print(f"{'c':>4} {'retained':>9} {'ruled_out':>10} " + " ".join(f"{x:>10}" for x in labels))
    for agg in report.aggregates:
        shares = ("-" if s is None else s + "%" for s in agg.shares())
        print(f"{agg.c:>4} {agg.retained:>9} {agg.ruled_out:>10} "
              + " ".join(f"{x:>10}" for x in shares))
    return EXIT_OK


def _cmd_example(args) -> int:
    report = experiments.run_example()
    dec = report.decomposition
    print(f"b = {dec.b}, c = {dec.c}, d = {dec.d}, a = {dec.a}, n = {dec.n}, q = {dec.q}")
    print(f"S(a, b) = {dec.base_sum} ~ {format_decimal(dec.base_sum)}")
    print(f"E(a, b) = {dec.base_expected} ~ {format_decimal(dec.base_expected)}")
    print(f"terms: {len(dec.rows)}")
    print(f"{'r':>4} {'j':>4} {'m':>4} {'deviation':>16}")
    for r, j, m, value in report.deviations:
        print(f"{r:>4} {j:>4} {m:>4} {format_decimal(value, 6):>16}")
    r, j = report.max_at
    print(f"max deviation ~ {format_decimal(report.max_deviation, 6)} at (r={r}, j={j})")
    print(f"mean deviation ~ {format_decimal(report.mean_deviation, 6)}")
    return EXIT_OK


_COMMANDS = {
    "sum": _cmd_sum,
    "decompose": _cmd_decompose,
    "verify-counting": _cmd_verify_counting,
    "scan": _cmd_scan,
    "example": _cmd_example,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"fareysum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
