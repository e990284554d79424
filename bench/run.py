"""Benchmark of the fareysum CLI on three workloads, with output checks.

    python3 bench/run.py --workload table_scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/` and
driven in-process through `fareysum.cli.main(argv)`, one call per report it
would write from a shell.  Each workload runs whole batches (see
`workloads.py`) until `--seconds` have passed, and every report a batch
writes is checked against the benchmark's own exact reference
(`refcheck.py`).

`--trace 0` prints the end-to-end metrics, measured with tracing off:

    items_per_s   items / seconds inside main(), over all batches of the
                  run, at the reference speed of `speed.py`; an item is a
                  (b, c) cell of a scan or a row of the sweep.  The raw
                  rate and the mean speed it is divided by are in the
                  metadata.
    setup_s       median time to `import fareysum.cli` in a fresh
                  interpreter, spawn excluded, at the reference speed; one
                  sample after each batch, and at least SETUP_SAMPLES
    peak_rss_mb   peak RSS of this process, plus, when the workload uses a
                  pool, workers x the largest worker's peak over the
                  warm-up and the first batch
    ok_ratio      items whose output check passed / items attempted

`--trace 1` runs each batch serially twice, untraced and traced, and for a
pooled workload once more untraced with its pool; it prints the per-layer
metrics (`tracing.py` names the layers).  Counts are those of batch 0,
which depends only on the seed, so they repeat exactly from run to run;
`*.self_s` are medians over batches of seconds per batch.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata and exact work counts.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import refcheck
import speed
from tracing import Tracer
from workloads import WORKLOADS, Call, ScanSpec, SweepSpec, sweep_triples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_run"
SETUP_SAMPLES = 9

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "dedekind.calls": "count",
    "dedekind.euclid_steps": "count",
    "dedekind.self_s": "s",
    "dedekind.us_per_call": "us",
    "knopp.decompose.calls": "count",
    "knopp.terms": "count",
    "knopp.self_s": "s",
    "knopp.deviation.self_s": "s",
    "farey.premise_checks": "count",
    "farey.self_s": "s",
    "experiments.select.self_s": "s",
    "experiments.mean_dev.self_s": "s",
    "experiments.render.self_s": "s",
    "experiments.scan.self_s": "s",
    "experiments.retained": "count",
    "experiments.retained_ratio": "ratio",
    "experiments.ruled_out.gcd_failed": "count",
    "experiments.ruled_out.premises_failed": "count",
    "experiments.cell_ms_p50": "ms",
    "experiments.cell_ms_p99": "ms",
    "experiments.cell_samples": "count",
    "experiments.pool_efficiency": "ratio",
    "counting.check_rows": "count",
    "counting.histogram.calls": "count",
    "counting.histogram.self_s": "s",
    "counting.formula.calls": "count",
    "counting.formula.self_s": "s",
    "counting.csv.self_s": "s",
    "counting.verify.self_s": "s",
    "counting.sweep_passes": "ratio",
    "numtheory.factorize.hit_ratio": "ratio",
    "numtheory.self_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Program:
    """The fareysum package under test, imported from this checkout's src/."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import fareysum.cli
        import fareysum.numtheory

        where = Path(fareysum.cli.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise ImportError(f"fareysum was imported from {where}, not from {SRC}")
        self.main = fareysum.cli.main
        self.factorize = fareysum.numtheory.factorize

    def invoke(self, call: Call, tracer: Tracer | None = None,
               probe: speed.Probe | None = None):
        """One CLI call, as a fresh process would make it: (rc, seconds, stdout).

        Stale reports are removed first, and the factorization cache is
        cleared, so every call starts from what a new process would have.
        With a probe, the machine's speed is sampled during the call and
        the samples' own time is left out of its seconds.
        """
        for path in (call.csv_path, call.json_path):
            if path and os.path.exists(path):
                os.remove(path)
        self.factorize.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        sampling = probe.sampling() if probe else contextlib.nullcontext()
        stolen_s = probe.stolen_s if probe else 0.0
        argv = list(call.argv)
        start = time.perf_counter()
        try:
            with sampling, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv) if tracer is None else tracer.call("cli", self.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        if probe:
            elapsed -= probe.stolen_s - stolen_s
        if rc != 0:
            print(f"fareysum {' '.join(call.argv)} -> {rc}\n{err.getvalue()}", file=sys.stderr)
        if tracer is not None:
            cache = self.factorize.cache_info()
            tracer.cache_hits += cache.hits
            tracer.cache_misses += cache.misses
        return rc, elapsed, out.getvalue()


class Checker:
    """Checks every call's reports and keeps the attempted/failed tally."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0

    def check(self, call: Call, rc, stdout: str) -> dict:
        counts = {}
        try:
            if isinstance(call.spec, ScanSpec):
                failed, counts = refcheck.check_scan(
                    call.spec, rc, call.csv_path, call.json_path, self.rng)
            else:
                failed = refcheck.check_sweep(call.spec, rc, call.csv_path, stdout, call.items)
                counts = {"check_rows": call.items}
        except (OSError, ValueError):  # a report that is missing or does not parse
            traceback.print_exc()
            failed = call.items
        self.attempted += call.items
        self.failed += failed
        return counts


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


SETUP_CODE = inspect.getsource(speed.kernel) + """
import time

def kernel_seconds():
    start = time.thread_time()
    kernel()
    return time.thread_time() - start

kernel_seconds()
before = [kernel_seconds() for _ in range(3)]
t = time.perf_counter()
import fareysum.cli
import_s = time.perf_counter() - t
print(repr((import_s, before + [kernel_seconds() for _ in range(3)])))
"""


def setup_sample() -> tuple[float, float]:
    """Seconds to import fareysum.cli in a fresh interpreter: (at the
    reference speed, raw).  The clock starts inside the child, so
    interpreter start-up is excluded; the child times speed.kernel just
    before and after the import, at the speed the import ran at."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    import_s, kernel_s = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    child_speed = statistics.fmean(speed.REFERENCE_S / s for s in kernel_s)
    return import_s * child_speed, import_s


def peak_rss_mb(jobs: int, worker_kb: int) -> float:
    """This process's peak RSS plus, with a pool, jobs x the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + (jobs * worker_kb if jobs > 1 else 0)) / 1024


def run_batch(program: Program, calls: list[Call], checker: Checker,
              tracer: Tracer | None = None,
              probe: speed.Probe | None = None) -> tuple[float, dict]:
    """Run and check one batch: (seconds inside main(), work counts)."""
    busy, counts = 0.0, {}
    for call in calls:
        rc, elapsed, stdout = program.invoke(call, tracer, probe)
        busy += elapsed
        _add_counts(counts, checker.check(call, rc, stdout))
    return busy, counts


def run_untraced(program: Program, workload, seed: int, seconds: float, out_dir: str,
                 jobs: int, checker: Checker) -> tuple[dict, dict]:
    run_batch(program, workload.calls(seed, -1, out_dir, jobs), checker)
    probe = speed.Probe(sorted(os.sched_getaffinity(0)) if jobs > 1 else None)
    rates, setup = [], []
    items = busy = 0
    start = time.perf_counter()
    index = 0
    while not rates or time.perf_counter() - start < seconds:
        calls = workload.calls(seed, index, out_dir, jobs)
        batch_busy, batch_counts = run_batch(program, calls, checker, probe=probe)
        batch_items = sum(call.items for call in calls)
        items, busy = items + batch_items, busy + batch_busy
        rates.append(batch_items / batch_busy)
        if index == 0:
            counts = batch_counts
            # getrusage keeps only the largest reaped child, so read the
            # pool workers' peak before any set-up interpreter is reaped.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup_sample()  # discarded: it absorbs bytecode compilation
        index += 1
        # Set-up samples are spread over the run so that they meet the same
        # machine load as the batches.
        setup.append(setup_sample())
    rss = peak_rss_mb(jobs, worker_kb)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    setup_s, setup_raw_s = zip(*setup)
    mean_speed = probe.speed()
    metrics = {
        "items_per_s": items / busy / mean_speed,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss,
        "ok_ratio": 1 - checker.failed / checker.attempted,
    }
    return metrics, {"batches": index, "batch0": counts, "raw_items_per_s": items / busy,
                     "mean_speed": mean_speed, "speed_samples": len(probe.samples),
                     "batch_items_per_s": rates, "setup_samples_s": setup_s,
                     "raw_setup_samples_s": setup_raw_s}


def run_traced(program: Program, workload, seed: int, seconds: float, out_dir: str,
               jobs: int, checker: Checker) -> tuple[dict, dict]:
    """Each batch runs serially untraced and traced, in alternating order,
    then, for a pooled workload, untraced with the pool."""
    tracer = Tracer()
    run_batch(program, workload.calls(seed, -1, out_dir, 1), checker)
    batches, cell_s = [], []
    start = time.perf_counter()
    index = 0
    while not batches or time.perf_counter() - start < seconds:
        serial = workload.calls(seed, index, out_dir, 1)
        if index % 2:
            plain_s, _ = run_batch(program, serial, checker)
        tracer.reset()
        tracer.record_args = index == 0
        with tracer.installed():
            traced_s, counts = run_batch(program, serial, checker, tracer)
        if not index % 2:
            plain_s, _ = run_batch(program, serial, checker)
        pooled_s = None
        if jobs > 1:
            pooled_s, _ = run_batch(program, workload.calls(seed, index, out_dir, jobs), checker)
        cell_s.extend(tracer.cell_s)
        batches.append({
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "cli_total": tracer.total["cli"],
            "terms": tracer.terms,
            "reasons": dict(tracer.reasons),
            "cache": (tracer.cache_hits, tracer.cache_misses),
            "euclid_steps": sum(refcheck.euclid_steps(a, b) for a, b in tracer.dedekind_args),
            "counts": counts,
            "traced_s": traced_s,
            "plain_s": plain_s,
            "pooled_s": pooled_s,
        })
        index += 1
    metrics = layer_metrics(workload, seed, batches, cell_s, jobs)
    first = batches[0]
    counts = dict(first["counts"])
    if first["calls"]["experiments.select"]:
        counts.update(terms=first["terms"], dedekind_calls=first["calls"]["dedekind"],
                      euclid_steps=first["euclid_steps"])
    if "check_rows" in counts:
        counts["sweep_passes"] = metrics["counting.sweep_passes"]
    return metrics, {"batches": index, "batch0": counts, "missing_hooks": tracer.missing}


def layer_metrics(workload, seed, batches, cell_s, jobs) -> dict:
    first = batches[0]
    hits = sum(b["cache"][0] for b in batches)
    misses = sum(b["cache"][1] for b in batches)

    def self_s(layer):
        return statistics.median(b["self_s"][layer] for b in batches)

    def per_call_us(b):
        calls = b["calls"]["dedekind"]
        return 1e6 * b["self_s"]["dedekind"] / calls if calls else 0.0

    cells_ms = sorted(1000 * s for s in cell_s)

    def quantile(p):
        return cells_ms[min(len(cells_ms) - 1, int(p * len(cells_ms)))] if cells_ms else 0.0

    reasons = first["reasons"]
    cells = sum(reasons.values())
    triples = sum(sweep_triples(call.spec.max_n, call.spec.max_d)
                  for call in workload.calls(seed, 0, "", 1) if isinstance(call.spec, SweepSpec))
    cli_total = sum(b["cli_total"] for b in batches)
    cli_child = cli_total - sum(b["self_s"]["cli"] for b in batches)
    return {
        "dedekind.calls": first["calls"]["dedekind"],
        "dedekind.euclid_steps": first["euclid_steps"],
        "dedekind.self_s": self_s("dedekind"),
        "dedekind.us_per_call": statistics.median(per_call_us(b) for b in batches),
        "knopp.decompose.calls": first["calls"]["knopp"],
        "knopp.terms": first["terms"],
        "knopp.self_s": self_s("knopp"),
        "knopp.deviation.self_s": self_s("knopp.deviation"),
        "farey.premise_checks": first["calls"]["farey"],
        "farey.self_s": self_s("farey"),
        "experiments.select.self_s": self_s("experiments.select"),
        "experiments.mean_dev.self_s": self_s("experiments.mean_dev"),
        "experiments.render.self_s": self_s("experiments.render"),
        "experiments.scan.self_s": self_s("experiments.scan"),
        "experiments.retained": reasons["none"],
        "experiments.retained_ratio": reasons["none"] / cells if cells else 0.0,
        "experiments.ruled_out.gcd_failed": reasons["gcd_failed"],
        "experiments.ruled_out.premises_failed": reasons["premises_failed"],
        "experiments.cell_ms_p50": quantile(0.50),
        "experiments.cell_ms_p99": quantile(0.99),
        "experiments.cell_samples": len(cells_ms),
        "experiments.pool_efficiency": statistics.median(
            b["plain_s"] / (jobs * b["pooled_s"]) for b in batches) if jobs > 1 else 0.0,
        "counting.check_rows": first["counts"].get("check_rows", 0),
        "counting.histogram.calls": first["calls"]["counting.histogram"],
        "counting.histogram.self_s": self_s("counting.histogram"),
        "counting.formula.calls": first["calls"]["counting.formula"],
        "counting.formula.self_s": self_s("counting.formula"),
        "counting.csv.self_s": self_s("counting.csv"),
        "counting.verify.self_s": self_s("counting.verify"),
        "counting.sweep_passes": first["calls"]["counting.histogram"] / triples if triples else 0.0,
        "numtheory.factorize.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "numtheory.self_s": self_s("numtheory"),
        "cli.self_s": self_s("cli"),
        "trace.coverage": cli_child / cli_total if cli_total else 0.0,
        "trace.overhead": statistics.median(b["traced_s"] / b["plain_s"] - 1 for b in batches),
    }


def git_sha() -> str | None:
    """HEAD's commit from .git, read directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fareysum" / "cli.py").is_file():
        print(f"bench: no program to measure: {SRC / 'fareysum'} is missing", file=sys.stderr)
        return 2
    program = Program()
    workload = WORKLOADS[args.workload]
    usable = len(os.sched_getaffinity(0))
    jobs = min(workload.params.get("jobs", 1), usable)
    checker = Checker(args.seed)
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, info = run(program, workload, args.seed, args.seconds, out_dir, jobs, checker)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # only when no other run is using it
    units = PER_LAYER if args.trace else END_TO_END
    meta = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "git_sha": git_sha(),
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        **info,
    }
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({"meta": meta}, default=list))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
