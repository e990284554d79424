"""Layer spans recorded from outside the program.

The program's modules look up each other's functions as module-level names
(`knopp` calls its own global `dedekind_fast`, `experiments` its global
`decompose`, and so on).  `Tracer.installed()` swaps those names for timing
wrappers and restores them afterwards, so `src/` is never edited.  A span's
self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module the name is looked up in, name, layer).  Only names the scan and
# sweep paths actually call are hooked; the `cli` span is opened by the
# benchmark around `fareysum.cli.main` itself.
HOOKS = (
    ("knopp", "dedekind_fast", "dedekind"),
    ("experiments", "decompose", "knopp"),
    ("experiments", "deviation_profile", "knopp.deviation"),
    ("experiments", "satisfies_theorem1_premises", "farey"),
    ("knopp", "theorem1_premise_failure", "farey"),
    ("experiments", "select_neighbour", "experiments.select"),
    ("experiments", "mean_deviations", "experiments.mean_dev"),
    ("experiments", "run_scan", "experiments.scan"),
    ("experiments", "write_scan_csv", "experiments.render"),
    ("experiments", "write_scan_json", "experiments.render"),
    ("counting", "verify_theorem2", "counting.verify"),
    ("counting", "write_sweep_csv", "counting.csv"),
    ("counting", "multiplicity_histogram", "counting.histogram"),
    ("counting", "count_A_formula", "counting.formula"),
    ("counting", "divisors", "numtheory"),
    ("counting", "d_part", "numtheory"),
    ("counting", "euler_phi", "numtheory"),
    ("knopp", "divisors", "numtheory"),
    ("knopp", "sigma", "numtheory"),
    ("experiments", "sigma", "numtheory"),
)

LAYERS = ("cli",) + tuple(dict.fromkeys(layer for _, _, layer in HOOKS))

# Layers whose spans together make up one scan cell.
_CELL_START = "experiments.select"
_CELL_PARTS = ("knopp", "experiments.mean_dev")


class Tracer:
    """Per-layer call counts, total and self seconds, plus scan-specific tallies."""

    def __init__(self):
        self.missing: list[str] = []
        self.record_args = False
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.cell_s: list[float] = []
        self.dedekind_args: list[tuple[int, int]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Zero every tally in place: installed wrappers hold these objects."""
        for layer in LAYERS:
            self.calls[layer] = 0
            self.total[layer] = 0.0
            self.self_s[layer] = 0.0
        self.terms = 0
        self.cache_hits = self.cache_misses = 0
        self.reasons = {"none": 0, "gcd_failed": 0, "premises_failed": 0}
        self.cell_s.clear()
        self.dedekind_args.clear()
        self._stack.clear()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of `layer`."""
        return self._wrap(layer, fn)(*args, **kwargs)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s
        if layer == "dedekind":
            after = self._after_dedekind
        elif layer == "knopp":
            after = self._after_decompose
        elif layer == _CELL_START:
            after = self._after_select
        elif layer in _CELL_PARTS:
            after = self._after_cell_part
        else:
            after = None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[layer] += 1
                total[layer] += elapsed
                self_s[layer] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    # The tallies below run after a span has closed, so their cost lands in
    # the enclosing span and in the tracing overhead, not in the layer.
    def _after_dedekind(self, args, result, elapsed):
        if self.record_args:
            self.dedekind_args.append(args[:2])

    def _after_decompose(self, args, result, elapsed):
        self.terms += len(result.terms)
        self._after_cell_part(args, result, elapsed)

    def _after_select(self, args, result, elapsed):
        self.reasons[result[1]] = self.reasons.get(result[1], 0) + 1
        self.cell_s.append(elapsed)

    def _after_cell_part(self, args, result, elapsed):
        if self.cell_s:
            self.cell_s[-1] += elapsed

    @contextmanager
    def installed(self):
        """Swap every hooked name for its wrapper; always restore them."""
        saved = []
        self.missing = []
        try:
            for module_name, name, layer in HOOKS:
                module = importlib.import_module(f"fareysum.{module_name}")
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                saved.append((module, name, original))
                setattr(module, name, self._wrap(layer, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
