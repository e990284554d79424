"""The public surface: every name `fareysum` exports, pinned by name.

A name joins or leaves this list only together with the code that needs it.
"""

import inspect

import fareysum

EXPORTS = [
    "CountingQuery", "Decomposition", "ExampleReport", "ExperimentConfig",
    "FareyContext", "KnoppTerm", "PremiseError", "ScanAggregate", "ScanRecord",
    "ScanReport", "SweepReport", "SweepRow", "count_A_brute", "count_A_formula",
    "d_part", "decompose", "dedekind_fast", "dedekind_naive", "deviation_profile",
    "divisors", "euler_phi", "factorize", "farey_context", "format_decimal",
    "identity_discrepancy", "is_farey_neighbour", "lemma1_count", "mean_deviations",
    "multiplicity_histogram", "run_example", "run_scan", "satisfies_theorem1_premises",
    "select_neighbour", "sigma", "sweep_rows", "theorem1_premise_failure",
    "three_term_residual", "verify_identity", "verify_lemma3", "verify_theorem2",
    "write_scan_csv", "write_scan_json", "write_sweep_csv",
]


def test_exports_are_pinned():
    exported = sorted(
        name for name, value in vars(fareysum).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert len(EXPORTS) == 43
    assert exported == EXPORTS
