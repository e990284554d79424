"""Exact Dedekind sums near Farey points.

Normalized Dedekind sums S(a, b) = 12 s(a, b) evaluated exactly, Farey
neighbour predicates decided in integer arithmetic, the Petersson-Knopp
decomposition with per-term expected values, the multiplicity counting
theorem verified by three independent routes, and reproducible deviation
scans with CSV/JSON reports.
"""

from .counting import (
    CountingQuery,
    SweepReport,
    SweepRow,
    count_A_brute,
    count_A_formula,
    lemma1_count,
    verify_lemma3,
    verify_theorem2,
)
from .dedekind import dedekind_fast, dedekind_naive
from .farey import (
    FareyContext,
    PremiseError,
    farey_context,
    is_farey_neighbour,
    satisfies_theorem1_premises,
    theorem1_premise_failure,
)
from .knopp import (
    Decomposition,
    KnoppTerm,
    decompose,
    deviation_profile,
    identity_discrepancy,
    three_term_residual,
    verify_identity,
)
from .experiments import (
    ExampleReport,
    ExperimentConfig,
    ScanAggregate,
    ScanRecord,
    ScanReport,
    mean_deviations,
    run_example,
    run_scan,
    select_neighbour,
    write_scan_csv,
    write_scan_json,
)
from .numtheory import d_part, euler_phi, sigma

__version__ = "0.1.0"
