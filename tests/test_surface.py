"""The public surface: every name `fareysum` exports, pinned by name.

A name joins or leaves this list only together with the code that needs it.
Every exported record type is a NamedTuple: immutable, compared as a tuple,
read with `_asdict()` and copied with `_replace()`.  No record carries hidden
state in a `__dict__`, and every record the package returns hashes.
"""

import inspect
import json
import pickle

import pytest

import fareysum
from fareysum import (
    CountingQuery, ExperimentConfig, ScanAggregate, ScanRecord, farey_context, run_example,
    run_scan, verify_theorem2, write_scan_json,
)

EXPORTS = [
    "CountingQuery", "Decomposition", "ExampleReport", "ExperimentConfig",
    "FareyContext", "KnoppTerm", "PremiseError", "ScanAggregate", "ScanRecord",
    "ScanReport", "SweepReport", "SweepRow", "count_A_brute", "count_A_formula",
    "d_part", "decompose", "dedekind_fast", "dedekind_naive", "deviation_profile",
    "euler_phi", "farey_context", "identity_discrepancy", "is_farey_neighbour",
    "lemma1_count", "mean_deviations", "run_example", "run_scan",
    "satisfies_theorem1_premises", "select_neighbour", "sigma", "theorem1_premise_failure",
    "three_term_residual", "verify_identity", "verify_lemma3", "verify_theorem2",
    "write_scan_csv", "write_scan_json",
]

# plumbing behind the exports, imported from its module
PLUMBING = {
    "numtheory": ["divisors", "factorize"],
    "counting": ["multiplicity_histogram", "sweep_rows", "write_sweep_csv"],
    "experiments": ["format_decimal"],
}


def test_exports_are_pinned():
    exported = sorted(
        name for name, value in vars(fareysum).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert len(EXPORTS) == 37
    assert exported == EXPORTS


def test_plumbing_is_imported_from_its_module():
    for module, names in PLUMBING.items():
        assert all(callable(getattr(getattr(fareysum, module), name)) for name in names)
        assert [name for name in names if hasattr(fareysum, name)] == []


RECORD_TYPES = [value for value in vars(fareysum).values()
                if inspect.isclass(value) and value is not fareysum.PremiseError]


def test_every_exported_class_but_the_error_is_a_named_tuple():
    assert len(RECORD_TYPES) == 11
    assert [cls.__name__ for cls in RECORD_TYPES
            if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))] == []


def test_no_record_gives_its_instances_a_dict():
    assert [cls.__name__ for cls in RECORD_TYPES if "__dict__" in dir(cls)] == []


@pytest.fixture(scope="module")
def pooled_report():
    # with two CPUs or more the records cross the pool; one cell is ruled out
    config = ExperimentConfig(n=12, d=9, c_list=(1, 2), b_start=10 ** 8 + 1, b_count=16)
    return run_scan(config, jobs=2)


def test_scan_json_keys_are_the_record_fields(pooled_report, tmp_path):
    path = tmp_path / "scan.json"
    write_scan_json(pooled_report, str(path))
    doc = json.loads(path.read_text())
    assert set(doc["config"]) == {*ExperimentConfig._fields, "thresholds", "generator"}
    assert {rec["ruled_out_reason"] for rec in doc["records"]} == {"none", "gcd_failed"}
    assert all(set(rec) == set(ScanRecord._fields) for rec in doc["records"])
    shares = {"pct_m1_ge_t1_hi", "pct_m1_lt_t1_lo", "pct_m2_ge_t2_hi", "pct_m2_lt_t2_lo"}
    assert [set(agg) for agg in doc["aggregates"]] == [{*ScanAggregate._fields, *shares}] * 2


def test_scan_report_survives_a_pickle_round_trip(pooled_report):
    again = pickle.loads(pickle.dumps(pooled_report))
    assert again == pooled_report
    assert type(again.config) is ExperimentConfig and type(again.records[0]) is ScanRecord


def test_every_returned_record_hashes(pooled_report):
    example = run_example()
    records = [example, example.decomposition, pooled_report, verify_theorem2(6, 6),
               farey_context(31537789, 1, 9, 3504214), CountingQuery(n=6, m=2, c=1, d=5)]
    assert all(isinstance(hash(record), int) for record in records)
