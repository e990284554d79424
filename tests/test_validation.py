"""Every entry point that takes Farey data rejects it with the same texts.

The coprimality rules ("c/d must be reduced", "a must be prime to b") each
have one home, so the message an unreduced c/d or a non-coprime a produces
is the same whichever function receives it.  So has the range rule
(`numtheory.require_range`): every bound on an integer argument, and its
type, is checked and worded there, for the library and the CLI alike.  The
two validated records, `CountingQuery` and `ExperimentConfig`, check their
fields however they are built: by call, `_make`, `_replace` or a pickle
round trip.
"""

import ast
import inspect
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fareysum
from fareysum import cli, farey
from fareysum.counting import CountingQuery, lemma1_count, verify_lemma3, verify_theorem2
from fareysum.dedekind import dedekind_fast, dedekind_naive
from fareysum.experiments import ExperimentConfig, format_decimal, run_scan, select_neighbour
from fareysum.farey import farey_context, is_farey_neighbour, theorem1_premise_failure
from fareysum.knopp import decompose
from fareysum.numtheory import d_part, factorize

NOT_PRIME_TO_B = "a must be prime to b: gcd(10, 100) = 10"

# entry point -> (call with c/d = 2/4, call with a = 10, b = 100 or None)
ENTRY_POINTS = {
    "farey_context": (lambda: farey_context(1000, 2, 4, 501),
                      lambda: farey_context(100, 0, 1, 10)),
    "is_farey_neighbour": (lambda: is_farey_neighbour(1000, 2, 4, 501),
                           lambda: is_farey_neighbour(100, 0, 1, 10)),
    "theorem1_premise_failure": (lambda: theorem1_premise_failure(1000, 2, 4, 501, 1),
                                 lambda: theorem1_premise_failure(100, 0, 1, 10, 1)),
    # the identity itself accepts any a; the premise check does not
    "decompose": (lambda: decompose(501, 1000, 2, 4, 1),
                  lambda: decompose(10, 100, 0, 1, 1, require_theorem1=True)),
    "CountingQuery": (lambda: CountingQuery(4, 1, 2, 4), None),
    "ExperimentConfig": (
        lambda: ExperimentConfig(n=1, d=4, c_list=(2,), b_start=1000, b_count=1), None),
    "lemma1_count": (lambda: lemma1_count(4, 4, 2), None),
    # a candidate a that is not prime to b is classified, not refused
    "select_neighbour": (lambda: select_neighbour(102, 2, 4, 1), None),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejections_share_one_text(name):
    unreduced, not_prime = ENTRY_POINTS[name]
    # Lemma 1 names its residue s, so only the rule's name differs there
    rule = "s must be prime to d" if name == "lemma1_count" else "c/d must be reduced"
    with pytest.raises(ValueError, match=re.escape(f"{rule}: gcd(2, 4) = 2")):
        unreduced()
    if not_prime is not None:
        with pytest.raises(ValueError, match=re.escape(NOT_PRIME_TO_B)):
            not_prime()


# a valid record, the fields that make it invalid, and the message they give
GOOD_QUERY = CountingQuery(6, 3, 1, 3)
GOOD_CONFIG = ExperimentConfig(n=2, d=3, c_list=(1, 2), b_start=1000, b_count=1)
SEED_RANGE = f"rng_seed must be an integer in [0, {2 ** 64 - 1}]"
B_COUNT_RANGE = "b_count must be an integer in [0, 1000000]"
BAD_RECORDS = {
    "query_bad_n": (GOOD_QUERY, {"n": 0}, "n must be an integer >= 1, got 0"),
    "query_bad_d": (GOOD_QUERY, {"d": 0}, "d must be an integer >= 1, got 0"),
    # 6 % 2.0 == 0.0, so only the type check refuses a float m
    "query_float_m": (GOOD_QUERY, {"m": 2.0}, "m must be an integer in [1, 6], got 2.0"),
    "query_m_not_dividing_n": (GOOD_QUERY, {"m": 4}, "m = 4 must be a positive divisor of n = 6"),
    "config_bad_n": (GOOD_CONFIG, {"n": 0}, "n must be an integer in [1, 10000], got 0"),
    "config_bad_d": (GOOD_CONFIG, {"d": 0}, "d must be an integer >= 1, got 0"),
    "config_negative_b_count": (GOOD_CONFIG, {"b_count": -1}, f"{B_COUNT_RANGE}, got -1"),
    "config_float_b_count": (GOOD_CONFIG, {"b_count": 2.0}, f"{B_COUNT_RANGE}, got 2.0"),
    "config_b_count_above_limit": (GOOD_CONFIG, {"b_count": 10 ** 6 + 1}, f"{B_COUNT_RANGE}, got 1000001"),
    "config_repeated_c": (GOOD_CONFIG, {"c_list": (1, 2, 1)}, "c = 1 is repeated in c_list"),
    # splitmix64 keeps only the low 64 bits, so any other seed would echo a value it did not use
    "config_seed_negative": (GOOD_CONFIG, {"rng_seed": -1}, f"{SEED_RANGE}, got -1"),
    "config_seed_too_large": (GOOD_CONFIG, {"rng_seed": 2 ** 64}, f"{SEED_RANGE}, got {2 ** 64}"),
    "config_float_seed": (GOOD_CONFIG, {"rng_seed": 5.0}, f"{SEED_RANGE}, got 5.0"),
}

# every way to build a record: (good record, field changes, all field values)
BUILDS = {
    "call": lambda good, changes, values: type(good)(*values),
    "make": lambda good, changes, values: type(good)._make(values),
    "replace": lambda good, changes, values: good._replace(**changes),
    # pickle rebuilds through the class; the unchecked tuple stands in for a tampered one
    "pickle": lambda good, changes, values: pickle.loads(
        pickle.dumps(tuple.__new__(type(good), values))),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_records_validate_on_every_construction_path(case, build):
    good, changes, message = BAD_RECORDS[case]
    rebuilt = BUILDS[build](good, {}, tuple(good))
    assert type(rebuilt) is type(good) and rebuilt == good
    values = [changes.get(name, value) for name, value in zip(good._fields, good)]
    with pytest.raises(ValueError, match=re.escape(message)):
        BUILDS[build](good, changes, values)


TABLE_CONFIG = ExperimentConfig(n=12, d=9, c_list=(1,), b_start=10 ** 8 + 1, b_count=2)
# entry point -> calls with a 0, out-of-range or float argument, and the one text each gives
RANGE_CASES = {
    "dedekind_fast": [(lambda: dedekind_fast(1, 0), "b must be an integer >= 1, got 0"),
                      (lambda: dedekind_fast(1, 7.0), "b must be an integer >= 1, got 7.0"),
                      (lambda: dedekind_fast(1.5, 7), "a must be an integer, got 1.5")],
    "dedekind_naive": [(lambda: dedekind_naive(1, 0), "b must be an integer in [1, 1000000], got 0"),
                       (lambda: dedekind_naive(1, 7.0), "b must be an integer in [1, 1000000], got 7.0")],
    "decompose": [(lambda: decompose(1, 3, 0, 0, 2), "d must be an integer >= 1, got 0"),
                  (lambda: decompose(1, 3, 0, 1, 10 ** 4 + 1), "n must be an integer in [1, 10000], got 10001"),
                  (lambda: decompose(1, 3, 0, 1, 2.0), "n must be an integer in [1, 10000], got 2.0"),
                  (lambda: decompose(2.0, 7, 0, 1, 2), "a must be an integer, got 2.0"),
                  (lambda: decompose(0.0, 7, 0, 1, 2), "a must be an integer, got 0.0")],
    "is_farey_neighbour": [(lambda: is_farey_neighbour(1000, 1, 0, 112), "d must be an integer >= 1, got 0"),
                           (lambda: is_farey_neighbour(1000.0, 1, 9, 112), "b must be an integer >= 1, got 1000.0"),
                           (lambda: is_farey_neighbour(1000, 1.0, 9, 112), "c must be an integer, got 1.0")],
    "theorem1_premise_failure": [
        (lambda: theorem1_premise_failure(10 ** 8, 1, 9, 11111111, 0), "n must be an integer >= 1, got 0"),
        (lambda: theorem1_premise_failure(10 ** 8, 1, 9, 11111111, 12.0), "n must be an integer >= 1, got 12.0")],
    "select_neighbour": [(lambda: select_neighbour(0, 1, 9, 12), "b must be an integer >= 1, got 0"),
                         (lambda: select_neighbour(10 ** 8, 1, 9, 12.0), "n must be an integer >= 1, got 12.0"),
                         (lambda: select_neighbour(10 ** 8 + 1, 1.0, 9, 12), "c must be an integer, got 1.0")],
    "lemma1_count": [(lambda: lemma1_count(0, 3, 1), "r must be an integer >= 1, got 0"),
                     (lambda: lemma1_count(4, 3.0, 1), "d must be an integer >= 1, got 3.0")],
    "verify_lemma3": [(lambda: verify_lemma3(0, 3, 1, 1, 3), "n1 must be an integer >= 1, got 0"),
                      (lambda: verify_lemma3(2, 3.0, 1, 1, 3), "n2 must be an integer >= 1, got 3.0")],
    "d_part": [(lambda: d_part(0, 3), "r must be an integer >= 1, got 0"),
               (lambda: d_part(4, 2.0), "d must be an integer >= 1, got 2.0")],
    "factorize": [(lambda: factorize(0), "n must be an integer >= 1, got 0"),
                  (lambda: factorize(2.0), "n must be an integer >= 1, got 2.0")],
    "format_decimal": [(lambda: format_decimal(Fraction(1, 3), 0), "sig_digits must be an integer >= 1, got 0"),
                       (lambda: format_decimal(Fraction(1, 3), 2.0), "sig_digits must be an integer >= 1, got 2.0")],
    "verify_theorem2": [(lambda: verify_theorem2(0, 3), "max_n must be an integer in [1, 10000], got 0"),
                        (lambda: verify_theorem2(3, 2.0), "max_d must be an integer in [1, 10000], got 2.0")],
    "run_scan": [(lambda: run_scan(TABLE_CONFIG, jobs=0), "jobs must be an integer >= 1, got 0"),
                 (lambda: run_scan(TABLE_CONFIG, jobs=2.0), "jobs must be an integer >= 1, got 2.0")],
}


@pytest.mark.parametrize("name", sorted(RANGE_CASES))
def test_range_rejections_share_one_text(name):
    for call, message in RANGE_CASES[name]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("argv, message", [
    (["scan", "--n", "12", "--d", "9", "--c", "1", "--b-start", "100000001", "--b-count", "4",
      "--jobs", "0", "--csv"], "jobs must be an integer >= 1, got 0"),
    (["verify-counting", "--max-n", "10", "--max-d", "3", "--jobs", "0", "--csv"],
     "jobs must be an integer >= 1, got 0"),
    (["sum", "1", "0"], "b must be an integer >= 1, got 0"),
], ids=["scan-jobs", "verify-counting-jobs", "sum"])
def test_cli_ranges_give_the_library_text(capsys, tmp_path, argv, message):
    if argv[-1] == "--csv":
        argv = argv + [str(tmp_path / "report.csv")]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"fareysum: error: {message}"]
    assert list(tmp_path.iterdir()) == []


RANGE_PHRASES = ("must be an integer", "positive integer", "must lie in", "must be >=")


def test_range_rule_is_worded_only_in_numtheory():
    package = Path(fareysum.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "numtheory.py":
            text = path.read_text()
            assert not [phrase for phrase in RANGE_PHRASES if phrase in text], path.name


def test_no_float_arithmetic_in_the_package():
    # exactness: no true division, float literal, float() or sqrt anywhere in src/
    package = Path(fareysum.__file__).parent
    for path in sorted(package.glob("*.py")):
        found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                 or isinstance(node, ast.Constant) and type(node.value) is float
                 or isinstance(node, ast.Name) and node.id in ("float", "sqrt")
                 or isinstance(node, ast.Attribute) and node.attr == "sqrt"]
        assert found == [], path.name


FAREY_PHRASES = ("c/d must be reduced", "Farey order out of range", "a must be prime to b",
                 "strict positivity fails", "admissible window fails", "alpha lower bound fails")
WINDOW = "(q + d) ** 2"


def test_farey_rules_are_written_only_in_farey():
    package = Path(fareysum.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "farey.py":
            text = path.read_text()
            assert not [phrase for phrase in FAREY_PHRASES if phrase in text], path.name
    # the window inequality is computed in one function, whichever entry point asks
    total = sum(path.read_text().count(WINDOW) for path in package.glob("*.py"))
    assert total > 0 and inspect.getsource(farey._window_failure).count(WINDOW) == total
