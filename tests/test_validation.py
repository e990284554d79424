"""Every entry point that takes Farey data rejects it with the same texts.

The coprimality rules ("c/d must be reduced", "a must be prime to b") each
have one home, so the message an unreduced c/d or a non-coprime a produces
is the same whichever function receives it.  The two validated records,
`CountingQuery` and `ExperimentConfig`, check their fields however they
are built: by call, `_make`, `_replace` or a pickle round trip.
"""

import pickle
import re

import pytest

from fareysum.counting import CountingQuery, lemma1_count
from fareysum.experiments import ExperimentConfig
from fareysum.farey import farey_context, is_farey_neighbour, theorem1_premise_failure
from fareysum.knopp import decompose

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
BAD_RECORDS = {
    "query_bad_n": (GOOD_QUERY, {"n": 0}, "n and d must be positive integers"),
    "query_m_not_dividing_n": (GOOD_QUERY, {"m": 4}, "m = 4 must be a positive divisor of n = 6"),
    "config_bad_n": (GOOD_CONFIG, {"n": 0}, "n must lie in [1, 10000], got 0"),
    "config_repeated_c": (GOOD_CONFIG, {"c_list": (1, 2, 1)}, "c = 1 is repeated in c_list"),
    # splitmix64 keeps only the low 64 bits, so any other seed would echo a value it did not use
    "config_seed_negative": (GOOD_CONFIG, {"rng_seed": -1},
                             "rng_seed must be a 64-bit word in [0, 2**64), got -1"),
    "config_seed_too_large": (GOOD_CONFIG, {"rng_seed": 2 ** 64},
                              f"rng_seed must be a 64-bit word in [0, 2**64), got {2 ** 64}"),
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
