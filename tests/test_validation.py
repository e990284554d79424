"""Every entry point that takes Farey data rejects it with the same texts.

The coprimality rules ("c/d must be reduced", "a must be prime to b") each
have one home, so the message an unreduced c/d or a non-coprime a produces
is the same whichever function receives it.
"""

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
