"""The slow witness tier: every realized braid-group record for n = 17..40.

Tier-1 checks witnesses up to n = 16.  This tier runs ``witness`` on every
realized record of ``enumerate_all(n)`` for n = 17..40 and pins how many
verify at each n.  Records realized without braid words (the geometric
constructions) raise ``WitnessUnavailable`` and are not counted.  It also
runs the realization suites past their default ranges: ``commalphaigen``
over n = 4..20, at every deletion index, and ``constq8`` over 4..40.  It lies
outside ``testpaths``, so the tier-1 command does not collect it; run it
with

    PYTHONPATH=src python -m pytest -q slow

It takes about 50 s in one process on two shared vCPUs.
"""

import pytest

from spherebraid import classifier, suites

VERIFIED = {
    17: 21, 18: 51, 19: 11, 20: 59, 21: 23, 22: 47, 23: 19, 24: 61,
    25: 21, 26: 61, 27: 25, 28: 49, 29: 23, 30: 71, 31: 15, 32: 75,
    33: 23, 34: 49, 35: 31, 36: 71, 37: 29, 38: 65, 39: 19, 40: 65,
}


@pytest.mark.parametrize("n", sorted(VERIFIED))
def test_every_witness_with_words_verifies(n):
    verified, failed = 0, []
    for rec in classifier.enumerate_all(n):
        if rec.status != "realized":
            continue
        try:
            wit = classifier.witness(rec)
        except classifier.WitnessUnavailable:
            continue
        if wit.ok:
            verified += 1
        else:
            failed.append(rec.shape)
    assert failed == []
    assert verified == VERIFIED[n]


@pytest.mark.parametrize("suite,n_range,count", [
    ("commalphaigen", (4, 20), 934), ("constq8", (4, 40), 220),
])
def test_realization_suite_past_its_default_range(suite, n_range, count):
    res = suites.run_suite(suite, n_range)
    assert [c.check_id for c in res.checks if not c.passed] == []
    assert len(res.checks) == count
