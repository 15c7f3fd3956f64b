"""
Acceptance gate: each test below runs one numbered acceptance criterion at
its stated tolerance (everything here is exact) and prints one summary line.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines appear;
each line also shows the criterion's wall time, for information only (no
time limit is asserted).
"""

import random
import time

import pytest

from spherebraid import amalgams, classifier, groups, oracle, suites, words
from spherebraid.oracle import Order
from test_classifier import reference_vtilde
from test_oracle import artin_action_reference, is_inner, random_word, sphere_relators


def report(num, label, ok, t0):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} ({time.time() - t0:5.1f}s) {label}"
    print(line)
    assert ok, line


def suite_ok(suite_id, n_range=None):
    res = suites.run_suite(suite_id, n_range)
    if not res.passed:
        for c in res.checks:
            if not c.passed:
                print(f"  failed check: {res.suite}/{c.check_id}")
    return res.passed


def test_criterion_1_coset_enumeration():
    t0 = time.time()
    ok = groups.sphere_three_strand_table().order == 12
    for m in range(2, 11):
        ok = ok and groups.make_group("dicyclic", m).order == 4 * m
    ok = ok and groups.make_group("dicyclic", 4).order == 16
    ok = ok and groups.make_group("T*").order == 24
    ok = ok and groups.make_group("O*").order == 48
    ok = ok and groups.make_group("I*").order == 120
    report(1, "coset enumeration orders (12, 4m, 16, 24, 48, 120)", ok, t0)


def test_criterion_2_torsion():
    t0 = time.time()
    ok = True
    for n in range(4, 11):
        ft = words.full_twist(n)
        for i in (0, 1, 2):
            a = words.alpha(n, i)
            ok = ok and oracle.order_of(a) == Order.finite(2 * (n - i))
            ok = ok and oracle.equals(ft, a ** (n - i))
        ok = ok and oracle.order_of(ft) == Order.finite(2)
    report(2, "torsion orders and full-twist roots, n = 4..10", ok, t0)


def test_criterion_3_word_problem_soundness():
    t0 = time.time()
    rng = random.Random(20260808)
    ok = True
    for n in range(4, 9):
        ft = words.full_twist(n)
        for _ in range(200):
            w = words.word(
                n,
                [rng.choice([1, -1]) * rng.randint(1, n - 1)
                 for _ in range(rng.randint(1, 20))],
            )
            ok = ok and oracle.equals(w * w.inv(), words.identity(n))
            ok = ok and not oracle.equals(w, w * ft)
            ok = ok and oracle.commute(w, ft)
    # Trivial words that are not trivial letter by letter: a random conjugate
    # of a braid, far-commutation or sphere relator, or of FT^2, inserted
    # into a random word, so that the screens and the exact check decide.
    for n in range(4, 9):
        rels = sphere_relators(n)
        for _ in range(20):
            u = random_word(rng, n, 12)
            g = random_word(rng, n, 8)
            r = rng.choice(rels) ** rng.choice([1, -1])
            cut = rng.randint(0, len(u))
            v = words.word(n, u.letters[:cut]) * g * r * g.inv() * words.word(n, u.letters[cut:])
            ok = ok and v.letters != u.letters and oracle.equals(v, u)
    for n in range(3, 11):
        rel = words.word(n, list(range(1, n - 1)) + [n - 1, n - 1] + list(range(n - 2, 0, -1)))
        ok = ok and is_inner(artin_action_reference(rel)) is not None
    report(3, "random-word soundness (1000 words), 100 disguised trivial words, surface-relation descent", ok, t0)


def test_criterion_4_identity_suites():
    t0 = time.time()
    ok = suite_ok("funda", (4, 8)) and suite_ok("propsomega", (4, 10))
    report(4, "index-shift/half-twist/reversal/block-twist identity suites", ok, t0)


def test_criterion_5_realization_constructions():
    t0 = time.time()
    ok = suite_ok("commalphaigen", (4, 12))
    ok = ok and suite_ok("constq8", (4, 12))
    ok = ok and suite_ok("realV2", (4, 8))
    report(5, "realization construction certificates (commuters, actions, bands)", ok, t0)


def test_criterion_6_finite_group_facts():
    t0 = time.time()
    ok = suite_ok("finite_lattices") and suite_ok("autout")
    report(6, "subgroup lattices, automorphism/outer groups, restriction maps", ok, t0)


def test_criterion_7_amalgams():
    t0 = time.time()
    ok = suite_ok("amalgams")
    report(7, "amalgam normal forms, semidirect certificates, gluing classes", ok, t0)


def test_criterion_8_classifier():
    t0 = time.time()
    ok = suite_ok("classifier_mainodd", (5, 7))

    def shape(n, s, v2=False):
        recs = classifier.enumerate_v2(n) if v2 else classifier.enumerate_v1(n)
        return next(r for r in recs if r.shape == s)

    ok = ok and shape(4, "T* x Z").status == "not_realized"
    q8a = shape(4, "Q8 x|alpha Z")
    ok = ok and q8a.status == "realized" and classifier.witness(q8a).ok
    ok = ok and shape(6, "O* x Z").status == "not_realized"
    ok = ok and shape(6, "O* *_{T*} O*", v2=True).status == "open"
    ok = ok and shape(6, "T* x|omega Z").status == "open"
    ok = ok and shape(36, "O* *_{T*} O*", v2=True).status == "realized"
    for n in range(4, 13):
        projected = {classifier.project_to_mcg(r).key for r in classifier.enumerate_all(n)}
        tilde = {r.key for r in reference_vtilde(n)}
        ok = ok and projected == tilde
    report(8, "classification statuses and projection onto the mapping-class family", ok, t0)


def test_criterion_9_witness_integrity():
    t0 = time.time()
    ok = True
    verified = 0
    for n in range(4, 13):
        for rec in classifier.enumerate_all(n):
            try:
                w = classifier.witness(rec)
            except classifier.WitnessUnavailable:
                continue
            if not w.ok:
                print(f"  witness failure at n={n}: {rec.shape}")
                ok = False
            verified += 1
    ok = ok and verified == 179
    report(9, f"witness transcripts ({verified} records verified, n = 4..12)", ok, t0)
