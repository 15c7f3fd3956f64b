import dataclasses
from functools import lru_cache

import pytest

from spherebraid import amalgams, classifier, groups, suites
from spherebraid.suites import _SUITES, SUITE_IDS, default_range, run_suite


class TestRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_bad_range(self):
        for n_range in ((2, 5), (6, 4)):
            with pytest.raises(ValueError):
                run_suite("torsion", n_range)

    @pytest.mark.parametrize("suite", ["funda", "commalphaigen", "constq8", "realV2"])
    def test_range_below_least_n(self, suite):
        assert _SUITES[suite].least == 4
        for n_range in ((3, 5), (3, 3)):
            with pytest.raises(ValueError, match=f"suite {suite} holds for n >= 4 only"):
                run_suite(suite, n_range)

    @pytest.mark.parametrize("suite", [s for s in SUITE_IDS if _SUITES[s].least == 3
                                       and default_range(s)[0] > 3])
    def test_suites_holding_from_three_strands_pass_there(self, suite):
        res = run_suite(suite, (3, 3))
        assert res.passed and res.n_range == (3, 3)

    @pytest.mark.parametrize("suite", SUITE_IDS)
    def test_every_suite_passes_on_small_range(self, suite):
        lo, hi = default_range(suite)
        res = run_suite(suite, (lo, min(hi, lo + 2)))
        assert res.passed, [c.check_id for c in res.checks if not c.passed]
        assert res.counts[1] == 0

    @pytest.mark.parametrize("suite", SUITE_IDS)
    def test_check_ids_unique_over_default_range(self, suite):
        gen, (lo, hi), _ = _SUITES[suite]
        ids = [check_id for check_id, _ in gen(lo, hi)]
        assert len(ids) == len(set(ids))

    def test_deterministic_check_order(self):
        a = run_suite("torsion", (4, 5))
        b = run_suite("torsion", (4, 5))
        assert [c.check_id for c in a.checks] == [c.check_id for c in b.checks]
        assert a.passed == b.passed

    def test_overall_flag_matches_checks(self):
        res = run_suite("presentation")
        assert res.passed == all(c.passed for c in res.checks)


Q8 = classifier.GroupDesc("Dic", 2)


def claim_ids(lo, hi, keep, indexed):
    """``<where>/<label>`` for every claim of the constructions of the
    realized records kept, at each deletion index when ``indexed``."""
    ids = []
    for n in range(lo, hi + 1):
        for rec in classifier.enumerate_all(n):
            if rec.status != "realized" or not keep(rec):
                continue
            for i in rec.admissible_i if indexed else (None,):
                try:
                    _, claims = classifier._construction(classifier._shape(rec), n, i)
                except classifier.WitnessUnavailable:
                    continue
                where = f"n={n}/{rec.shape}" + ("" if i is None else f"/i={i}")
                ids += [f"{where}/{claim[0]}" for claim in claims]
    return ids


class TestRealizationChecks:
    @pytest.mark.parametrize("suite,keep,indexed", [
        ("commalphaigen", lambda r: r.kind == "I" and r.admissible_i, True),
        ("constq8", lambda r: r.factor == Q8, False),
        ("realV2", lambda r: r.shape == "Z4 *_{Z2} Z4", False),
    ])
    def test_checks_are_the_construction_claims_in_order(self, suite, keep, indexed):
        lo, hi = default_range(suite)
        ids = [c.check_id for c in run_suite(suite).checks]
        want = claim_ids(lo, hi, keep, indexed)
        # realV2 keeps its hand-written band identities in front.
        head = len(ids) - len(want)
        assert want and ids[head:] == want
        assert not any("Z4 *_{Z2} Z4" in check_id for check_id in ids[:head])

    def test_constq8_reads_words_from_the_table_alone(self):
        # Q8 x|alpha Z has no words at n = 6 and 10 (open there) nor at
        # n = 18 (realized geometrically), and words at n = 4, 8, 12 and 16.
        ids = [c.check_id for c in run_suite("constq8", (4, 18)).checks]
        alpha = sorted({int(i.split("/")[0][2:]) for i in ids if "Q8 x|alpha Z/" in i})
        assert alpha == [4, 8, 12, 16]
        assert {int(i.split("/")[0][2:]) for i in ids if "Q8 x Z/" in i} == set(range(4, 19, 2))

    def test_renamed_claim_label_renames_its_check(self, monkeypatch):
        # The renamed claim is made false, so its failure shows it still runs.
        before = run_suite("constq8", (4, 8))
        construction = classifier._construction

        def renamed(*args):
            gens, claims = construction(*args)
            return gens, tuple(("renamed", "infinite", c[3]) if c[0] == "axis swaps y into x" else c
                               for c in claims)

        monkeypatch.setattr(classifier, "_construction", renamed)
        after = run_suite("constq8", (4, 8))
        assert before.passed
        assert [c.check_id for c in after.checks] == [
            c.check_id.replace("axis swaps y into x", "renamed") for c in before.checks]
        assert [c.check_id for c in after.checks if not c.passed] == [
            f"n={n}/Q8 x|beta Z/renamed" for n in (4, 6, 8)]


class TestClassifierMainodd:
    def test_default_range_passes(self):
        res = run_suite("classifier_mainodd")
        assert res.passed and [c.check_id for c in res.checks] == [
            f"n={n}/realized-set-matches-odd-classification" for n in range(5, 21, 2)]

    def test_an_open_record_at_odd_n_fails(self, monkeypatch):
        enumerate_all = classifier.enumerate_all
        monkeypatch.setattr(classifier, "enumerate_all", lambda n: tuple(
            r._replace(status="open") if r.shape == "Z2 x Z" else r for r in enumerate_all(n)))
        assert run_suite("classifier_mainodd", (5, 5)).counts == (0, 1)


class TestAutoutBuildsNoTable:
    def test_no_coset_enumeration_once_the_groups_exist(self, monkeypatch):
        # A private make_group cache, so earlier tests cannot have built the
        # tables under other keys; suites imports make_group by name.
        fresh = lru_cache(maxsize=None)(groups.make_group.__wrapped__)
        monkeypatch.setattr(groups, "make_group", fresh)
        monkeypatch.setattr(suites, "make_group", fresh)
        for name in (*groups._PRESENTED, "B3"):
            groups.named_group(name)
        calls = []
        todd_coxeter = groups.todd_coxeter

        def counted(pres):
            calls.append(pres)
            return todd_coxeter(pres)

        monkeypatch.setattr(groups, "todd_coxeter", counted)
        assert run_suite("autout").passed
        assert calls == []


def per_triple_associativity(spec):
    """The associativity check that multiplied out both sides of every triple."""
    ball1 = spec.ball(1)
    prod = [[spec.mul(a, b) for b in ball1] for a in ball1]
    return all(
        spec.mul(prod[i][j], c) == spec.mul(a, prod[j][k])
        for i, a in enumerate(ball1)
        for j in range(len(ball1))
        for k, c in enumerate(ball1)
    )


class TestAmalgamAssociativity:
    def test_broken_squares_get_the_per_triple_verdict(self, monkeypatch):
        # Replace t_1^2 by each element h of F, in the quaternion gluing and
        # in the dicyclic one at once; most such h break associativity.
        quaternion, straight = amalgams.k1(), amalgams.straight_gluing
        dicyclic = straight("dicz", 3)
        got = {"quaternion-straight": [], "dicyclic-12-over-6": []}
        want = {"quaternion-straight": [], "dicyclic-12-over-6": []}
        for h in range(quaternion.f.order):
            broken_q = dataclasses.replace(quaternion, sq=(h, quaternion.sq[1]))
            broken_d = dataclasses.replace(
                dicyclic, sq=(h % dicyclic.f.order, dicyclic.sq[1]))
            monkeypatch.setattr(amalgams, "k1", lambda s=broken_q: s)
            monkeypatch.setattr(
                amalgams, "straight_gluing",
                lambda kind, q, s=broken_d: s if (kind, q) == ("dicz", 3) else straight(kind, q))
            verdicts = {c.check_id: c.passed for c in run_suite("amalgams").checks}
            for name, spec in (("quaternion-straight", broken_q), ("dicyclic-12-over-6", broken_d)):
                got[name].append(verdicts[f"{name}/associativity"])
                want[name].append(per_triple_associativity(spec))
        assert got == want
        assert want == {
            "quaternion-straight": [False, True, False, True, False, False, False, False],
            "dicyclic-12-over-6": [True, False, False, True, False, False, True, False],
        }
