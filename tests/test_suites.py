from functools import lru_cache

import pytest

from spherebraid import classifier, groups, suites
from spherebraid.suites import _SUITES, SUITE_IDS, default_range, run_suite


class TestRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_bad_range(self):
        for n_range in ((2, 5), (6, 4)):
            with pytest.raises(ValueError):
                run_suite("torsion", n_range)

    @pytest.mark.parametrize("suite", ["funda", "commalphaigen", "realV2"])
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


class TestConstructionChecks:
    def test_renamed_claim_label_fails_its_check(self, monkeypatch):
        # A claim label that no longer matches its check-id template must
        # fail that check, not drop it from the suite.
        before = run_suite("constq8", (4, 8))
        construction = classifier._construction

        def renamed(*args):
            gens, claims = construction(*args)
            return gens, tuple(("renamed",) + c[1:] if c[0] == "axis swaps y into x" else c
                               for c in claims)

        monkeypatch.setattr(classifier, "_construction", renamed)
        after = run_suite("constq8", (4, 8))
        assert before.passed and not after.passed
        assert [c.check_id for c in after.checks] == [c.check_id for c in before.checks]
        assert [c.check_id for c in after.checks if not c.passed] == [
            f"n={n}/swap-y-to-x" for n in (4, 6, 8)]


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
