import hashlib
import importlib.util
import sys
from functools import lru_cache
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import NamedTuple

import pytest

from spherebraid.classifier import (
    GroupDesc,
    VcClassRecord,
    WitnessUnavailable,
    enumerate_all,
    enumerate_v1,
    enumerate_v2,
    enumerate_vtilde,
    project_to_mcg,
    witness,
)
from spherebraid import classifier, groups, oracle, suites
from spherebraid.groups import (
    _index_two_cyclic,
    action_catalog,
    aut_from_gen_images,
    classify_action,
    make_group,
    quotient,
    same_semidirect_class,
    structure_name,
)
from spherebraid.words import (
    alpha, delta_comm, eta_elt, half_twist, identity, omega1, parse_braid, permutation,
    zeta_elt,
)


def shapes(records):
    return {r.shape for r in records}


def by_shape(records, shape):
    return next(r for r in records if r.shape == shape)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


# The maximal-finite-subgroup list, kept here as an independent reference for
# the factors the enumerator names; the engine itself has no caller for it.
class FiniteClassRecord(NamedTuple):
    desc: GroupDesc
    maximal: bool
    inside: tuple[str, ...]  # names of the maximal families containing it


def _maximal_families(n):
    out = []
    if n >= 5:
        out.append(GroupDesc("Z", 2 * (n - 1)))
    out.append(GroupDesc("Dic", n))
    if n == 5 or n >= 7:
        out.append(GroupDesc("Dic", n - 2))
    if n % 6 == 4:
        out.append(GroupDesc("T*"))
    if n % 6 in (0, 2):
        out.append(GroupDesc("O*"))
    if n % 30 in (0, 2, 12, 20):
        out.append(GroupDesc("I*"))
    return out


_BINARY_SUBGROUPS = {
    "T*": (GroupDesc("Z", 1), GroupDesc("Z", 2), GroupDesc("Z", 3), GroupDesc("Z", 4),
           GroupDesc("Z", 6), GroupDesc("Dic", 2), GroupDesc("T*")),
    "O*": (GroupDesc("Z", 1), GroupDesc("Z", 2), GroupDesc("Z", 3), GroupDesc("Z", 4),
           GroupDesc("Z", 6), GroupDesc("Z", 8), GroupDesc("Dic", 2), GroupDesc("Dic", 3),
           GroupDesc("Dic", 4), GroupDesc("T*"), GroupDesc("O*")),
    "I*": (GroupDesc("Z", 1), GroupDesc("Z", 2), GroupDesc("Z", 3), GroupDesc("Z", 4),
           GroupDesc("Z", 5), GroupDesc("Z", 6), GroupDesc("Dic", 2), GroupDesc("Z", 10),
           GroupDesc("Dic", 3), GroupDesc("Dic", 5), GroupDesc("T*"), GroupDesc("I*")),
}


def _subgroup_classes(desc):
    if desc.family == "Z":
        return tuple(GroupDesc("Z", d) for d in divisors(desc.param))
    if desc.family == "Dic":
        m = desc.param
        cyc = [GroupDesc("Z", d) for d in divisors(2 * m)]
        dic = [GroupDesc("Dic", d) for d in divisors(m) if d >= 2]
        return tuple(cyc + dic)
    return _BINARY_SUBGROUPS[desc.family]


def finite_classes(n):
    """All finite subgroup isomorphism classes for the given strand count,
    with maximality flags and the maximal families containing each."""
    if n < 4:
        raise ValueError(f"the classification needs n >= 4, got {n}")
    maximal = _maximal_families(n)
    containers = {}
    for fam in maximal:
        for sub in _subgroup_classes(fam):
            containers.setdefault(sub, []).append(str(fam))
    return tuple(FiniteClassRecord(desc, desc in maximal, tuple(containers[desc]))
                 for desc in sorted(containers))


class TestFiniteClasses:
    def test_maximal_classes_smallest_case(self):
        recs = finite_classes(4)
        maximal = {str(r.desc) for r in recs if r.maximal}
        assert maximal == {"Q16", "T*"}
        z6 = next(r for r in recs if str(r.desc) == "Z6")
        assert "T*" in z6.inside

    def test_five_strands_contains_expected(self):
        names = {str(r.desc) for r in finite_classes(5)}
        assert {"Z8", "Dic20", "Dic12"} <= names

    @pytest.mark.parametrize("n", range(4, 13))
    def test_order_two_always_present(self, n):
        assert any(str(r.desc) == "Z2" for r in finite_classes(n))

    def test_n_below_four_rejected(self):
        with pytest.raises(ValueError):
            finite_classes(3)

    def test_congruence_gates(self):
        assert any(str(r.desc) == "I*" for r in finite_classes(12))
        assert not any(str(r.desc) == "I*" for r in finite_classes(6))
        assert any(str(r.desc) == "O*" for r in finite_classes(6))
        assert not any(str(r.desc) == "O*" for r in finite_classes(4))


def _independent_type1_predicate(r: VcClassRecord) -> bool:
    """Re-derivation of the Type I membership conditions, written directly
    from the defining divisibility clauses (separate from the enumerator)."""
    n, f, act = r.n, r.factor, r.action
    if f.family == "Z":
        q = f.param
        if act == "trivial":
            return any(
                q in divisors(2 * (n - i)) and q != 2 * (n - i)
                and not ((n - i) % 2 == 1 and q == n - i)
                for i in r.admissible_i
            ) and set(r.admissible_i) <= {0, 1, 2}
        if act == "rho":
            return q >= 3 and all(
                i in (0, 2) and q in divisors(2 * (n - i)) and q != 2 * (n - i)
                and not (n % 2 == 1 and q == n - i)
                for i in r.admissible_i
            )
    if f.family == "Dic" and f.param >= 3:
        m = f.param
        if act == "trivial":
            return all(i in (0, 2) and m in divisors(n - i) and m != n - i
                       for i in r.admissible_i)
        if act == "nu":
            return all(i in (0, 2) and m in divisors(n - i) and ((n - i) // m) % 2 == 0
                       for i in r.admissible_i)
    if f == GroupDesc("Dic", 2):
        return n % 2 == 0 and act in ("trivial", "alpha", "beta")
    if f == GroupDesc("T*"):
        return (act == "trivial" and n % 2 == 0) or (act == "omega" and n % 6 in (0, 2))
    if f == GroupDesc("O*"):
        return act == "trivial" and n % 6 in (0, 2)
    if f == GroupDesc("I*"):
        return act == "trivial" and n % 30 in (0, 2, 12, 20)
    return False


def _independent_type2_predicate(r: VcClassRecord) -> bool:
    n = r.n
    a, b = r.factors
    f = r.amalgamated
    if a.family == "Z" and b.family == "Z":
        q = a.param // 4
        return (a == b == GroupDesc("Z", 4 * q) and f == GroupDesc("Z", 2 * q)
                and all((n - i) % 2 == 0 and q in divisors((n - i) // 2)
                        for i in r.admissible_i))
    if a.family == "Z" and b.family == "Dic":
        q = b.param
        return (q >= 2 and a == GroupDesc("Z", 4 * q) and f == GroupDesc("Z", 2 * q)
                and all(i in (0, 2) and (n - i) % 2 == 0 and q in divisors((n - i) // 2)
                        for i in r.admissible_i))
    if a.family == "Dic" and f.family == "Z":
        q = a.param
        return (q >= 2 and a == b and f == GroupDesc("Z", 2 * q)
                and all(i in (0, 2) and q in divisors(n - i) and q != n - i
                        for i in r.admissible_i))
    if a.family == "Dic" and f.family == "Dic":
        q = a.param
        return (q >= 4 and q % 2 == 0 and a == b and f == GroupDesc("Dic", q // 2)
                and (r.gluing in ("K1", "K2")) == (q == 4)
                and all(i in (0, 2) and q in divisors(n - i) for i in r.admissible_i))
    if a == GroupDesc("O*"):
        return b == GroupDesc("O*") and f == GroupDesc("T*") and n % 6 in (0, 2)
    return False


class TestEnumerationV1:
    def test_five_strands_examples(self):
        v1 = enumerate_v1(5)
        assert "Z4 x Z" in shapes(v1)
        assert not any(r.factor == GroupDesc("Dic", 2) for r in v1)

    def test_six_strands_has_twisted_tetrahedral(self):
        assert "T* x|omega Z" in shapes(enumerate_v1(6))

    def test_quaternion_tags_carry_no_distinctness_claim(self):
        tags = [r.action for r in enumerate_v1(8) if r.factor == GroupDesc("Dic", 2)]
        assert sorted(tags) == ["alpha", "beta", "trivial"]

    @pytest.mark.parametrize("n", range(4, 13))
    def test_independent_predicate(self, n):
        for r in enumerate_v1(n):
            assert _independent_type1_predicate(r), r.shape

    @pytest.mark.parametrize("n", range(4, 13))
    def test_deduplication_by_class(self, n):
        keys = [r.key for r in enumerate_v1(n)]
        assert len(keys) == len(set(keys))


class TestEnumerationV2:
    def test_eight_strands_has_large_cyclic_gluing(self):
        assert "Z16 *_{Z8} Z16" in shapes(enumerate_v2(8))

    def test_six_strands_has_octahedral_amalgam(self):
        assert "O* *_{T*} O*" in shapes(enumerate_v2(6))

    def test_odd_strands_have_no_dicyclic_over_dicyclic(self):
        assert not any(
            r.amalgamated and r.amalgamated.family == "Dic" for r in enumerate_v2(5)
        )

    def test_quaternion16_gluing_splits(self):
        glu = [r.gluing for r in enumerate_v2(8)
               if r.factors == (GroupDesc("Dic", 4), GroupDesc("Dic", 4))
               and r.amalgamated == GroupDesc("Dic", 2)]
        assert sorted(glu) == ["K1", "K2"]

    @pytest.mark.parametrize("n", range(4, 13))
    def test_independent_predicate(self, n):
        for r in enumerate_v2(n):
            assert _independent_type2_predicate(r), r.shape

    @pytest.mark.parametrize("n", range(4, 13))
    def test_factors_appear_in_finite_classes(self, n):
        finite = {r.desc for r in finite_classes(n)}
        for r in enumerate_all(n):
            pieces = (r.factor,) if r.kind == "I" else (*r.factors, r.amalgamated)
            for d in pieces:
                assert d in finite, (r.shape, str(d))


class TestStatuses:
    def test_exclusions(self):
        assert by_shape(enumerate_v1(4), "T* x Z").status == "not_realized"
        assert by_shape(enumerate_v1(6), "O* x Z").status == "not_realized"

    def test_open_sets(self):
        assert by_shape(enumerate_v1(10), "Q8 x|alpha Z").status == "open"
        assert by_shape(enumerate_v1(8), "T* x Z").status == "open"
        assert by_shape(enumerate_v1(6), "T* x|omega Z").status == "open"
        assert by_shape(enumerate_v2(6), "O* *_{T*} O*").status == "open"
        assert by_shape(enumerate_v2(6), "Q16 *_{Q8} Q16 [K2]").status == "open"

    def test_realized_large_cases(self):
        assert by_shape(enumerate_v2(36), "O* *_{T*} O*").status == "realized"
        assert by_shape(enumerate_v1(30), "I* x Z").status == "open"
        assert by_shape(enumerate_v1(60), "I* x Z").status == "realized"
        assert by_shape(enumerate_v1(16), "T* x Z").status == "realized"
        assert by_shape(enumerate_v1(12), "Q8 x|alpha Z").status == "realized"

    def test_k2_congruence_regimes(self):
        assert by_shape(enumerate_v2(10), "Q16 *_{Q8} Q16 [K2]").status == "realized"
        assert by_shape(enumerate_v2(14), "Q16 *_{Q8} Q16 [K2]").status == "open"
        assert by_shape(enumerate_v2(42), "Q16 *_{Q8} Q16 [K2]").status == "realized"

    def test_odd_strand_counts_fully_realized(self):
        for n in (5, 7, 9, 11):
            assert all(r.status == "realized" for r in enumerate_all(n))


class TestProjection:
    def test_factor_projections(self):
        recs = enumerate_v1(14)
        dic24 = next(r for r in recs if r.factor == GroupDesc("Dic", 6) and r.action == "trivial")
        assert project_to_mcg(dic24).factor == GroupDesc("Dih", 6)

    def test_type2_projection_small(self):
        rec = by_shape(enumerate_v2(4), "Z4 *_{Z2} Z4")
        proj = project_to_mcg(rec)
        assert proj.shape == "Z2 *_{1} Z2"

    def test_quaternion_action_projection(self):
        rec = by_shape(enumerate_v1(8), "Q8 x|alpha Z")
        proj = project_to_mcg(rec)
        assert proj.factor == GroupDesc("V4") and proj.action == "alpha~"

    @pytest.mark.parametrize("n", range(4, 13))
    def test_projection_is_onto_the_tilde_family(self, n):
        projected = {project_to_mcg(r).key for r in enumerate_all(n)}
        tilde = {r.key for r in reference_vtilde(n)}
        assert projected == tilde

    @pytest.mark.parametrize("n", range(4, 13))
    def test_projection_statuses_agree(self, n):
        tilde = {r.key: r.status for r in reference_vtilde(n)}
        for rec in enumerate_all(n):
            proj = project_to_mcg(rec)
            assert tilde[proj.key] == proj.status
            if rec.status == "realized":
                assert proj.status == "realized"

    def test_odd_cyclic_preimages_merge(self):
        # Both Z3-by-Z and Z6-by-Z project onto the same mapping-class record.
        recs = enumerate_v1(7)
        z3 = next(r for r in recs if r.factor == GroupDesc("Z", 3) and r.action == "trivial")
        z6 = next(r for r in recs if r.factor == GroupDesc("Z", 6) and r.action == "trivial")
        assert project_to_mcg(z3).key == project_to_mcg(z6).key

    def test_mcg_statuses_track_exclusions(self):
        assert by_shape(enumerate_vtilde(4), "A4 x Z").status == "not_realized"
        assert by_shape(enumerate_vtilde(6), "S4 x Z").status == "not_realized"
        assert by_shape(enumerate_vtilde(6), "S4 *_{A4} S4").status == "open"
        assert by_shape(enumerate_vtilde(8), "Dih8 *_{Dih4} Dih8 [K2']").status == "realized"
        assert by_shape(enumerate_vtilde(14), "Dih8 *_{Dih4} Dih8 [K2']").status == "open"


def _family_switch(desc):
    """The table of a descriptor by a switch over its family, calling
    ``make_group`` through the module so a patched cache is seen."""
    if desc.family == "Z":
        return groups.make_group("cyclic", desc.param)
    if desc.family == "Dic":
        return groups.make_group("dicyclic", desc.param)
    if desc.family == "Dih":
        return groups.make_group("dihedral", desc.param)
    if desc.family == "V4":
        return groups.make_group("klein")
    return groups.make_group(desc.family)


class TestDescTables:
    def test_every_printed_group_resolves_to_its_family_table(self, monkeypatch):
        descs = {d for n in range(4, 201) for recs in (enumerate_all(n), enumerate_vtilde(n))
                 for r in recs for d in ((r.factor,) if r.factor else (*r.factors, r.amalgamated))}
        # A private cache, emptied after each descriptor: the tables reach
        # order 800, and holding all of them takes about 0.8 GB.
        fresh = lru_cache(maxsize=None)(groups.make_group.__wrapped__)
        monkeypatch.setattr(groups, "make_group", fresh)
        for desc in sorted(descs):
            assert desc.table() is _family_switch(desc), desc
            fresh.cache_clear()


class TestOneRecordPerClass:
    """The mapping-class records list classes up to isomorphism.  In Dih_2m,
    conjugation by x^k sends y to x^(2k) y; for odd m, 2k = 1 (mod m) has a
    solution, so the twist nu~ : (x, y) -> (x, xy) is inner and
    Dih_2m x|nu~ Z is the class Dih_2m x Z."""

    @staticmethod
    def _nu_preimages():
        by_m = {}
        for n in range(4, 201):
            for rec in enumerate_v1(n):
                if rec.action == "nu":
                    by_m.setdefault(rec.factor.param, []).append(rec)
        return by_m

    def test_odd_m_merges_into_the_direct_product(self):
        by_m = self._nu_preimages()
        assert min(by_m) == 3 and max(by_m) == 100
        for m, recs in by_m.items():
            for rec in recs:
                proj = project_to_mcg(rec)
                assert proj.factor == GroupDesc("Dih", m)
                assert proj.action == ("trivial" if m % 2 else "nu~"), rec.shape
                tilde = enumerate_vtilde(rec.n)
                assert proj.key in {r.key for r in tilde}
                assert not any(r.factor == proj.factor and r.action == "nu~"
                               for r in tilde if m % 2)

    def test_each_collapsed_pair_is_one_class(self):
        for m in sorted(self._nu_preimages()):
            G = make_group("dihedral", m)
            nu = action_catalog(G)["nu~"]
            if m % 2:
                # x^k with 2k = 1 (mod m) fixes x and sends y to xy.
                x, _ = _index_two_cyclic(G)
                xk = G.pow(x, (m + 1) // 2)
                assert tuple(G.conj(xk, g) for g in range(G.order)) == nu
            assert same_semidirect_class(G, nu, tuple(range(G.order))) == bool(m % 2), m

    def test_type1_records_are_pairwise_non_isomorphic(self):
        # Two Type I records with one factor are one class exactly when
        # their actions are; the factor tables reach order 800 (Dic800).
        pairs = 0
        for n in range(4, 201):
            for records in (enumerate_all(n), enumerate_vtilde(n)):
                actions = {}
                for rec in records:
                    if rec.kind == "I":
                        actions.setdefault(rec.factor, []).append(catalog_tag(rec.action))
                for factor, tags in actions.items():
                    G = factor.table()
                    catalog = action_catalog(G)
                    for a, b in combinations(tags, 2):
                        pairs += 1
                        assert not same_semidirect_class(G, catalog[a], catalog[b]), (
                            n, str(factor), a, b)
        assert pairs == 4805


class TestWitness:
    def test_cyclic_by_z_generators(self):
        rec = by_shape(enumerate_v1(6), "Z4 x Z")
        w = witness(rec)
        assert w.ok
        gens = dict(w.generators)
        assert gens["finite"] == alpha(6, 0) ** 3
        assert gens["axis"] == delta_comm(6, 3, 0)

    def test_quaternion_beta_generators(self):
        rec = by_shape(enumerate_v1(8), "Q8 x|beta Z")
        w = witness(rec)
        assert w.ok
        gens = dict(w.generators)
        assert gens["finite-y"] == half_twist(8)
        assert gens["axis"] == omega1(8) * half_twist(8) == zeta_elt(8)

    def test_derived_cyclic_gluing_witness(self):
        rec = by_shape(enumerate_v2(8), "Z8 *_{Z4} Z8")
        w = witness(rec)
        assert w.ok
        gens = dict(w.generators)
        assert gens["factor-1"] == alpha(8, 0) ** 2
        assert gens["conjugator"] == delta_comm(8, 4, 0)

    def test_unavailable_for_geometric_classes(self):
        with pytest.raises(WitnessUnavailable):
            witness(by_shape(enumerate_v1(16), "T* x Z"))
        with pytest.raises(WitnessUnavailable):
            witness(by_shape(enumerate_v2(36), "O* *_{T*} O*"))

    def test_unavailable_for_open_and_excluded(self):
        with pytest.raises(WitnessUnavailable):
            witness(by_shape(enumerate_v1(4), "T* x Z"))
        with pytest.raises(WitnessUnavailable):
            witness(by_shape(enumerate_v1(10), "Q8 x|alpha Z"))

    def test_unavailable_for_mcg_records(self):
        with pytest.raises(WitnessUnavailable):
            witness(enumerate_vtilde(6)[0])

    def test_k2_witness_at_eight_strands(self):
        rec = by_shape(enumerate_v2(8), "Q16 *_{Q8} Q16 [K2]")
        w = witness(rec)
        assert w.ok
        labels = [label for label, _ in w.transcript]
        assert any("twisted gluing" in lab for lab in labels)

    def test_sweep_beyond_twelve_strands(self):
        verified = 0
        for n in range(13, 17):
            for rec, w in witnesses(n):
                if isinstance(w, str):
                    continue
                assert w.ok, f"witness failure at n={n}: {rec.shape}"
                verified += 1
        assert verified == 116

    def test_large_dicyclic_gluing_past_the_lattice_order(self):
        # Factors of order 208: faithfulness is decided on the prime-order
        # elements, with no subgroup lattice built.
        rec = by_shape(enumerate_v2(52), "Dic208 *_{Dic104} Dic208")
        assert witness(rec).ok

    def test_finite_generators_are_conjugate_to_alpha_powers(self):
        finite = 0
        for n in range(4, 13):
            powers = alpha_power_types(n)
            for rec, w in witnesses(n):
                for role, word in () if isinstance(w, str) else w.generators:
                    order = oracle.order_of(word)
                    if order.is_finite:
                        finite += 1
                        assert (order.value, cycle_type(word)) in powers, (n, rec.shape, role)
        assert finite == 294

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_finite_order_queries_are_conjugate_to_alpha_powers(self, seed):
        stream = load_perfbench_queries().stream(seed)
        finite = 0
        for _ in range(3):
            for q in next(stream):
                if q.op != "order_of" or q.answer is None:
                    continue
                w = parse_braid(q.text, q.n)
                assert oracle.order_of(w).value == q.answer, q
                assert (q.answer, cycle_type(w)) in alpha_power_types(q.n), q
                finite += 1
        assert finite == 42


def cycle_type(w):
    return tuple(sorted(len(c) for c in permutation(w).cycles()))


@lru_cache(maxsize=None)
def alpha_power_types(n):
    """(order, cycle type) of every power of alpha_0, alpha_1 and alpha_2.

    Murasugi: every finite-order element is conjugate to one of these powers,
    so it has the order and the permutation cycle type of one of them
    (alpha_i has order 2(n - i)).
    """
    return frozenset((2 * (n - i) // gcd(2 * (n - i), k), cycle_type(alpha(n, i) ** k))
                     for i in (0, 1, 2) for k in range(1, 2 * (n - i) + 1))


@lru_cache(maxsize=None)
def load_perfbench_queries():
    """The benchmark's known-answer query stream, loaded from its file
    without putting the benchmark directory on the import path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "queries.py"
    spec = importlib.util.spec_from_file_location("perfbench_queries", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while building.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def witnesses(n):
    """(record, witness) for every record at n; the witness is the
    WitnessUnavailable message when there is none."""
    out = []
    for rec in enumerate_all(n):
        try:
            out.append((rec, witness(rec)))
        except WitnessUnavailable as exc:
            out.append((rec, str(exc)))
    return tuple(out)


class TestConstructionGolden:
    """The witness labels and words, and the realization suites' check ids,
    pinned by count and sha256: any change to a construction word, a claim
    label or a check id shows here."""

    def test_realization_suite_check_ids(self):
        ids = []
        for suite in ("commalphaigen", "constq8", "realV2"):
            gen, (lo, hi), _ = suites._SUITES[suite]
            ids += [check_id for check_id, _ in gen(lo, hi)]
        assert len(ids) == 341
        assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == (
            "96623983fc2d6170e234e299b0609a373d359bd1ac8a2d16267e735c6359815e")

    def test_witness_labels_and_words(self):
        lines = []
        for n in range(4, 17):
            for rec, w in witnesses(n):
                if isinstance(w, str):
                    lines.append(f"n={n} {rec.shape}: unavailable: {w}")
                    continue
                lines.append(f"n={n} {rec.shape}")
                lines += [label for label, _ in w.transcript]
                lines += [f"{role}: {word}" for role, word in w.generators]
        assert len(lines) == 2120
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "05646b65e708dc2a2c7f1410b57f5bd2109d4496f431fb9cda32f605804c1f39")


class TestEtaWord:
    """``words.eta_elt`` and the parser's ``eta`` atom name the word the
    classifier claims infinite for every Z4q *_{Z2q} Dic4q record."""

    def test_mixed_product_is_eta(self):
        checked = 0
        for n in range(4, 17):
            for rec in enumerate_all(n):
                a, b = rec.factors or (None, None)
                if rec.kind != "II" or a.family != "Z" or b.family != "Dic":
                    continue
                i = min(rec.admissible_i)
                m = (n - i) // (2 * b.param)
                _, claims = classifier._construction(classifier._shape(rec), n, i)
                (mixed,) = [c[2] for c in claims if c[0] == "mixed product has infinite order"]
                assert mixed.letters == eta_elt(n, i, m).letters, (n, rec.shape)
                assert parse_braid(f"eta({i},{m})", n) == mixed
                if m == 1:
                    assert parse_braid(f"eta({i})", n) == mixed
                checked += 1
        assert checked == 21


def catalog_tag(action):
    """The cyclic catalog names inversion ``rho`` on every cyclic table, so
    the mapping-class tag ``rho~`` is looked up as ``rho``."""
    return "rho" if action == "rho~" else action


def construction_data(rec, w):
    """The factor table, the braid word of each of its elements (from its
    word over the finite generators) and the axis word of a witness."""
    roles = dict(w.generators)
    gens = [roles[r] for r in ("finite", "finite-x", "finite-y") if r in roles]
    T = rec.factor.table()
    elements = []
    for letters in T.words:
        out = identity(rec.n)
        for x in letters:
            out = out * (gens[x - 1] if x > 0 else gens[-x - 1].inv())
        elements.append(out)
    return T, elements, roles["axis"]


def action_from_words(T, elements, z, same):
    """The tag of the automorphism g -> z g z^-1 of T, where ``same`` decides
    whether two braid words name the same element of T."""
    images = []
    for g in T.generators:
        c = z * elements[g] * z.inv()
        images.append(next(e for e in range(T.order) if same(c, elements[e])))
    return classify_action(T, aut_from_gen_images(T, images))


class TestActionLabelsFromWords:
    """Every Type I label at n = 4..12 is read back off the construction
    words: the axis acts on the factor by conjugation, and the automorphism
    it induces is named by the action catalog."""

    def test_braid_records(self):
        read = 0
        for n in range(4, 13):
            for rec, w in witnesses(n):
                if rec.kind != "I" or isinstance(w, str) or rec.factor.table().order == 1:
                    continue
                assert w.ok, rec.shape
                T, elements, z = construction_data(rec, w)
                assert action_from_words(T, elements, z, oracle.equals) == rec.action, (
                    n, rec.shape)
                read += 1
        assert read == 98

    def test_mapping_class_records(self):
        # The kernel of the central quotient on a factor is the set of its
        # elements with central words; the mapping-class factor is the
        # quotient by it, and the axis acts on it modulo the centre.
        def same_mod_centre(u, v):
            return oracle.central_value(u * v.inv()) is not None

        read, without_words = 0, []
        for n in range(4, 13):
            braid = [(rec, w) for rec, w in witnesses(n)
                     if rec.kind == "I" and not isinstance(w, str)]
            for mcg in enumerate_vtilde(n):
                if mcg.kind != "I" or mcg.factor.table().order == 1 or mcg.status != "realized":
                    continue
                found = next(((rec, w) for rec, w in braid
                              if project_to_mcg(rec).key == mcg.key), None)
                if found is None:
                    without_words.append((n, mcg.shape))
                    continue
                T, elements, z = construction_data(*found)
                kernel = frozenset(e for e in range(T.order)
                                   if oracle.central_value(elements[e]) is not None)
                Q = quotient(T, kernel)
                assert structure_name(Q) == structure_name(mcg.factor.table()), mcg.shape
                label = action_from_words(Q, [elements[r] for r in Q.labels], z, same_mod_centre)
                assert label == catalog_tag(mcg.action), (n, mcg.shape)
                read += 1
        assert read == 62
        # T* x Z is realized geometrically, without braid words.
        assert without_words == [(12, "A4 x Z")]


class TestStatusBoundaries:
    """The exception lists at their boundary strand counts."""

    EXPECTED_OPEN = {
        14: {"O* *_{T*} O*", "O* x Z", "Q16 *_{Q8} Q16 [K2]", "Q8 x|alpha Z",
             "T* x Z", "T* x|omega Z"},
        20: {"I* x Z", "O* *_{T*} O*", "O* x Z", "T* x|omega Z"},
        24: {"O* *_{T*} O*"},
        36: set(),
        38: {"O* *_{T*} O*", "Q16 *_{Q8} Q16 [K2]"},
        42: {"I* x Z"},
        60: set(),
        62: {"I* x Z"},
    }

    @pytest.mark.parametrize("n", sorted(EXPECTED_OPEN))
    def test_open_sets(self, n):
        got = {r.shape for r in enumerate_all(n) if r.status == "open"}
        assert got == self.EXPECTED_OPEN[n]

    @pytest.mark.parametrize("n", (20, 36, 63))
    def test_projection_onto_at_large_n(self, n):
        projected = {project_to_mcg(r).key for r in enumerate_all(n)}
        assert projected == {r.key for r in reference_vtilde(n)}


# ---------------------------------------------------------------------------
# Reference enumeration: the record-by-record merge that the shape builder
# replaced, kept as it was so that every view can be compared field by field.
# ---------------------------------------------------------------------------

_REF_OPEN_Q8_ALPHA = frozenset({6, 10, 14})
_REF_OPEN_TSTAR_TRIVIAL = frozenset({6, 8, 10, 14})
_REF_OPEN_TSTAR_OMEGA = frozenset({6, 8, 12, 14, 18, 20, 26})
_REF_OPEN_OSTAR_TRIVIAL = frozenset({6, 8, 12, 14, 18, 20, 26})
_REF_OPEN_ISTAR_TRIVIAL = frozenset({12, 20, 30, 32, 42, 50, 62})
_REF_OPEN_OTO = frozenset({6, 8, 12, 14, 18, 20, 24, 26, 30, 32, 38})
_REF_OPEN_K2 = frozenset({6, 14, 18, 26, 30, 38})


def reference_status(record):
    n = record.n
    if record.kind == "I":
        f, act = record.factor, record.action
        if f == GroupDesc("T*") and act == "trivial":
            if n == 4:
                return "not_realized", "excluded:tstar-z-n4"
            if n in _REF_OPEN_TSTAR_TRIVIAL:
                return "open", "open:tstar-z"
        if f == GroupDesc("O*") and act == "trivial":
            if n == 6:
                return "not_realized", "excluded:ostar-z-n6"
            if n in _REF_OPEN_OSTAR_TRIVIAL:
                return "open", "open:ostar-z"
        if f == GroupDesc("T*") and act == "omega" and n in _REF_OPEN_TSTAR_OMEGA:
            return "open", "open:tstar-omega-z"
        if f == GroupDesc("I*") and act == "trivial" and n in _REF_OPEN_ISTAR_TRIVIAL:
            return "open", "open:istar-z"
        if f == GroupDesc("Dic", 2) and act == "alpha" and n in _REF_OPEN_Q8_ALPHA:
            return "open", "open:q8-alpha-z"
        return "realized", "realized"
    if record.gluing == "K2" and n in _REF_OPEN_K2:
        return "open", "open:k2-gluing"
    if record.factors == (GroupDesc("O*"), GroupDesc("O*")) and n in _REF_OPEN_OTO:
        return "open", "open:ostar-amalgam"
    return "realized", "realized"


def _ref_with_status(record):
    status, ref = reference_status(record)
    return record._replace(status=status, status_ref=ref)


def _ref_dedup(records):
    merged = {}
    for rec, i in records:
        key = rec.key
        if key in merged:
            old = merged[key]
            if i is not None and i not in old.admissible_i:
                merged[key] = old._replace(admissible_i=tuple(sorted(old.admissible_i + (i,))))
        else:
            merged[key] = rec._replace(admissible_i=(i,) if i is not None else ())
    return tuple(sorted(merged.values()))


def reference_v1(n):
    found = []

    def rec(factor, action, i):
        found.append((VcClassRecord(kind="I", n=n, factor=factor, action=action), i))

    for i in (0, 1, 2):
        for q in divisors(2 * (n - i))[:-1]:
            if (n - i) % 2 == 1 and q == n - i:
                continue
            rec(GroupDesc("Z", q), "trivial", i)
    for i in (0, 2):
        for q in divisors(2 * (n - i))[:-1]:
            if q < 3 or (n % 2 == 1 and q == n - i):
                continue
            rec(GroupDesc("Z", q), "rho", i)
        for m in divisors(n - i)[:-1]:
            if m >= 3:
                rec(GroupDesc("Dic", m), "trivial", i)
        for m in divisors(n - i):
            if m >= 3 and ((n - i) // m) % 2 == 0:
                rec(GroupDesc("Dic", m), "nu", i)
    if n % 2 == 0:
        for tag in ("trivial", "alpha", "beta"):
            rec(GroupDesc("Dic", 2), tag, None)
        rec(GroupDesc("T*"), "trivial", None)
    if n % 6 in (0, 2):
        rec(GroupDesc("T*"), "omega", None)
        rec(GroupDesc("O*"), "trivial", None)
    if n % 30 in (0, 2, 12, 20):
        rec(GroupDesc("I*"), "trivial", None)
    return tuple(_ref_with_status(r) for r in _ref_dedup(found))


def reference_v2(n):
    found = []

    def rec(a, b, f, i, gluing=None):
        found.append(
            (VcClassRecord(kind="II", n=n, factors=(a, b), amalgamated=f, gluing=gluing), i)
        )

    for i in (0, 1, 2):
        if (n - i) % 2 == 0:
            for q in divisors((n - i) // 2):
                rec(GroupDesc("Z", 4 * q), GroupDesc("Z", 4 * q), GroupDesc("Z", 2 * q), i)
    for i in (0, 2):
        if (n - i) % 2 == 0:
            for q in divisors((n - i) // 2):
                if q >= 2:
                    rec(GroupDesc("Z", 4 * q), GroupDesc("Dic", q), GroupDesc("Z", 2 * q), i)
        for q in divisors(n - i)[:-1]:
            if q >= 2:
                rec(GroupDesc("Dic", q), GroupDesc("Dic", q), GroupDesc("Z", 2 * q), i)
        for q in divisors(n - i):
            if q >= 4 and q % 2 == 0:
                d = GroupDesc("Dic", q)
                f = GroupDesc("Dic", q // 2)
                if q == 4:
                    rec(d, d, f, i, gluing="K1")
                    rec(d, d, f, i, gluing="K2")
                else:
                    rec(d, d, f, i)
    if n % 6 in (0, 2):
        rec(GroupDesc("O*"), GroupDesc("O*"), GroupDesc("T*"), None)
    return tuple(_ref_with_status(r) for r in _ref_dedup(found))


def reference_all(n):
    return reference_v1(n) + reference_v2(n)


_REF_FACTOR_PROJECTION = {"T*": GroupDesc("A4"), "O*": GroupDesc("S4"), "I*": GroupDesc("A5")}
_REF_ACTION_PROJECTION = {"trivial": "trivial", "rho": "rho~", "nu": "nu~",
                          "alpha": "alpha~", "beta": "beta~", "omega": "omega~"}


def _ref_project_desc(desc, quaternion_to_klein=False):
    if desc.family == "Z":
        q = desc.param
        return GroupDesc("Z", q // 2 if q % 2 == 0 else q)
    if desc.family == "Dic":
        if desc.param == 2 and quaternion_to_klein:
            return GroupDesc("V4")
        return GroupDesc("Dih", desc.param)
    return _REF_FACTOR_PROJECTION[desc.family]


def _ref_project_shape(record):
    if record.kind == "I":
        factor = _ref_project_desc(record.factor, quaternion_to_klein=True)
        action = _REF_ACTION_PROJECTION[record.action]
        if action == "rho~" and factor.table().order <= 2:
            action = "trivial"
        # For odd m, nu~ is inner on Dih_2m: the class is Dih_2m x Z.
        if action == "nu~" and factor.param % 2:
            action = "trivial"
        return record._replace(mcg=True, factor=factor, action=action,
                               status="", status_ref="")
    gluing = {"K1": "K1'", "K2": "K2'"}.get(record.gluing or "", record.gluing)
    return record._replace(
        mcg=True,
        factors=tuple(_ref_project_desc(d) for d in record.factors),
        amalgamated=_ref_project_desc(record.amalgamated),
        gluing=gluing,
        status="",
        status_ref="",
    )


_REF_STATUS_RANK = {"realized": 2, "open": 1, "not_realized": 0}


@lru_cache(maxsize=None)
def _ref_vtilde_status(n):
    merged = {}
    for rec in reference_all(n):
        key = _ref_project_shape(rec).key
        if key not in merged or _REF_STATUS_RANK[rec.status] > _REF_STATUS_RANK[merged[key][0]]:
            merged[key] = (rec.status, rec.status_ref)
    return merged


def reference_project(record):
    proj = _ref_project_shape(record)
    status, ref = _ref_vtilde_status(record.n)[proj.key]
    return proj._replace(status=status, status_ref=ref)


def reference_vtilde(n):
    found = []

    def rec1(factor, action, i):
        found.append((VcClassRecord(kind="I", n=n, mcg=True, factor=factor, action=action), i))

    def rec2(a, b, f, i, gluing=None):
        found.append(
            (VcClassRecord(kind="II", n=n, mcg=True, factors=(a, b), amalgamated=f, gluing=gluing), i)
        )

    for i in (0, 1, 2):
        for q in divisors(n - i)[:-1]:
            rec1(GroupDesc("Z", q), "trivial", i)
    for i in (0, 2):
        for q in divisors(n - i)[:-1]:
            if q >= 3:
                rec1(GroupDesc("Z", q), "rho~", i)
        for m in divisors(n - i)[:-1]:
            if m >= 3:
                rec1(GroupDesc("Dih", m), "trivial", i)
        for m in divisors(n - i):
            if m >= 3 and ((n - i) // m) % 2 == 0:
                # For odd m, nu~ is inner: the record is Dih_2m x Z.
                rec1(GroupDesc("Dih", m), "trivial" if m % 2 else "nu~", i)
    if n % 2 == 0:
        for tag in ("trivial", "alpha~", "beta~"):
            rec1(GroupDesc("V4"), tag, None)
        rec1(GroupDesc("A4"), "trivial", None)
    if n % 6 in (0, 2):
        rec1(GroupDesc("A4"), "omega~", None)
        rec1(GroupDesc("S4"), "trivial", None)
    if n % 30 in (0, 2, 12, 20):
        rec1(GroupDesc("A5"), "trivial", None)

    for i in (0, 1, 2):
        if (n - i) % 2 == 0:
            for q in divisors((n - i) // 2):
                rec2(GroupDesc("Z", 2 * q), GroupDesc("Z", 2 * q), GroupDesc("Z", q), i)
    for i in (0, 2):
        if (n - i) % 2 == 0:
            for q in divisors((n - i) // 2):
                if q >= 2:
                    rec2(GroupDesc("Z", 2 * q), GroupDesc("Dih", q), GroupDesc("Z", q), i)
        for q in divisors(n - i)[:-1]:
            if q >= 2:
                rec2(GroupDesc("Dih", q), GroupDesc("Dih", q), GroupDesc("Z", q), i)
        for q in divisors(n - i):
            if q >= 4 and q % 2 == 0:
                d = GroupDesc("Dih", q)
                f = GroupDesc("Dih", q // 2)
                if q == 4:
                    rec2(d, d, f, i, gluing="K1'")
                    rec2(d, d, f, i, gluing="K2'")
                else:
                    rec2(d, d, f, i)
    if n % 6 in (0, 2):
        rec2(GroupDesc("S4"), GroupDesc("S4"), GroupDesc("A4"), None)

    status = _ref_vtilde_status(n)
    out = []
    for r in _ref_dedup(found):
        st, ref = status[r.key]
        out.append(r._replace(status=st, status_ref=ref))
    return tuple(out)


class TestOneComputation:
    """The five views read one computation per n, and only the last n is kept."""

    def test_one_walk_and_one_projection_per_record(self, monkeypatch):
        calls = dict.fromkeys(("_v1_shapes", "_v2_shapes", "_project"), 0)
        for name in calls:
            def counted(*args, name=name, fn=getattr(classifier, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(classifier, name, counted)
        classifier._classification.cache_clear()
        try:
            enumerate_v1(30)
            enumerate_v2(30)
            recs = enumerate_all(30)
            enumerate_vtilde(30)
            for r in recs:
                project_to_mcg(r)
            assert len(recs) == 78
            assert calls == {"_v1_shapes": 1, "_v2_shapes": 1, "_project": len(recs)}
            enumerate_all(31)
            assert classifier._classification.cache_info().currsize == 1
        finally:
            classifier._classification.cache_clear()


class TestAgainstReference:
    """Every view equals the reference enumeration, record for record."""

    @pytest.mark.parametrize("n", range(4, 201))
    def test_all_views(self, n):
        assert enumerate_v1(n) == reference_v1(n)
        assert enumerate_v2(n) == reference_v2(n)
        recs = enumerate_all(n)
        assert recs == reference_all(n)
        assert enumerate_vtilde(n) == reference_vtilde(n)
        assert [project_to_mcg(r) for r in recs] == [reference_project(r) for r in recs]
