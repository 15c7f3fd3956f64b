import hashlib
import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from spherebraid import groups
from spherebraid.groups import (
    CosetBudgetError,
    GroupPresentation,
    SubgroupBudgetError,
    action_catalog,
    automorphisms,
    aut_from_gen_images,
    center,
    classify_action,
    dicyclic_name,
    hom_from_gen_images,
    is_isomorphic,
    make_group,
    named_group,
    outer_group,
    quotient,
    restriction_is_surjective,
    same_semidirect_class,
    sphere_three_strand_table,
    structure_name,
    subgroup_table,
    subgroups,
    todd_coxeter,
)
from spherebraid.groups import (
    _PRESENTED,
    _all_subgroup_sets,
    _extend_map,
    _finish_table,
    _greedy_closure,
    _is_automorphism,
    _is_normal,
    _isomorphisms,
)


def eval_word(G, gen_word):
    """The element a word over signed generator indices evaluates to."""
    out = G.identity
    for x in gen_word:
        g = G.generators[abs(x) - 1]
        out = G.mult[out][g if x > 0 else G.inverse[g]]
    return out


# Whole-map helpers and the brute-force outer-class test that the Out table
# replaced, kept here as references.
def _unpruned_isomorphisms(G, H):
    """Reference search: every order-preserving tuple of images of greedy
    generators, each extended and checked, with no pruning on the orders of
    products."""
    if G.order != H.order:
        return
    gens = _greedy_closure(G.mult, G.identity, range(G.order))[0]
    pools = [[h for h in range(H.order) if H.element_orders[h] == G.element_orders[g]]
             for g in gens]
    for images in itertools.product(*pools):
        phi = _extend_map(G, H, gens, images)
        if phi is not None and len(set(phi)) == G.order:
            yield phi


@lru_cache(maxsize=None)
def _aut_maps(G):
    """Every automorphism as a whole map, in sorted order."""
    return tuple(sorted(_unpruned_isomorphisms(G, G)))


def _compose_maps(f, g):
    """Apply f first, then g."""
    return tuple(g[x] for x in f)


def _inner_maps(G):
    """The conjugation maps x -> g x g^-1, as whole maps."""
    return frozenset(tuple(G.conj(g, x) for x in range(G.order)) for g in range(G.order))


def _invert_map(f):
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y] = x
    return tuple(out)


def _same_semidirect_class_reference(G, a, b):
    """Some automorphism c conjugates a to b or to b^-1 modulo Inn(G)."""
    inner = _inner_maps(G)
    b_inv = _invert_map(b)
    for c in _aut_maps(G):
        cac = _compose_maps(_compose_maps(c, tuple(a)), _invert_map(c))
        if (_compose_maps(cac, b_inv) in inner
                or _compose_maps(_invert_map(cac), b_inv) in inner):
            return True
    return False


REPRESENTATIVE_TABLES = [
    ("B3", sphere_three_strand_table),
    ("Z6", lambda: make_group("cyclic", 6)),
    ("Dih8", lambda: make_group("dihedral", 4)),
    ("Q8", lambda: make_group("dicyclic", 2)),
    ("Dic12", lambda: make_group("dicyclic", 3)),
    ("Q16", lambda: make_group("dicyclic", 4)),
    ("A4", lambda: make_group("A4")),
    ("S4", lambda: make_group("S4")),
    ("T*", lambda: make_group("T*")),
    ("O*", lambda: make_group("O*")),
    ("A5", lambda: make_group("A5")),
    ("I*", lambda: make_group("I*")),
]


class TestGroupAxioms:
    @pytest.mark.parametrize("name,build", REPRESENTATIVE_TABLES)
    def test_axioms_exhaustive(self, name, build):
        G = build()
        e = G.identity
        n = G.order
        assert all(G.mult[e][a] == a == G.mult[a][e] for a in range(n))
        assert all(G.mult[a][G.inverse[a]] == e for a in range(n))
        if n <= 60:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(0)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(200_000))
        assert all(
            G.mult[G.mult[a][b]][c] == G.mult[a][G.mult[b][c]] for a, b, c in triples
        )

    @pytest.mark.parametrize("name,build", REPRESENTATIVE_TABLES)
    def test_generators_generate(self, name, build):
        G = build()
        assert len(G.closure(G.generators)) == G.order
        assert all(eval_word(G, G.words[x]) == x for x in range(G.order))

    @pytest.mark.parametrize("build", [
        lambda: make_group("cyclic", 12),
        lambda: make_group("dicyclic", 6),
        lambda: make_group("dihedral", 7),
        lambda: make_group("T*"),
        lambda: make_group("A5"),
    ])
    def test_pow_is_repeated_multiplication(self, build):
        # pow reduces e modulo the order of a; each power is checked against
        # |e| multiplications by a, or by its inverse for negative e, over
        # two full periods either side of zero.
        G = build()
        for a in range(G.order):
            k = G.element_orders[a]
            for sign, step in ((1, a), (-1, G.inverse[a])):
                x = G.identity
                for e in range(2 * k + 2):
                    assert G.pow(a, sign * e) == x
                    x = G.mult[x][step]


class TestCosetEnumeration:
    def test_three_strand_group(self):
        assert sphere_three_strand_table().order == 12

    def test_three_strand_group_structure(self):
        # The order-12 group is the metacyclic semidirect product of a
        # three-cycle by a four-cycle, i.e. the dicyclic group of order 12.
        assert is_isomorphic(sphere_three_strand_table(), make_group("dicyclic", 3))

    @pytest.mark.parametrize("m", range(2, 11))
    def test_dicyclic_orders(self, m):
        assert make_group("dicyclic", m).order == 4 * m

    def test_binary_polyhedral_orders(self):
        assert make_group("T*").order == 24
        assert make_group("O*").order == 48
        assert make_group("I*").order == 120

    def test_budget_error_on_free_presentation(self):
        free = GroupPresentation(2, ((1, 2, -1, -2),))  # Z x Z, infinite
        with pytest.raises(CosetBudgetError):
            todd_coxeter(free)

    def test_deterministic(self):
        p = GroupPresentation(2, ((1,) * 4 + (-2, -2), (2, 1, -2, 1)))
        assert todd_coxeter(p).mult == todd_coxeter(p).mult

    # sha256 of repr((mult, generators, words)) for each presented table,
    # as the table was when a·b traced the whole representative word of b.
    PRESENTED_TABLE_DIGESTS = {
        "T*": "ec9e67542022e5053fb7976d5adf44c9f35788bde36ef462706f0224e69d387c",
        "O*": "1fe722170e1b97d90adb7d146e9c2a8ca1420bf46703776678edcb8185af0d9d",
        "I*": "764afdcffb777e1bf4f1c0c1e80593db17d728eca5a136dcc657c9c1a5fdd4fa",
        "A4": "c02ea483b64fb50c34a952be3076f1baa565549f771048d43e54b39363ab6f5f",
        "S4": "35d1ad13cfa9b946442f5df3018cf2a7c456103221be0880107a13f1a33fa71a",
        "A5": "c6dd5095e714cde4cb4f2f22c1c3e1fe895a21306d0f0f95c772b7231cde6592",
        "B3": "b3e86644e7b0d5a86d26f81e552e18da3e3b5e2b5fe668968a412198c25056c7",
    }

    @pytest.mark.parametrize("tag", PRESENTED_TABLE_DIGESTS)
    def test_table_filled_one_lookup_per_entry(self, tag):
        G = todd_coxeter(named_group(tag).presentation)
        digest = hashlib.sha256(repr((G.mult, G.generators, G.words)).encode()).hexdigest()
        assert digest == self.PRESENTED_TABLE_DIGESTS[tag]
        # a·b is a traced through the generator columns along the word of b.
        rng = random.Random(tag)
        for _ in range(64):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            x = a
            for letter in G.words[b]:
                g = G.generators[abs(letter) - 1]
                x = G.mult[x][g if letter > 0 else G.inverse[g]]
            assert x == G.mult[a][b]

    @pytest.mark.parametrize("tag", PRESENTED_TABLE_DIGESTS)
    def test_numbering_walk_fills_the_table(self, tag, monkeypatch):
        # The renumbering walk knows each coset's parent and column, so the
        # only breadth-first word walk is the one that writes the table's
        # words.
        calls = []

        def counted(*args):
            calls.append(args[0])
            return bfs_words(*args)

        bfs_words = groups._bfs_words
        monkeypatch.setattr(groups, "_bfs_words", counted)
        G = todd_coxeter(named_group(tag).presentation)
        assert calls == [G.order]

    def test_subgroup_budget(self):
        # The lattice has no order budget of its own: Z201 has tau(201) = 4
        # subgroups.
        assert len(subgroups(make_group("cyclic", 201))) == 4


class TestStructure:
    def test_names(self):
        assert structure_name(make_group("cyclic", 6)) == "Z6"
        assert structure_name(make_group("dicyclic", 2)) == "Q8"
        assert structure_name(make_group("dicyclic", 3)) == "Dic12"
        assert structure_name(make_group("dihedral", 2)) == "Z2 x Z2"
        assert structure_name(make_group("dihedral", 3)) == "Dih6"
        assert structure_name(make_group("T*")) == "T*"
        assert structure_name(make_group("O*")) == "O*"
        assert structure_name(make_group("I*")) == "I*"
        assert structure_name(make_group("A5")) == "A5"

    def test_only_short_binary_polyhedral_tags(self):
        for alias in ("binary_tetrahedral", "binary_octahedral", "binary_icosahedral"):
            with pytest.raises(ValueError):
                make_group(alias)

    def test_q8_order_histogram(self):
        assert make_group("dicyclic", 2).order_histogram() == ((1, 1), (2, 1), (4, 6))

    def test_cyclic_has_full_order_element(self):
        G = make_group("cyclic", 6)
        assert max(G.element_orders) == 6

    def test_unique_involution_in_binary_icosahedral(self):
        G = make_group("I*")
        assert sum(1 for o in G.element_orders if o == 2) == 1


class TestSubgroups:
    def test_cyclic_four(self):
        names = sorted(h.name for h in subgroups(make_group("cyclic", 4)))
        assert names == ["1", "Z2", "Z4"]

    def test_binary_tetrahedral_lattice(self):
        names = {h.name for h in subgroups(make_group("T*"))}
        assert names == {"1", "Z2", "Z3", "Z4", "Z6", "Q8", "T*"}

    def test_binary_octahedral_quaternion16_copies(self):
        hs = [h for h in subgroups(make_group("O*")) if h.name == "Q16"]
        assert len(hs) == 3 and not any(h.normal for h in hs)

    def test_binary_icosahedral_unique_normal(self):
        hs = [h for h in subgroups(make_group("I*"))
              if h.normal and 1 < h.order < 120]
        assert [h.name for h in hs] == ["Z2"]

    def test_characteristic_by_uniqueness_flags(self):
        hs = {h.name: h for h in subgroups(make_group("T*"))}
        assert hs["Q8"].unique_of_class
        assert not hs["Z3"].unique_of_class


class TestQuotientsAndIso:
    def test_quotient_by_center(self):
        q8 = make_group("dicyclic", 2)
        assert structure_name(quotient(q8, center(q8))) == "Z2 x Z2"
        ts = make_group("T*")
        assert structure_name(quotient(ts, center(ts))) == "A4"
        os_ = make_group("O*")
        assert structure_name(quotient(os_, center(os_))) == "S4"
        is_ = make_group("I*")
        assert structure_name(quotient(is_, center(is_))) == "A5"

    def test_not_isomorphic_by_histogram(self):
        assert not is_isomorphic(make_group("cyclic", 4), make_group("dihedral", 2))

    def test_dicyclic_quotient_is_dihedral(self):
        q16 = make_group("dicyclic", 4)
        z2 = next(h for h in subgroups(q16) if h.name == "Z2")
        assert structure_name(quotient(q16, z2)) == "Dih8"

    # In Z4 = {0, 1, 2, 3} (x^a at index a): {0, 1} is not closed, {1} and
    # the empty set miss the identity.  Each is normal elementwise, so only
    # the subgroup check refuses it.
    @pytest.mark.parametrize("elems", [frozenset({0, 1}), frozenset({1}), frozenset()],
                             ids=["not-closed", "no-identity", "empty"])
    def test_non_subgroups_are_refused(self, elems):
        z4 = make_group("cyclic", 4)
        with pytest.raises(ValueError, match="not a subgroup"):
            quotient(z4, elems)
        with pytest.raises(ValueError, match="not a subgroup"):
            subgroup_table(z4, elems)


class TestAutomorphisms:
    def test_quaternion_aut_out(self):
        q8 = make_group("dicyclic", 2)
        assert automorphisms(q8).order == 24
        out = outer_group(q8)
        assert out.order == 6 and structure_name(out) == "Dih6"

    def test_binary_polyhedral_out(self):
        for tag in ("T*", "O*", "I*"):
            assert outer_group(make_group(tag)).order == 2

    def test_cyclic_aut(self):
        assert automorphisms(make_group("cyclic", 6)).order == 2

    def test_inner_count_matches_center(self):
        ts = make_group("T*")
        assert len(_inner_maps(ts)) == 24 // len(center(ts).elements)

    @pytest.mark.parametrize("name,build", REPRESENTATIVE_TABLES)
    def test_table_matches_whole_map_composition(self, name, build):
        aut = automorphisms(build())
        index = {m: i for i, m in enumerate(aut.labels)}
        assert aut.mult == tuple(
            tuple(index[_compose_maps(a, b)] for b in aut.labels) for a in aut.labels
        )

    def test_trivial_group(self):
        # A table of order 1 has no distinguished generators.
        z4 = make_group("cyclic", 4)
        trivial = subgroup_table(z4, frozenset([z4.identity]))
        assert trivial.generators == ()
        aut = automorphisms(trivial)
        assert aut.order == 1 and aut.mult == ((0,),) and aut.labels == ((0,),)
        assert outer_group(trivial).order == 1

    def test_aut_from_gen_images_rejects_bad(self):
        q8 = make_group("dicyclic", 2)
        x, y = q8.generators
        with pytest.raises(ValueError):
            aut_from_gen_images(q8, (q8.identity, y))

    @pytest.mark.parametrize("call", [
        lambda q8, bad: aut_from_gen_images(q8, (-1, 1)),
        lambda q8, bad: hom_from_gen_images(q8, q8, (-1, 1)),
        lambda q8, bad: aut_from_gen_images(q8, (99, 1)),
        lambda q8, bad: hom_from_gen_images(q8, q8, (99, 1)),
        lambda q8, bad: same_semidirect_class(q8, bad, tuple(range(8))),
        lambda q8, bad: classify_action(q8, bad),
    ], ids=["aut-negative", "hom-negative", "aut-past-the-order", "hom-past-the-order",
            "same-semidirect-class", "classify-action"])
    def test_images_outside_the_group_are_refused(self, call):
        # A negative image must not wrap round to an element, nor one past
        # the order raise IndexError.
        q8 = named_group("Q8")
        bad = list(range(8))
        bad[q8.generators[0]] = 99
        with pytest.raises(ValueError):
            call(q8, tuple(bad))

    @pytest.mark.parametrize("call", [
        lambda: hom_from_gen_images(named_group("Z4"), named_group("Z8"), (2, 5)),
        lambda: aut_from_gen_images(named_group("Z6"), (5, 3)),
    ], ids=["hom", "aut"])
    def test_a_surplus_image_is_refused(self, call):
        # One image per distinguished generator: a surplus one is not dropped.
        with pytest.raises(ValueError):
            call()


# Tables whose distinguished generators are greedy, not the catalog's: every
# subgroup of thirteen catalog groups, B3, and the quotients by nontrivial
# centres.
ACTION_GROUPS = ("T*", "O*", "I*", "S4", "A5", "A4", "Q16", "Dic24", "Dic48",
                 "Dih8", "Dih12", "Dih16", "Z2xZ2")
ACTION_TABLES = (
    [(f"{name}-{i}", subgroup_table(named_group(name), h.elements))
     for name in ACTION_GROUPS for i, h in enumerate(subgroups(named_group(name)))]
    + [("B3", sphere_three_strand_table())]
    + [(f"{name}-centre", quotient(named_group(name), center(named_group(name))))
       for name in ACTION_GROUPS if center(named_group(name)).order > 1]
)


class TestClassifyAction:
    @pytest.mark.parametrize("name,S", ACTION_TABLES, ids=[t[0] for t in ACTION_TABLES])
    def test_labels_do_not_depend_on_the_generators(self, name, S):
        # The catalog table of the same name has the same labels, and each
        # label is an automorphism in its own class; nu~ is inner on Dih2m
        # for odd m, so it reads trivial there.
        family = structure_name(S)
        cat = action_catalog(S)
        assert set(cat) == set(action_catalog(named_group(family.replace(" x ", "x"))))
        for tag, rep in cat.items():
            assert _is_automorphism(S, rep)
            inner = tag == "nu~" and S.order // 2 % 2 == 1
            assert classify_action(S, rep) == ("trivial" if inner else tag)

    def test_quaternion_tags(self):
        q8 = make_group("dicyclic", 2)
        cat = action_catalog(q8)
        assert classify_action(q8, cat["alpha"]) == "alpha"
        assert classify_action(q8, cat["beta"]) == "beta"
        assert classify_action(q8, tuple(range(8))) == "trivial"

    def test_quaternion_six_reps_to_three_tags(self):
        q8 = make_group("dicyclic", 2)
        cat = action_catalog(q8)
        a, b = cat["alpha"], cat["beta"]
        a2 = _compose_maps(a, a)
        assert classify_action(q8, a2) == "alpha"
        assert classify_action(q8, _compose_maps(a, b)) == "beta"
        assert classify_action(q8, _compose_maps(a2, b)) == "beta"

    def test_cyclic_inversion(self):
        z6 = make_group("cyclic", 6)
        assert classify_action(z6, action_catalog(z6)["rho"]) == "rho"

    @pytest.mark.parametrize("q,k,tag", [(5, 2, "uncataloged"), (8, 3, "uncataloged"),
                                         (5, 4, "rho")])
    def test_cyclic_power_maps(self, q, k, tag):
        # x -> x^k on Z_q; the catalog names only the identity and inversion.
        G = make_group("cyclic", q)
        assert classify_action(G, tuple(k * e % q for e in range(q))) == tag

    def test_order_one_table(self):
        z1 = make_group("cyclic", 1)
        assert action_catalog(z1) == {"trivial": (0,)}
        assert classify_action(z1, (0,)) == "trivial"

    def test_three_strand_table(self):
        # B3's distinguished generators are not the x, y of the Dic12 table.
        b3 = sphere_three_strand_table()
        cat = action_catalog(b3)
        assert set(cat) == {"trivial", "nu"}
        assert classify_action(b3, cat["nu"]) == "nu"

    def test_three_strand_tags_match_dic12(self):
        b3, dic12 = sphere_three_strand_table(), make_group("dicyclic", 3)
        iso = next(_isomorphisms(dic12, b3))
        back = [0] * 12
        for g, h in enumerate(iso):
            back[h] = g
        tags = set()
        for a in _aut_maps(dic12):
            carried = tuple(iso[a[back[h]]] for h in range(12))
            tags.add(classify_action(dic12, a))
            assert classify_action(b3, carried) == classify_action(dic12, a)
        assert tags == {"trivial", "nu"}

    @pytest.mark.parametrize("kind,m", [("dicyclic", m) for m in range(3, 9)]
                             + [("dihedral", m) for m in range(3, 12)])
    def test_standard_tables_keep_their_nu(self, kind, m):
        # On the standard tables the catalog's representative is in the class
        # of the one built on the distinguished generators.
        G = make_group(kind, m)
        x, y = G.generators
        rep = action_catalog(G)["nu~" if kind == "dihedral" else "nu"]
        assert same_semidirect_class(G, aut_from_gen_images(G, (x, G.mult[x][y])), rep)

    def test_largest_type_one_factor(self):
        # Dic800, the factor of Dic800 x|nu Z at n = 200.
        G = named_group("Dic800")
        assert classify_action(G, action_catalog(G)["nu"]) == "nu"

    def test_tetrahedral_nontrivial(self):
        ts = make_group("T*")
        assert classify_action(ts, action_catalog(ts)["omega"]) == "omega"

    def test_klein_tags_distinct(self):
        v4 = make_group("klein")
        cat = action_catalog(v4)
        assert classify_action(v4, cat["alpha~"]) == "alpha~"
        assert classify_action(v4, cat["beta~"]) == "beta~"


OUTER_CLASS_TABLES = [
    ("Z12", lambda: make_group("cyclic", 12)),
    ("Dih8", lambda: make_group("dihedral", 4)),
    ("Dih12", lambda: make_group("dihedral", 6)),
    ("Dic12", lambda: make_group("dicyclic", 3)),
    ("Q8", lambda: make_group("dicyclic", 2)),
    ("klein", lambda: make_group("klein")),
    ("A4", lambda: make_group("A4")),
    ("T*", lambda: make_group("T*")),
]


class TestSameSemidirectClass:
    """The outer-class test read off the Out table agrees with the
    brute-force search over Aut on whole maps."""

    @pytest.mark.parametrize("name,build", OUTER_CLASS_TABLES)
    def test_matches_whole_map_search_on_every_pair(self, name, build):
        G = build()
        maps = _aut_maps(G)
        for a in maps:
            for b in maps:
                assert same_semidirect_class(G, a, b) == _same_semidirect_class_reference(G, a, b)

    def test_rejects_a_map_that_is_not_an_automorphism(self):
        q8 = make_group("dicyclic", 2)
        identity = tuple(range(8))
        x, y = q8.generators
        # The identity on the generators, but not on the other elements.
        swapped = list(identity)
        swapped[q8.mult[x][y]], swapped[q8.mult[y][x]] = q8.mult[y][x], q8.mult[x][y]
        # The identity, but with an image of a generator outside the group.
        outside = identity[:x] + (99,) + identity[x + 1:]
        for bad in ((0,) * 8, identity[:4], tuple(swapped), outside):
            with pytest.raises(ValueError):
                same_semidirect_class(q8, bad, identity)
            with pytest.raises(ValueError):
                same_semidirect_class(q8, identity, bad)


class TestIndexTwoRestriction:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_cyclic(self, q):
        G = make_group("cyclic", 4 * q)
        h = next(x for x in subgroups(G) if x.order == 2 * q)
        assert restriction_is_surjective(G, h.elements)

    @pytest.mark.parametrize("q", range(3, 9))
    def test_dicyclic_over_cyclic(self, q):
        G = make_group("dicyclic", q)
        h = next(x for x in subgroups(G) if x.name == f"Z{2 * q}")
        assert restriction_is_surjective(G, h.elements)

    def test_quaternion_over_cyclic_four(self):
        G = make_group("dicyclic", 2)
        for h in subgroups(G):
            if h.name == "Z4":
                assert restriction_is_surjective(G, h.elements)

    @pytest.mark.parametrize("q", (6, 8, 10))
    def test_dicyclic_over_dicyclic(self, q):
        G = make_group("dicyclic", q)
        target = f"Q{2 * q}" if (q // 2) & (q // 2 - 1) == 0 else f"Dic{2 * q}"
        hs = [x for x in subgroups(G) if x.name == target]
        assert hs and all(restriction_is_surjective(G, h.elements) for h in hs)

    def test_octahedral_over_tetrahedral(self):
        G = make_group("O*")
        h = next(x for x in subgroups(G) if x.name == "T*")
        assert restriction_is_surjective(G, h.elements)

    @pytest.mark.parametrize("m", (59, 100))
    def test_dihedral_past_the_aut_table_budget(self, m):
        # |Aut(Dih_2m)| = m phi(m) is 3,422 and 4,000: past the table budget
        # of automorphisms(), which the restriction check does not read.
        G = make_group("dihedral", m)
        with pytest.raises(groups.SubgroupBudgetError):
            automorphisms(G)
        h = next(x for x in subgroups(G) if x.name == f"Z{m}")
        assert restriction_is_surjective(G, h.elements)

    def test_quaternion16_over_quaternion8_fails(self):
        G = make_group("dicyclic", 4)
        h = next(x for x in subgroups(G) if x.name == "Q8")
        assert not restriction_is_surjective(G, h.elements)

    def test_subgroup_table_roundtrip(self):
        G = make_group("O*")
        h = next(x for x in subgroups(G) if x.name == "T*")
        assert is_isomorphic(subgroup_table(G, h.elements), make_group("T*"))


CATALOG = (
    [("B3", sphere_three_strand_table())]
    + [(f"Z{q}", make_group("cyclic", q)) for q in range(1, 65)]
    + [(f"Dih{2 * m}", make_group("dihedral", m)) for m in range(2, 33)]
    + [(f"Dic{4 * m}", make_group("dicyclic", m)) for m in range(2, 17)]
    + [(k, make_group(k)) for k in ("klein", "A4", "S4", "T*", "O*", "A5")]
)

SAME_ORDER_PAIRS = [
    (a, G, b, H)
    for i, (a, G) in enumerate(CATALOG)
    for b, H in CATALOG[i + 1:]
    if G.order == H.order
]


class TestClassifyActionChecksOnce:
    """``classify_action`` checks its input once and never the catalog's
    own representatives; a map that is not an automorphism still raises."""

    @pytest.mark.parametrize("name,G", CATALOG, ids=[c[0] for c in CATALOG])
    def test_one_automorphism_check_per_call(self, monkeypatch, name, G):
        calls = []
        check = groups._is_automorphism
        monkeypatch.setattr(groups, "_is_automorphism",
                            lambda G, m: calls.append(m) or check(G, m))
        for tag, rep in action_catalog(G).items():
            calls.clear()
            classify_action(G, rep)
            assert calls == [rep], tag
        calls.clear()
        # A constant map; on the trivial group, an image outside the group.
        with pytest.raises(ValueError):
            classify_action(G, (G.identity,) * G.order if G.order > 1 else (1,))
        assert len(calls) == 1


class TestPrunedSearch:
    """The depth-first, product-order-pruned search finds exactly what the
    unpruned search finds."""

    @pytest.mark.parametrize("name,G", CATALOG, ids=[c[0] for c in CATALOG])
    def test_aut_maps_match_unpruned_search(self, name, G):
        assert automorphisms(G).labels == _aut_maps(G)

    def test_same_order_pairs_cover_the_hard_cases(self):
        names = {(a, b) for a, _, b, _ in SAME_ORDER_PAIRS}
        assert ("S4", "T*") in names
        assert {(f"Dih{4 * m}", f"Dic{4 * m}") for m in range(2, 17)} <= names

    @pytest.mark.parametrize("a,G,b,H", SAME_ORDER_PAIRS,
                             ids=[f"{a}-{b}" for a, _, b, _ in SAME_ORDER_PAIRS])
    def test_isomorphism_verdicts_unchanged(self, a, G, b, H):
        found = next(_unpruned_isomorphisms(G, H), None) is not None
        assert (next(_isomorphisms(G, H), None) is not None) == found
        assert is_isomorphic(G, H) == found

    def test_equal_histograms_decided_by_the_search(self):
        # Z4 x Z4 and Z4 x| Z4 have the same element orders; only the
        # generator-image search tells them apart.
        abelian = todd_coxeter(GroupPresentation(2, ((1,) * 4, (2,) * 4, (1, 2, -1, -2))))
        twisted = todd_coxeter(GroupPresentation(2, ((1,) * 4, (2,) * 4, (2, 1, -2, 1))))
        assert abelian.order_histogram() == twisted.order_histogram()
        assert not is_isomorphic(abelian, twisted)
        assert structure_name(abelian) == "Z4 x Z4"
        assert structure_name(twisted) == "G16?"


def _closure_all_seeds(G, seed):
    """Reference closure: every seed element is a generator of one walk."""
    gens = sorted(set(seed))
    elems = {G.identity}
    stack = [G.identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = G.mult[x][g]
            if y not in elems:
                elems.add(y)
                stack.append(y)
    return frozenset(elems)


def _greedy_generators_reference(G):
    """Reference greedy generators: each element not yet generated, in index
    order, with the walk restarted over all generators, until all are."""
    gens = []
    reached = {G.identity}
    for e in range(G.order):
        if e in reached:
            continue
        gens.append(e)
        stack = list(reached)
        while stack:
            x = stack.pop()
            for g in gens:
                y = G.mult[x][g]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        if len(reached) == G.order:
            break
    return tuple(gens)


WALK_CATALOG = CATALOG + [("I*", make_group("I*"))]
SMALL_CATALOG = [(a, G) for a, G in WALK_CATALOG if G.order <= 64 or a in ("T*", "O*", "I*")]


class TestGenerationWalk:
    """The one greedy walk gives the generators and closures the two former
    walks gave."""

    @pytest.mark.parametrize("name,G", WALK_CATALOG, ids=[c[0] for c in WALK_CATALOG])
    def test_generators_and_closures_match_references(self, name, G):
        gens, elems = _greedy_closure(G.mult, G.identity, range(G.order))
        assert gens == _greedy_generators_reference(G)
        assert len(elems) == G.order
        rng = random.Random(G.order)
        for _ in range(20):
            seed = [rng.randrange(G.order) for _ in range(rng.randrange(4))]
            assert G.closure(seed) == _closure_all_seeds(G, seed)

    @pytest.mark.parametrize("name,G", SMALL_CATALOG, ids=[c[0] for c in SMALL_CATALOG])
    def test_joins_of_subgroups_match_reference(self, name, G):
        sets = [h.elements for h in subgroups(G)]
        rng = random.Random(len(sets))
        pairs = [(a, b) for a in sets for b in sets]
        for a, b in rng.sample(pairs, min(len(pairs), 300)):
            assert G.closure(a | b) == _closure_all_seeds(G, a | b)


class TestPropertiesOnGenerators:
    """Normality, centre and commutativity read off the generators equal
    their definitions over all elements."""

    @pytest.mark.parametrize("name,G", SMALL_CATALOG, ids=[c[0] for c in SMALL_CATALOG])
    def test_match_all_element_definitions(self, name, G):
        tables = [G]
        for h in subgroups(G):
            assert _is_normal(G, h.elements) == all(
                G.conj(g, x) in h.elements for g in range(G.order) for x in h.elements
            )
            tables.append(subgroup_table(G, h.elements))
        for T in tables:
            assert center(T).elements == frozenset(
                a for a in range(T.order)
                if all(T.mult[a][b] == T.mult[b][a] for b in range(T.order))
            )
            assert T.is_abelian() == all(
                T.mult[a][b] == T.mult[b][a] for a in range(T.order) for b in range(a)
            )


def _outer_group_reference(G):
    """Reference Out(G): the quotient of the whole automorphism table."""
    aut = automorphisms(G)
    inner = _inner_maps(G)
    return quotient(aut, frozenset(i for i, m in enumerate(aut.labels) if m in inner))


def _subgroup_sets_reference(G):
    """Reference lattice: joins with every cyclic subgroup, each closed from
    the identity over all elements of the union."""
    subs = {frozenset([G.identity])}
    cyclic = {G.closure([a]) for a in range(G.order)}
    subs |= cyclic
    frontier = set(subs)
    while frontier:
        new = set()
        for a in frontier:
            for b in cyclic:
                if b <= a:
                    continue
                join = G.closure(a | b)
                if join not in subs and join not in new:
                    new.add(join)
        subs |= new
        frontier = new
    return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))


RESTRICTION_CATALOG = [(a, G) for a, G in CATALOG if G.order <= 48]


class TestAgainstWholeTableReferences:
    """Out(G) built on coset representatives, and the lattice grown by
    prime-power joins, equal what the whole Aut table and the all-cyclic
    joins gave."""

    @pytest.mark.parametrize("name,G", SMALL_CATALOG, ids=[c[0] for c in SMALL_CATALOG])
    def test_outer_group_matches_quotient_of_aut(self, name, G):
        out, ref = outer_group(G), _outer_group_reference(G)
        assert out.order == ref.order
        assert out.mult == ref.mult
        assert structure_name(out) == structure_name(ref)
        assert is_isomorphic(out, ref)

    @pytest.mark.parametrize("name,G", SMALL_CATALOG, ids=[c[0] for c in SMALL_CATALOG])
    def test_outer_labels_are_coset_representatives(self, name, G):
        out, aut, inner = outer_group(G), set(_aut_maps(G)), _inner_maps(G)
        assert set(out.labels) <= aut
        inverses = [_invert_map(b) for b in out.labels]
        for i, a in enumerate(out.labels):
            for j, b in enumerate(out.labels):
                assert (_compose_maps(a, inverses[j]) in inner) == (i == j)
                k = out.mult[i][j]
                assert _compose_maps(_compose_maps(a, b), inverses[k]) in inner
        assert len(aut) == out.order * len(inner)

    @pytest.mark.parametrize("name,G", SMALL_CATALOG, ids=[c[0] for c in SMALL_CATALOG])
    def test_subgroup_lattice_matches_all_cyclic_joins(self, name, G):
        assert _all_subgroup_sets(G) == _subgroup_sets_reference(G)

    @pytest.mark.parametrize("name,G", RESTRICTION_CATALOG, ids=[c[0] for c in RESTRICTION_CATALOG])
    def test_restriction_matches_every_automorphism(self, name, G):
        auts = _aut_maps(G)
        for h in subgroups(G):
            order = sorted(h.elements)
            index = {e: i for i, e in enumerate(order)}
            restrictions = {tuple(index[a[e]] for e in order)
                            for a in auts if all(a[e] in h.elements for e in order)}
            expected = restrictions == set(_aut_maps(subgroup_table(G, h.elements)))
            assert restriction_is_surjective(G, h.elements) == expected, h.name


def _tau(m):
    """The number of divisors of m."""
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def _sigma(m):
    """The sum of the divisors of m."""
    return sum(d for d in range(1, m + 1) if m % d == 0)


# Every family table up to order 200, and a few past it, with its number of
# subgroups.  Z_m has one per divisor of m.  Dih_2m = <x, y> has those of
# <x> = Z_m and, for each divisor d of m, m/d of order 2d that hold a
# reflection.  Dic_4m = <x, y> has those of <x> = Z_2m and, for each divisor
# d of m, m/d of order 4d that are not in <x>.
FAMILY_LATTICES = (
    [(f"Z{m}", _tau(m)) for m in range(1, 201)]
    + [(f"Dih{2 * m}", _tau(m) + _sigma(m)) for m in range(2, 101)]
    + [(f"Dic{4 * m}", _tau(2 * m) + _sigma(m)) for m in range(2, 51)]
    + [("Z300", _tau(300)), ("Dih400", _tau(200) + _sigma(200)),
       ("Dic800", _tau(400) + _sigma(200))]
)


class TestCanonicalLattice:
    """The canonical walk reaches every subgroup, and each one once."""

    @pytest.mark.parametrize("family", ["Z", "Dih", "Dic"])
    def test_family_subgroup_counts_and_no_set_twice(self, family):
        wrong = []
        for name, count in FAMILY_LATTICES:
            if name.rstrip("0123456789") == family:
                sets = _all_subgroup_sets(named_group(name))
                if not len(set(sets)) == len(sets) == count:
                    wrong.append((name, len(set(sets)), len(sets), count))
        assert wrong == []

    @pytest.mark.parametrize("name", ["klein", "B3", "T*", "O*", "I*", "A4", "S4", "A5"])
    def test_fixed_tables_no_set_twice(self, name):
        G = sphere_three_strand_table() if name == "B3" else named_group(name)
        sets = _all_subgroup_sets(G)
        assert len(set(sets)) == len(sets)
        assert all(G.closure(s) == s for s in sets)


def _structure_name_reference(T):
    """``structure_name`` as it was before subgroups were named in place:
    read off a standalone table, with the abelian invariants from repeated
    quotients by a cyclic subgroup of largest order."""
    n = T.order
    if n == 1:
        return "1"
    if max(T.element_orders) == n:
        return f"Z{n}"
    if T.is_abelian():
        factors, table = [], T
        while table.order > 1:
            a = max(range(table.order), key=lambda e: (table.element_orders[e], -e))
            factors.append(table.element_orders[a])
            table = quotient(table, table.closure([a]))
        return " x ".join(f"Z{f}" for f in factors)
    if n % 2 == 0 and n // 2 in T.element_orders:
        x = T.element_orders.index(n // 2)
        cyc = T.closure([x])
        y = next(e for e in range(n) if e not in cyc)
        if T.conj(y, x) == T.inverse[x]:
            if n % 4 == 0 and T.mult[y][y] == T.pow(x, n // 4):
                return dicyclic_name(n)
            if T.element_orders[y] == 2:
                return f"Dih{n}"
    for kind, (order, _) in _PRESENTED.items():
        if order == n and is_isomorphic(T, make_group(kind)):
            return kind
    return f"G{n}?"


FIXED_TABLE_NAMES = ("B3", "klein", "T*", "O*", "I*", "A4", "S4", "A5")


class TestNamesInPlace:
    """``subgroups`` names each subgroup from its parent's element orders,
    products and closures; the names are those of the subgroup's own
    standalone table."""

    @pytest.mark.parametrize("family", ["Z", "Dih", "Dic", "fixed"])
    def test_match_standalone_tables(self, family):
        if family == "fixed":
            names = FIXED_TABLE_NAMES
        else:
            names = [name for name, _ in FAMILY_LATTICES
                     if name.rstrip("0123456789") == family and named_group(name).order <= 200]
        wrong, seen = [], Counter()
        for name in names:
            G = named_group(name)
            for h in subgroups(G):
                T = subgroup_table(G, h.elements)
                # The uncached rule, so that the test keeps no table.
                expected = structure_name.__wrapped__(T)
                if not h.name == expected == _structure_name_reference(T):
                    wrong.append((name, sorted(h.elements), h.name, expected))
                seen[h.name] += 1
        assert wrong == []
        # The branches of the rule each family reaches.
        assert {
            "Z": {"1", "Z200"},
            "Dih": {"Z2 x Z2", "Dih200"},
            "Dic": {"Q8", "Q128", "Dic200"},
            "fixed": {"Z2 x Z2", "Dic12", "Dih10", "T*", "O*", "I*", "A4", "S4", "A5"},
        }[family] <= set(seen)
        if family == "fixed":
            # Catalog search on a standalone table: T* in itself, O* and five
            # times in I*; A4 in itself, S4 and five times in A5.
            assert seen["T*"] == seen["A4"] == 7

    def test_center_is_named_in_place(self):
        for name in FIXED_TABLE_NAMES + ("Dic32", "Dih24"):
            G = named_group(name)
            z = center(G)
            assert z.name == _structure_name_reference(subgroup_table(G, z.elements))


def _aut_cosets_reference(G, inner):
    """Reference Aut (``inner`` false) or Out (``inner`` true): every
    automorphism walked in sorted order, the first of each coset its
    representative, keyed by its generator images."""
    gens = G.generators or (G.identity,)
    conjugators = range(G.order) if inner else (G.identity,)
    coset_of, reps = {}, []
    for a in _aut_maps(G):
        key = tuple(a[g] for g in gens)
        if key not in coset_of:
            coset_of.update((tuple(G.conj(g, y) for y in key), len(reps)) for g in conjugators)
            reps.append(a)
    mult = [[coset_of[tuple(b[a[g]] for g in gens)] for b in reps] for a in reps]
    return _finish_table(len(reps), mult, (), None, labels=tuple(reps))


AUT_TABLE_NAMES = (
    [f"Z{q}" for q in range(1, 25)]
    + [f"Dih{2 * m}" for m in range(2, 25)]
    + [f"Dic{4 * m}" for m in range(2, 13)]
    + ["Dic64", "Dih64", "klein", "B3", "T*", "O*", "I*", "A4", "S4", "A5"]
)


class TestAutTablesAgainstWholeMapWalk:
    """The Aut and Out tables, built on the search that skips keyed
    generator images, equal the tables of the walk over every automorphism
    as a whole map in sorted order."""

    @pytest.mark.parametrize("name", AUT_TABLE_NAMES)
    def test_aut_and_out_tables_match(self, name):
        G = named_group(name)
        for table, inner in ((automorphisms(G), False), (outer_group(G), True)):
            ref = _aut_cosets_reference(G, inner)
            assert (table.order, table.mult, table.labels) == (ref.order, ref.mult, ref.labels)
            assert (table.words, table.generators, table.inverse) == (
                ref.words, ref.generators, ref.inverse)


# The explicit builders the families and the rotation groups had before
# they shared one builder and coset enumeration: the references below.
def _family_reference(kind, m):
    """(mult, generators, presentation) of Z_m, Dih_2m or Dic_4m, built
    entry by entry on x^a y^b."""
    if kind == "cyclic":
        return ([[(a + b) % m for b in range(m)] for a in range(m)], (1 % m,),
                GroupPresentation(1, ((1,) * m,)))
    k, s = (m, 0) if kind == "dihedral" else (2 * m, m)

    def idx(a, b):
        return a % k + k * (b % 2)

    mult = [[0] * (2 * k) for _ in range(2 * k)]
    for a in range(k):
        for b in range(2):
            for c in range(k):
                for d in range(2):
                    e = a + c if b == 0 else a - c + (s if d == 1 else 0)
                    mult[idx(a, b)][idx(c, d)] = idx(e, b + d)
    if kind == "dihedral":
        pres = GroupPresentation(2, ((1,) * m, (2, 2), (2, 1, -2, 1)))
    else:
        pres = GroupPresentation(2, ((1,) * m + (-2, -2), (2, 1, -2, 1)))
    return mult, (idx(1, 0), idx(0, 1)), pres


def _perm_sign_reference(p):
    sign, seen = 1, [False] * len(p)
    for k in range(len(p)):
        length, v = 0, k
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _perm_table_reference(kind):
    """A4, S4 or A5 closed from its permutations, with the generators the
    presentations use (a product applies its left factor first)."""
    degree = 5 if kind == "A5" else 4
    elems = [p for p in itertools.permutations(range(degree))
             if kind == "S4" or _perm_sign_reference(p) == 1]
    gens = {
        "A4": [(1, 0, 3, 2), (2, 3, 0, 1), (1, 2, 0, 3)],
        "S4": [(1, 0, 2, 3), (1, 2, 3, 0)],
        "A5": [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],
    }[kind]
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[tuple(q[p[k]] for k in range(degree))] for q in elems] for p in elems]
    return _finish_table(len(elems), mult, tuple(index[g] for g in gens), None)


MAKE_GROUP_KINDS = (
    [("cyclic", q) for q in (1, 2, 7, 12)]
    + [("dihedral", m) for m in (2, 5, 6)]
    + [("dicyclic", m) for m in (2, 3, 8)]
    + [(k, None) for k in ("klein", "T*", "O*", "I*", "A4", "S4", "A5")]
)


class TestStandardConstructors:
    """The index-2 families come from one builder and the fixed groups from
    coset enumeration; both agree with the explicit builders they replace."""

    @pytest.mark.parametrize("kind,least", [("cyclic", 1), ("dihedral", 2), ("dicyclic", 2)])
    def test_families_match_the_explicit_builders(self, kind, least):
        for m in range(least, 41):
            G = make_group(kind, m)
            mult, gens, pres = _family_reference(kind, m)
            assert G.mult == tuple(map(tuple, mult))
            assert (G.generators, G.presentation) == (gens, pres)

    def test_klein_is_the_dihedral_table_at_two(self):
        D = make_group("dihedral", 2)
        assert make_group("klein") is make_group("klein", None) is D
        assert named_group("klein") is named_group("Z2xZ2") is D

    def test_binary_octahedral_matches_the_interleaved_presentation(self):
        # O* written out on its own, T*'s five relators interleaved with the
        # four that involve the fourth generator; the standardized coset
        # table does not depend on the relator order.
        interleaved = GroupPresentation(4, (
            (3, 3, 3), (1, 1, -2, -2), (2, 2, -4, -4), (1, 2, -1, 2), (3, 1, -3, -2),
            (3, 2, -3, -2, -1), (4, 3, -4, 3), (4, 1, -4, -1, -2), (4, 2, -4, 2),
        ))
        G, ref = make_group("O*"), todd_coxeter(interleaved)
        assert (G.mult, G.generators, G.words) == (ref.mult, ref.generators, ref.words)
        assert set(G.presentation.relators) == set(interleaved.relators)
        assert G.presentation.relators[:5] == make_group("T*").presentation.relators

    @pytest.mark.parametrize("kind", ["A4", "S4", "A5"])
    def test_rotation_groups_match_the_permutation_tables(self, kind):
        G, ref = make_group(kind), _perm_table_reference(kind)
        phi = hom_from_gen_images(G, ref, ref.generators)
        assert len(set(phi)) == G.order == ref.order
        assert structure_name(G) == kind

    def test_a4_catalog_tags_agree(self):
        G, ref = make_group("A4"), _perm_table_reference("A4")
        phi = hom_from_gen_images(G, ref, ref.generators)
        phi_inv = _invert_map(phi)
        for a in _aut_maps(ref):
            moved = _compose_maps(_compose_maps(phi, a), phi_inv)
            assert classify_action(G, moved) == classify_action(ref, a)
        assert set(action_catalog(G)) == set(action_catalog(ref)) == {"trivial", "omega~"}

    @pytest.mark.parametrize("kind,param", MAKE_GROUP_KINDS)
    def test_every_table_carries_its_presentation(self, kind, param):
        G = make_group(kind, param)
        pres = G.presentation
        assert pres is not None and pres.ngens == len(G.generators)
        assert all(eval_word(G, rel) == G.identity for rel in pres.relators)
        assert todd_coxeter(pres).order == G.order

    def test_one_coset_enumeration_per_presented_kind(self, monkeypatch):
        # Private caches, so tables that earlier tests built do not count.
        for name in ("make_group", "_presented_table"):
            fresh = lru_cache(maxsize=None)(getattr(groups, name).__wrapped__)
            monkeypatch.setattr(groups, name, fresh)
        calls = []
        todd_coxeter = groups.todd_coxeter

        def counted(pres):
            calls.append(pres)
            return todd_coxeter(pres)

        monkeypatch.setattr(groups, "todd_coxeter", counted)
        for kind in _PRESENTED:
            assert groups.make_group(kind) is groups.make_group(kind, None)
        assert calls == [pres for _, pres in _PRESENTED.values()]

    @pytest.mark.parametrize("kind,param,error,message", [
        ("cyclic", 0, ValueError, "cyclic group needs order >= 1"),
        ("dihedral", 1, ValueError, "dihedral group needs m >= 2 (order 2m)"),
        ("dicyclic", None, ValueError, "dicyclic group needs m >= 2 (order 4m)"),
        ("quaternion", 2, ValueError, "unknown group family 'quaternion'"),
        ("dicyclic", 501, SubgroupBudgetError, "order 2004 exceeds table budget 2000"),
        ("T*", 7, ValueError, "T* takes no parameter, got 7"),
        ("klein", 5, ValueError, "klein takes no parameter, got 5"),
    ])
    def test_bad_kinds_and_parameters(self, kind, param, error, message):
        with pytest.raises(error) as exc:
            make_group(kind, param)
        assert str(exc.value) == message


class TestNamedGroup:
    """Every name the engine prints resolves to the table it names."""

    @pytest.mark.parametrize("G", (
        [make_group("cyclic", q) for q in range(1, 201)]
        + [make_group("dicyclic", m) for m in range(2, 51)]
        + [make_group("dihedral", m) for m in range(3, 101)]
        + [make_group(kind) for kind in ("T*", "O*", "I*", "A4", "S4", "A5")]
    ), ids=structure_name)
    def test_structure_name_round_trip(self, G):
        assert named_group(structure_name(G)) is G

    @pytest.mark.parametrize("name,build", [
        ("B3", sphere_three_strand_table), ("klein", lambda: make_group("klein")),
        ("Z2xZ2", lambda: make_group("klein")), ("1", lambda: make_group("cyclic", 1)),
        ("Z8", lambda: make_group("cyclic", 8)), ("Dih4", lambda: make_group("dihedral", 2)),
        ("Q8", lambda: make_group("dicyclic", 2)), ("Dic8", lambda: make_group("dicyclic", 2)),
        ("Q12", lambda: make_group("dicyclic", 3)), ("Dic12", lambda: make_group("dicyclic", 3)),
    ])
    def test_aliases(self, name, build):
        assert named_group(name) is build()

    @pytest.mark.parametrize("name,message", [
        ("Dic10", "order 10 is not a multiple of 4 for Dic"),
        ("Q0", "dicyclic group needs m >= 2 (order 4m)"),
        ("Z0", "cyclic group needs order >= 1"),
        ("Zx", "unknown group tag 'Zx'"),
        ("wat", "unknown group tag 'wat'"),
    ])
    def test_rejects_bad_names(self, name, message):
        with pytest.raises(ValueError) as exc:
            named_group(name)
        assert str(exc.value) == message

    def test_presented_orders(self):
        assert all(make_group(kind).order == order for kind, (order, _) in _PRESENTED.items())

    def test_dicyclic_name(self):
        assert [dicyclic_name(4 * m) for m in range(2, 9)] == [
            "Q8", "Dic12", "Q16", "Dic20", "Dic24", "Dic28", "Q32"]
