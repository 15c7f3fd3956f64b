import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebraid.amalgams import (
    AmalgamElement,
    IsoCertificate,
    amalgam_iso,
    build_amalgam,
    distinguish_k1_k2,
    find_extension,
    k1,
    k1_prime,
    k2,
    k2_prime,
    named_amalgam,
    straight_gluing,
    to_semidirect,
)
from spherebraid.amalgams import _presentation_with_identification
from spherebraid.groups import (
    aut_from_gen_images,
    automorphisms,
    hom_from_gen_images,
    is_isomorphic,
    make_group,
    quotient,
    structure_name,
    subgroups,
)


def cyclic_spec(q):
    big, small = make_group("cyclic", 4 * q), make_group("cyclic", 2 * q)
    emb = hom_from_gen_images(small, big, (2 % (4 * q),))
    return build_amalgam(big, big, small, emb, emb)


def dic_over_cyclic_spec(q):
    big, small = make_group("dicyclic", q), make_group("cyclic", 2 * q)
    emb = hom_from_gen_images(small, big, (big.generators[0],))
    return build_amalgam(big, big, small, emb, emb)


def dic_over_dic_spec(q):
    big, small = make_group("dicyclic", q), make_group("dicyclic", q // 2)
    x, y = big.generators
    emb = hom_from_gen_images(small, big, (big.mul(x, x), y))
    return build_amalgam(big, big, small, emb, emb)


class TestStraightGluing:
    @pytest.mark.parametrize("kind,q,build", (
        [("zz", q, cyclic_spec) for q in range(1, 7)]
        + [("dicz", q, dic_over_cyclic_spec) for q in range(2, 7)]
        + [("dicdic", q, dic_over_dic_spec) for q in (4, 6, 8)]
    ))
    def test_matches_explicit_construction(self, kind, q, build):
        assert straight_gluing(kind, q) == build(q)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            straight_gluing("dicdih", 4)

    @pytest.mark.parametrize("q", [1, 3, 5, 7])
    def test_rejects_odd_dicdic_parameter(self, q):
        with pytest.raises(ValueError) as exc:
            straight_gluing("dicdic", q)
        assert str(exc.value) == "dicdic gluing needs an even parameter"


class TestNamedAmalgam:
    @pytest.mark.parametrize("tag,build", [
        ("k1", k1), ("k2", k2), ("k1p", k1_prime), ("k2p", k2_prime),
        ("zz:3", lambda: straight_gluing("zz", 3)),
        ("dicz:3", lambda: straight_gluing("dicz", 3)),
        ("dicdic:4", lambda: straight_gluing("dicdic", 4)),
    ])
    def test_tags(self, tag, build):
        assert named_amalgam(tag) == build()

    def test_k1_is_the_straight_gluing_at_four(self):
        assert named_amalgam("k1") == named_amalgam("dicdic:4") == dic_over_dic_spec(4)

    @pytest.mark.parametrize("build,kind,straight", [
        (k1, "dicyclic", True), (k2, "dicyclic", False),
        (k1_prime, "dihedral", True), (k2_prime, "dihedral", False),
    ])
    def test_gluings_match_explicit_construction(self, build, kind, straight):
        # The order-16 (order-8) factors over <x^2, y>, glued identically or
        # by x^2 -> y, y -> x^2 y, written out embedding by embedding.
        G, F = make_group(kind, 4), make_group(kind, 2)
        x, y = G.generators
        x2 = G.mul(x, x)
        i1 = hom_from_gen_images(F, G, (x2, y))
        i2 = i1 if straight else hom_from_gen_images(F, G, (y, G.mul(x2, y)))
        assert build() == build_amalgam(G, G, F, i1, i2)

    @pytest.mark.parametrize("tag,message", [
        ("dicdic:3", "dicdic gluing needs an even parameter"),
        ("dicdih:4", "unknown amalgam tag 'dicdih:4'"),
        ("zz", "unknown amalgam tag 'zz' (use k1, k2, k1p, k2p, zz:q, dicz:q, dicdic:q)"),
    ])
    def test_rejects_bad_tags(self, tag, message):
        with pytest.raises(ValueError) as exc:
            named_amalgam(tag)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["dicyclic", "dihedral"])
    def test_identification_presentation_is_both_factors_and_the_gluing(self, kind):
        # x, y present the factor; so do a, b; x^2 = a^2, y = b and x = a glue them.
        x4 = (1, 1, 1, 1, -2, -2) if kind == "dicyclic" else (1, 1, 1, 1)
        a4 = (3, 3, 3, 3, -4, -4) if kind == "dicyclic" else (3, 3, 3, 3)
        squares = () if kind == "dicyclic" else ((2, 2), (4, 4))
        want = {x4, a4, (2, 1, -2, 1), (4, 3, -4, 3), (1, 1, -3, -3), (2, -4), (1, -3)}
        want |= set(squares)
        pres = _presentation_with_identification(kind)
        assert pres.ngens == 4 and set(pres.relators) == want


class TestNormalForm:
    def test_subgroup_elements_have_no_syllables(self):
        spec = cyclic_spec(1)
        for h in range(spec.f.order):
            assert spec.from_f(h).syllables == ()

    def test_factor_element_times_inverse(self):
        spec = cyclic_spec(1)
        g = spec.embed(1, 1)  # a generator of the first factor, outside F
        assert spec.mul(g, spec.inv(g)) == spec.one

    def test_two_syllable_product_infinite(self):
        spec = cyclic_spec(1)
        prod = spec.mul(spec.embed(1, 1), spec.embed(2, 1))
        assert prod.syllable_length == 2
        assert not spec.element_order(prod).is_finite

    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            AmalgamElement(0, (1, 1))

    @pytest.mark.parametrize("spec_fn", [lambda: cyclic_spec(2), lambda: dic_over_cyclic_spec(3), k1, k2])
    def test_exhaustive_ball_arithmetic(self, spec_fn):
        spec = spec_fn()
        ball1, ball3 = spec.ball(1), spec.ball(3)
        in_ball = set(ball3)
        for a in ball3:
            assert spec.mul(a, spec.inv(a)) == spec.one
            for b in ball1:
                c = spec.mul(a, b)
                assert c.syllable_length > 3 or c in in_ball
        for a in ball1:
            for b in ball1:
                for c in ball1:
                    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))

    def test_torsion_dichotomy(self):
        spec = k1()
        for e in spec.ball(2):
            assert spec.element_order(e).is_finite == (e.syllable_length <= 1)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_sampled_associativity_k2(self, i, j, k):
        spec = k2()
        ball = spec.ball(2)
        a, b, c = ball[i * 37 % len(ball)], ball[j * 53 % len(ball)], ball[k * 11 % len(ball)]
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


def _pop_loop_mul(spec, a, b):
    """Multiplication as it was first written: push b's head through all of
    a's letters, then cancel facing pairs one at a time, pushing each square
    through the letters still to its left."""

    def push_through(syllables, h):
        for k in reversed(syllables):
            h = spec.push[k - 1][h]
        return h

    head = spec.f.mul(a.head, push_through(a.syllables, b.head))
    left = list(a.syllables)
    right = list(b.syllables)
    while left and right and left[-1] == right[0]:
        k = left.pop()
        right.pop(0)
        head = spec.f.mul(head, push_through(left, spec.sq[k - 1]))
    return AmalgamElement(head, tuple(left + right))


class TestMulAgainstPopLoop:
    @pytest.mark.parametrize("spec_fn", [
        lambda: straight_gluing("zz", 2),
        lambda: straight_gluing("dicz", 3),
        k1,
        k2,
        k1_prime,
        k2_prime,
    ])
    def test_ball3_products(self, spec_fn):
        spec = spec_fn()
        ball3 = spec.ball(3)
        for a in ball3:
            for b in ball3:
                assert spec.mul(a, b) == _pop_loop_mul(spec, a, b)

    def test_non_alternating_syllables_rejected(self):
        with pytest.raises(ValueError):
            AmalgamElement(0, (1, 2, 2))


class TestUncheckedProducts:
    """``mul`` builds its products past the constructor's checks; every
    product it makes passes them."""

    @pytest.mark.parametrize("tag", ["k1", "k2", "k1p", "k2p"])
    def test_ball2_products_pass_the_checked_constructor(self, tag):
        spec = named_amalgam(tag)
        ball = spec.ball(2)
        for a in ball:
            for b in ball:
                c = spec.mul(a, b)
                assert type(c) is AmalgamElement
                assert AmalgamElement(*c) == c and 0 <= c.head < spec.f.order

    @pytest.mark.parametrize("syllables", [(0,), (3,), (1, 0), (2, -1)])
    def test_labels_other_than_one_and_two_are_refused(self, syllables):
        # (0,) was once read by ``mul`` through push[-1] as a factor-2 letter.
        with pytest.raises(ValueError, match="1 or 2"):
            AmalgamElement(0, syllables)


class TestBuildValidation:
    def test_rejects_non_injective(self):
        big, small = make_group("cyclic", 8), make_group("cyclic", 4)
        bad = hom_from_gen_images(small, big, (4,))  # kernel of order 2
        with pytest.raises(ValueError):
            build_amalgam(big, big, small, bad, bad)

    def test_rejects_injective_non_homomorphism(self):
        # A bijection onto the index-2 image {0, 2, 4, 6} of Z4 in Z8 that
        # sends the generator right but 2 to 6.
        big, small = make_group("cyclic", 8), make_group("cyclic", 4)
        good = hom_from_gen_images(small, big, (2,))
        with pytest.raises(ValueError, match="^embedding is not a homomorphism$"):
            build_amalgam(big, big, small, (0, 2, 6, 4), good)
        with pytest.raises(ValueError, match="^embedding is not a homomorphism$"):
            build_amalgam(big, big, small, good, (0, 2, 6, 4))

    def test_rejects_wrong_index(self):
        big, small = make_group("cyclic", 12), make_group("cyclic", 4)
        emb = hom_from_gen_images(small, big, (3,))
        with pytest.raises(ValueError):
            build_amalgam(big, big, small, emb, emb)


class TestSemidirect:
    def test_cyclic_gluing(self):
        spec = cyclic_spec(1)
        form = to_semidirect(spec, find_extension(spec))
        assert form.signs.count(1) == 2 and form.signs.count(-1) == 2

    def test_dicyclic_gluing_signs_match_subgroup(self):
        spec = dic_over_cyclic_spec(3)
        form = to_semidirect(spec, find_extension(spec))
        image = spec.image_set(2)
        assert all((form.signs[g] == 1) == (g in image) for g in range(spec.g2.order))

    def test_straight_quaternion_gluing(self):
        spec = k1()
        form = to_semidirect(spec, find_extension(spec))
        assert form.generator.syllable_length == 2
        assert form.signs.count(1) == 8

    def test_twisted_gluing_has_no_extension(self):
        assert find_extension(k2()) is None

    def test_invalid_extension_rejected(self):
        spec = k1()
        G = spec.g1
        x, y = G.generators
        bad = aut_from_gen_images(G, (G.inv(x), y))
        with pytest.raises(ValueError):
            to_semidirect(spec, bad)


class TestExtensionsPastTheAutTableBudget:
    """Dic200 has 4,000 automorphisms, past the 2,000-element table budget of
    ``automorphisms``; the extension search and the automorphism checks of
    ``to_semidirect`` and ``amalgam_iso`` do not build that table."""

    @pytest.fixture(scope="class")
    def spec(self):
        return straight_gluing("dicz", 50)

    @staticmethod
    def non_automorphism(spec, m):
        # Swap two elements outside the amalgamated image: the restriction
        # to the gluing survives, the homomorphism property does not.
        image = set(spec.i1)
        a, b = [x for x in range(len(m)) if x not in image][:2]
        bad = list(m)
        bad[a], bad[b] = bad[b], bad[a]
        return tuple(bad)

    def test_semidirect(self, spec):
        form = to_semidirect(spec, find_extension(spec))
        assert form.signs.count(1) == form.signs.count(-1) == 100

    def test_to_semidirect_rejects_a_non_automorphism(self, spec):
        bad = self.non_automorphism(spec, find_extension(spec))
        with pytest.raises(ValueError, match="extension is not an automorphism"):
            to_semidirect(spec, bad)

    def test_amalgam_iso_rejects_a_non_automorphism(self, spec):
        ident = tuple(range(spec.g1.order))
        with pytest.raises(ValueError, match="theta1 is not an automorphism"):
            amalgam_iso(spec, spec, self.non_automorphism(spec, ident), ident)


@pytest.mark.parametrize("tag", [
    "k1", "k2", "k1p", "k2p", "zz:1", "zz:3", "zz:6", "dicz:2", "dicz:5", "dicdic:4", "dicdic:6",
])
def test_find_extension_is_the_least_matching_automorphism(tag):
    spec = named_amalgam(tag)
    matches = [
        m for m in automorphisms(spec.g1).labels
        if all(m[spec.i1[x]] == spec.i2[x] for x in range(spec.f.order))
    ]
    assert find_extension(spec) == min(matches, default=None)


class TestGluingClasses:
    def test_shared_relations(self):
        spec = k1()
        G = spec.g1
        x, y = G.generators
        # The identified pieces coincide in the amalgam: x^2 = a^2 and y = b.
        x2 = G.mul(x, x)
        assert spec.embed(1, x2) == spec.embed(2, x2)
        assert spec.embed(1, y) == spec.embed(2, y)

    def test_shared_central_involution(self):
        for spec in (k1(), k2()):
            G = spec.g1
            z = G.pow(G.generators[0], 4)
            e = spec.embed(1, z)
            assert e == spec.embed(2, z)
            assert spec.element_order(e).value == 2

    def test_twisted_permuter_identities(self):
        spec = k2()
        G = spec.g1
        x, y = G.generators
        x2 = G.mul(x, x)
        u = spec.mul(spec.embed(2, x), spec.embed(1, x))
        trip = [spec.embed(1, x2), spec.embed(1, y), spec.embed(1, G.mul(x2, y))]
        for j in range(3):
            assert spec.conj(u, trip[j]) == trip[(j + 1) % 3]

    def test_straight_conjugation_signs(self):
        spec = k1()
        G = spec.g1
        x, y = G.generators
        t = spec.mul(spec.embed(1, x), spec.inv(spec.embed(2, x)))
        assert spec.conj(spec.embed(1, x), t) == spec.inv(t)
        assert spec.conj(spec.embed(2, x), t) == spec.inv(t)
        assert spec.conj(spec.embed(1, y), t) == t
        assert spec.conj(spec.embed(2, y), t) == t

    def test_report_passes(self):
        rep = distinguish_k1_k2()
        assert rep.ok
        assert rep.k1_quotient_order == 16 and rep.k1_quotient_name == "Q16"

    def test_dihedral_report_passes(self):
        rep = distinguish_k1_k2(dihedral=True)
        assert rep.ok
        assert rep.k1_quotient_order == 8 and rep.k1_quotient_name == "Dih8"

    def test_prime_specs_are_central_quotients(self):
        # The dihedral factors are the quaternion factors modulo the shared
        # central involution, and the amalgamated Klein group is the image
        # of the amalgamated quaternion group.
        q16 = make_group("dicyclic", 4)
        z2 = next(h for h in subgroups(q16) if h.name == "Z2")
        assert is_isomorphic(quotient(q16, z2), k1_prime().g1)
        q8 = make_group("dicyclic", 2)
        z2q = next(h for h in subgroups(q8) if h.name == "Z2")
        assert structure_name(quotient(q8, z2q)) == "Z2 x Z2"
        assert structure_name(k1_prime().f) == "Z2 x Z2"


def per_pair_iso(spec_a, spec_b, theta1, theta2):
    """The certificate of amalgam_iso as it was made pair by pair, mapping
    every element afresh (the checks on the thetas left out)."""
    thetas = (tuple(theta1), tuple(theta2))

    def phi(e):
        out = spec_b.from_f(e.head)
        for k in e.syllables:
            out = spec_b.mul(out, spec_b.embed(k, thetas[k - 1][spec_a.transversal(k)]))
        return out

    gens = [(k, g) for k in (1, 2) for g in range(spec_a.factor(k).order)]
    checked = 0
    ok = True
    for k1_, g1_ in gens:
        u = spec_a.embed(k1_, g1_)
        pu = phi(u)
        if pu != spec_b.embed(k1_, thetas[k1_ - 1][g1_]):
            ok = False
        for k2_, g2_ in gens:
            v = spec_a.embed(k2_, g2_)
            if phi(spec_a.mul(u, v)) != spec_b.mul(pu, phi(v)):
                ok = False
            checked += 1
    ball_a = spec_a.ball(2)
    images = {phi(e) for e in ball_a}
    ball_bij = len(images) == len(ball_a) and images == set(spec_b.ball(2))
    return IsoCertificate(ok, checked, ball_bij)


def fourth_gluing(kind):
    """The fourth gluing of the order-16 factors of a kind and the factor
    automorphism psi carrying the first gluing to it."""
    G = make_group(kind, 4)
    F = make_group(kind, 2)
    x, y = G.generators
    x2 = G.mul(x, x)
    i1 = hom_from_gen_images(F, G, (x2, y))
    i2_four = hom_from_gen_images(F, G, (x2, G.mul(x2, y)))
    return build_amalgam(G, G, F, i1, i2_four), aut_from_gen_images(G, (x, G.mul(x2, y)))


def iso_cases():
    """(spec_a, spec_b, theta1, theta2) for the identity, the first gluing
    onto the fourth, and the dihedral analog."""
    ident = tuple(range(k1().g1.order))
    spec4, psi = fourth_gluing("dicyclic")
    spec4p, psip = fourth_gluing("dihedral")
    return {
        "identity": (k1(), k1(), ident, ident),
        "first-equals-fourth": (k1(), spec4, ident, psi),
        "dihedral": (k1_prime(), spec4p, tuple(range(k1_prime().g1.order)), psip),
    }


class TestAmalgamIso:
    @pytest.mark.parametrize("case", ["identity", "first-equals-fourth", "dihedral"])
    def test_matches_the_per_pair_certificate(self, case):
        args = iso_cases()[case]
        cert = amalgam_iso(*args)
        assert cert == per_pair_iso(*args)
        assert cert.ok and cert.ball_bijective
        assert cert.checked_products == (256 if case == "dihedral" else 1024)

    @pytest.mark.parametrize("case", ["identity", "first-equals-fourth"])
    def test_broken_target_squares_match_the_per_pair_certificate(self, case):
        # The thetas are checked against the embeddings only, so a target
        # whose t_1^2 is replaced by h in F passes them and fails products.
        spec_a, spec_b, theta1, theta2 = iso_cases()[case]
        certs = []
        for h in range(spec_b.f.order):
            broken = dataclasses.replace(spec_b, sq=(h, spec_b.sq[1]))
            cert = amalgam_iso(spec_a, broken, theta1, theta2)
            assert cert == per_pair_iso(spec_a, broken, theta1, theta2)
            certs.append(cert.ok)
        assert certs.count(True) == 1 and certs[spec_b.sq[0]]

    def test_rejects_non_intertwining(self):
        spec = k1()
        G = spec.g1
        x, y = G.generators
        theta = aut_from_gen_images(G, (G.inv(x), y))
        with pytest.raises(ValueError):
            amalgam_iso(spec, k2(), theta, theta)
