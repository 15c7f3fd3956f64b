"""
Identity regression suites: every quotable identity of the engine, replayed
over a range of strand counts with machine-readable results.

Each suite is a deterministic sequence of independent named checks (they
share no state and may be evaluated in any order; the runner executes and
reports them in check-id order).  A nonzero count of failed checks makes
the overall result fail, which the command line turns into a nonzero exit
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple

from . import amalgams, classifier, groups, words
from .groups import make_group

__all__ = ["CheckResult", "SuiteResult", "SUITE_IDS", "run_suite", "default_range"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    n_range: tuple[int, int]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good


Check = tuple[str, Callable[[], bool]]


def _claim(check_id: str, kind: str, *args) -> Check:
    """A check that one claim holds, decided as ``witness`` decides its claims."""
    return check_id, partial(classifier._holds, (check_id, kind, *args))


# ---------------------------------------------------------------------------
# Suite check generators.
# ---------------------------------------------------------------------------


def _presentation_checks(lo: int, hi: int) -> Iterator[Check]:
    yield "three-strand-group-order-12", lambda: groups.sphere_three_strand_table().order == 12
    for m in range(2, 11):
        yield f"dicyclic-{4 * m}-order", (lambda m=m: make_group("dicyclic", m).order == 4 * m)
    yield "quaternion-16-order", lambda: make_group("dicyclic", 4).order == 16
    yield "binary-tetrahedral-order-24", lambda: make_group("T*").order == 24
    yield "binary-octahedral-order-48", lambda: make_group("O*").order == 48
    yield "binary-icosahedral-order-120", lambda: make_group("I*").order == 120


def _torsion_checks(lo: int, hi: int) -> Iterator[Check]:
    for n in range(lo, hi + 1):
        ft = words.full_twist(n)
        for i in (0, 1, 2):
            yield _claim(f"n={n}/torsion-order-a{i}", "order", words.alpha(n, i), 2 * (n - i))
            yield _claim(f"n={n}/full-twist-root-a{i}", "equal", words.alpha(n, i) ** (n - i), ft)
        yield _claim(f"n={n}/full-twist-order", "order", ft, 2)


def _funda_checks(lo: int, hi: int) -> Iterator[Check]:
    for n in range(lo, hi + 1):
        D = words.half_twist(n)
        for i in (0, 1, 2):
            a = words.alpha(n, i)
            for j in range(1, n - i):
                for l in range(1, n - i - j):
                    yield _claim(f"n={n}/index-shift-i{i}-j{j}-l{l}", "equal",
                                 a ** l * words.sigma(n, j) * a ** (-l), words.sigma(n, j + l))
            yield _claim(f"n={n}/index-wrap-i{i}", "equal",
                         words.sigma(n, 1), a ** 2 * words.sigma(n, n - i - 1) * a ** (-2))
        a0 = words.alpha(n, 0)
        for q in range(n + 1):
            rhs = words.word(n, list(range(1, q)) * q)
            for k in range(1, q + 1):
                rhs = rhs * words.word(n, list(range(q - k + 1, n - k + 1)))
            yield _claim(f"n={n}/block-form-q{q}", "equal", a0 ** q, rhs)
        for i in range(1, n):
            yield _claim(f"n={n}/half-twist-reversal-s{i}", "equal",
                         D * words.sigma(n, i) * D.inv(), words.sigma(n, n - i))
        for i in (0, 2):
            ap = words.alpha_prime(n, i)
            yield _claim(f"n={n}/half-twist-inverts-a{i}p", "equal", D * ap * D.inv(), ap.inv())
        if n <= 7:
            for j1 in range(1, n):
                for j2 in range(j1 + 1, n):
                    lhs = words.word(n, list(range(j1, j2))) ** (j2 - j1 + 1)
                    rhs = words.word(n, list(range(j2 - 1, j1 - 1, -1))) ** (j2 - j1 + 1)
                    yield _claim(f"n={n}/reversed-power-{j1}-{j2}", "equal", lhs, rhs)


def _propsomega_checks(lo: int, hi: int) -> Iterator[Check]:
    for n in range(lo, hi + 1):
        if n % 2:
            continue
        D = words.half_twist(n)
        o1, o2, r = words.omega1(n), words.omega2(n), words.rho_pass(n)
        half = words.alpha(n, 0) ** (n // 2)
        yield _claim(f"n={n}/pass-swaps-blocks-1", "equal", r * o1, o2 * r)
        yield _claim(f"n={n}/half-twist-factorization", "equal", D, o1 * o2 * r)
        yield _claim(f"n={n}/pass-swaps-blocks-2", "equal", r * o2, o1 * r)
        desc = words.identity(n)
        for k in range(n - 1, n // 2, -1):
            desc = desc * words.word(n, list(range(k, n)))
        yield _claim(f"n={n}/second-block-descending-form", "equal", o2, desc)
        yield _claim(f"n={n}/half-power-factorization", "equal", half, o1 * o1 * r)
        yield _claim(f"n={n}/half-twist-conjugate", "equal", D, o2 * half * o2.inv())
        yield _claim(f"n={n}/half-power-conjugate", "equal", half, o1 * D * o1.inv())
        yield _claim(f"n={n}/full-twist-block-quotient", "equal",
                     words.full_twist(n), o1 ** 2 * o2 ** -2)


# Check-id templates for the construction claims each realization suite
# checks, by claim label; claims without a template (the faithfulness and
# most order claims) are left to ``witness``.
_COMMALPHAIGEN_IDS = {
    ("Z", "trivial"): {
        "axis generator has infinite order": "commuter-infinite-i{i}-m{m}",
        "axis commutes with the finite generator": "commuter-commutes-i{i}-m{m}",
    },
    ("Z", "rho"): {
        "axis generator has infinite order": "inverter-infinite-i{i}-q{q}",
        "axis inverts the finite generator": "inverter-action-i{i}-q{q}",
    },
    ("Dic", "trivial"): {
        "axis generator has infinite order": "block-commuter-infinite-i{i}-s{s}",
        "axis commutes with x": "block-commuter-x-i{i}-s{s}",
        "axis commutes with y": "block-commuter-y-i{i}-s{s}",
    },
    ("Dic", "nu"): {
        "axis generator has infinite order": "dicyclic-twist-infinite-i{i}-s{s}",
        "axis fixes x": "dicyclic-twist-fixes-x-i{i}-s{s}",
        "axis sends y to xy": "dicyclic-twist-y-to-xy-i{i}-s{s}",
    },
}
_CONSTQ8_IDS = {
    "alpha": {
        "axis generator has infinite order": "three-cycle-axis-infinite",
        "axis sends x to xy": "three-cycle-x",
        "axis sends xy to y^-1": "three-cycle-xy",
        "axis sends y^-1 to x": "three-cycle-yinv",
    },
    "beta": {
        "axis generator has infinite order": "swap-axis-infinite",
        "axis swaps y into x": "swap-y-to-x",
        "axis swaps x into y": "swap-x-to-y",
        "axis inverts xy": "swap-inverts-xy",
    },
}
_REALV2_IDS = {
    "first generator has order 4": "order4-pair-first",
    "squares agree on the shared involution": "order4-pair-shared-square",
    "v1 v2 has infinite order": "order4-pair-product-infinite",
}


def _construction_checks(n: int, ids: dict[str, str], claims: tuple, **params) -> Iterator[Check]:
    """One check per template in ``ids``, in template order, on the claim
    with its label; a template whose label no claim carries fails."""
    by_label = {claim[0]: claim for claim in claims}
    for label, template in ids.items():
        claim = by_label.get(label)
        check_id = f"n={n}/" + template.format(**params)
        yield check_id, partial(classifier._holds, claim) if claim else (lambda: False)


def _commalphaigen_order(found: tuple) -> tuple:
    """Commuters by i and ascending power m, then per i the inverters and
    the dicyclic constructions (block commuter before twist)."""
    (_, f, action, *_), i = found
    if f.family == "Z" and action == "trivial":
        return (0, i, -f.param)
    return (1, i, f.family == "Dic", f.param, action != "trivial")


def _commalphaigen_checks(lo: int, hi: int) -> Iterator[Check]:
    for n in range(lo, hi + 1):
        # The Type I constructions that take a deletion index i; at n = 3,
        # i = 2 leaves one strand and no commuter.
        found = [(shape, i) for shape, i in classifier._v1_shapes(n)
                 if i is not None and n - i >= 2]
        for shape, i in sorted(found, key=_commalphaigen_order):
            f, action = shape[1], shape[2]
            gens, claims = classifier._construction(shape, n, i)
            m = 2 * (n - i) // f.param
            if f.param == 1:
                # The trivial factor has no finite generator to commute with.
                claims += (("axis commutes with the finite generator", "commute",
                            dict(gens)["axis"], words.alpha(n, i) ** m),)
            yield from _construction_checks(n, _COMMALPHAIGEN_IDS[f.family, action], claims,
                                            i=i, m=m, q=f.param, s=f.param)


def _constq8_checks(lo: int, hi: int) -> Iterator[Check]:
    q8 = classifier.GroupDesc("Dic", 2)
    for n in range(lo, hi + 1):
        if n % 2:
            continue
        # The three-cycle axis nu exists for 4 | n; n = 4 has its own words.
        for action in ("alpha", "beta") if n % 4 == 0 and n >= 8 else ("beta",):
            _, claims = classifier._construction(classifier._type1(q8, action), n, None)
            yield from _construction_checks(n, _CONSTQ8_IDS[action], claims)


def _realV2_checks(lo: int, hi: int) -> Iterator[Check]:
    if lo <= 5 <= hi:
        lhs = (words.sigma(5, 4).inv() * words.sigma(5, 3)) ** 3
        rhs = words.word(5, [-4, -4, -3, -3, 4, 4, 3, 3])
        yield _claim("five-strands/band-cube-identity", "equal", lhs, rhs)
        yield _claim("five-strands/band-cube-infinite", "infinite",
                     words.sigma(5, 4).inv() * words.sigma(5, 3))
    for (n, i) in ((4, 0), (4, 2), (6, 2)):
        if not lo <= n <= hi:
            continue
        yield _claim(f"n={n}/eta-tilde-infinite-i{i}", "infinite", words.eta_tilde_elt(n, i))
    if lo <= 4 <= hi:
        A = words.band_generator
        yield _claim("n=4/eta-tilde-band-form-i0", "equal",
                     words.eta_tilde_elt(4, 0), A(4, 1, 2) * A(4, 1, 4).inv())
        yield _claim("n=4/eta-tilde-band-form-i2", "equal",
                     words.eta_tilde_elt(4, 2), A(4, 2, 3) * A(4, 3, 4) ** 2)
    if lo <= 6 <= hi:
        A = words.band_generator
        rhs = A(6, 1, 3).inv() * A(6, 4, 5) * A(6, 3, 4).inv() * A(6, 5, 6)
        yield _claim("n=6/eta-tilde-band-form-i2", "equal", words.eta_tilde_elt(6, 2), rhs)
    z4, z2 = classifier.GroupDesc("Z", 4), classifier.GroupDesc("Z", 2)
    for n in range(lo, hi + 1):
        _, claims = classifier._construction(classifier._type2(z4, z4, z2), n, None)
        yield from _construction_checks(n, _REALV2_IDS, claims)


_TSTAR_LATTICE = {
    "classes": {"1", "Z2", "Z3", "Z4", "Z6", "Q8", "T*"},
    "maximal": {"Z6", "Q8"},
    "normal": {"Z2", "Q8"},
}
_OSTAR_LATTICE = {
    "classes": {"1", "Z2", "Z3", "Z4", "Z6", "Z8", "Q8", "Dic12", "Q16", "T*", "O*"},
    "maximal": {"Dic12", "Q16", "T*"},
    "normal": {"Z2", "Q8", "T*"},
}
_ISTAR_LATTICE = {
    "classes": {"1", "Z2", "Z3", "Z4", "Z5", "Z6", "Q8", "Z10", "Dic12", "Dic20", "T*", "I*"},
    "maximal": {"Dic12", "Dic20", "T*"},
    "normal": {"Z2"},
}


def _lattice_checks_for(tag: str, expected: dict) -> Iterator[Check]:
    def subs():
        return groups.subgroups(make_group(tag))

    yield f"{tag}/subgroup-classes", (
        lambda: {h.name for h in subs()} == expected["classes"]
    )

    def maximal_ok() -> bool:
        hs = subs()
        maximal = set()
        for h in hs:
            if h.order == make_group(tag).order:
                continue
            if not any(
                h.elements < g.elements and g.order < make_group(tag).order for g in hs
            ):
                maximal.add(h.name)
        return maximal == expected["maximal"]

    yield f"{tag}/maximal-classes", maximal_ok
    yield f"{tag}/normal-classes", (
        lambda: {
            h.name
            for h in subs()
            if h.normal and 1 < h.order < make_group(tag).order
        }
        == expected["normal"]
    )


def _finite_lattices_checks(lo: int, hi: int) -> Iterator[Check]:
    yield from _lattice_checks_for("T*", _TSTAR_LATTICE)
    yield from _lattice_checks_for("O*", _OSTAR_LATTICE)
    yield from _lattice_checks_for("I*", _ISTAR_LATTICE)
    yield "T*/unique-quaternion-8", (
        lambda: sum(1 for h in groups.subgroups(make_group("T*")) if h.name == "Q8") == 1
    )
    yield "O*/unique-binary-tetrahedral", (
        lambda: sum(1 for h in groups.subgroups(make_group("O*")) if h.name == "T*") == 1
    )
    yield "O*/three-nonnormal-quaternion-16", (
        lambda: [
            (h.normal)
            for h in groups.subgroups(make_group("O*"))
            if h.name == "Q16"
        ]
        == [False, False, False]
    )
    yield "I*/unique-nontrivial-normal", (
        lambda: [
            h.name
            for h in groups.subgroups(make_group("I*"))
            if h.normal and 1 < h.order < 120
        ]
        == ["Z2"]
    )


def _autout_checks(lo: int, hi: int) -> Iterator[Check]:
    q8 = make_group("dicyclic", 2)
    yield "Q8/aut-order-24", lambda: len(groups._aut_maps(q8)) == 24
    yield "Q8/out-is-symmetric-3", (
        lambda: groups.structure_name(groups.outer_group(q8)) == "Dih6"
    )
    yield "Q8/inner-is-klein", (
        lambda: groups.structure_name(groups.quotient(q8, groups.center(q8))) == "Z2 x Z2"
    )
    for tag in ("T*", "O*", "I*"):
        yield f"{tag}/out-order-2", (lambda tag=tag: groups.outer_group(make_group(tag)).order == 2)
    yield "T*/inner-is-alternating-4", (
        lambda: groups.structure_name(groups.quotient(make_group("T*"), groups.center(make_group("T*"))))
        == "A4"
    )
    yield "Z6/aut-order-2", lambda: len(groups._aut_maps(make_group("cyclic", 6))) == 2

    def quatact_partition() -> bool:
        cat = groups.action_catalog(q8)
        a, b = cat["alpha"], cat["beta"]
        a2 = groups._compose_maps(a, a)
        reps = {
            "id": tuple(range(8)),
            "alpha": a,
            "alpha2": a2,
            "beta": b,
            "ab": groups._compose_maps(a, b),
            "a2b": groups._compose_maps(a2, b),
        }
        tags = {name: groups.classify_action(q8, m) for name, m in reps.items()}
        return (
            tags["id"] == "trivial"
            and tags["alpha"] == tags["alpha2"] == "alpha"
            and tags["beta"] == tags["ab"] == tags["a2b"] == "beta"
        )

    yield "Q8/semidirect-three-tags", quatact_partition
    yield "T*/nontrivial-action-tag", (
        lambda: groups.classify_action(make_group("T*"), groups.action_catalog(make_group("T*"))["omega"])
        == "omega"
    )

    def restriction(G, sub_name) -> bool:
        subs = [h for h in groups.subgroups(G) if h.name == sub_name]
        return bool(subs) and all(
            groups.restriction_is_surjective(G, h.elements) for h in subs
        )

    for q in range(1, 7):
        yield f"Z{4 * q}/restriction-onto-Z{2 * q}", (
            lambda q=q: restriction(make_group("cyclic", 4 * q), f"Z{2 * q}")
        )
    for q in range(3, 7):
        yield f"Dic{4 * q}/restriction-onto-Z{2 * q}", (
            lambda q=q: restriction(make_group("dicyclic", q), f"Z{2 * q}")
        )
    yield "Q8/restriction-onto-Z4", lambda: restriction(q8, "Z4")
    for q in (6, 8):
        name = groups.dicyclic_name(2 * q)
        yield f"Dic{4 * q}/restriction-onto-{name}", (
            lambda q=q, name=name: restriction(make_group("dicyclic", q), name)
        )
    yield "O*/restriction-onto-T*", lambda: restriction(make_group("O*"), "T*")


def _amalgams_checks(lo: int, hi: int) -> Iterator[Check]:
    named = {
        "cyclic-8-over-4": amalgams.straight_gluing("zz", 2),
        "dicyclic-12-over-6": amalgams.straight_gluing("dicz", 3),
        "quaternion-straight": amalgams.k1(),
        "quaternion-twisted": amalgams.k2(),
    }
    for name, spec in named.items():
        def closure_ok(spec=spec) -> bool:
            ball1 = spec.ball(1)
            ball3 = spec.ball(3)
            known = set(ball3)
            return all(
                ab in known or ab.syllable_length > 3
                for ab in (spec.mul(a, b) for a in ball3 for b in ball1)
            )

        def assoc_ok(spec=spec) -> bool:
            # Every triple is checked; each pairwise product is made once.
            ball1 = spec.ball(1)
            prod = [[spec.mul(a, b) for b in ball1] for a in ball1]
            return all(
                spec.mul(prod[i][j], c) == spec.mul(a, prod[j][k])
                for i, a in enumerate(ball1)
                for j in range(len(ball1))
                for k, c in enumerate(ball1)
            )

        def inverse_ok(spec=spec) -> bool:
            return all(spec.mul(e, spec.inv(e)) == spec.one for e in spec.ball(3))

        def torsion_ok(spec=spec) -> bool:
            return all(
                spec.element_order(e).is_finite == (e.syllable_length <= 1)
                for e in spec.ball(2)
            )

        yield f"{name}/normal-form-closure", closure_ok
        yield f"{name}/associativity", assoc_ok
        yield f"{name}/inverses", inverse_ok
        yield f"{name}/torsion-dichotomy", torsion_ok

    def semidirect_ok(spec: amalgams.AmalgamSpec) -> bool:
        ext = amalgams.find_extension(spec)
        return ext is not None and amalgams.to_semidirect(spec, ext) is not None

    for q in range(1, 7):
        yield f"cyclic-{4 * q}-over-{2 * q}/semidirect", (
            lambda q=q: semidirect_ok(amalgams.straight_gluing("zz", q))
        )
    for q in range(2, 7):
        yield f"dicyclic-{4 * q}-over-{2 * q}/semidirect", (
            lambda q=q: semidirect_ok(amalgams.straight_gluing("dicz", q))
        )
    yield "quaternion-straight/semidirect", lambda: semidirect_ok(amalgams.k1())
    yield "quaternion-twisted/no-extension", (
        lambda: amalgams.find_extension(amalgams.k2()) is None
    )

    yield "dicyclic-24-over-dicyclic-12/semidirect", (
        lambda: semidirect_ok(amalgams.straight_gluing("dicdic", 6))
    )

    def octahedral_over_tetrahedral() -> bool:
        big = make_group("O*")
        small = make_group("T*")
        # The index-2 copy generated by the first three presentation gens.
        emb = groups.hom_from_gen_images(small, big, big.generators[:3])
        spec = amalgams.build_amalgam(big, big, small, emb, emb)
        return semidirect_ok(spec)

    yield "octahedral-over-tetrahedral/semidirect", octahedral_over_tetrahedral
    yield "quaternion-gluings/distinguished", lambda: amalgams.distinguish_k1_k2().ok
    yield "dihedral-gluings/distinguished", (
        lambda: amalgams.distinguish_k1_k2(dihedral=True).ok
    )

    def phi4_iso() -> bool:
        G = make_group("dicyclic", 4)
        F = make_group("dicyclic", 2)
        x, y = G.generators
        x2 = G.mul(x, x)
        i1 = groups.hom_from_gen_images(F, G, (x2, y))
        i2_four = groups.hom_from_gen_images(F, G, (x2, G.mul(x2, y)))
        spec4 = amalgams.build_amalgam(G, G, F, i1, i2_four)
        psi = groups.aut_from_gen_images(G, (x, G.mul(x2, y)))
        ident = tuple(range(G.order))
        cert = amalgams.amalgam_iso(amalgams.k1(), spec4, ident, psi)
        return cert.ok and cert.ball_bijective

    yield "quaternion-gluings/first-equals-fourth", phi4_iso


def _expected_mainodd(n: int) -> set:
    """The realized descriptor set for odd strand counts, from the theorem."""
    recs: set = set()
    for i in (0, 2):
        for m in range(1, 2 * (n - i)):
            if (2 * (n - i)) % m == 0 and m != n - i:
                recs.add(("I", classifier.GroupDesc("Z", m), "trivial"))
                if m >= 3:
                    recs.add(("I", classifier.GroupDesc("Z", m), "rho"))
    for m in range(1, 2 * (n - 1)):
        if (2 * (n - 1)) % m == 0:
            recs.add(("I", classifier.GroupDesc("Z", m), "trivial"))
    for i in (0, 2):
        for m in range(3, n - i):
            if (n - i) % m == 0:
                recs.add(("I", classifier.GroupDesc("Dic", m), "trivial"))
    for q in range(1, (n - 1) // 2 + 1):
        if ((n - 1) // 2) % q == 0:
            recs.add(
                ("II", classifier.GroupDesc("Z", 4 * q), classifier.GroupDesc("Z", 4 * q),
                 classifier.GroupDesc("Z", 2 * q), None)
            )
    for i in (0, 2):
        for q in range(2, n - i):
            if (n - i) % q == 0:
                recs.add(
                    ("II", classifier.GroupDesc("Dic", q), classifier.GroupDesc("Dic", q),
                     classifier.GroupDesc("Z", 2 * q), None)
                )
    return recs


def _classifier_mainodd_checks(lo: int, hi: int) -> Iterator[Check]:
    for n in range(lo, hi + 1):
        if n % 2 == 0 or n < 5:
            continue

        def match(n=n) -> bool:
            got = set()
            for r in classifier.enumerate_all(n):
                if r.status != "realized":
                    return False  # odd strand counts have no open cases
                if r.kind == "I":
                    got.add(("I", r.factor, r.action))
                else:
                    got.add(("II", *r.factors, r.amalgamated, r.gluing))
            return got == _expected_mainodd(n)

        yield f"n={n}/realized-set-matches-odd-classification", match


class _Suite(NamedTuple):
    """A suite's check generator, its default strand range, and the least n it holds for."""

    checks: Callable[[int, int], Iterator[Check]]
    default: tuple[int, int]
    least: int


# funda's index-wrap check for alpha_2 needs sigma_{n-3}, so n >= 4;
# commalphaigen and realV2 claim elements of infinite order, which the finite
# group B_3(S^2) lacks.
_SUITES: dict[str, _Suite] = {
    "presentation": _Suite(_presentation_checks, (3, 3), 3),
    "torsion": _Suite(_torsion_checks, (4, 10), 3),
    "funda": _Suite(_funda_checks, (4, 8), 4),
    "propsomega": _Suite(_propsomega_checks, (4, 10), 3),
    "commalphaigen": _Suite(_commalphaigen_checks, (4, 10), 4),
    "constq8": _Suite(_constq8_checks, (4, 12), 3),
    "realV2": _Suite(_realV2_checks, (4, 8), 4),
    "finite_lattices": _Suite(_finite_lattices_checks, (3, 3), 3),
    "autout": _Suite(_autout_checks, (3, 3), 3),
    "amalgams": _Suite(_amalgams_checks, (3, 3), 3),
    "classifier_mainodd": _Suite(_classifier_mainodd_checks, (4, 20), 3),
}

SUITE_IDS = tuple(sorted(_SUITES))


def default_range(suite: str) -> tuple[int, int]:
    return _SUITES[suite].default


def run_suite(suite: str, n_range: tuple[int, int] | None = None) -> SuiteResult:
    """Execute every check of the suite over the range; deterministic order."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_IDS)}")
    gen, default, least = _SUITES[suite]
    lo, hi = n_range if n_range is not None else default
    if lo < least:
        raise ValueError(f"suite {suite} holds for n >= {least} only, not from n={lo}")
    if lo > hi:
        raise ValueError(f"empty strand range {lo}..{hi}: the lower end exceeds the upper")
    results = []
    for check_id, fn in gen(lo, hi):
        try:
            passed = bool(fn())
        except Exception:
            passed = False
        results.append(CheckResult(check_id, passed))
    return SuiteResult(suite, (lo, hi), tuple(results))
