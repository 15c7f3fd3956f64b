"""
Enumeration of the virtually cyclic subgroup classes of the sphere braid
groups and of the mapping class groups of punctured spheres.

For a strand count n >= 4 the infinite virtually cyclic subgroups fall into
Type I (finite-by-infinite-cyclic) and Type II (amalgams of two finite
groups over an index-2 subgroup); the candidate families are parametrized
by divisibility conditions in n, with a handful of congruence-gated
binary-polyhedral entries.  One generator walks the deletion indices i once
and yields the ``(shape, i)`` pairs of both types, a shape being the plain
tuple ``(kind, factor, action, factors, amalgamated, gluing)``.  Each record
carries a realization status read from one exception table: realized, open
(a finite list of undecided strand counts), or not realized (two excluded
cases).  The mapping-class classes are the images of the braid-group records
under the central quotient B_n(S^2) -> B_n(S^2)/<FT> = Mod(S_{0,n}), listed
once per isomorphism class: an action gains a tilde and a gluing tag a
prime, save where the action becomes inner, and each image takes the union
of its preimages' indices i and their best status.  One computation per n
walks the generator once and builds both tables; every public view reads
it, and only the last n asked is cached.

Where the realization is by an explicit algebraic construction, one table,
``_construction(shape, n, i)``, writes the generator words down together
with the claims that certify them, as data: an order, an infinite order, an
equality, a commutation or a faithful finite subgroup.  One evaluator
decides each claim with the oracle.  :func:`witness` evaluates the claims of
a record's construction into its certificate transcript, and the
realization suites check the same claims over their strand ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from . import oracle, words
from .groups import FiniteGroupTable, dicyclic_name, named_group
from .oracle import Order
from .words import BraidWord

__all__ = [
    "GroupDesc",
    "VcClassRecord",
    "Witness",
    "WitnessUnavailable",
    "enumerate_v1",
    "enumerate_v2",
    "enumerate_all",
    "enumerate_vtilde",
    "project_to_mcg",
    "witness",
]


class GroupDesc(NamedTuple):
    """A finite-group isomorphism class: family tag plus size parameter.

    Families: ``Z`` (cyclic of order q), ``Dic`` (dicyclic of order 4m),
    ``Dih`` (dihedral of order 2m), ``V4`` (Klein group as the image of the
    quaternion group), and the parameterless ``T*``, ``O*``, ``I*``, ``A4``,
    ``S4``, ``A5``.  A named tuple, so hashing, equality and ordering are
    those of the plain tuple ``(family, param)``.
    """

    family: str
    param: int = 0

    def __str__(self) -> str:
        if self.family == "Z":
            return "1" if self.param == 1 else f"Z{self.param}"
        if self.family == "Dic":
            return dicyclic_name(4 * self.param)
        if self.family == "Dih":
            return f"Dih{2 * self.param}"
        if self.family == "V4":
            return "Z2xZ2"
        return self.family

    def table(self) -> FiniteGroupTable:
        """The reference multiplication table for this class."""
        return named_group(str(self))


class VcClassRecord(NamedTuple):
    """One isomorphism class of infinite virtually cyclic subgroups.

    Type I records have ``factor`` and ``action``; Type II records have
    ``factors``, ``amalgamated``, and (for the one ambiguous shape) a
    ``gluing`` class tag.  ``admissible_i`` lists the strand-deletion
    indices i realizing the divisibility conditions; the abstract class is
    recorded once even when several i work.  A named tuple: records hash,
    compare and sort as the plain tuple of their fields, and copies are
    made with ``_replace``.
    """

    kind: str  # "I" | "II"
    n: int
    mcg: bool = False
    factor: GroupDesc | None = None
    action: str | None = None
    factors: tuple[GroupDesc, GroupDesc] | None = None
    amalgamated: GroupDesc | None = None
    gluing: str | None = None
    admissible_i: tuple[int, ...] = ()
    status: str = "realized"
    status_ref: str = ""

    @property
    def shape(self) -> str:
        if self.kind == "I":
            if self.action == "trivial":
                return f"{self.factor} x Z"
            return f"{self.factor} x|{self.action} Z"
        a, b = self.factors  # type: ignore[misc]
        tag = f" [{self.gluing}]" if self.gluing else ""
        return f"{a} *_{{{self.amalgamated}}} {b}{tag}"

    @property
    def key(self) -> tuple:
        """Identity of the abstract class, independent of n and i."""
        return (self.kind, self.mcg, self.factor, self.action,
                self.factors, self.amalgamated, self.gluing)


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _check_n(n: int) -> None:
    if n < 4:
        raise ValueError(f"the classification needs n >= 4, got {n}")


# ---------------------------------------------------------------------------
# Shapes and the exception table.
# ---------------------------------------------------------------------------

# A class is enumerated as its shape: the plain tuple
# (kind, factor, action, factors, amalgamated, gluing) of the record fields
# that identify it.


def _type1(factor: GroupDesc, action: str) -> tuple:
    return ("I", factor, action, None, None, None)


def _type2(a: GroupDesc, b: GroupDesc, f: GroupDesc, gluing: str | None = None) -> tuple:
    return ("II", None, None, (a, b), f, gluing)


def _shape(record: VcClassRecord) -> tuple:
    return (record.kind, record.factor, record.action,
            record.factors, record.amalgamated, record.gluing)


# shape -> (excluded n, open n's, tag); every other braid-group class is realized.
_EXCEPTIONS = {
    _type1(GroupDesc("T*"), "trivial"): (4, frozenset({6, 8, 10, 14}), "tstar-z"),
    _type1(GroupDesc("O*"), "trivial"): (6, frozenset({6, 8, 12, 14, 18, 20, 26}), "ostar-z"),
    _type1(GroupDesc("T*"), "omega"): (None, frozenset({6, 8, 12, 14, 18, 20, 26}), "tstar-omega-z"),
    _type1(GroupDesc("I*"), "trivial"): (None, frozenset({12, 20, 30, 32, 42, 50, 62}), "istar-z"),
    _type1(GroupDesc("Dic", 2), "alpha"): (None, frozenset({6, 10, 14}), "q8-alpha-z"),
    _type2(GroupDesc("Dic", 4), GroupDesc("Dic", 4), GroupDesc("Dic", 2), "K2"):
        (None, frozenset({6, 14, 18, 26, 30, 38}), "k2-gluing"),
    _type2(GroupDesc("O*"), GroupDesc("O*"), GroupDesc("T*")):
        (None, frozenset({6, 8, 12, 14, 18, 20, 24, 26, 30, 32, 38}), "ostar-amalgam"),
}


def _status(shape: tuple, n: int) -> tuple[str, str]:
    excluded, open_ns, tag = _EXCEPTIONS.get(shape, (None, (), ""))
    if n == excluded:
        return "not_realized", f"excluded:{tag}-n{n}"
    if n in open_ns:
        return "open", f"open:{tag}"
    return "realized", "realized"


# ---------------------------------------------------------------------------
# Enumeration of the braid-group families.
# ---------------------------------------------------------------------------


def _shapes(n: int) -> Iterator[tuple[tuple, int | None]]:
    """Every ``(shape, i)`` pair at n.  At each deletion index i the cyclic
    and dicyclic families of both types come from the divisors of 2(n - i),
    of (n - i)/2 when n - i is even, and of n - i; the inversion, dicyclic
    and Z *_Z Dic families need i in {0, 2}.  The binary-polyhedral shapes
    follow with no i, gated by n mod 2, 6 and 30."""
    for i in (0, 1, 2):
        k = n - i
        for q in _divisors(2 * k)[:-1]:
            if k % 2 and q == k:
                continue
            yield _type1(GroupDesc("Z", q), "trivial"), i
            if i != 1 and q >= 3:
                yield _type1(GroupDesc("Z", q), "rho"), i
        for q in _divisors(k // 2) if k % 2 == 0 else ():
            z4, z2 = GroupDesc("Z", 4 * q), GroupDesc("Z", 2 * q)
            yield _type2(z4, z4, z2), i
            if i != 1 and q >= 2:
                yield _type2(z4, GroupDesc("Dic", q), z2), i
        if i == 1:
            continue
        for m in _divisors(k):
            dic = GroupDesc("Dic", m)
            if 3 <= m < k:
                yield _type1(dic, "trivial"), i
            if m >= 3 and (k // m) % 2 == 0:
                yield _type1(dic, "nu"), i
            if 2 <= m < k:
                yield _type2(dic, dic, GroupDesc("Z", 2 * m)), i
            if m >= 4 and m % 2 == 0:
                for gluing in (("K1", "K2") if m == 4 else (None,)):
                    yield _type2(dic, dic, GroupDesc("Dic", m // 2), gluing), i
    if n % 2 == 0:
        for tag in ("trivial", "alpha", "beta"):
            yield _type1(GroupDesc("Dic", 2), tag), None
        yield _type1(GroupDesc("T*"), "trivial"), None
    if n % 6 in (0, 2):
        yield _type1(GroupDesc("T*"), "omega"), None
        yield _type1(GroupDesc("O*"), "trivial"), None
        yield _type2(GroupDesc("O*"), GroupDesc("O*"), GroupDesc("T*")), None
    if n % 30 in (0, 2, 12, 20):
        yield _type1(GroupDesc("I*"), "trivial"), None


# ---------------------------------------------------------------------------
# Projection to the mapping class group.
# ---------------------------------------------------------------------------

_FACTOR_PROJECTION = {
    "T*": GroupDesc("A4"),
    "O*": GroupDesc("S4"),
    "I*": GroupDesc("A5"),
}


def _project_desc(desc: GroupDesc, quaternion_to_klein: bool = False) -> GroupDesc:
    if desc.family == "Z":
        q = desc.param
        return GroupDesc("Z", q // 2 if q % 2 == 0 else q)
    if desc.family == "Dic":
        # The quaternion group maps onto the Klein group; it keeps the V4 tag
        # only as a Type I factor, where it carries its own action catalog.
        if desc.param == 2 and quaternion_to_klein:
            return GroupDesc("V4")
        return GroupDesc("Dih", desc.param)
    return _FACTOR_PROJECTION[desc.family]


def _project(shape: tuple) -> tuple:
    kind, factor, action, factors, amalgamated, gluing = shape
    if kind == "I":
        factor = _project_desc(factor, quaternion_to_klein=True)
        # Inversion collapses to the identity on the groups of order <= 2;
        # it acts only on cyclic factors, whose parameter is the order.
        if action == "rho" and factor.param <= 2:
            action = "trivial"
        # Conjugation by x^k sends y to x^(2k) y in Dih_2m, so for odd m the
        # map (x, y) -> (x, xy) is inner and Dih_2m x|nu~ Z is Dih_2m x Z.
        if action == "nu" and factor.param % 2:
            action = "trivial"
        return _type1(factor, action if action == "trivial" else action + "~")
    a, b = factors
    return _type2(_project_desc(a), _project_desc(b), _project_desc(amalgamated),
                  None if gluing is None else gluing + "'")


# ---------------------------------------------------------------------------
# One computation per n: the braid-group records and their images.
# ---------------------------------------------------------------------------

_STATUS_RANK = {"realized": 2, "open": 1, "not_realized": 0}


@lru_cache(maxsize=1)
def _classification(n: int) -> tuple[tuple[VcClassRecord, ...], tuple[VcClassRecord, ...], dict]:
    """The braid-group records at n in shape order, their mapping-class
    images in shape order, and the image of each braid-group shape, from one
    walk of the shape generator.  An image takes the union of its
    preimages' indices i and their best status: realized, else open, else
    not realized.  Only the last n is cached: callers ask about one n at a
    time."""
    _check_n(n)
    indices: dict[tuple, set[int]] = {}
    for shape, i in _shapes(n):
        seen = indices.setdefault(shape, set())
        if i is not None:
            seen.add(i)
    records, image_of, preimages = [], {}, {}
    for shape in sorted(indices):
        records.append(VcClassRecord(shape[0], n, False, *shape[1:], tuple(sorted(indices[shape])),
                                     *_status(shape, n)))
        image_of[shape] = _project(shape)
        preimages.setdefault(image_of[shape], []).append(records[-1])
    images = {}
    for image in sorted(preimages):
        group = preimages[image]
        best = max(group, key=lambda record: _STATUS_RANK[record.status])
        union = sorted(set().union(*(record.admissible_i for record in group)))
        images[image] = VcClassRecord(image[0], n, True, *image[1:], tuple(union),
                                      best.status, best.status_ref)
    image_records = {shape: images[image] for shape, image in image_of.items()}
    return tuple(records), tuple(images.values()), image_records


def enumerate_v1(n: int) -> tuple[VcClassRecord, ...]:
    """The Type I classes: finite-by-Z with the cataloged actions."""
    return tuple(record for record in _classification(n)[0] if record.kind == "I")


def enumerate_v2(n: int) -> tuple[VcClassRecord, ...]:
    """The Type II classes: amalgams over an index-2 subgroup."""
    return tuple(record for record in _classification(n)[0] if record.kind == "II")


def enumerate_all(n: int) -> tuple[VcClassRecord, ...]:
    """Both types; every Type I shape sorts before every Type II shape, so
    this is ``enumerate_v1(n) + enumerate_v2(n)``."""
    return _classification(n)[0]


def enumerate_vtilde(n: int) -> tuple[VcClassRecord, ...]:
    """The mapping-class-group classes: the images of the braid-group records
    under the central quotient, each with the indices i of its preimages and
    their best status."""
    return _classification(n)[1]


def project_to_mcg(record: VcClassRecord) -> VcClassRecord:
    """The image class in the mapping class group, with the image's status
    and the record's own indices i."""
    if record.mcg:
        return record
    return _classification(record.n)[2][_shape(record)]._replace(admissible_i=record.admissible_i)


# ---------------------------------------------------------------------------
# Constructions: generator words with the claims that certify them.
# ---------------------------------------------------------------------------

# A claim is a plain tuple (label, kind, *arguments), one of
# (label, "order", w, k), (label, "infinite", w), (label, "equal", u, v),
# (label, "commute", u, v) and (label, "faithful", gens, desc), the last
# saying that the words gens present the table of desc faithfully.  The
# oracle functions are looked up at call time, so a patched one is seen.
_VERDICTS: dict[str, Callable[..., bool]] = {
    "order": lambda w, k: oracle.order_of(w) == Order.finite(k),
    "infinite": lambda w: not oracle.order_of(w).is_finite,
    "equal": lambda u, v: oracle.equals(u, v),
    "commute": lambda u, v: oracle.commute(u, v),
    "faithful": lambda gens, desc: oracle.verify_finite_subgroup(gens, desc.table()),
}


def _holds(claim: tuple) -> bool:
    """Decide one claim with the oracle."""
    return _VERDICTS[claim[1]](*claim[2:])


class WitnessUnavailable(RuntimeError):
    """The record has no explicit word-level construction to emit."""


@dataclass(frozen=True)
class Witness:
    """Generator words with their oracle-verified certificate transcript."""

    record: VcClassRecord
    generators: tuple[tuple[str, BraidWord], ...]
    transcript: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.transcript)


_AXIS_INFINITE = "axis generator has infinite order"


def _construction(shape: tuple, n: int, i: int | None) -> tuple[tuple, tuple]:
    """The generator words of a shape at n strands and deletion index i,
    as ``(role, word)`` pairs, with the claims that certify them.

    Raises :class:`WitnessUnavailable` where the shape has no word-level
    construction at this n: it is realized only geometrically, or through
    subgroups without braid-word constructions.
    """
    kind, f, act, factors, amalgamated, gluing = shape
    if kind == "I":
        return _type1_construction(f, act, n, i)
    return _type2_construction(*factors, amalgamated, gluing, n, i)


def _type1_construction(f: GroupDesc, act: str, n: int, i: int | None) -> tuple[tuple, tuple]:
    if f.family == "Z":
        q = f.param
        m = 2 * (n - i) // q
        z = words.delta_comm(n, m if (n - i) % m == 0 else m // 2, i)
        if act == "trivial" and q == 1:
            return (("axis", z),), ((_AXIS_INFINITE, "infinite", z),)
        x = words.alpha(n, i) ** m
        finite = (f"finite generator has order {q}", "order", x, q)
        if act == "trivial":
            return (("finite", x), ("axis", z)), (
                (_AXIS_INFINITE, "infinite", z),
                finite,
                ("axis commutes with the finite generator", "commute", z, x),
            )
        a0 = words.alpha(n, 0)
        z = a0.inv() * words.half_twist(n) * a0 * z  # rho
        return (("finite", x), ("axis", z)), (
            finite,
            (_AXIS_INFINITE, "infinite", z),
            ("axis inverts the finite generator", "equal", z * x * z.inv(), x.inv()),
        )
    if f.family != "Dic":
        raise WitnessUnavailable(
            f"{f} x Z classes are realized geometrically; no braid words are available"
        )
    if f.param >= 3:
        s = f.param
        m = (n - i) // s
        ap = words.alpha_prime(n, i)
        x, y = ap ** m, words.half_twist(n)
        a0 = words.alpha(n, 0)
        z = (a0 ** (i // 2)) * (words.block_pass(n, i, m) ** m) * (a0 ** (-(i // 2)))
        if act == "nu":
            z = ap ** (m // 2) * z
        faithful = f"generators present a faithful dicyclic group of order {4 * s}"
    else:
        x, y = words.alpha(n, 0) ** (n // 2), words.half_twist(n)
        if act == "alpha" and n == 4:
            x = words.word(4, [3, -1])
            z = words.word(4, [1, 1, 2, -1, -1, -1])
            y = z * x * z.inv()
        elif act == "alpha" and n % 4 == 0:
            z = words.nu_elt(n)
        elif act == "alpha":
            raise WitnessUnavailable(
                "the cyclic quaternion action has explicit words only for n = 4 "
                "and for n divisible by 4; other even n are realized through a "
                "geometric construction without braid words"
            )
        else:
            z = words.zeta_elt(n) if act == "beta" else words.zeta_elt(n) ** 2
        faithful = "generators present a faithful quaternion group of order 8"
    zi = z.inv()
    if act == "trivial":
        action = (("axis commutes with x", "commute", z, x),
                  ("axis commutes with y", "commute", z, y))
    elif act == "nu":
        action = (("axis fixes x", "equal", z * x * zi, x),
                  ("axis sends y to xy", "equal", z * y * zi, x * y))
    elif act == "beta":
        action = (("axis swaps y into x", "equal", z * y * zi, x),
                  ("axis swaps x into y", "equal", z * x * zi, y),
                  ("axis inverts xy", "equal", z * x * y * zi, (x * y).inv()))
    elif n == 4:  # alpha
        action = (("axis sends x to y", "equal", z * x * zi, y),
                  ("axis sends y to xy", "equal", z * y * zi, x * y))
    else:
        action = (("axis sends x to xy", "equal", z * x * zi, x * y),
                  ("axis sends xy to y^-1", "equal", z * x * y * zi, y.inv()),
                  ("axis sends y^-1 to x", "equal", z * y.inv() * zi, x))
    return (("finite-x", x), ("finite-y", y), ("axis", z)), (
        (faithful, "faithful", (x, y), f),
        (_AXIS_INFINITE, "infinite", z),
        *action,
    )


def _type2_construction(a_desc: GroupDesc, b_desc: GroupDesc, f: GroupDesc,
                        gluing: str | None, n: int, i: int | None) -> tuple[tuple, tuple]:
    D = words.half_twist(n)
    if gluing == "K2":
        if n % 4 != 0:
            raise WitnessUnavailable(
                "the twisted quaternion gluing has explicit words only when 4 "
                "divides n; the remaining realizations go through subgroups "
                "without braid-word constructions"
            )
        a, b = words.alpha(n, 0) ** (n // 4), D
        nu = words.nu_elt(n)
        x, y = nu * a * nu.inv(), nu * b.inv() * nu.inv()
        return (("factor-1-x", a), ("factor-1-y", b), ("conjugator", nu),
                ("factor-2-x", x), ("factor-2-y", y)), (
            ("first factor presents a faithful order-16 quaternion group",
             "faithful", (a, b), a_desc),
            ("conjugated square lands on a^2 b (twisted gluing)", "equal", x * x, a * a * b),
            ("conjugated reflection lands on a^2 (twisted gluing)", "equal", y, a * a),
            ("x a^-1 has infinite order", "infinite", x * a.inv()),
        )

    if a_desc.family == "Z" and b_desc.family == "Z":
        q = a_desc.param // 4
        if q == 1:
            v1, v2 = words.v_pair(n)
            return (("factor-1", v1), ("factor-2", v2)), (
                ("first generator has order 4", "order", v1, 4),
                ("second generator has order 4", "order", v2, 4),
                ("squares agree on the shared involution", "equal", v1 * v1, v2 * v2),
                ("v1 v2 has infinite order", "infinite", v1 * v2),
            )
        m = (n - i) // (2 * q)
        x1 = words.alpha(n, i) ** m
        xi = words.delta_comm(n, 2 * m, i)
        x2 = xi * x1 * xi.inv()
        return (("factor-1", x1), ("conjugator", xi), ("factor-2", x2)), (
            (f"first generator has order {4 * q}", "order", x1, 4 * q),
            (f"second generator has order {4 * q}", "order", x2, 4 * q),
            ("conjugator fixes the shared cyclic part", "equal",
             xi * x1 ** 2 * xi.inv(), x1 ** 2),
            ("x1 x2^-1 has infinite order", "infinite", x1 * x2.inv()),
        )

    if a_desc.family == "Z":  # Z *_Z Dic
        q = b_desc.param
        m = (n - i) // (2 * q)
        ap = words.alpha_prime(n, i)
        xi = words.xi_elt(n, i, m)
        if m == 1:
            g1 = xi * ap * xi.inv()
            dic_x, dic_y = ap ** 2, ap * D
            eta = g1 * dic_y
        else:
            g1 = xi * ap ** m * xi.inv()
            dic_x, dic_y = ap ** (2 * m), D
            eta = g1 * D
        return (("factor-1", g1), ("factor-2-x", dic_x), ("factor-2-y", dic_y),
                ("conjugator", xi)), (
            (f"cyclic factor generator has order {4 * q}", "order", g1, 4 * q),
            (f"dicyclic factor presents a faithful group of order {4 * q}",
             "faithful", (dic_x, dic_y), b_desc),
            ("shared cyclic part agrees", "equal", g1 ** 2, dic_x if m == 1 else ap ** (2 * m)),
            ("mixed product has infinite order", "infinite", eta),
        )

    if a_desc.family != "Dic":
        raise WitnessUnavailable(
            "the binary-octahedral amalgam is realized geometrically; no braid "
            "words are available"
        )
    q = a_desc.param
    m = (n - i) // q
    ap = words.alpha_prime(n, i)
    faithful = f"factor presents a faithful dicyclic group of order {4 * q}"
    if f.family == "Z":  # Dic *_Z Dic
        a0 = words.alpha(n, 0)
        xi = (a0 ** (i // 2)) * words.delta_comm(n, m, i) * (a0 ** (-(i // 2)))
        if m == 2:
            x, y = ap ** 2, ap * D
            inf = (xi * y * xi.inv()) * y * ap ** 2
        else:
            x, y = ap ** m, D
            inf = xi * D * xi.inv() * D.inv()
        return (("factor-1-x", x), ("factor-1-y", y), ("conjugator", xi)), (
            (faithful, "faithful", (x, y), a_desc),
            ("conjugator fixes the shared cyclic subgroup", "equal", xi * x * xi.inv(), x),
            ("mixed product has infinite order", "infinite", inf),
        )
    # Dic *_Dic Dic, straight gluing
    lam = words.lambda_elt(n, i, m)
    x, y = ap ** m, D
    glued = ()
    if gluing == "K1":
        glued = (("squares agree across the gluing", "equal", (lam * x * lam.inv()) ** 2, x ** 2),)
    inf = lam * x * lam.inv() * x if m == 1 else x * (lam * x.inv() * lam.inv())
    return (("factor-1-x", x), ("factor-1-y", y), ("conjugator", lam)), (
        (faithful, "faithful", (x, y), a_desc),
        ("conjugator commutes with the half twist", "commute", lam, y),
        ("conjugator fixes the shared cyclic part", "equal", lam * x ** 2 * lam.inv(), x ** 2),
        (f"shared subgroup presents a faithful dicyclic group of order {2 * q}",
         "faithful", (x ** 2, y), f),
        *glued,
        ("mixed product has infinite order", "infinite", inf),
    )


def witness(record: VcClassRecord) -> Witness:
    """Generator words and a verification transcript for a realized record.

    The words come from the construction of the record's shape at its
    smallest admissible deletion index, and each claim of the construction
    is decided by the oracle, in order.  Raises :class:`WitnessUnavailable`
    for open or excluded records, for mapping-class records (their
    realizations are images of braid-group witnesses under the central
    quotient), and for the classes whose realization is geometric (binary
    polyhedral direct products and the binary-octahedral amalgam).
    """
    if record.mcg:
        raise WitnessUnavailable(
            "witnesses are emitted for braid-group records; mapping-class "
            "classes inherit them through the central quotient"
        )
    if record.status != "realized":
        raise WitnessUnavailable(f"record has status {record.status!r}")
    gens, claims = _construction(_shape(record), record.n, min(record.admissible_i, default=None))
    return Witness(record, gens, tuple((claim[0], _holds(claim)) for claim in claims))
