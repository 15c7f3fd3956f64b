"""
Arithmetic in amalgamated products of finite groups over an index-2 subgroup.

Since the amalgamating subgroup has index 2 in each factor, it is normal
there, and with the transversal {identity, t_k} every element has a unique
normal form

    (element of F) . t_{k_1} t_{k_2} ... t_{k_r}

with the factor labels k_j strictly alternating.  Multiplication pushes
F-parts leftward through the transversal letters (conjugation by t_k
restricts to an automorphism of F) and absorbs squares t_k^2, which lie in
F.  An element has finite order exactly when its syllable length is at most
one, in which case it lives in a factor.  Elements that come in from
outside are checked (labels 1 or 2, alternating); products are built
unchecked, since cancelling the facing letters leaves them alternating.

The module also builds the two gluings of the 16-element quaternion factors
over their common 8-element quaternion subgroup (and the dihedral analogs),
certifies which of the two admits an infinite-cyclic-by-finite semidirect
form, and checks isomorphisms of amalgams induced by compatible factor
automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .groups import (
    FiniteGroupTable,
    GroupPresentation,
    _extend_map,
    _is_automorphism,
    hom_from_gen_images,
    make_group,
    outer_group,
    structure_name,
    todd_coxeter,
)
from .oracle import INFINITE, Order

__all__ = [
    "AmalgamSpec",
    "AmalgamElement",
    "SemidirectForm",
    "IsoCertificate",
    "K1K2Report",
    "build_amalgam",
    "straight_gluing",
    "named_amalgam",
    "find_extension",
    "to_semidirect",
    "k1",
    "k2",
    "k1_prime",
    "k2_prime",
    "distinguish_k1_k2",
    "amalgam_iso",
]


class _AmalgamElementFields(NamedTuple):
    head: int
    syllables: tuple[int, ...] = ()


class AmalgamElement(_AmalgamElementFields):
    """Normal form: head in F, then strictly alternating factor labels.

    A named tuple, so hashing and equality are those of the plain tuple
    ``(head, syllables)``.  Construction checks that every label is 1 or 2
    and that the labels alternate; ``AmalgamSpec.mul`` builds its products
    unchecked, since they alternate by construction.
    """

    __slots__ = ()

    def __new__(cls, head: int, syllables: tuple[int, ...] = ()) -> AmalgamElement:
        if any(k not in (1, 2) for k in syllables):
            raise ValueError("syllable labels must be 1 or 2")
        for a, b in zip(syllables, syllables[1:]):
            if a == b:
                raise ValueError("syllables must alternate factors")
        return tuple.__new__(cls, (head, syllables))

    @property
    def syllable_length(self) -> int:
        return len(self.syllables)


@dataclass(frozen=True)
class AmalgamSpec:
    """Two factor tables glued along embeddings of F with index-2 images.

    ``push[k]`` is the automorphism of F induced by conjugation with the
    transversal representative t_k, and ``sq[k]`` is t_k^2 pulled back to F.
    All element arithmetic lives on methods of this class.
    """

    g1: FiniteGroupTable
    g2: FiniteGroupTable
    f: FiniteGroupTable
    i1: tuple[int, ...]
    i2: tuple[int, ...]
    t1: int
    t2: int
    push: tuple[tuple[int, ...], tuple[int, ...]]
    sq: tuple[int, int]

    # -- construction helpers ------------------------------------------------

    def factor(self, k: int) -> FiniteGroupTable:
        return self.g1 if k == 1 else self.g2

    def embedding(self, k: int) -> tuple[int, ...]:
        return self.i1 if k == 1 else self.i2

    def transversal(self, k: int) -> int:
        return self.t1 if k == 1 else self.t2

    def image_set(self, k: int) -> frozenset[int]:
        return frozenset(self.embedding(k))

    # -- elements ------------------------------------------------------------

    @property
    def one(self) -> AmalgamElement:
        return AmalgamElement(self.f.identity)

    def from_f(self, h: int) -> AmalgamElement:
        return AmalgamElement(h)

    def embed(self, k: int, g: int) -> AmalgamElement:
        """The image of a factor element in the amalgam, in normal form."""
        G, emb = self.factor(k), self.embedding(k)
        if g in emb:
            return AmalgamElement(emb.index(g))
        return AmalgamElement(emb.index(G.mul(g, G.inv(self.transversal(k)))), (k,))

    def in_factor(self, e: AmalgamElement, k: int) -> int:
        """The factor element an amalgam element of syllable length <= 1 is."""
        if e.syllable_length > 1 or (e.syllables and e.syllables[0] != k):
            raise ValueError("element does not lie in that factor")
        G, emb = self.factor(k), self.embedding(k)
        g = emb[e.head]
        if e.syllables:
            g = G.mul(g, self.transversal(k))
        return g

    def mul(self, a: AmalgamElement, b: AmalgamElement) -> AmalgamElement:
        left, right = a.syllables, b.syllables
        # Both sides alternate, so once the facing labels agree every facing
        # pair does: the last ``cancel`` letters of ``left`` meet the first
        # ones of ``right``, and each meeting t_k t_k is t_k^2, which lies in F.
        cancel = min(len(left), len(right)) if left and right and left[-1] == right[0] else 0
        keep = len(left) - cancel
        # Move b's head leftward through a's letters (conjugation by t_k acts
        # as push[k] on F), absorbing each cancelled square where it stood.
        h = b.head
        for j in range(len(left) - 1, -1, -1):
            k = left[j] - 1
            h = self.push[k][h]
            if j >= keep:
                h = self.f.mul(h, self.sq[k])
        # Unchecked: after the cancelled pairs either the facing labels
        # differ or one side is used up, so the letters still alternate.
        return tuple.__new__(AmalgamElement, (self.f.mul(a.head, h), left[:keep] + right[cancel:]))

    def inv(self, a: AmalgamElement) -> AmalgamElement:
        out = self.one
        for k in reversed(a.syllables):
            # t_k^-1 = (t_k^-2) t_k, with the square pulled back into F.
            out = self.mul(out, AmalgamElement(self.f.inv(self.sq[k - 1]), (k,)))
        return self.mul(out, AmalgamElement(self.f.inv(a.head)))

    def conj(self, g: AmalgamElement, x: AmalgamElement) -> AmalgamElement:
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, a: AmalgamElement) -> Order:
        """Finite exactly when the (cyclically reduced) syllable length is
        at most 1; alternation makes cyclic reduction a no-op here."""
        if a.syllable_length >= 2:
            return INFINITE
        if not a.syllables:
            return Order.finite(self.f.element_orders[a.head])
        k = a.syllables[0]
        return Order.finite(self.factor(k).element_orders[self.in_factor(a, k)])

    def ball(self, max_syllables: int) -> list[AmalgamElement]:
        """All normal forms with at most the given syllable length."""
        shapes: list[tuple[int, ...]] = [()]
        layer: list[tuple[int, ...]] = [()]
        for _ in range(max_syllables):
            layer = [s + (k,) for s in layer for k in (1, 2) if not s or s[-1] != k]
            shapes += layer
        return [AmalgamElement(h, s) for s in shapes for h in range(self.f.order)]


def build_amalgam(
    g1: FiniteGroupTable,
    g2: FiniteGroupTable,
    f: FiniteGroupTable,
    i1: Sequence[int],
    i2: Sequence[int],
) -> AmalgamSpec:
    """Validate embeddings and choose transversals (least element outside
    the image, so normal forms are deterministic).  An injective embedding
    is a homomorphism when it is the map the images of F's generators
    extend to."""
    for G, emb in ((g1, i1), (g2, i2)):
        if len(set(emb)) != f.order:
            raise ValueError("embedding is not injective")
        if tuple(emb) != _extend_map(f, G, f.generators, [emb[g] for g in f.generators]):
            raise ValueError("embedding is not a homomorphism")
        if G.order != 2 * f.order:
            raise ValueError("amalgamated subgroup must have index 2")
    t1 = min(set(range(g1.order)) - set(i1))
    t2 = min(set(range(g2.order)) - set(i2))
    push = []
    sq = []
    for G, emb, t in ((g1, i1, t1), (g2, i2, t2)):
        pre = {img: x for x, img in enumerate(emb)}
        push.append(tuple(pre[G.conj(t, emb[x])] for x in range(f.order)))
        sq.append(pre[G.mul(t, t)])
    return AmalgamSpec(g1, g2, f, tuple(i1), tuple(i2), t1, t2,
                       (push[0], push[1]), (sq[0], sq[1]))


# ---------------------------------------------------------------------------
# Semidirect recognition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemidirectForm:
    """An infinite-cyclic normal subgroup <t> with a sign action of a factor.

    ``signs[g]`` is +1 when the factor element g centralizes t (exactly the
    amalgamated image) and -1 when it inverts t.
    """

    generator: AmalgamElement
    factor_label: int
    signs: tuple[int, ...]


def find_extension(spec: AmalgamSpec) -> tuple[int, ...] | None:
    """The least automorphism (as a map) of the common factor table carrying
    i1 to i2, or None when the gluing admits no such extension.

    Every automorphism is an inner one after an Out representative, so the
    candidates are those compositions; the restriction to the image of i1
    is checked before a whole map is built."""
    if spec.g1 is not spec.g2 and spec.g1 != spec.g2:
        raise ValueError("extension search expects identical factor tables")
    G, i1, i2 = spec.g1, spec.i1, spec.i2
    matches = {
        tuple(G.conj(g, y) for y in a)
        for a in outer_group(G).labels
        for g in range(G.order)
        if all(G.conj(g, a[i1[x]]) == i2[x] for x in range(spec.f.order))
    }
    return min(matches, default=None)


def to_semidirect(spec: AmalgamSpec, extension: Sequence[int]) -> SemidirectForm:
    """Certify the infinite-cyclic-by-factor structure of the amalgam.

    ``extension`` must be an automorphism of the common factor table whose
    restriction carries the first embedding to the second.  The generator
    t = t_1 . extension(t_1)^-1 is certified to have infinite order, and the
    sign action of every factor element on t is verified elementwise.
    """
    ext = tuple(extension)
    if not all(ext[spec.i1[x]] == spec.i2[x] for x in range(spec.f.order)):
        raise ValueError("extension does not restrict to the gluing isomorphism")
    if not _is_automorphism(spec.g1, ext):
        raise ValueError("extension is not an automorphism of the factor")
    t = spec.mul(spec.embed(1, spec.t1), spec.inv(spec.embed(2, ext[spec.t1])))
    if spec.element_order(t).is_finite:
        raise ValueError("semidirect generator is not of infinite order")
    t_inv = spec.inv(t)
    signs = []
    h2 = spec.image_set(2)
    for g in range(spec.g2.order):
        c = spec.conj(spec.embed(2, g), t)
        if g in h2:
            if c != t:
                raise ValueError("amalgamated element fails to centralize t")
            signs.append(1)
        else:
            if c != t_inv:
                raise ValueError("coset element fails to invert t")
            signs.append(-1)
    return SemidirectForm(t, 2, tuple(signs))


def straight_gluing(kind: str, q: int) -> AmalgamSpec:
    """Two copies of one factor glued identically over an index-2 subgroup.

    ``zz``: Z_{4q} over Z_{2q}; ``dicz``: Dic_{4q} over its cyclic Z_{2q};
    ``dicdic``: Dic_{4q} over Dic_{2q} (q even).
    """
    if kind == "dicdic" and q % 2:
        raise ValueError("dicdic gluing needs an even parameter")
    if kind == "zz":
        big, small = make_group("cyclic", 4 * q), make_group("cyclic", 2 * q)
        x = big.generators[0]
        images: tuple[int, ...] = (big.mul(x, x),)
    elif kind == "dicz":
        big, small = make_group("dicyclic", q), make_group("cyclic", 2 * q)
        images = big.generators[:1]
    elif kind == "dicdic":
        big, small = make_group("dicyclic", q), make_group("dicyclic", q // 2)
        x, y = big.generators
        images = (big.mul(x, x), y)
    else:
        raise ValueError(f"unknown amalgam tag '{kind}:{q}'")
    return _glue(big, small, images)


def _glue(
    big: FiniteGroupTable,
    small: FiniteGroupTable,
    images: Sequence[int],
    second: Sequence[int] | None = None,
) -> AmalgamSpec:
    """Two copies of ``big`` glued over ``small``, embedded in the first copy
    by the generator images ``images`` and in the second by ``second``
    (``images`` again when None)."""
    i1 = hom_from_gen_images(small, big, images)
    i2 = i1 if second is None else hom_from_gen_images(small, big, second)
    return build_amalgam(big, big, small, i1, i2)


# ---------------------------------------------------------------------------
# The two gluings of quaternion (and dihedral) factors.
# ---------------------------------------------------------------------------


def _glued_spec(factor_kind: str, straight: bool) -> AmalgamSpec:
    G = make_group(factor_kind, 4)
    F = make_group(factor_kind, 2)
    x, y = G.generators
    x2 = G.mul(x, x)
    return _glue(G, F, (x2, y), None if straight else (y, G.mul(x2, y)))


@lru_cache(maxsize=None)
def k1() -> AmalgamSpec:
    """Order-16 quaternion factors glued identically over the quaternion 8:
    the straight gluing ``dicdic:4``."""
    return straight_gluing("dicdic", 4)


@lru_cache(maxsize=None)
def k2() -> AmalgamSpec:
    """The twisted gluing, sending the square generator to the reflection."""
    return _glued_spec("dicyclic", False)


@lru_cache(maxsize=None)
def k1_prime() -> AmalgamSpec:
    """Dihedral analog of k1 (order-8 factors over the Klein subgroup)."""
    return _glued_spec("dihedral", True)


@lru_cache(maxsize=None)
def k2_prime() -> AmalgamSpec:
    return _glued_spec("dihedral", False)


_NAMED = {"k1": k1, "k2": k2, "k1p": k1_prime, "k2p": k2_prime}


def named_amalgam(tag: str) -> AmalgamSpec:
    """The amalgam a tag stands for: ``k1``, ``k2``, ``k1p`` and ``k2p``, or
    ``zz:q``, ``dicz:q`` and ``dicdic:q`` for :func:`straight_gluing`.
    Raises ``ValueError`` on any other tag."""
    if tag in _NAMED:
        return _NAMED[tag]()
    kind, _, q_text = tag.partition(":")
    if not (q_text.isascii() and q_text.isdigit()):
        raise ValueError(f"unknown amalgam tag {tag!r} (use k1, k2, k1p, k2p, zz:q, dicz:q, dicdic:q)")
    return straight_gluing(kind, int(q_text))


def _presentation_with_identification(factor_kind: str) -> GroupPresentation:
    # Generators x, y, a, b = 1..4: the factor's relators on x, y and again
    # on a, b, the gluing relations x^2 = a^2 and y = b of the straight case,
    # and the extra identification x = a.
    rels = make_group(factor_kind, 4).presentation.relators  # type: ignore[union-attr]
    moved = tuple(tuple(x + 2 if x > 0 else x - 2 for x in rel) for rel in rels)
    return GroupPresentation(4, rels + moved + ((1, 1, -3, -3), (2, -4), (1, -3)))


@dataclass(frozen=True)
class K1K2Report:
    """The two structural certificates separating the gluing classes."""

    k2_has_cyclic_permuter: bool
    k1_conjugation_signs_ok: bool
    k1_quotient_order: int
    k1_quotient_name: str
    k1_semidirect_ok: bool
    k1_core_normalized_by_all: bool
    k2_has_no_extension: bool

    @property
    def ok(self) -> bool:
        return (
            self.k2_has_cyclic_permuter
            and self.k1_conjugation_signs_ok
            and self.k1_semidirect_ok
            and self.k1_core_normalized_by_all
            and self.k2_has_no_extension
        )


def distinguish_k1_k2(dihedral: bool = False) -> K1K2Report:
    """Run the two incompatible certificates on the two gluing classes.

    In the twisted gluing an explicit element permutes the three index-2
    subgroups of the amalgamated subgroup cyclically; in the straight gluing
    the amalgam is infinite-cyclic-by-factor and every element normalizes
    the distinguished cyclic core, which rules such a permuter out.
    """
    kind = "dihedral" if dihedral else "dicyclic"
    A, B = (k1_prime(), k2_prime()) if dihedral else (k1(), k2())
    G = A.g1
    x, y = G.generators
    x2 = G.mul(x, x)

    # Certificate for the twisted gluing: conjugation by (a x) cycles
    # x^2 -> y -> x^2 y -> x^2.
    u = B.mul(B.embed(2, x), B.embed(1, x))
    trip = [B.embed(1, x2), B.embed(1, y), B.embed(1, G.mul(x2, y))]
    permutes = all(B.conj(u, trip[j]) == trip[(j + 1) % 3] for j in range(3))

    # Certificates for the straight gluing.
    t = A.mul(A.embed(1, x), A.inv(A.embed(2, x)))
    t_inv = A.inv(t)
    signs_ok = (
        A.conj(A.embed(1, x), t) == t_inv
        and A.conj(A.embed(2, x), t) == t_inv
        and A.conj(A.embed(1, y), t) == t
        and A.conj(A.embed(2, y), t) == t
        and not A.element_order(t).is_finite
    )
    quo = todd_coxeter(_presentation_with_identification(kind))
    ext = find_extension(A)
    semidirect_ok = ext is not None and to_semidirect(A, ext) is not None
    # Every element t^s g of the semidirect model normalizes <a^2>: the sign
    # action fixes the core elementwise up to inversion regardless of s, and
    # conjugation inside the factor keeps <a^2> since it is the unique cyclic
    # subgroup of its order there.
    core = G.closure([x2])
    normalized = all(G.conj(g, x2) in core for g in range(G.order))
    return K1K2Report(
        k2_has_cyclic_permuter=permutes,
        k1_conjugation_signs_ok=signs_ok,
        k1_quotient_order=quo.order,
        k1_quotient_name=structure_name(quo),
        k1_semidirect_ok=semidirect_ok,
        k1_core_normalized_by_all=normalized,
        k2_has_no_extension=find_extension(B) is None,
    )


# ---------------------------------------------------------------------------
# Isomorphisms induced by factor automorphisms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsoCertificate:
    ok: bool
    checked_products: int
    ball_bijective: bool


def amalgam_iso(
    spec_a: AmalgamSpec,
    spec_b: AmalgamSpec,
    theta1: Sequence[int],
    theta2: Sequence[int],
) -> IsoCertificate:
    """Certify the isomorphism induced by factor automorphisms theta_k that
    intertwine the embeddings (theta_k . i_k^A = i_k^B).

    The induced map sends an embedded factor element to the embedding of its
    theta-image; it is verified to be multiplicative on all pairs of
    embedded factor elements and bijective on the syllable-length-2 ball.
    The map is tabulated once on that ball, which holds every product of two
    embedded factor elements.
    """
    thetas = (tuple(theta1), tuple(theta2))
    for k in (1, 2):
        if any(
            thetas[k - 1][spec_a.embedding(k)[f]] != spec_b.embedding(k)[f]
            for f in range(spec_a.f.order)
        ):
            raise ValueError(f"theta{k} does not intertwine the embeddings")
        if not _is_automorphism(spec_a.factor(k), thetas[k - 1]):
            raise ValueError(f"theta{k} is not an automorphism")

    # Map each normal form piecewise: the head stays in F, and each
    # transversal letter goes to the embedding of its theta-image.
    letter = {k: spec_b.embed(k, thetas[k - 1][spec_a.transversal(k)]) for k in (1, 2)}
    phi: dict[AmalgamElement, AmalgamElement] = {}
    for e in spec_a.ball(2):
        out = spec_b.from_f(e.head)
        for k in e.syllables:
            out = spec_b.mul(out, letter[k])
        phi[e] = out

    embedded = [
        (spec_a.embed(k, g), spec_b.embed(k, thetas[k - 1][g]))
        for k in (1, 2)
        for g in range(spec_a.factor(k).order)
    ]
    checked = 0
    ok = True
    for u, theta_u in embedded:
        pu = phi[u]
        if pu != theta_u:
            ok = False
        for v, _ in embedded:
            if phi[spec_a.mul(u, v)] != spec_b.mul(pu, phi[v]):
                ok = False
            checked += 1
    images = set(phi.values())
    ball_bij = len(images) == len(phi) and images == set(spec_b.ball(2))
    return IsoCertificate(ok, checked, ball_bij)
