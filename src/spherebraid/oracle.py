"""
The word problem for the braid groups of the sphere.

A word is central, the identity or the full twist, exactly when its image in
Mod(S_{0,n}) = B_n(S^2)/<FT> is trivial.  Centrality is decided in stages,
each exact.  The word is cyclically reduced (centrality is invariant under
conjugation), then one pass over its letters checks that it is pure, reads
the class of its pairwise crossing counts modulo the sphere relators and
counts each strand's emissions.  The identity and the full twist lie in two
disjoint classes, so a word in neither is not central, and a central word's
class says which it is.  A survivor's image in B_{n-1}/<Delta^2>, the
stabiliser of its least-emitting strand, is Delta^2k, for the k its exponent
sum names, exactly when it moves (0, 1, ..., 0, 1) where Delta^2k does under
Dynnikov's faithful max-plus action, a point computed once per (n, k).  It
is all integer arithmetic, so no budget applies.  One pipeline decides every
n >= 3, the finite three-strand group included.

For orders, a word's cyclic core is written as r^m with r its primitive
root, and the order of r^m is read off that of r; the cycle type of r's
permutation refutes finiteness before any power is built, and only a
torsion cycle type, of order p, gets the pure power r^p built and decided.

No stage has a budget, so nothing raises :class:`OracleBudgetError`; it stays
public only because the benchmark's runner still catches it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt
from typing import Iterable, Sequence

from .groups import FiniteGroupTable
from .words import BraidWord, Permutation, StrandMismatchError, _reduce, permutation
from .words import _finv, _valid_word

__all__ = [
    "Order",
    "OracleBudgetError",
    "central_value",
    "equals",
    "is_trivial",
    "is_central",
    "order_of",
    "commute",
    "verify_finite_subgroup",
]


# Nothing in the package raises it.  It is kept only because perfbench/run.py
# (lines 126 and 165) catches it by name.
class OracleBudgetError(RuntimeError):
    """No verdict was reached within a budget."""


def _strip_ends(w: Sequence[int]) -> int:
    """The number k of letters that cancel between the ends: w = u c u^-1, len(u) = k."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return lo


@dataclass(frozen=True)
class Order:
    """The order of a group element; ``value`` is None for infinite order."""

    value: int | None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        return f"Order({self.value if self.is_finite else 'infinite'})"

    @staticmethod
    def finite(k: int) -> "Order":
        return Order(k)


INFINITE = Order(None)


def _linking_class(w: BraidWord) -> tuple[int | None, int]:
    """The central element a word's crossing counts allow, 0, 2 or None, and
    the strand whose rewrite (:func:`_capped_word`) emits least.

    One pass follows the strands and adds up the signed crossings d_jk of
    every pair of strands j < k.  A word that does not bring every strand
    back to its start is not pure, hence not central: None.  A pure word
    crosses each pair an even number of times, and the vector of the d_jk/2,
    taken modulo the lattice spanned by the one-strand-around-the-rest
    relators, is a group invariant.  The word lies in the class of eps times
    the all-ones vector when d_jk/2 - eps = c_j + c_k has an integer solution;
    eps = 0 is the class of the identity and eps = 1 that of the full twist,
    and 2 * eps is returned.  The two classes are disjoint (c_j + c_k = 1 on
    the three pairs of three strands has no integer solution), so the class
    of a central word says which central element it is.  A word in neither
    class is not central: None.  The same pass counts emissions: sigma_i is
    one of its left strand, sigma_i^-1 one of its right; ties go low.
    """
    n = w.n
    # d[a][b] counts the crossings with a on the left; d_jk is d[j][k] + d[k][j].
    d = [[0] * (n + 1) for _ in range(n + 1)]
    strand_at = list(range(n + 1))
    emitted = [0] * (n + 1)
    for x in w.letters:
        i = x if x > 0 else -x
        a, b = strand_at[i], strand_at[i + 1]
        strand_at[i], strand_at[i + 1] = b, a
        if x > 0:
            emitted[a] += 1
            d[a][b] += 1
        else:
            emitted[b] += 1
            d[a][b] -= 1
    s = min(range(1, n + 1), key=emitted.__getitem__)
    if strand_at != list(range(n + 1)):
        return None, s
    # c_1 = (d_12/2 + d_13/2 - d_23/2 - eps) / 2 must be an integer, which
    # fixes eps; then c_j = d_1j/2 - eps - c_1, and every other pair checks.
    t = (d[1][2] + d[2][1] + d[1][3] + d[3][1] - d[2][3] - d[3][2]) // 2
    eps = t % 2
    c1 = (t - eps) // 2
    c = [0, c1] + [(d[1][j] + d[j][1]) // 2 - eps - c1 for j in range(2, n + 1)]
    for j in range(2, n + 1):
        dj, cj = d[j], c[j] + eps
        for k in range(j + 1, n + 1):
            if (dj[k] + d[k][j]) // 2 != cj + c[k]:
                return None, s
    return 2 * eps, s


def _cyclic_core(w: BraidWord) -> BraidWord:
    """The word with the letters that cancel between its ends stripped: a conjugate."""
    k = _strip_ends(w.letters)
    # A middle slice of a valid word.
    return _valid_word(w.n, w.letters[k : len(w.letters) - k]) if k else w


# 6(n - 2) letters per strand count; only the last few strand counts are kept.
@lru_cache(maxsize=8)
def _emissions(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cycle C = sigma_1^-1 ... sigma_{n-2}^-1 sigma_{n-2}^-1 ... sigma_1^-1
    sigma_1^-1 ... sigma_{n-2}^-1 of 3(n - 2) letters in B_{n-1}, and C^-1.

    For p = 1 .. n-1, the 2n - 4 letters of C from index p - 1 are
    A_p = sigma_p^-1 ... sigma_{n-2}^-1 sigma_{n-2}^-1 ... sigma_1^-1
    sigma_1^-1 ... sigma_{p-1}^-1, and those of C^-1 from index n - 1 - p are
    A_p^-1.  A_p is the Schreier generator t_p sigma_p t_{p+1}^-1 =
    u^-1 sigma_{n-1}^2 u, t_p = sigma_{n-1} ... sigma_p and
    u = sigma_{n-2} ... sigma_p, once the sphere relation has replaced
    sigma_{n-1}^2 by sigma_{n-2}^-1 ... sigma_1^-1 sigma_1^-1 ... sigma_{n-2}^-1
    and the word is freely reduced.
    """
    down = range(-1, -(n - 1), -1)
    cycle = (*down, *reversed(down), *down)
    return cycle, _finv(cycle)


def _capped_word(letters: Sequence[int], n: int, s: int) -> list[int]:
    """The image in B_{n-1} of a pure word, with strand s sent to infinity.

    Reidemeister-Schreier on the stabiliser of strand n, transversal t_p,
    rewrites the conjugate that carries strand s to position n first.  As
    <Delta^2> is central, the conjugator's image at both ends is left off,
    and s is tracked at its position p from the start.  Letters left of s
    keep their index and letters right of it lose one; sigma_p emits A_p,
    sigma_{p-1}^-1 emits A_{p-1}^-1, and sigma_p^-1 and sigma_{p-1} emit
    nothing (see :func:`_emissions`).
    """
    cycle, inverse = _emissions(n)
    span = 2 * n - 4
    out: list[int] = []
    push, extend = out.append, out.extend
    p = s
    for x in letters:
        i = x if x > 0 else -x
        if i < p - 1:
            push(x)
        elif i > p:
            push(x - 1 if x > 0 else x + 1)
        elif i == p:
            if x > 0:
                extend(cycle[p - 1 : p - 1 + span])
            p += 1
        else:
            p -= 1
            if x < 0:
                extend(inverse[n - 1 - p : n - 1 - p + span])
    return out


def _dynnikov(letters: Iterable[int], c: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Dynnikov's max-plus action of the letters, left to right, on c in place.

    c[i] = (a_i, b_i) for i = 1 .. m, and c[0] is unused.  With x+ = max(x, 0)
    and x- = min(x, 0), sigma_i sends (a_i, b_i, a_{i+1}, b_{i+1}), with
    t = a_i - b_i- - a_{i+1} + b_{i+1}+, to (a_i + b_i+ + (b_{i+1}+ - t)+,
    b_{i+1} - t+, a_{i+1} + b_{i+1}- + (b_i- + t)-, b_i + t+), and
    sigma_i^-1, with t = a_i + b_i- - a_{i+1} - b_{i+1}+, to
    (a_i - b_i+ - (b_{i+1}+ + t)+, b_{i+1} + t-, a_{i+1} - b_{i+1}- -
    (b_i- - t)-, b_i - t-).  The action of B_m is faithful, and a braid is
    trivial exactly when it fixes (0, 1, ..., 0, 1) (Dehornoy, Dynnikov,
    Rolfsen and Wiest, *Ordering Braids*, ch. XII).
    """
    for x in letters:
        i = x if x > 0 else -x
        a1, b1 = c[i]
        a2, b2 = c[i + 1]
        p1 = b1 if b1 > 0 else 0
        p2 = b2 if b2 > 0 else 0
        m1, m2 = b1 - p1, b2 - p2
        if x > 0:
            t = a1 - m1 - a2 + p2
            tp = t if t > 0 else 0
            u, v = p2 - t, m1 + t
            c[i] = (a1 + p1 + (u if u > 0 else 0), b2 - tp)
            c[i + 1] = (a2 + m2 + (v if v < 0 else 0), b1 + tp)
        else:
            t = a1 + m1 - a2 - p2
            tm = t if t < 0 else 0
            u, v = p2 + t, m1 - t
            c[i] = (a1 - p1 - (u if u > 0 else 0), b2 + tm)
            c[i + 1] = (a2 - m2 - (v if v < 0 else 0), b1 - tm)
    return c


# Keyed by (m, k), never by a word: a sweep's checks at one strand count meet at most 6
# values of k, so one cold pass hits 94-99 %.  64 holds the 34-36 that mixed n = 4..12 meet.
@lru_cache(maxsize=64)
def _twisted_unit(m: int, k: int) -> tuple[tuple[int, int], ...]:
    """Delta^2k (0, 1, ..., 0, 1) on m strands, Delta^2 = (sigma_1 ... sigma_{m-1})^m."""
    cycle = range(1, m) if k > 0 else range(-(m - 1), 0)
    return tuple(_dynnikov(chain.from_iterable([cycle] * (m * abs(k))), [(0, 1)] * (m + 1)))


def _acts_innerly(w: BraidWord, s: int) -> bool:
    """Whether a pure word is central, i.e. its mapping class is trivial.

    The stabiliser of a puncture in Mod(S_{0,n}) is B_{n-1}/<Delta^2>, by
    capping the boundary of the (n-1)-punctured disc (Farb and Margalit,
    *A Primer on Mapping Class Groups*, ch. 3).  So w is central exactly
    when its image beta in B_{n-1} is Delta^2k: the exponent sum of beta is
    k(n-1)(n-2), and beta Delta^-2k fixes u = (0, 1, ..., 0, 1) under
    Dynnikov's action, that is, beta u = Delta^2k u (:func:`_twisted_unit`).
    Strand s goes to infinity; the least-emitting one (:func:`_linking_class`)
    keeps beta short.  It is all integer arithmetic, and the coordinates gain
    a bounded number of bits per letter: no budget.
    """
    n, m = w.n, w.n - 1
    beta = _capped_word(w.letters, n, s)
    exponent_sum = len(beta) - 2 * len([x for x in beta if x < 0])
    k, r = divmod(exponent_sum, m * (m - 1))
    return not r and tuple(_dynnikov(beta, [(0, 1)] * (m + 1))) == _twisted_unit(m, k)


def central_value(w: BraidWord) -> int | None:
    """0 if the word is trivial, 2 if it is the full twist, None otherwise.

    The center is exactly {identity, full twist}.  Everything below is
    invariant under conjugation, so the word is cyclically reduced first.
    Its linking class rules out every word that is not pure or lies in
    neither central class, and names the central element a word can be;
    the exact stage (:func:`_acts_innerly`) decides whether a word that
    survives is central.  No budget applies.
    """
    w = _cyclic_core(w)
    value, s = _linking_class(w)
    return value if value is not None and _acts_innerly(w, s) else None


def equals(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether two words represent the same element of the sphere braid group."""
    if w1.n != w2.n:
        raise StrandMismatchError(f"cannot compare words on {w1.n} and {w2.n} strands")
    return w1.letters == w2.letters or is_trivial(w1 * w2.inv())


def is_trivial(w: BraidWord) -> bool:
    """Whether the word represents the identity: its cyclic core, a
    conjugate, lies in the linking class of the identity and is central."""
    w = _cyclic_core(w)
    value, s = _linking_class(w)
    return value == 0 and _acts_innerly(w, s)


def is_central(w: BraidWord) -> bool:
    """Whether the word is central, i.e. trivial or the full twist."""
    return central_value(w) is not None


def _torsion_cycle_length(p: Permutation) -> int | None:
    """The permutation's order if it has a torsion cycle type, else None (see order_of)."""
    cycles = p.cycles()
    lengths = {len(c) for c in cycles}
    if len(lengths) > 1 or (cycles and p.n - sum(map(len, cycles)) > 2):
        return None
    return lengths.pop() if cycles else 1


def _root_length(c: Sequence[int]) -> int:
    """The length of the primitive root r of the word c = r^m (0 for the empty word).

    That is the least divisor k of |c| with c[k:] == c[:-k]: a period of c
    that divides its length.
    """
    m = len(c)
    for k in range(1, m):
        if m % k == 0 and c[k:] == c[: m - k]:
            return k
    return m


def order_of(w: BraidWord) -> Order:
    """The order of the element represented by the word.

    The word is conjugate to its cyclic core c, written as r^m with r its
    primitive root; r has order o exactly when r^m has order o / gcd(o, m),
    and r of infinite order makes r^m infinite.  So only r is decided, and
    the exact check meets |r^p| letters instead of |w^p|.  A torsion element
    is conjugate to a power of alpha_0, alpha_1 or alpha_2 (Murasugi), whose
    permutations are an n-cycle, an (n-1)-cycle and one fixed point, and an
    (n-2)-cycle and two.  So a permutation of r other than the identity with
    two cycle lengths or more than two fixed points proves infinite order
    before any power is built.  Otherwise, with p its order, r^p is pure;
    the only pure torsion is the identity and the full twist, so the order
    of r is p, 2p or infinite, and the centrality of r^p decides.
    """
    c = _cyclic_core(w).letters
    k = _root_length(c)
    m = len(c) // k if k else 1
    r = _valid_word(w.n, c[:k])  # a prefix of a valid word
    p = _torsion_cycle_length(permutation(r))
    if p is None:
        return INFINITE
    cv = central_value(r ** p)
    if cv is None:
        return INFINITE
    o = p if cv == 0 else 2 * p
    return Order.finite(o // gcd(o, m))


def commute(w1: BraidWord, w2: BraidWord) -> bool:
    return equals(w1 * w2, w2 * w1)


def verify_finite_subgroup(gens: Sequence[BraidWord], target: FiniteGroupTable) -> bool:
    """Check that the given words generate an isomorphic copy of the target.

    The target table must carry a presentation whose generators correspond,
    in order, to ``gens``.  All relators are checked with the word-problem
    oracle, which certifies a surjection from the target onto the generated
    subgroup.  Its kernel is a subgroup of the target, and by Cauchy's
    theorem a nontrivial one contains an element of prime order.  The kernel
    meets a subgroup of prime order in all of it or in the identity alone,
    so the map is injective once one element of every subgroup of prime
    order has a nontrivial braid as its image.  Only the table's element
    orders, words and products are read.
    """
    if target.presentation is None:
        raise ValueError("target table carries no presentation")
    pres = target.presentation
    if len(gens) != pres.ngens:
        raise ValueError(f"expected {pres.ngens} generator words, got {len(gens)}")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise StrandMismatchError(f"generator words on {n} and {g.n} strands")
    parts: dict[int, tuple[int, ...]] = {}
    for k, g in enumerate(gens, start=1):
        parts[k], parts[-k] = g.letters, _finv(g.letters)

    def evaluate(gen_word: Sequence[int]) -> BraidWord:
        # The reduced product of the generator words and their inverses, all on n strands.
        return _valid_word(n, _reduce(*map(parts.__getitem__, gen_word)))

    for rel in pres.relators:
        if not is_trivial(evaluate(rel)):
            return False
    # Cauchy: a nontrivial kernel holds an element of prime order, and one
    # element of a subgroup of prime order lies outside the kernel only if
    # all of them do, so the first one met is checked and its powers skipped.
    covered: set[int] = set()
    for e, k in enumerate(target.element_orders):
        prime = k > 1 and all(k % d for d in range(2, isqrt(k) + 1))
        if not prime or e in covered:
            continue
        if is_trivial(evaluate(target.words[e])):
            return False
        x = e
        while x != target.identity:
            covered.add(x)
            x = target.mul(x, e)
    return True
