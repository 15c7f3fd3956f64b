"""
The word problem for the braid groups of the sphere.

Strategy: a braid word acts on the free group of rank n-1 that is the
fundamental group of the n-punctured sphere.  The generator sigma_k sends

    x_k -> x_k x_{k+1} x_k^-1,    x_{k+1} -> x_k,    others fixed,

where any occurrence of the missing generator x_n is eliminated through
x_n = (x_1 ... x_{n-1})^-1.  The recurrence carries P, the image of
x_1 ... x_{n-1}, so x_n maps to P^-1.  Only sigma_{n-1}^{+-1} moves P: with
a the image of x_{n-1}, sigma_{n-1} sends P to a^-1 (and x_{n-1} to
a P^-1 a^-1), and sigma_{n-1}^-1 sends P to P a^-1 P^-1 (and x_{n-1} to
P^-1).  So every letter is one conjugation.  The induced *outer* action is
faithful on the quotient of the braid group by its order-2 center, so a
word represents the identity or the full twist exactly when its
automorphism is inner.  One pipeline decides every n >= 3, the finite
three-strand group included.  For orders, a word's cyclic core is written
as r^m with r its primitive root, and the order of r^m is read off that of
r; the cycle type of r's permutation refutes finiteness before any power is
built, and only a torsion cycle type, of order p, gets the pure power r^p
built and decided.

Centrality is decided in stages, each sound: the word is cyclically reduced
(centrality is invariant under conjugation), then one pass over its letters
checks that it is pure and reads the class of its pairwise crossing counts
modulo the sphere relators.  The identity and the full twist lie in two
disjoint classes, so a word in neither is not central, and a central word's
class says which of the two it is.  Survivors get the exact innerness check
on the free-group images, first on a budget of 2(n-1) image letters per
input letter, which almost every word stays within.  Only a word whose
images outgrow it goes on to the trace screen, which runs the same
recurrence on a fixed image of the free group in SL2(F_p): an inner
automorphism preserves the traces of x_j and x_j x_k, so a mismatch proves
the word is not central.  A word that passes the screen gets the exact
check again on the full budget.  A word whose 2(n-1)|w| reaches the full
budget skips the first pass and goes to the screen first.

Free words are plain tuples of signed generator indices; only the
automorphism type gets a dataclass wrapper.  Inside the Artin action each
image travels as the pair (w, w^-1), so inverting is a swap and a
conjugation is cut from slices of the two pairs; the automorphism keeps
the forward images only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .groups import FiniteGroupTable
from .words import BraidWord, Permutation, StrandMismatchError, _reduce, permutation
from .words import _LETTER_BUDGET, _finv, _valid_word

__all__ = [
    "FreeWord",
    "FreeAutomorphism",
    "Order",
    "OracleBudgetError",
    "artin_action",
    "is_inner",
    "central_value",
    "equals",
    "is_trivial",
    "is_central",
    "order_of",
    "commute",
    "verify_finite_subgroup",
]

FreeWord = tuple[int, ...]
# A free word with its inverse: the Artin recurrence inverts by swapping.
FreePair = tuple[FreeWord, FreeWord]
_swap = itemgetter(1, 0)

# Free-group images of a word can grow exponentially in its length (pseudo-
# Anosov-type elements); past this total the computation aborts with an
# error rather than exhausting memory.  Everything in the identity suites
# and the witness sweep stays orders of magnitude below it.  It is the
# parser's bound on the letters of a word.
IMAGE_BUDGET = _LETTER_BUDGET


class OracleBudgetError(RuntimeError):
    """The free-group images outgrew the budget; no verdict was reached."""


@dataclass(frozen=True)
class FreeAutomorphism:
    """An endomorphism of the free group given by its free-reduced basis images.

    All instances produced by :func:`artin_action` are automorphisms by
    construction (each braid letter acts invertibly).
    """

    images: tuple[FreeWord, ...]

    @property
    def rank(self) -> int:
        return len(self.images)


def _fconj(a: FreePair, b: FreePair) -> FreePair:
    """(a b a^-1, a b^-1 a^-1), free-reduced, from the pairs (a, a^-1) and (b, b^-1).

    The k letters that cancel where a meets b are the common prefix of a^-1
    and b, and the j letters that cancel where b meets a^-1 are the common
    prefix of a^-1 and b^-1.  When they leave some of b between them, the
    product is a less its last k letters, the rest of b, and a^-1 less its
    first j letters; its inverse is cut from the same four words, so nothing
    is reversed.  Otherwise b cancels completely, the parts are reduced in
    turn and the product is inverted once.
    """
    a, ai = a
    b, bi = b
    la, lb = len(a), len(b)
    m = la if la < lb else lb
    k = j = 0
    while k < m and ai[k] == b[k]:
        k += 1
    while j < m and ai[j] == bi[j]:
        j += 1
    if k + j < lb:
        return (
            a[: la - k] + b[k : lb - j] + ai[j:],
            a[: la - j] + bi[j : lb - k] + ai[k:],
        )
    w = _reduce(a, b[: lb - j], ai[j:])
    return w, _finv(w)


def _artin_steps(
    letters: Sequence[int], imgs: list, p, conj: Callable, inv: Callable
) -> Iterator[tuple]:
    """Apply the braid letters, left to right, to the basis images in place.

    ``conj(a, b)`` is a b a^-1 and ``inv`` inverts in the target group, so
    the one recurrence serves free words, carried with their inverses, and
    matrices alike.  Beside the images it carries P = phi(x_1 ... x_{n-1}),
    passed in as ``p``, so the image of the missing generator x_n is P^-1.
    Every letter is one conjugation: with a and b the images of x_i and
    x_{i+1}, sigma_i sends x_i to a b a^-1 and sigma_i^-1 sends x_{i+1} to
    b^-1 a b; with a = phi(x_{n-1}), sigma_{n-1} sends x_{n-1} to a P^-1 a^-1
    and P to a^-1, and sigma_{n-1}^-1 sends x_{n-1} to P^-1 and P to
    P a^-1 P^-1.  Each letter replaces exactly one image, and the step
    yields the pair (new image, displaced image).
    """
    last = len(imgs)
    for x in letters:
        i = abs(x)
        a = imgs[i - 1]
        if i < last:
            b = imgs[i]
            if x > 0:
                new, old = conj(a, b), b
                imgs[i - 1], imgs[i] = new, a
            else:
                new, old = conj(inv(b), a), a
                imgs[i - 1], imgs[i] = b, new
        else:
            old = a
            if x > 0:
                new, p = conj(a, inv(p)), inv(a)
            else:
                new = inv(p)
                p = conj(p, inv(a))
            imgs[i - 1] = new
        yield new, old


def artin_action(w: BraidWord, budget: int = IMAGE_BUDGET) -> FreeAutomorphism:
    """The action of a braid word on the punctured-sphere free group.

    Letters are processed left to right and composed so that the whole map is
    a homomorphism of braid words into automorphisms.  The image of the
    missing generator x_n is P^-1, where P = phi(x_1 ... x_{n-1}) is carried
    along: sigma_{n-1} sends P to a^-1 and sigma_{n-1}^-1 sends it to
    P a^-1 P^-1, with a = phi(x_{n-1}), and every other letter fixes it.
    Every image, P's too, is carried with its inverse, so inverting is a
    swap.  P is the reduced product of the images, so it is never longer
    than their total.  That total, of forward images only, is kept as a
    running sum of each letter's change; raises :class:`OracleBudgetError`
    when it passes ``budget``.
    """
    imgs: list[FreePair] = [((j,), (-j,)) for j in range(1, w.n)]
    p = tuple(range(1, w.n))
    total = len(imgs)
    for new, old in _artin_steps(w.letters, imgs, (p, _finv(p)), _fconj, _swap):
        total += len(new[0]) - len(old[0])
        if total > budget:
            raise OracleBudgetError(
                f"free-group images passed {budget} letters after "
                f"{len(w.letters)}-letter input; the word is far from any "
                "short normal form and no verdict was reached"
            )
    return FreeAutomorphism(tuple(img for img, _ in imgs))


def _strip_ends(w: Sequence[int]) -> int:
    """The number k of letters that cancel between the ends: w = u c u^-1, len(u) = k."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return lo


def is_inner(a: FreeAutomorphism) -> FreeWord | None:
    """Return a conjugator g with a(x) = g x g^-1 for every basis x, or None.

    The image of x_1 must be conjugate to x_1; stripping matched ends pins a
    conjugator u up to a right factor x_1^k, and k is forced by the image of
    x_2: the reduced word u^-1 a(x_2) u must literally read x_1^k x_2 x_1^-k.
    The remaining generators are then verified outright.  The empty tuple
    means the identity conjugator, so test the result against ``None``.
    """
    w1 = a.images[0]
    lo = _strip_ends(w1)
    if w1[lo : len(w1) - lo] != (1,):
        return None
    u = w1[:lo]
    v = _reduce(_finv(u), a.images[1] if a.rank >= 2 else (), u)
    t, rem = divmod(len(v) - 1, 2)
    if rem != 0 or v[t] != 2:
        return None
    head, tail = v[:t], v[t + 1 :]
    if head == (1,) * t and tail == (-1,) * t:
        k = t
    elif head == (-1,) * t and tail == (1,) * t:
        k = -t
    else:
        return None
    g = _reduce(u, (1,) * k if k >= 0 else (-1,) * (-k))
    g_inv = _finv(g)
    for j in range(1, a.rank + 1):
        if a.images[j - 1] != _reduce(g, (j,), g_inv):
            return None
    return g


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


def _linking_class(w: BraidWord) -> int | None:
    """The central element a word's crossing counts allow: 0, 2, or None.

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
    class is not central: None.
    """
    n = w.n
    d = [[0] * (n + 1) for _ in range(n + 1)]
    strand_at = list(range(n + 1))
    for x in w.letters:
        i = abs(x)
        a, b = strand_at[i], strand_at[i + 1]
        if a > b:
            a, b = b, a
        d[a][b] += 1 if x > 0 else -1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    if strand_at != list(range(n + 1)):
        return None
    # c_1 = (d_12/2 + d_13/2 - d_23/2 - eps) / 2 must be an integer, which
    # fixes eps; then c_j = d_1j/2 - eps - c_1, and every other pair checks.
    t = (d[1][2] + d[1][3] - d[2][3]) // 2
    eps = t % 2
    c1 = (t - eps) // 2
    c = [0, c1] + [d[1][j] // 2 - eps - c1 for j in range(2, n + 1)]
    ok = all(
        d[j][k] // 2 - eps == c[j] + c[k] for j in range(2, n + 1) for k in range(j + 1, n + 1)
    )
    return 2 * eps if ok else None


# The trace screen maps the free group to SL2(F_p), p = 2^31 - 1, sending x_j
# to a matrix drawn from a generator seeded by n alone.
SL2_PRIME = 2**31 - 1
SL2_SEED = 20031

Matrix = tuple[int, int, int, int]


def _mat_mul(m: Matrix, *ms: Matrix) -> Matrix:
    a, b, c, d = m
    for e, f, g, h in ms:
        a, b, c, d = (
            (a * e + b * g) % SL2_PRIME,
            (a * f + b * h) % SL2_PRIME,
            (c * e + d * g) % SL2_PRIME,
            (c * f + d * h) % SL2_PRIME,
        )
    return a, b, c, d


def _mat_inv(m: Matrix) -> Matrix:
    a, b, c, d = m
    return d, -b % SL2_PRIME, -c % SL2_PRIME, a


def _mat_conj(a: Matrix, b: Matrix) -> Matrix:
    return _mat_mul(a, b, _mat_inv(a))


def _traces(ms: Sequence[Matrix]) -> tuple[int, ...]:
    """tr(x_j) for every j, then tr(x_j x_k) for every j < k."""
    out = [(a + d) % SL2_PRIME for a, _, _, d in ms]
    for j, (a, b, c, d) in enumerate(ms):
        for e, f, g, h in ms[j + 1 :]:
            out.append((a * e + b * g + c * f + d * h) % SL2_PRIME)
    return tuple(out)


@lru_cache(maxsize=None)
def _sl2_basis(n: int) -> tuple[tuple[Matrix, ...], tuple[int, ...]]:
    """The images of x_1 ... x_{n-1} in SL2(F_p), and their traces."""
    rng = random.Random(SL2_SEED * 1000 + n)
    basis = []
    for _ in range(n - 1):
        a, b, c = rng.randrange(1, SL2_PRIME), rng.randrange(SL2_PRIME), rng.randrange(SL2_PRIME)
        basis.append((a, b, c, (1 + b * c) * pow(a, -1, SL2_PRIME) % SL2_PRIME))
    return tuple(basis), _traces(basis)


def _traces_could_be_central(w: BraidWord) -> bool:
    """Screen on the SL2 image of the free-group action.

    An inner automorphism conjugates every image matrix by the same matrix,
    so it keeps tr(x_j) and tr(x_j x_k); a changed trace proves the word's
    automorphism is not inner.  The images stay four residues each.
    """
    basis, traces = _sl2_basis(w.n)
    imgs = list(basis)
    for _ in _artin_steps(w.letters, imgs, _mat_mul(*basis), _mat_conj, _mat_inv):
        pass
    return _traces(imgs) == traces


def _cyclic_core(w: BraidWord) -> BraidWord:
    """The word with the letters that cancel between its ends stripped: a conjugate."""
    k = _strip_ends(w.letters)
    # A middle slice of a valid word.
    return _valid_word(w.n, w.letters[k : len(w.letters) - k]) if k else w


def _acts_innerly(w: BraidWord) -> bool:
    """Whether the word's automorphism is inner.

    The exact check runs first on a budget of 2(n-1)|w| image letters; every
    verdict it reaches is final.  Images that outgrow it are the mark of a
    word far from its normal form, seldom an inner one, so the trace screen
    gets the chance to refute it before the exact check runs again on the
    full budget.  A word whose 2(n-1)|w| reaches the full budget goes to the
    screen first: its first pass would be the full pass.
    """
    budget = 2 * (w.n - 1) * len(w.letters)
    if budget < IMAGE_BUDGET:
        try:
            return is_inner(artin_action(w, budget)) is not None
        except OracleBudgetError:
            pass
    return _traces_could_be_central(w) and is_inner(artin_action(w)) is not None


def central_value(w: BraidWord) -> int | None:
    """0 if the word is trivial, 2 if it is the full twist, None otherwise.

    The center is exactly {identity, full twist}.  Everything below is
    invariant under conjugation, so the word is cyclically reduced first.
    Its linking class rules out every word that is not pure or lies in
    neither central class, and names the central element a word can be;
    the word is central exactly when its free-group automorphism is inner,
    which the exact check decides on a budget linear in the word's length.
    Only when the images outgrow that budget does the trace screen run, to
    refute cheaply, before the exact check on the full budget.
    """
    w = _cyclic_core(w)
    value = _linking_class(w)
    return value if value is not None and _acts_innerly(w) else None


def equals(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether two words represent the same element of the sphere braid group."""
    if w1.n != w2.n:
        raise StrandMismatchError(f"cannot compare words on {w1.n} and {w2.n} strands")
    return w1.letters == w2.letters or is_trivial(w1 * w2.inv())


def is_trivial(w: BraidWord) -> bool:
    """Whether the word represents the identity: its cyclic core, a
    conjugate, lies in the linking class of the identity and acts innerly."""
    w = _cyclic_core(w)
    return _linking_class(w) == 0 and _acts_innerly(w)


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
