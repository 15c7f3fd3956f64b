"""
Words in the braid group of the sphere on n strands.

A braid word is a free-reduced sequence of signed Artin generator indices:
letter ``k`` (1 <= k <= n-1) is the generator sigma_k crossing strands k and
k+1, and ``-k`` is its inverse.  Words are stored eagerly free-reduced (no
adjacent letter/inverse pair), which makes hashing and raw equality cheap;
deciding equality *in the group* is the job of :mod:`spherebraid.oracle`.

Two homomorphisms are computable directly on words: the underlying
permutation (sigma_k maps to the transposition (k, k+1), permutations
composed left to right, i.e. the leftmost letter acts first) and the
abelianization (exponent sum mod 2(n-1)).  The module also holds a catalog
of standard elements (torsion elements, half/full twist, the half-block
twists, and the various commuting and conjugating elements used by the
realization constructions), together with a small text DSL for naming them
on the command line.

Letters are checked once, where they enter: by the ``BraidWord``
constructor, :func:`word`, :func:`sigma` and the parser's integer tokens
and catalog atoms.  Products, inverses and powers of valid words, and the
word the parser returns, are built without checking again.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from operator import eq, neg
from typing import Callable, Iterable, Sequence

__all__ = [
    "WordError",
    "SideConditionError",
    "StrandMismatchError",
    "BraidWord",
    "Permutation",
    "AbelianClass",
    "NamedElement",
    "word",
    "identity",
    "sigma",
    "parse_braid",
    "permutation",
    "abelianize",
    "exponent_sum",
    "std_element",
    "alpha",
    "alpha_prime",
    "half_twist",
    "full_twist",
    "delta_comm",
    "omega1",
    "omega2",
    "rho_strip",
    "rho_pass",
    "block_pass",
    "band_generator",
    "xi_elt",
    "xi_prime_elt",
    "lambda_elt",
    "nu_elt",
    "zeta_elt",
    "eta_elt",
    "eta_tilde_elt",
    "v_pair",
    "gamma_b6",
    "delta_b6",
]


class WordError(ValueError):
    """Malformed word input: bad token, index out of range, bad n."""


class SideConditionError(WordError):
    """A named element's parameters violate its defining side condition."""


class StrandMismatchError(WordError):
    """Two words from braid groups with different strand counts were mixed."""


# The most letters a parsed word may collect, and the most letters the
# oracle lets the free-group images of a word reach (``oracle.IMAGE_BUDGET``).
_LETTER_BUDGET = 2_000_000


def _reduce(*parts: Sequence[int]) -> tuple[int, ...]:
    """Free-reduce the concatenation of free-reduced parts (signed letters).

    Each part must itself be free-reduced, so letters can cancel only where a
    part meets the running result: the cancelling letters are popped there
    and the rest of the part is copied in one step.  A part that cancels
    completely leaves the next part to meet an earlier one.
    """
    out: list[int] = []
    for part in parts:
        k, m = 0, len(part)
        while k < m and out and out[-1] == -part[k]:
            out.pop()
            k += 1
        out.extend(part[k:] if k else part)
    return tuple(out)


def _check_letters(n: int, letters: tuple) -> None:
    """Raise WordError naming the first letter that is not a generator index for n strands.

    The whole tuple is checked by builtins; the per-letter loop runs only to
    name the culprit.  A ``bool`` is an ``int`` to ``isinstance`` but is not
    a generator index.
    """
    if letters and not (
        all(map(isinstance, letters, repeat(int)))
        and not any(map(isinstance, letters, repeat(bool)))
        and min(letters) > -n
        and max(letters) < n
        and 0 not in letters
    ):
        for x in letters:
            if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > n - 1:
                raise WordError(f"letter {x!r} out of range for n={n}")


def _has_cancelling_pair(letters: Sequence[int]) -> bool:
    """Whether some letter is followed by its inverse."""
    return any(map(eq, letters, map(neg, letters[1:])))


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Free-reduce a tuple of letters; one that is already reduced is returned as it is."""
    return _reduce(*zip(letters)) if _has_cancelling_pair(letters) else letters


def _finv(letters: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a word in signed letters, braid or free-group: negated
    and reversed, so a free-reduced word stays free-reduced."""
    return tuple(map(neg, reversed(letters)))


def _power_parts(letters: tuple[int, ...], e: int) -> list[tuple[int, ...]]:
    """The parts whose reduced product is the e-th power: |e| copies, inverted if e < 0."""
    return [_finv(letters) if e < 0 else letters] * abs(e)


def _check_strands(n: int) -> None:
    if n < 3:
        raise WordError(f"strand count must be at least 3, got {n}")


@dataclass(frozen=True)
class BraidWord:
    """A free-reduced word over the Artin generators of the n-strand group.

    Instances are immutable and hashable.  Use :func:`word` (or the `*`, `**`
    and `.inv()` operators, which reduce eagerly) rather than the raw
    constructor unless the letters are already reduced.  The constructor
    checks the strand count and every letter; the operators build their
    results from valid words without checking again.
    """

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_strands(self.n)
        _check_letters(self.n, self.letters)
        if _has_cancelling_pair(self.letters):
            raise WordError("letters are not free-reduced")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise StrandMismatchError(f"cannot multiply words on {self.n} and {other.n} strands")
        # The reduced product of two valid words on n strands.
        return _valid_word(self.n, _reduce(self.letters, other.letters))

    def inv(self) -> "BraidWord":
        # Negating and reversing keeps the letters in range and reduced.
        return _valid_word(self.n, _finv(self.letters))

    def __pow__(self, e: int) -> "BraidWord":
        # The reduced product of copies of the word or of its inverse.
        return _valid_word(self.n, _reduce(*_power_parts(self.letters, e)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters) if self.letters else "<empty>"


_new = object.__new__
_set = object.__setattr__  # the frozen dataclass's own __init__ sets fields this way


def _valid_word(n: int, letters: tuple[int, ...]) -> BraidWord:
    """The word on n strands with these letters, built without the constructor's check.

    Only for letters that are generator indices for n strands, free-reduced,
    and n >= 3, by how they were made; each call says why.
    """
    w = _new(BraidWord)
    _set(w, "n", n)
    _set(w, "letters", letters)
    return w


def word(n: int, letters: Iterable[int] = ()) -> BraidWord:
    """Build a word on n strands, free-reducing the given letters."""
    letters = tuple(letters)
    _check_letters(n, letters)
    _check_strands(n)
    # Checked just above, and reduced here.
    return _valid_word(n, _free_reduce(letters))


def identity(n: int) -> BraidWord:
    return BraidWord(n)


def sigma(n: int, k: int) -> BraidWord:
    """The generator sigma_k (k < 0 for the inverse)."""
    return BraidWord(n, (k,))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n}; ``images[k-1]`` is the image of k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise WordError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least element."""
        seen = [False] * self.n
        out = []
        for k in range(1, self.n + 1):
            if seen[k - 1]:
                continue
            cyc = [k]
            seen[k - 1] = True
            v = self(k)
            while v != k:
                cyc.append(v)
                seen[v - 1] = True
                v = self(v)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)


def permutation(w: BraidWord) -> Permutation:
    """Image of the word under the map sending sigma_k to (k, k+1).

    Composes left to right: the leftmost letter acts first, so for example
    the word sigma_1 ... sigma_{n-1} sends 1 to n and k to k-1 for k >= 2.
    """
    n = w.n
    im = list(range(n + 1))  # im[k] = image of k (1-based; slot 0 unused)
    pos = list(range(n + 1))  # pos[v] = preimage of v
    for x in w.letters:
        i = abs(x)
        a, b = pos[i], pos[i + 1]
        im[a], im[b] = i + 1, i
        pos[i], pos[i + 1] = b, a
    # Built by swapping the images of 1..n, so a permutation without the check.
    p = _new(Permutation)
    _set(p, "images", tuple(im[1:]))
    return p


@dataclass(frozen=True)
class AbelianClass:
    """A residue modulo 2(n-1), the abelianization of the n-strand group."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if not (0 <= self.value < self.modulus):
            raise WordError("abelian class value out of range")

    def __add__(self, other: "AbelianClass") -> "AbelianClass":
        if self.modulus != other.modulus:
            raise StrandMismatchError("abelian class modulus mismatch")
        return AbelianClass((self.value + other.value) % self.modulus, self.modulus)

    def is_zero(self) -> bool:
        return self.value == 0


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if x > 0 else -1 for x in w.letters)


def abelianize(w: BraidWord) -> AbelianClass:
    """Exponent sum of the word reduced modulo 2(n-1)."""
    m = 2 * (w.n - 1)
    return AbelianClass(exponent_sum(w) % m, m)


# ---------------------------------------------------------------------------
# Catalog of standard elements.
# ---------------------------------------------------------------------------


def _run(lo: int, hi: int) -> list[int]:
    """Letters sigma_lo ... sigma_hi ascending; empty when hi < lo."""
    return list(range(lo, hi + 1))


def alpha(n: int, i: int) -> BraidWord:
    """The standard torsion element of order 2(n-i), for i in {0, 1, 2}."""
    if i == 0:
        return word(n, _run(1, n - 1))
    if i == 1:
        return word(n, _run(1, n - 2) + [n - 1, n - 1])
    if i == 2:
        return word(n, _run(1, n - 3) + [n - 2, n - 2])
    raise SideConditionError(f"torsion element index must be 0, 1 or 2, got {i}")


def alpha_prime(n: int, i: int) -> BraidWord:
    """The conjugate alpha_0^(i/2) alpha_i alpha_0^(-i/2), inverted by the half twist."""
    _check_primed(i)
    a0 = alpha(n, 0)
    return (a0 ** (i // 2)) * alpha(n, i) * (a0 ** (-(i // 2)))


def half_twist(n: int) -> BraidWord:
    """The Garside-type element whose conjugation reverses generator indices."""
    out: list[int] = []
    for i in range(1, n):
        out += _run(1, n - i)
    return word(n, out)


def full_twist(n: int) -> BraidWord:
    """The central element of order 2, written as (sigma_1 ... sigma_{n-1})^n."""
    return alpha(n, 0) ** n


def delta_comm(n: int, r: int, i: int) -> BraidWord:
    """The infinite-order element sigma_1 sigma_{r+1} ... sigma_{n-i-r+1}.

    Commutes with alpha_i^r; requires r >= 2 and r dividing n - i.
    """
    _check_commuter(n, r, i)
    return word(n, [k * r + 1 for k in range((n - i) // r)])


def omega1(n: int) -> BraidWord:
    """Half twist on the first n/2 strands (n even)."""
    _require_even(n, "half-block twist")
    out: list[int] = []
    for i in range(1, n // 2):
        out += _run(1, n // 2 - i)
    return word(n, out)


def omega2(n: int) -> BraidWord:
    """Half twist on the last n/2 strands (n even)."""
    _require_even(n, "half-block twist")
    out: list[int] = []
    for i in range(1, n // 2):
        out += _run(n // 2 + 1, n - i)
    return word(n, out)


def rho_strip(n: int, j: int) -> BraidWord:
    """The strip sigma_j ... sigma_{j+n/2-1}, for 1 <= j <= n/2 (n even)."""
    _check_strip(n, j)
    return word(n, _run(j, j + n // 2 - 1))


def rho_pass(n: int) -> BraidWord:
    """The braid passing the first n/2 strands over the last n/2 (n even)."""
    _require_even(n, "block-pass element")
    out = identity(n)
    for j in range(n // 2, 0, -1):
        out = out * rho_strip(n, j)
    return out


def block_pass(n: int, i: int, m: int) -> BraidWord:
    """Product of s = (n-i)/m disjoint ascending runs of length m-1.

    Conjugation by alpha_i^m permutes the runs cyclically; its m-th power is
    an infinite-order element commuting with the standard dicyclic copy.
    """
    _check_blocks(n, i, m)
    s = (n - i) // m
    out: list[int] = []
    for j in range(1, s + 1):
        out += _run((j - 1) * m + 1, j * m - 1)
    return word(n, out)


def band_generator(n: int, i: int, j: int) -> BraidWord:
    """The pure band generator linking strands i < j."""
    _check_band(n, i, j)
    pre = list(range(j - 1, i, -1))
    return word(n, pre + [i, i] + [-k for k in reversed(pre)])


def xi_elt(n: int, i: int, m: int = 1) -> BraidWord:
    """sigma_{1+i/2} sigma_{1+2m+i/2} ... sigma_{1+n-2m-i/2}, step 2m.

    The conjugating element used for the cyclic-by-cyclic amalgam
    constructions; equal in the group to delta_comm(n, 2m, i) conjugated by
    alpha_0^(i/2).
    """
    _check_step(n, i, m)
    return word(n, list(range(1 + i // 2, n - 2 * m - i // 2 + 2, 2 * m)))


def xi_prime_elt(n: int, i: int, m: int = 1) -> BraidWord:
    """The half-twist conjugate of :func:`xi_elt`, written directly."""
    _check_step(n, i, m)
    first = 2 * m - 1 + i // 2
    return word(n, list(range(first, n - i // 2, 2 * m)))


def lambda_elt(n: int, i: int, m: int = 1) -> BraidWord:
    """sigma_{m+i/2} sigma_{3m+i/2} ... sigma_{n-m-i/2}, step 2m.

    Fixed by half-twist conjugation; requires (n-i)/m even.
    """
    _check_lambda(n, i, m)
    q = (n - i) // m
    return word(n, [m * (1 + 2 * j) + i // 2 for j in range(q // 2)])


def nu_elt(n: int) -> BraidWord:
    """alpha_0^(n/4) omega2, the 3-cycle action element (n divisible by 4)."""
    _check_quarter(n)
    return alpha(n, 0) ** (n // 4) * omega2(n)


def zeta_elt(n: int) -> BraidWord:
    """omega1 times the half twist, the swap action element (n even)."""
    _require_even(n, "swap action element")
    return omega1(n) * half_twist(n)


def eta_tilde_elt(n: int, i: int, m: int = 1) -> BraidWord:
    """xi alpha_i'^m xi^-1 alpha_i'^m, of infinite order."""
    x = xi_elt(n, i, m)
    ap = alpha_prime(n, i) ** m
    return x * ap * x.inv() * ap


def eta_elt(n: int, i: int, m: int = 1) -> BraidWord:
    """The mixed-factor product xi alpha_i'^m xi^-1 times a dicyclic generator."""
    x = xi_elt(n, i, m)
    ap = alpha_prime(n, i)
    if m == 1:
        return x * ap * x.inv() * ap * half_twist(n)
    return x * (ap ** m) * x.inv() * half_twist(n)


def v_pair(n: int) -> tuple[BraidWord, BraidWord]:
    """The pair of order-4 words generating the smallest cyclic amalgam."""
    i = 2 if n % 2 == 0 else 1
    v1 = alpha(n, i) ** ((n - i) // 2)
    s = sigma(n, n - i)
    return v1, s * v1 * s.inv()


def gamma_b6(n: int = 6) -> BraidWord:
    """First generator of the explicit binary tetrahedral copy on 6 strands."""
    _check_six(n)
    return word(6, [5, 4, -1, -2])


def delta_b6(n: int = 6) -> BraidWord:
    """Second generator of the explicit binary tetrahedral copy on 6 strands."""
    _check_six(n)
    return word(6, [-3, -4, -5, -2, -1, -2, 5, 4, 5, 5, 4, 3])


# Side conditions, shared by each builder and its length in the catalog.


def _require_even(n: int, what: str) -> None:
    if n % 2 != 0:
        raise SideConditionError(f"{what} needs an even strand count, got n={n}")


def _check_index(i: int, allowed: tuple[int, ...]) -> None:
    if i not in allowed:
        *head, last = allowed
        raise SideConditionError(f"index i must be {', '.join(map(str, head))} or {last}, got {i}")


def _check_primed(i: int) -> None:
    if i not in (0, 2):
        raise SideConditionError(f"primed torsion element needs i in {{0, 2}}, got {i}")


def _check_commuter(n: int, r: int, i: int) -> None:
    _check_index(i, (0, 1, 2))
    if r < 2 or (n - i) % r != 0:
        raise SideConditionError(f"need r >= 2 dividing n-i; got r={r}, n-i={n - i}")


def _check_strip(n: int, j: int) -> None:
    _require_even(n, "strip element")
    if not 1 <= j <= n // 2:
        raise SideConditionError(f"strip index must satisfy 1 <= j <= n/2, got {j}")


def _check_blocks(n: int, i: int, m: int) -> None:
    _check_index(i, (0, 2))
    if m < 2 or (n - i) % m != 0:
        raise SideConditionError(f"need m >= 2 dividing n-i; got m={m}, n-i={n - i}")


def _check_band(n: int, i: int, j: int) -> None:
    if not 1 <= i < j <= n:
        raise SideConditionError(f"band generator needs 1 <= i < j <= n, got ({i}, {j})")


def _check_step(n: int, i: int, m: int) -> None:
    _check_index(i, (0, 2))
    if m < 1 or (n - i) % (2 * m) != 0:
        raise SideConditionError(f"need 2m dividing n-i; got m={m}, n-i={n - i}")


def _check_lambda(n: int, i: int, m: int) -> None:
    _check_index(i, (0, 2))
    if m < 1 or (n - i) % m != 0 or ((n - i) // m) % 2 != 0:
        raise SideConditionError(f"need (n-i)/m a positive even integer; got m={m}, n-i={n - i}")


def _check_quarter(n: int) -> None:
    if n % 4 != 0:
        raise SideConditionError(f"this element needs n divisible by 4, got {n}")


def _check_six(n: int) -> None:
    if n != 6:
        raise SideConditionError("this element lives on exactly 6 strands")


# ---------------------------------------------------------------------------
# Named-element registry and text parser.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedElement:
    """A catalog tag plus its integer parameters."""

    tag: str
    params: tuple[int, ...] = ()


def _pairs(k: int) -> int:
    """k(k-1)/2: the letters of the half twist on k strands."""
    return k * (k - 1) // 2


def _primed_power_length(n: int, i: int, m: int) -> int:
    """The letters of alpha_i'^m: alpha_0^m, or alpha_0 alpha_2^m alpha_0^-1,
    as the alpha_0^-1 alpha_0 between two copies cancel."""
    return m * (n - 1) if i == 0 else (m + 2) * (n - 1)


def _eta_length(n: int, i: int, m: int = 1) -> int:
    """The letters of :func:`eta_elt`, from its parts: xi has q = (n-i)/2m
    letters and D has n(n-1)/2.

    For i = 0, the xi^-1 that ends in sigma_1^-1 cancels one letter of the
    alpha_0 (m = 1) or of D (m > 1) after it, and for m = 1 the alpha_0
    before xi^-1 cancels its first letter, sigma_{n-1}^-1, as well.  For
    i = 2 and m = 1, the alpha_0^-1 that ends alpha_2' cancels D's first
    run sigma_1 ... sigma_{n-1}.  Nothing else cancels.
    """
    _check_step(n, i, m)
    q, d = (n - i) // (2 * m), _pairs(n)
    if m == 1:
        return 2 * q + 2 * _primed_power_length(n, i, 1) + d - (4 if i == 0 else 2 * (n - 1))
    return 2 * q + _primed_power_length(n, i, m) + d - (2 if i == 0 else 0)


def _eta_tilde_length(n: int, i: int, m: int = 1) -> int:
    """The letters of :func:`eta_tilde_elt`: as in :func:`_eta_length`, for
    i = 0 xi^-1 cancels sigma_1 against the second alpha_0^m, and for m = 1
    the first alpha_0 cancels sigma_{n-1}^-1; for i = 2 nothing cancels."""
    _check_step(n, i, m)
    cancelled = 0 if i else (4 if m == 1 else 2)
    return 2 * ((n - i) // (2 * m)) + 2 * _primed_power_length(n, i, m) - cancelled


# tag -> (builder taking (n, *params), allowed arities, length taking the
# same arguments).  Each length is the number of letters of the built word,
# in closed form, after the builder's side conditions (each check returns
# None or raises), so the parser bounds a word before it builds it.
_CATALOG = {
    "a0": (lambda n: alpha(n, 0), (0,), lambda n: n - 1),
    "a1": (lambda n: alpha(n, 1), (0,), lambda n: n),
    "a2": (lambda n: alpha(n, 2), (0,), lambda n: n - 1),
    "ap": (alpha_prime, (1,), lambda n, i: _check_primed(i) or _primed_power_length(n, i, 1)),
    "D": (half_twist, (0,), _pairs),
    "FT": (full_twist, (0,), lambda n: n * (n - 1)),
    "O1": (omega1, (0,), lambda n: _require_even(n, "half-block twist") or _pairs(n // 2)),
    "O2": (omega2, (0,), lambda n: _require_even(n, "half-block twist") or _pairs(n // 2)),
    "rho": (
        lambda n, *p: rho_strip(n, *p) if p else rho_pass(n),
        (0, 1),
        lambda n, *p: (_check_strip(n, *p) or n // 2) if p
        else (_require_even(n, "block-pass element") or (n // 2) ** 2),
    ),
    "delta": (delta_comm, (2,), lambda n, r, i: _check_commuter(n, r, i) or (n - i) // r),
    "blocks": (block_pass, (2,), lambda n, i, m: _check_blocks(n, i, m) or (n - i) // m * (m - 1)),
    "xi": (xi_elt, (1, 2), lambda n, i, m=1: _check_step(n, i, m) or (n - i) // (2 * m)),
    "xip": (xi_prime_elt, (1, 2), lambda n, i, m=1: _check_step(n, i, m) or (n - i) // (2 * m)),
    "lam": (lambda_elt, (1, 2), lambda n, i, m=1: _check_lambda(n, i, m) or (n - i) // m // 2),
    "A": (band_generator, (2,), lambda n, i, j: _check_band(n, i, j) or 2 * (j - i)),
    "nu": (nu_elt, (0,), lambda n: _check_quarter(n) or (n - 1) * (n // 4) + _pairs(n // 2)),
    "zeta": (zeta_elt, (0,), lambda n: _require_even(n, "swap action element") or _pairs(n // 2) + _pairs(n)),
    "eta": (eta_elt, (1, 2), _eta_length),
    "etat": (eta_tilde_elt, (1, 2), _eta_tilde_length),
    "v1": (lambda n: v_pair(n)[0], (0,), lambda n: _pairs(n if n % 2 else n - 1)),
    "v2": (lambda n: v_pair(n)[1], (0,), lambda n: _pairs(n if n % 2 else n - 1)),
    "gamma6": (gamma_b6, (0,), lambda n: _check_six(n) or 4),
    "delta6": (delta_b6, (0,), lambda n: _check_six(n) or 12),
}


def _catalog_entry(name: NamedElement) -> tuple[Callable[..., BraidWord], Callable[..., int]]:
    """The builder and the length of a named element, its arity checked."""
    if name.tag not in _CATALOG:
        raise WordError(f"unknown named element {name.tag!r}")
    builder, arities, length = _CATALOG[name.tag]
    if len(name.params) not in arities:
        raise SideConditionError(
            f"{name.tag} takes {' or '.join(map(str, arities))} parameter(s), got {len(name.params)}"
        )
    return builder, length


def std_element(name: NamedElement | str, n: int) -> BraidWord:
    """The literal catalog word for a named element on n strands."""
    if isinstance(name, str):
        name = NamedElement(name)
    return _catalog_entry(name)[0](n, *name.params)


def _atom_length(name: NamedElement, n: int) -> int:
    """The number of letters of ``std_element(name, n)``, without building it."""
    return _catalog_entry(name)[1](n, *name.params)


# Every pattern is ASCII-only: a digit or a space outside ASCII is malformed.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)(?:\((?P<args>[^)]*)\))?)"
    r"(?:\^(?P<exp>-?\d+))?\s*",
    re.ASCII,
)
# A run of plain integers, none of them raised to a power.
_INTS = re.compile(r"\s*(-?\d+(?![\d^])(?:\s+-?\d+(?![\d^]))*)\s*", re.ASCII)
_CLOSE = re.compile(r"\)(?:\^(?P<exp>-?\d+))?\s*", re.ASCII)
_SPACE = re.compile(r"\s*", re.ASCII)
# A signed integer, its sign and its digits past the leading zeros apart.
_SIGNED = re.compile(r"(-?)0*(\d+)", re.ASCII)


def _generator_indices(m: re.Match, group: str | int, n: int) -> tuple[int, ...]:
    """The integers written in one group of a token match, each checked as a
    generator index.

    int() refuses more than 4,300 digits.  So when a token fails to read or
    to check, the tokens are read again one by one past their leading zeros;
    one that int() still refuses is out of range, named by its position."""
    try:
        ks = tuple(map(int, m.group(group).split()))
        if min(ks) > -n and max(ks) < n and 0 not in ks:
            return ks
    except ValueError:
        pass
    out = []
    for t in _SIGNED.finditer(m.group(group)):
        try:
            k = int(t.group(1) + t.group(2))
        except ValueError:
            at = m.start(group) + t.start()
            raise WordError(f"generator index at position {at} out of range for n={n}") from None
        if k == 0 or abs(k) > n - 1:
            raise WordError(f"generator index {k} out of range for n={n}")
        out.append(k)
    return tuple(out)


def _exponent(text: str | None) -> int:
    """The power a '^' writes, 1 without one.  A power with more digits, past
    its leading zeros, than the letter bound has is read as one past the
    bound: any atom with letters raised to it passes the bound, and int()
    refuses more than 4,300 digits."""
    if text is None:
        return 1
    try:
        return int(text)
    except ValueError:
        sign, digits = _SIGNED.fullmatch(text).groups()  # type: ignore[union-attr]
        if len(digits) > len(str(_LETTER_BUDGET)):
            return _LETTER_BUDGET + 1
        return int(sign + digits)


def _named_atom(m: re.Match) -> NamedElement:
    """The named element a token match names.

    Each argument is read as generator indices are: ASCII spaces around an
    optional '-' and ASCII digits.  Leading zeros are dropped before int(),
    which refuses more than 4,300 digits; an argument it still refuses is
    bad, and the message shows its first 20 characters."""
    name, args = m.group("name"), m.group("args")
    params = []
    at = m.start("args")
    for arg in args.split(",") if args else ():
        t = _SIGNED.fullmatch(arg.strip(string.whitespace))
        try:
            if t is None:
                raise ValueError
            params.append(int(t.group(1) + t.group(2)))
        except ValueError:
            shown = f"{arg[:20]!r}..." if len(arg) > 20 else repr(arg)
            raise WordError(f"bad argument {shown} to {name} at position {at}") from None
        at += len(arg) + 1
    return NamedElement(name, tuple(params))


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse a braid word from text.

    Accepts whitespace-separated signed integers (``"1 2 -3"``), or the named
    element DSL with ``*`` concatenation, ``^e`` powers and parenthesised
    groups with a power, e.g. ``"a0^4"``, ``"delta(2,0) * D^-1"``,
    ``"(1 -2)^18 * FT"``.  Plain integers may be mixed in; a run of them is
    read in one match.  The letters of all atoms are collected as parts and
    free-reduced once; a group is reduced when it closes and then repeated.
    The parts may hold at most 2,000,000 letters: an atom or group whose
    power would pass that is an error, raised before the power is built,
    and for a catalog atom before the atom itself is built.
    Text of spaces only is the identity.
    """
    identity(n)  # a bad strand count is reported before any token
    groups: list[list[tuple[int, ...]]] = [[]]  # parts of each open group
    sizes = [0]  # letters in the parts of each open group
    opened: list[int] = []  # text position of each open parenthesis
    star = None  # text position of a '*' still waiting for its right operand
    pos = 0
    expect_atom = True
    while pos < len(text):
        atom = None  # a catalog atom, built only once it is known to fit
        start = _SPACE.match(text, pos).end()  # type: ignore[union-attr]
        c = text[start : start + 1]
        if c == "*" and not expect_atom:
            star, pos, expect_atom = start, start + 1, True
            continue
        if not c:  # nothing but spaces left
            break
        if c == "(":
            opened.append(start)
            groups.append([])
            sizes.append(0)
            star, pos, expect_atom = None, start + 1, True
            continue
        if c == ")":
            if not opened:
                raise WordError(f"unbalanced ')' at position {start}")
            if star is not None:
                raise WordError(f"dangling '*' at position {star}")
            m = _CLOSE.match(text, start)
            start = opened.pop()
            sizes.pop()
            letters, exp = _reduce(*groups.pop()), m.group("exp")  # type: ignore[union-attr]
        elif m := _INTS.match(text, pos):
            letters, exp = _free_reduce(_generator_indices(m, 1, n)), None
        else:
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise WordError(f"malformed token at {text[pos:pos + 20]!r}")
            if m.group("int") is not None:
                letters = _generator_indices(m, "int", n)
            else:
                atom = _named_atom(m)
            exp = m.group("exp")
        e = _exponent(exp)
        count = (len(letters) if atom is None else _atom_length(atom, n)) * abs(e)
        if sum(sizes) + count > _LETTER_BUDGET:
            raise WordError(f"word passes {_LETTER_BUDGET:,} letters at position {start}")
        if atom is not None and count:
            letters = std_element(atom, n).letters
        if count:
            sizes[-1] += count
            groups[-1] += _power_parts(letters, e)
        star, pos, expect_atom = None, m.end(), False  # type: ignore[union-attr]
    if star is not None:
        raise WordError(f"dangling '*' at position {star}")
    if opened:
        raise WordError(f"unbalanced '(' at position {opened[-1]}")
    # n was checked first, and every part is a checked token or catalog word, reduced.
    return _valid_word(n, _reduce(*groups[0]))
