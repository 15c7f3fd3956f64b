"""
Explicit finite groups: coset enumeration, multiplication tables, subgroup
lattices, automorphism groups, and isomorphism testing.

Everything at play here is tiny (order at most 200), so the algorithms are
deliberately elementary: HLT-style coset enumeration with deterministic scan
order for presented groups, one greedy generation walk for subgroup closure
and default generators, and generator-image backtracking for isomorphisms
and automorphisms.  The isomorphism test screens on the order histogram
alone; the search decides.  Tables are immutable once built and safe to
share.

The subgroup lattice grows by joins with cyclic subgroups of prime-power
order, each join walking on from the subgroup already known.  The outer
automorphism group is built on Inn-coset representatives, without the
whole automorphism table; its ``labels`` are the representative maps.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "CosetBudgetError",
    "SubgroupBudgetError",
    "GroupPresentation",
    "FiniteGroupTable",
    "SubgroupHandle",
    "todd_coxeter",
    "make_group",
    "sphere_three_strand_table",
    "subgroup_table",
    "subgroups",
    "structure_name",
    "is_isomorphic",
    "center",
    "derived_subgroup",
    "quotient",
    "automorphisms",
    "outer_group",
    "aut_from_gen_images",
    "hom_from_gen_images",
    "classify_action",
    "action_catalog",
    "restriction_is_surjective",
]

SUBGROUP_ORDER_BUDGET = 200
COSET_BUDGET = 100_000
# The cyclic, dihedral and dicyclic families, and automorphism groups, build
# their tables outright; one table of order 2000 takes 1-4 s and about
# 190 MB, and the cost grows with the square of the order.
FAMILY_ORDER_BUDGET = 2_000


class CosetBudgetError(RuntimeError):
    """Coset enumeration exceeded its budget; the presentation may be infinite."""


class SubgroupBudgetError(RuntimeError):
    """Group order exceeds a budget: the brute-force subgroup and automorphism
    searches, or the table size of an explicit family or an automorphism
    group."""


@dataclass(frozen=True)
class GroupPresentation:
    """Relators are words over signed generator indices in 1..ngens."""

    ngens: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.ngens < 1:
            raise ValueError("presentation needs at least one generator")
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError(f"relator letter {x} out of range")
            for a, b in zip(rel, rel[1:]):
                if a == -b:
                    raise ValueError("relators must be freely reduced")


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as an explicit multiplication table on 0..order-1.

    ``generators`` are distinguished element indices (the presentation
    generators when the table came from coset enumeration); ``words`` gives
    for every element a word over the distinguished generators reaching it.
    ``labels`` optionally carries arbitrary per-element labels, e.g. the
    underlying maps when the table is an automorphism group.
    """

    order: int
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    element_orders: tuple[int, ...]
    generators: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    presentation: GroupPresentation | None = None
    labels: tuple = ()

    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inverse[a], -e)
        out = self.identity
        for _ in range(e):
            out = self.mult[out][a]
        return out

    def conj(self, g: int, x: int) -> int:
        return self.mult[self.mult[g][x]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        return self.mult[self.mult[a][b]][self.inverse[self.mult[b][a]]]

    def eval_word(self, gen_word: Sequence[int]) -> int:
        out = self.identity
        for x in gen_word:
            g = self.generators[abs(x) - 1]
            out = self.mult[out][g if x > 0 else self.inverse[g]]
        return out

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(Counter(self.element_orders).items()))

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.mult[a][b] == self.mult[b][a] for i, a in enumerate(gens) for b in gens[:i]
        )

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the seed elements."""
        return _greedy_closure(self.mult, self.identity, seed)[1]


def _greedy_closure(
    mult: Sequence[Sequence[int]],
    identity: int,
    candidates: Iterable[int],
    start: tuple[Sequence[int], Iterable[int]] | None = None,
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Generators and elements of the subgroup the candidates generate: each
    candidate not yet reached, in the order given, becomes a generator, and
    the walk over right multiplication by the generators is extended.

    ``start`` is a subgroup already known, as the (generators, elements)
    pair this function returns; the walk goes on from it.  The elements
    reached are closed under the earlier generators, so only the new
    generator is applied to them, and every element found is walked with
    all generators."""
    known_gens, known = start if start is not None else ((), (identity,))
    gens = list(known_gens)
    reached = set(known)
    for c in candidates:
        if c in reached:
            continue
        gens.append(c)
        stack = []
        for x in list(reached):
            y = mult[x][c]
            if y not in reached:
                reached.add(y)
                stack.append(y)
        while stack:
            x = stack.pop()
            for g in gens:
                y = mult[x][g]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    return tuple(gens), frozenset(reached)


def _bfs_words(
    order: int, step: Callable[[int, int], int], gen_letters: Sequence[int], identity: int
) -> list[tuple[int, ...]]:
    """Shortest words over signed generator letters reaching every element."""
    words: list[tuple[int, ...] | None] = [None] * order
    words[identity] = ()
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        for letter in gen_letters:
            y = step(x, letter)
            if words[y] is None:
                words[y] = words[x] + (letter,)
                queue.append(y)
    if any(w is None for w in words):
        raise ValueError("distinguished generators do not generate the group")
    return words  # type: ignore[return-value]


def _finish_table(
    order: int,
    mult: list[list[int]],
    gens: Sequence[int],
    presentation: GroupPresentation | None,
    labels: tuple = (),
) -> FiniteGroupTable:
    identity = next(
        e for e in range(order) if all(mult[e][b] == b == mult[b][e] for b in range(order))
    )
    inverse = [mult[a].index(identity) for a in range(order)]
    orders = [0] * order
    for a in range(order):
        k, x = 1, a
        while x != identity:
            x = mult[x][a]
            k += 1
        orders[a] = k
    gens = tuple(gens) if gens else _greedy_closure(mult, identity, range(order))[0]
    letters = [s * (j + 1) for j in range(len(gens)) for s in (1, -1)]

    def step(x: int, letter: int) -> int:
        g = gens[abs(letter) - 1]
        return mult[x][g if letter > 0 else inverse[g]]

    words = _bfs_words(order, step, letters, identity)
    return FiniteGroupTable(
        order=order,
        mult=tuple(tuple(row) for row in mult),
        inverse=tuple(inverse),
        element_orders=tuple(orders),
        generators=gens,
        words=tuple(words),
        presentation=presentation,
        labels=labels,
        identity=identity,
    )


# ---------------------------------------------------------------------------
# Coset enumeration.
# ---------------------------------------------------------------------------


def todd_coxeter(pres: GroupPresentation, limit: int | None = None) -> FiniteGroupTable:
    """Enumerate the cosets of the trivial subgroup: the regular representation.

    HLT strategy: relators are scanned from every live coset in definition
    order, missing transitions are filled by defining new cosets, and
    coincidences are processed through a union-find.  Deterministic.  Raises
    :class:`CosetBudgetError` when more than ``limit`` cosets get defined.
    """
    limit = limit if limit is not None else COSET_BUDGET
    ng = pres.ngens
    ncols = 2 * ng

    def col(x: int) -> int:
        return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1

    rel_cols = [tuple(col(x) for x in rel) for rel in pres.relators]
    tab: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    coinc: deque[int] = deque()
    total = 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def join(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        coinc.append(b)

    def deduce(a: int, c: int, d: int) -> None:
        a, d = find(a), find(d)
        e = tab[a][c]
        if e is not None:
            join(find(e), d)
            return
        tab[a][c] = d
        f = tab[d][c ^ 1]
        if f is None:
            tab[d][c ^ 1] = a
        else:
            join(find(f), a)

    def new_coset() -> int:
        nonlocal total
        if total >= limit:
            raise CosetBudgetError(
                f"coset budget {limit} exhausted; the presentation may define an infinite group"
            )
        tab.append([None] * ncols)
        parent.append(len(tab) - 1)
        total += 1
        return len(tab) - 1

    def drain() -> None:
        while coinc:
            b = coinc.popleft()
            row = tab[b]
            for c in range(ncols):
                d = row[c]
                if d is None:
                    continue
                row[c] = None
                a = find(b)
                deduce(a, c, find(d))

    def scan_and_fill(c: int, cols: tuple[int, ...]) -> None:
        f, i = c, 0
        b, j = c, len(cols) - 1
        while True:
            while i <= j and tab[f][cols[i]] is not None:
                f = find(tab[f][cols[i]])  # type: ignore[arg-type]
                i += 1
            if i > j:
                if f != b:
                    join(f, b)
                return
            while j >= i and tab[b][cols[j] ^ 1] is not None:
                b = find(tab[b][cols[j] ^ 1])  # type: ignore[arg-type]
                j -= 1
            if j < i:
                join(f, b)
                return
            if i == j:
                deduce(f, cols[i], b)
                return
            d = new_coset()
            deduce(f, cols[i], d)
            f = find(d)
            i += 1

    idx = 0
    while idx < len(tab):
        drain()
        if find(idx) != idx:
            idx += 1
            continue
        alive = True
        for cols in rel_cols:
            scan_and_fill(idx, cols)
            drain()
            if find(idx) != idx:
                alive = False
                break
        if alive:
            for c in range(ncols):
                if find(idx) != idx:
                    break
                if tab[find(idx)][c] is None:
                    deduce(find(idx), c, new_coset())
                    drain()
        idx += 1
    drain()

    live = [c for c in range(len(tab)) if find(c) == c]
    if any(tab[c][col] is None for c in live for col in range(ncols)):
        raise CosetBudgetError("enumeration did not close; table incomplete")

    # Standardize: BFS renumbering from the identity coset over columns in order.
    root = find(0)
    number = {root: 0}
    bfs = deque([root])
    while bfs:
        c = bfs.popleft()
        for colidx in range(ncols):
            d = find(tab[c][colidx])  # type: ignore[arg-type]
            if d not in number:
                number[d] = len(number)
                bfs.append(d)
    order = len(number)
    action = [[0] * ncols for _ in range(order)]
    for c, nc in number.items():
        for colidx in range(ncols):
            action[nc][colidx] = number[find(tab[c][colidx])]  # type: ignore[arg-type]

    # Element i = coset i; multiplication traces the representative word of b.
    rep = _bfs_words(order, lambda x, letter: action[x][col(letter)],
                     [s * (g + 1) for g in range(ng) for s in (1, -1)], 0)
    mult = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            x = a
            for letter in rep[b]:
                x = action[x][col(letter)]
            mult[a][b] = x
    gens = tuple(action[0][col(g + 1)] for g in range(ng))
    return _finish_table(order, mult, gens, pres)


# ---------------------------------------------------------------------------
# Standard groups.
# ---------------------------------------------------------------------------

_PRES_BINARY_TETRAHEDRAL = GroupPresentation(
    3,
    (
        (3, 3, 3),
        (1, 1, -2, -2),
        (1, 2, -1, 2),
        (3, 1, -3, -2),
        (3, 2, -3, -2, -1),
    ),
)

_PRES_BINARY_OCTAHEDRAL = GroupPresentation(
    4,
    (
        (3, 3, 3),
        (1, 1, -2, -2),
        (2, 2, -4, -4),
        (1, 2, -1, 2),
        (3, 1, -3, -2),
        (3, 2, -3, -2, -1),
        (4, 3, -4, 3),
        (4, 1, -4, -1, -2),
        (4, 2, -4, 2),
    ),
)

_PRES_BINARY_ICOSAHEDRAL = GroupPresentation(
    2,
    (
        (1, 2, 1, 2, -1, -1, -1),
        (1, 1, 1, -2, -2, -2, -2, -2),
    ),
)

_PRES_SPHERE_THREE_STRANDS = GroupPresentation(
    2,
    (
        (1, 2, 1, -2, -1, -2),
        (1, 2, 2, 1),
    ),
)


@lru_cache(maxsize=None)
def sphere_three_strand_table() -> FiniteGroupTable:
    """The three-strand sphere braid group, finite of order 12."""
    return todd_coxeter(_PRES_SPHERE_THREE_STRANDS)


def _cyclic(q: int) -> FiniteGroupTable:
    mult = [[(a + b) % q for b in range(q)] for a in range(q)]
    pres = GroupPresentation(1, ((1,) * q,))
    return _finish_table(q, mult, (1 % q,), pres)


def _dihedral(m: int) -> FiniteGroupTable:
    # Elements (a, b) -> index a + m*b, meaning x^a y^b.
    def idx(a: int, b: int) -> int:
        return a % m + m * (b % 2)

    mult = [[0] * (2 * m) for _ in range(2 * m)]
    for a in range(m):
        for b in range(2):
            for c in range(m):
                for d in range(2):
                    e = (a + c) % m if b == 0 else (a - c) % m
                    mult[idx(a, b)][idx(c, d)] = idx(e, b + d)
    pres = GroupPresentation(2, ((1,) * m, (2, 2), (2, 1, -2, 1)))
    return _finish_table(2 * m, mult, (idx(1, 0), idx(0, 1)), pres)


def _dicyclic(m: int) -> FiniteGroupTable:
    # Elements (a, b) -> index a + 2m*b, meaning x^a y^b with y^2 = x^m.
    def idx(a: int, b: int) -> int:
        return a % (2 * m) + 2 * m * (b % 2)

    mult = [[0] * (4 * m) for _ in range(4 * m)]
    for a in range(2 * m):
        for b in range(2):
            for c in range(2 * m):
                for d in range(2):
                    if b == 0:
                        mult[idx(a, b)][idx(c, d)] = idx(a + c, d)
                    else:
                        e = a - c + (m if d == 1 else 0)
                        mult[idx(a, b)][idx(c, d)] = idx(e, b + d)
    pres = GroupPresentation(2, ((1,) * m + (-2, -2), (2, 1, -2, 1)))
    return _finish_table(4 * m, mult, (idx(1, 0), idx(0, 1)), pres)


def _perm_group(degree: int, elems: list[tuple[int, ...]], gens: list[tuple[int, ...]]) -> FiniteGroupTable:
    index = {p: i for i, p in enumerate(elems)}
    mult = [[0] * len(elems) for _ in elems]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mult[i][j] = index[tuple(q[p[k]] for k in range(degree))]
    return _finish_table(len(elems), mult, tuple(index[g] for g in gens), None, labels=tuple(elems))


def _alternating(degree: int) -> FiniteGroupTable:
    from itertools import permutations as iperm

    elems = [p for p in iperm(range(degree)) if _perm_sign(p) == 1]
    if degree == 4:
        gens = [(1, 0, 3, 2), (2, 3, 0, 1), (1, 2, 0, 3)]
    else:
        gens = [(1, 2, 0) + tuple(range(3, degree)), tuple(range(1, degree)) + (0,)]
        if _perm_sign(gens[1]) != 1:
            gens[1] = (0,) + tuple(range(2, degree)) + (1,)
    return _perm_group(degree, elems, gens)


def _symmetric(degree: int) -> FiniteGroupTable:
    from itertools import permutations as iperm

    elems = list(iperm(range(degree)))
    gens = [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]
    return _perm_group(degree, elems, gens)


def _perm_sign(p: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(p)
    for k in range(len(p)):
        if seen[k]:
            continue
        length = 0
        v = k
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


_FAMILY_SCALES = {"cyclic": 1, "dihedral": 2, "dicyclic": 4}


@lru_cache(maxsize=None)
def make_group(kind: str, param: int | None = None) -> FiniteGroupTable:
    """Build a standard group table by family tag.

    Supported kinds: ``cyclic`` (q >= 1), ``dihedral`` (order 2m, m >= 2),
    ``dicyclic`` (order 4m, m >= 2), ``klein``, ``T*``, ``O*``, ``I*``,
    ``A4``, ``S4``, ``A5``.  The first three raise
    :class:`SubgroupBudgetError` past order ``FAMILY_ORDER_BUDGET``.
    """
    scale = _FAMILY_SCALES.get(kind)
    if scale is not None and param is not None and scale * param > FAMILY_ORDER_BUDGET:
        raise SubgroupBudgetError(
            f"order {scale * param} exceeds table budget {FAMILY_ORDER_BUDGET}"
        )
    if kind == "cyclic":
        if param is None or param < 1:
            raise ValueError("cyclic group needs order >= 1")
        return _cyclic(param)
    if kind == "dihedral":
        if param is None or param < 2:
            raise ValueError("dihedral group needs m >= 2 (order 2m)")
        return _dihedral(param)
    if kind == "dicyclic":
        if param is None or param < 2:
            raise ValueError("dicyclic group needs m >= 2 (order 4m)")
        return _dicyclic(param)
    if kind == "klein":
        return _dihedral(2)
    if kind == "T*":
        return todd_coxeter(_PRES_BINARY_TETRAHEDRAL)
    if kind == "O*":
        return todd_coxeter(_PRES_BINARY_OCTAHEDRAL)
    if kind == "I*":
        return todd_coxeter(_PRES_BINARY_ICOSAHEDRAL)
    if kind == "A4":
        return _alternating(4)
    if kind == "A5":
        return _alternating(5)
    if kind == "S4":
        return _symmetric(4)
    raise ValueError(f"unknown group family {kind!r}")


# ---------------------------------------------------------------------------
# Subgroups, quotients, isomorphism.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as an element-index set, with classification flags."""

    elements: frozenset[int]
    normal: bool
    name: str
    unique_of_class: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def _is_normal(G: FiniteGroupTable, elems: frozenset[int]) -> bool:
    """Whether gNg^-1 lies in N for every generator g.  Conjugation by g then
    maps N into N injectively, hence onto it, so all of G normalizes N."""
    return all(G.conj(g, x) in elems for g in G.generators for x in elems)


@lru_cache(maxsize=None)
def _all_subgroup_sets(G: FiniteGroupTable) -> tuple[frozenset[int], ...]:
    """Every subgroup, grown from the trivial one by joins with cyclic
    subgroups of prime-power order.

    Each element is a product of powers of itself of prime-power order, so
    every subgroup is reached by a chain of such joins.  A join walks on from
    the subgroup already known and its recorded generators.
    """
    if G.order > SUBGROUP_ORDER_BUDGET:
        raise SubgroupBudgetError(f"order {G.order} exceeds subgroup budget {SUBGROUP_ORDER_BUDGET}")
    # One generator for each cyclic subgroup of prime-power order.
    roots = {G.closure([x]): x for x, k in enumerate(G.element_orders) if _is_prime_power(k)}
    trivial = frozenset([G.identity])
    subs = {trivial: ((), trivial)}
    frontier = list(subs.values())
    while frontier:
        new = []
        for known in frontier:
            for x in roots.values():
                if x in known[1]:
                    continue
                join = _greedy_closure(G.mult, G.identity, (x,), known)
                if join[1] not in subs:
                    subs[join[1]] = join
                    new.append(join)
        frontier = new
    return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))


def _is_prime_power(k: int) -> bool:
    """Whether k is p^e for a prime p and e >= 1."""
    if k < 2:
        return False
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return k == 1


def subgroup_table(G: FiniteGroupTable, elems: frozenset[int]) -> FiniteGroupTable:
    """The subgroup on the given element set as a standalone table."""
    order = sorted(elems)
    index = {e: i for i, e in enumerate(order)}
    mult = [[index[G.mult[a][b]] for b in order] for a in order]
    return _finish_table(len(order), mult, (), None, labels=tuple(order))


@lru_cache(maxsize=None)
def subgroups(G: FiniteGroupTable) -> tuple[SubgroupHandle, ...]:
    """All subgroups, labeled by isomorphism class and normality."""
    sets = _all_subgroup_sets(G)
    names = [structure_name(subgroup_table(G, s)) if len(s) < G.order else structure_name(G)
             for s in sets]
    counts = Counter(names)
    return tuple(
        SubgroupHandle(s, _is_normal(G, s), name, counts[name] == 1)
        for s, name in zip(sets, names)
    )


def center(G: FiniteGroupTable) -> SubgroupHandle:
    elems = frozenset(
        a for a in range(G.order) if all(G.mult[a][g] == G.mult[g][a] for g in G.generators)
    )
    return SubgroupHandle(elems, True, structure_name(subgroup_table(G, elems)), True)


def derived_subgroup(G: FiniteGroupTable) -> frozenset[int]:
    return G.closure(
        G.commutator(a, b) for a in range(G.order) for b in range(G.order)
    )


def quotient(G: FiniteGroupTable, N: SubgroupHandle | frozenset[int]) -> FiniteGroupTable:
    """The quotient by a normal subgroup, as a coset multiplication table."""
    elems = N.elements if isinstance(N, SubgroupHandle) else N
    if not _is_normal(G, elems):
        raise ValueError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for a in range(G.order):
        if a in coset_of:
            continue
        rep = len(reps)
        for x in elems:
            coset_of[G.mult[a][x]] = rep
        reps.append(a)
    k = len(reps)
    mult = [[coset_of[G.mult[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    gens = tuple(sorted({coset_of[g] for g in G.generators} - {coset_of[G.identity]}))
    return _finish_table(k, mult, gens if gens else (), None, labels=tuple(reps))


def _extend_map(
    G: FiniteGroupTable, H: FiniteGroupTable, gens: Sequence[int], images: Sequence[int]
) -> tuple[int, ...] | None:
    """The homomorphism G -> H sending gens to images, as the tuple of the
    images of 0..|G|-1; None when the images conflict or gens do not
    generate G.  Every edge x -> x g is checked, which is the proof."""
    phi: list[int | None] = [None] * G.order
    phi[G.identity] = H.identity
    stack = [G.identity]
    while stack:
        x = stack.pop()
        for g, h in zip(gens, images):
            y, im = G.mult[x][g], H.mult[phi[x]][h]  # type: ignore[index]
            if phi[y] is None:
                phi[y] = im
                stack.append(y)
            elif phi[y] != im:
                return None
    return None if None in phi else tuple(phi)  # type: ignore[arg-type]


def hom_from_gen_images(F: FiniteGroupTable, G: FiniteGroupTable, images: Sequence[int]) -> tuple[int, ...]:
    """The homomorphism F -> G with the given generator images, as a map."""
    phi = _extend_map(F, G, F.generators, tuple(images))
    if phi is None:
        raise ValueError("generator images do not define a homomorphism")
    return phi


def aut_from_gen_images(G: FiniteGroupTable, images: Sequence[int]) -> tuple[int, ...]:
    """The automorphism sending the distinguished generators to ``images``."""
    phi = _extend_map(G, G, G.generators, images)
    if phi is None or len(set(phi)) != G.order:
        raise ValueError("generator images do not define an automorphism")
    return phi


def _isomorphisms(G: FiniteGroupTable, H: FiniteGroupTable) -> Iterator[tuple[int, ...]]:
    """Every isomorphism G -> H, in lexicographic order of the images of
    greedy generators g_1..g_k of G.

    Images are chosen depth first.  An isomorphism preserves the order of
    every element and of every product, so h_i is kept only when it has the
    order of g_i and ord(g_j g_i) = ord(h_j h_i) for every earlier j (g_i g_j
    is conjugate to g_j g_i, so its order adds nothing).  Each complete
    choice is then extended and checked to be a bijective homomorphism,
    which is the proof.
    """
    if G.order != H.order:
        return
    gens = _greedy_closure(G.mult, G.identity, range(G.order))[0]
    go, ho = G.element_orders, H.element_orders
    pools = [[h for h in range(H.order) if ho[h] == go[g]] for g in gens]
    images: list[int] = []

    def choose(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(gens):
            phi = _extend_map(G, H, gens, images)
            if phi is not None and len(set(phi)) == G.order:
                yield phi
            return
        g = gens[i]
        for h in pools[i]:
            if all(go[G.mult[gj][g]] == ho[H.mult[hj][h]] for gj, hj in zip(gens, images)):
                images.append(h)
                yield from choose(i + 1)
                images.pop()

    yield from choose(0)


@lru_cache(maxsize=None)
def is_isomorphic(G: FiniteGroupTable, H: FiniteGroupTable) -> bool:
    """Screen on the order histograms, then search: a found isomorphism is the proof."""
    if G.order_histogram() != H.order_histogram():
        return False
    return next(_isomorphisms(G, H), None) is not None


def _abelian_invariants(G: FiniteGroupTable) -> tuple[int, ...]:
    """Cyclic invariant factors of an abelian table, largest first."""
    table = G
    factors: list[int] = []
    while table.order > 1:
        a = max(range(table.order), key=lambda e: (table.element_orders[e], -e))
        factors.append(table.element_orders[a])
        table = quotient(table, SubgroupHandle(frozenset(table.closure([a])), True, "", True))
    return tuple(factors)


def _index_two_cyclic(G: FiniteGroupTable) -> tuple[int, int] | None:
    """x, the first element of order |G|/2, and y, the first element outside
    <x>; None when no element has order |G|/2 (or |G| is odd)."""
    if G.order % 2 or G.order // 2 not in G.element_orders:
        return None
    x = G.element_orders.index(G.order // 2)
    cyc = G.closure([x])
    return x, next(e for e in range(G.order) if e not in cyc)


@lru_cache(maxsize=None)
def structure_name(G: FiniteGroupTable) -> str:
    """A human name for the isomorphism class (order at most 200)."""
    n = G.order
    if n == 1:
        return "1"
    if max(G.element_orders) == n:
        return f"Z{n}"
    if G.is_abelian():
        return " x ".join(f"Z{f}" for f in _abelian_invariants(G))
    # Dicyclic: y^2 = x^(n/4) and y x y^-1 = x^-1; dihedral: y of order 2
    # and y x y^-1 = x^-1.
    pair = _index_two_cyclic(G)
    if pair is not None:
        x, y = pair
        if G.conj(y, x) == G.inverse[x]:
            m = n // 4
            if n % 4 == 0 and G.mult[y][y] == G.pow(x, m):
                return f"Q{n}" if m & (m - 1) == 0 else f"Dic{n}"
            if G.element_orders[y] == 2:
                return f"Dih{n}"
    for ref_kind in _REFS_BY_ORDER.get(n, ()):
        if is_isomorphic(G, make_group(ref_kind)):
            return ref_kind
    return f"G{n}?"


_REFS_BY_ORDER = {
    12: ("A4",),
    24: ("T*", "S4"),
    48: ("O*",),
    60: ("A5",),
    120: ("I*",),
}


# ---------------------------------------------------------------------------
# Automorphisms.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _aut_maps(G: FiniteGroupTable) -> tuple[tuple[int, ...], ...]:
    if G.order > SUBGROUP_ORDER_BUDGET:
        raise SubgroupBudgetError(f"order {G.order} exceeds automorphism budget")
    return tuple(sorted(_isomorphisms(G, G)))


def _compose_maps(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """Apply f first, then g."""
    return tuple(g[f[x]] for x in range(len(f)))


def _invert_map(f: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y] = x
    return tuple(out)


@lru_cache(maxsize=None)
def automorphisms(G: FiniteGroupTable) -> FiniteGroupTable:
    """The automorphism group; element labels carry the underlying maps.

    An automorphism is fixed by the images of the distinguished generators
    (for the trivial group, of the identity), so maps are composed and
    looked up on those images only.  Raises :class:`SubgroupBudgetError`
    before building a table of order past ``FAMILY_ORDER_BUDGET``.
    """
    maps = _aut_maps(G)
    if len(maps) > FAMILY_ORDER_BUDGET:
        raise SubgroupBudgetError(
            f"order {len(maps)} of the automorphism group exceeds table budget "
            f"{FAMILY_ORDER_BUDGET}"
        )
    gens = G.generators or (G.identity,)
    index = {k: i for i, k in enumerate(map(itemgetter(*gens), maps))}
    mult = [[index[k] for k in map(itemgetter(*[a[g] for g in gens]), maps)] for a in maps]
    return _finish_table(len(maps), mult, (), None, labels=maps)


@lru_cache(maxsize=None)
def _inner_maps(G: FiniteGroupTable) -> frozenset[tuple[int, ...]]:
    """The conjugation maps x -> g x g^-1, as whole maps."""
    return frozenset(tuple(G.conj(g, x) for x in range(G.order)) for g in range(G.order))


def outer_group(G: FiniteGroupTable) -> FiniteGroupTable:
    """Aut modulo the inner automorphisms, built on coset representatives.

    Each automorphism is keyed by its images of the distinguished generators.
    The automorphisms are walked in sorted order, and the first one of each
    Inn-coset is its representative: every i∘a with i inner is keyed to the
    new coset.  Representatives multiply by composing them on the generator
    images (apply the row's map first).  ``labels`` holds the representative
    maps, so the whole Aut table is never built.
    """
    gens = G.generators or (G.identity,)
    inner = _inner_maps(G)
    coset_of: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    rep_keys: list[tuple[int, ...]] = []
    for a in _aut_maps(G):
        key = tuple(a[g] for g in gens)
        if key in coset_of:
            continue
        for i in inner:
            coset_of[tuple(i[y] for y in key)] = len(reps)
        reps.append(a)
        rep_keys.append(key)
    mult = [[coset_of[tuple(b[y] for y in key)] for b in reps] for key in rep_keys]
    return _finish_table(len(reps), mult, (), None, labels=tuple(reps))


def same_semidirect_class(G: FiniteGroupTable, a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the infinite semidirect products twisted by a and b agree.

    The isomorphism class depends only on the outer class of the twisting
    automorphism, up to inversion and conjugation in the outer group.
    """
    inner = _inner_maps(G)
    b_inv = _invert_map(b)
    for c in _aut_maps(G):
        cac = _compose_maps(_compose_maps(c, tuple(a)), _invert_map(c))
        if (_compose_maps(cac, b_inv) in inner
                or _compose_maps(_invert_map(cac), b_inv) in inner):
            return True
    return False


def action_catalog(G: FiniteGroupTable) -> dict[str, tuple[int, ...]]:
    """Named action representatives on a standard table, by family."""
    name = structure_name(G)
    out: dict[str, tuple[int, ...]] = {"trivial": tuple(range(G.order))}
    if G.order == 1:
        return out
    x = G.generators[0]
    if name.startswith("Z") and " x " not in name:
        if G.order >= 3:
            out["rho"] = aut_from_gen_images(G, (G.inverse[x],))
        return out
    y = G.generators[1]
    if name == "Q8":
        out["alpha"] = aut_from_gen_images(G, (y, G.mult[x][y]))
        out["beta"] = aut_from_gen_images(G, (G.mult[x][y], G.inverse[y]))
        return out
    if name == "Z2 x Z2":
        out["alpha~"] = aut_from_gen_images(G, (y, G.mult[x][y]))
        out["beta~"] = aut_from_gen_images(G, (G.mult[x][y], y))
        return out
    if name.startswith(("Dic", "Q", "Dih")):
        # The distinguished generators need not be the family's x, y (B3's
        # are not), so take the x, y on which structure_name checked the
        # relations.
        x, y = _index_two_cyclic(G)  # type: ignore[misc]
        tag = "nu~" if name.startswith("Dih") else "nu"
        out[tag] = _extend_map(G, G, (x, y), (x, G.mult[x][y]))  # type: ignore[assignment]
        return out
    if name == "T*":
        p, q, xx = G.generators
        out["omega"] = aut_from_gen_images(G, (G.mult[q][p], G.inverse[q], G.inverse[xx]))
        return out
    if name == "A4":
        a, b, t = G.generators
        out["omega~"] = aut_from_gen_images(G, (G.mult[a][b], b, G.inverse[t]))
        return out
    return out


def classify_action(G: FiniteGroupTable, aut: Sequence[int]) -> str:
    """Match an automorphism against the named actions of its family.

    Equality is up to the semidirect-product equivalence (outer class up to
    inversion and outer conjugation); returns ``"uncataloged"`` on no match.
    """
    for tag, rep in action_catalog(G).items():
        if same_semidirect_class(G, tuple(aut), rep):
            return tag
    return "uncataloged"


def restriction_is_surjective(G: FiniteGroupTable, sub: frozenset[int]) -> bool:
    """Whether every automorphism of the subgroup extends to one of G
    preserving it (checked by direct search)."""
    order = sorted(sub)
    index = {e: i for i, e in enumerate(order)}
    restrictions: set[tuple[int, ...]] = set()
    for m in _aut_maps(G):
        if all(m[e] in sub for e in sub):
            restrictions.add(tuple(index[m[e]] for e in order))
    H = subgroup_table(G, sub)
    return len(restrictions) == len(_aut_maps(H))
