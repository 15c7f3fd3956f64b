"""
Explicit finite groups: coset enumeration, multiplication tables, subgroup
lattices, automorphism groups, and isomorphism testing.

Everything at play here is small (every table, and so every subgroup
lattice and automorphism group, has order at most 2,000), so the algorithms
are deliberately elementary: HLT-style coset enumeration with deterministic
scan order for presented groups, one greedy generation walk for subgroup
closure and default generators, and one generator-image backtracking search
for isomorphisms and automorphisms.  The isomorphism test screens on the
order histogram alone; the search decides.  Tables are immutable once built
and safe to share.

Standard groups come from two constructors.  The cyclic, dihedral and
dicyclic families share one builder on the elements x^a y^b, and the Klein
group is the dihedral table at m = 2.  The six fixed groups (T*, O*, I*, A4,
S4, A5) come from coset enumeration, so every catalog table carries its
presentation.  The catalog names are kept here too: ``named_group`` turns
every name the engine prints (``Z<q>``, ``Dih<2m>``, ``Dic<4m>`` or
``Q<4m>``, ``Z2xZ2``, the fixed groups) back into its table, and
``dicyclic_name`` is the one rule that calls a dicyclic group of 2-power
order generalised quaternion.

The subgroup lattice grows by joins with cyclic subgroups of prime-power
order, each join walking on from the subgroup already known.  Each
subgroup is named in place, from the parent's element orders, products and
closures, by the rule ``structure_name`` applies to a whole table; only a
subgroup that reaches the catalog isomorphism search is built as a table.
Aut and Out come from the isomorphism search itself, keyed by generator
images; a key already in a found Inn-coset is skipped unextended, and Aut
is the union of those cosets.  Their tables are composed by lookup: the
product of two representatives is keyed by one representative read at the
other's generator images.  Out keeps one representative map per coset as
its ``labels``, and outer-class questions (``same_semidirect_class``) are
read off its table.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Collection, Container, Iterable, Iterator, Sequence

__all__ = [
    "CosetBudgetError",
    "SubgroupBudgetError",
    "GroupPresentation",
    "FiniteGroupTable",
    "SubgroupHandle",
    "todd_coxeter",
    "make_group",
    "named_group",
    "dicyclic_name",
    "sphere_three_strand_table",
    "subgroup_table",
    "subgroups",
    "structure_name",
    "is_isomorphic",
    "center",
    "quotient",
    "automorphisms",
    "outer_group",
    "same_semidirect_class",
    "aut_from_gen_images",
    "hom_from_gen_images",
    "classify_action",
    "action_catalog",
    "restriction_is_surjective",
]

COSET_BUDGET = 100_000
# The one bound on a table.  The cyclic, dihedral and dicyclic families, and
# automorphism groups, build their tables outright; every other table is a
# subgroup or quotient of one of these or a presented group of order at most
# 120, so subgroup lattices need no bound of their own.  One table of order
# 2000 takes 1-4 s and about 190 MB, and the cost grows with the square of
# the order.
FAMILY_ORDER_BUDGET = 2_000


class CosetBudgetError(RuntimeError):
    """Coset enumeration exceeded its budget; the presentation may be infinite."""


class SubgroupBudgetError(RuntimeError):
    """A family table or an automorphism group would pass
    ``FAMILY_ORDER_BUDGET`` elements."""


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
        """a^e, for any integer e: e is first reduced modulo the order of a,
        which also makes it non-negative."""
        out = self.identity
        for _ in range(e % self.element_orders[a]):
            out = self.mult[out][a]
        return out

    def conj(self, g: int, x: int) -> int:
        return self.mult[self.mult[g][x]][self.inverse[g]]

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
    mult: Sequence[Sequence[int]], identity: int, candidates: Iterable[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Generators and elements of the subgroup the candidates generate: each
    candidate not yet reached, in the order given, becomes a generator, and
    the walk over right multiplication by the generators is extended."""
    gens: list[int] = []
    reached: frozenset[int] = frozenset([identity])
    for c in candidates:
        if c not in reached:
            gens.append(c)
            reached = _adjoin(mult, gens, reached)  # type: ignore[assignment]
    return tuple(gens), reached


def _adjoin(
    mult: Sequence[Sequence[int]],
    gens: Sequence[int],
    known: frozenset[int],
    stop: frozenset[int] = frozenset(),
) -> frozenset[int] | None:
    """The subgroup generated by ``known`` and ``gens[-1]``, where ``known``
    is a subgroup closed under ``gens[:-1]``; None as soon as the walk
    reaches an element of ``stop`` outside ``known``.

    The elements of ``known`` are closed under the earlier generators, so
    only the new generator is applied to them, and every element found is
    walked with all generators."""
    new = gens[-1]
    reached = set(known)
    stack = []
    for x in known:
        y = mult[x][new]
        if y not in reached:
            if y in stop:
                return None
            reached.add(y)
            stack.append(y)
    while stack:
        x = stack.pop()
        for g in gens:
            y = mult[x][g]
            if y not in reached:
                if y in stop:
                    return None
                reached.add(y)
                stack.append(y)
    return frozenset(reached)


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


def todd_coxeter(pres: GroupPresentation) -> FiniteGroupTable:
    """Enumerate the cosets of the trivial subgroup: the regular representation.

    HLT strategy: relators are scanned from every live coset in definition
    order, missing transitions are filled by defining new cosets, and
    coincidences are processed through a union-find.  Deterministic.  Raises
    :class:`CosetBudgetError` when more than ``COSET_BUDGET`` cosets get
    defined.
    """
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
        if total >= COSET_BUDGET:
            raise CosetBudgetError(
                f"coset budget {COSET_BUDGET} exhausted; the presentation may define an infinite group"
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

# O* on T*'s generators and a fourth, with T*'s relators and the four that
# involve the fourth generator.
_PRES_BINARY_OCTAHEDRAL = GroupPresentation(
    4,
    _PRES_BINARY_TETRAHEDRAL.relators + (
        (2, 2, -4, -4),
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

# The rotation groups, on permutation generators: A4 on a = (01)(23),
# b = (02)(13), t = (012); S4 on s = (01), c = (0123); A5 on x = (012),
# y = (01234).  Each name maps to (order, presentation); ``structure_name``
# reads the orders.  Klein is not here: it is the dihedral table at m = 2.
_PRESENTED = {
    "T*": (24, _PRES_BINARY_TETRAHEDRAL),
    "O*": (48, _PRES_BINARY_OCTAHEDRAL),
    "I*": (120, _PRES_BINARY_ICOSAHEDRAL),
    "A4": (12, GroupPresentation(
        3, ((1, 1), (2, 2), (1, 2, 1, 2), (3, 3, 3), (3, 1, -3, -2), (3, 2, -3, -2, -1))
    )),
    "S4": (24, GroupPresentation(2, ((1, 1), (2, 2, 2, 2), (1, 2, 1, 2, 1, 2)))),
    "A5": (60, GroupPresentation(2, ((1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 2, 1, 2, 2)))),
}


@lru_cache(maxsize=None)
def sphere_three_strand_table() -> FiniteGroupTable:
    """The three-strand sphere braid group, finite of order 12."""
    return todd_coxeter(_PRES_SPHERE_THREE_STRANDS)


def _family(k: int, s: int | None) -> FiniteGroupTable:
    """Z_k when ``s`` is None; otherwise the group of order 2k on x of order
    k and y with y x y^-1 = x^-1 and y^2 = x^s: dihedral for s = 0 and
    dicyclic for s = k/2.  x^a y^b sits at index a + k*b."""
    sums = [[(a + c) % k for c in range(k)] for a in range(k)]
    if s is None:
        return _finish_table(k, sums, (1 % k,), GroupPresentation(1, ((1,) * k,)))
    # x^a y x^c = x^(a-c) y, and x^a y x^c y = x^(a-c+s).
    diffs = [[(a - c) % k for c in range(k)] for a in range(k)]
    mult = ([row + [e + k for e in row] for row in sums]
            + [[e + k for e in row] + [(e + s) % k for e in row] for row in diffs])
    powers = ((1,) * s + (-2, -2),) if s else ((1,) * k, (2, 2))
    return _finish_table(2 * k, mult, (1, k), GroupPresentation(2, powers + ((2, 1, -2, 1),)))


# kind -> (name prefixes, order per unit of the parameter, least parameter,
# error message).
_FAMILIES = {
    "cyclic": (("Z",), 1, 1, "cyclic group needs order >= 1"),
    "dihedral": (("Dih",), 2, 2, "dihedral group needs m >= 2 (order 2m)"),
    "dicyclic": (("Dic", "Q"), 4, 2, "dicyclic group needs m >= 2 (order 4m)"),
}


@lru_cache(maxsize=None)
def _presented_table(kind: str) -> FiniteGroupTable:
    """One coset enumeration per presented kind, whatever ``make_group``'s
    arguments were: its cache keys ``(kind)`` and ``(kind, None)`` apart."""
    return todd_coxeter(_PRESENTED[kind][1])


@lru_cache(maxsize=None)
def make_group(kind: str, param: int | None = None) -> FiniteGroupTable:
    """Build a standard group table by family tag.

    Supported kinds: ``cyclic`` (q >= 1), ``dihedral`` (order 2m, m >= 2),
    ``dicyclic`` (order 4m, m >= 2), ``klein``, ``T*``, ``O*``, ``I*``,
    ``A4``, ``S4``, ``A5``.  The three index-2 families share one builder
    on x^a y^b and raise :class:`SubgroupBudgetError` past order
    ``FAMILY_ORDER_BUDGET``; ``klein`` is the dihedral table at m = 2.  The
    six fixed groups come from coset enumeration, so every table carries
    its presentation.  ``klein`` and the fixed groups take no parameter:
    one other than None raises ``ValueError``.
    """
    if param is not None and (kind == "klein" or kind in _PRESENTED):
        raise ValueError(f"{kind} takes no parameter, got {param!r}")
    if kind == "klein":
        return make_group("dihedral", 2)
    if kind in _PRESENTED:
        return _presented_table(kind)
    if kind not in _FAMILIES:
        raise ValueError(f"unknown group family {kind!r}")
    _, scale, least, message = _FAMILIES[kind]
    if param is not None and scale * param > FAMILY_ORDER_BUDGET:
        raise SubgroupBudgetError(
            f"order {scale * param} exceeds table budget {FAMILY_ORDER_BUDGET}"
        )
    if param is None or param < least:
        raise ValueError(message)
    if scale == 1:
        return _family(param, None)
    return _family(scale * param // 2, param if scale == 4 else 0)


def dicyclic_name(order: int) -> str:
    """``Q<order>`` when the order is a power of two (the generalised
    quaternion groups), ``Dic<order>`` otherwise."""
    return f"Q{order}" if order & (order - 1) == 0 else f"Dic{order}"


def named_group(name: str) -> FiniteGroupTable:
    """The catalog table a name stands for.

    Takes every name the classifier prints for a finite group (``1``,
    ``Z<q>``, ``Dih<2m>``, ``Dic<4m>``, ``Q<4m>``, ``Z2xZ2``, ``T*``, ``O*``,
    ``I*``, ``A4``, ``S4``, ``A5``), so also every name ``structure_name``
    gives a cyclic, dihedral, dicyclic or fixed table, plus ``klein`` and
    ``B3`` (the three-strand sphere braid group).  ``Z2xZ2`` and ``klein``
    name the dihedral table at m = 2.  ``Dic`` and ``Q`` both take any order
    divisible by 4.  Raises ``ValueError`` on any other name.
    """
    if name == "B3":
        return sphere_three_strand_table()
    if name in _PRESENTED:
        return make_group(name)
    if name in ("Z2xZ2", "klein"):
        return make_group("dihedral", 2)
    if name == "1":
        return make_group("cyclic", 1)
    for kind, (prefixes, scale, _, _) in _FAMILIES.items():
        for prefix in prefixes:
            digits = name[len(prefix):]
            if name.startswith(prefix) and digits.isdigit():
                order = int(digits)
                if order % scale:
                    raise ValueError(f"order {order} is not a multiple of {scale} for {prefix}")
                return make_group(kind, order // scale)
    raise ValueError(f"unknown group tag {name!r}")


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


def _all_subgroup_sets(G: FiniteGroupTable) -> tuple[frozenset[int], ...]:
    """Every subgroup, each reached once, by canonical augmentation (McKay,
    J. Algorithms 26, 1998) over the roots r_0, ..., r_{R-1}: one generator
    for each cyclic subgroup of prime-power order.

    Every element is a product of powers of itself of prime-power order, so
    a subgroup H is generated by the roots it contains.  H's canonical chain
    starts from the trivial group, and each step joins the lowest-index root
    of H outside the subgroup reached so far.  The indices along the chain
    strictly increase, and no step reaches a root of lower index outside its
    parent.  So the walk records the index m(K) of the root that made each
    subgroup K (-1 for the trivial group), joins K only with the roots r_j,
    j > m(K), outside K, and stops a join as soon as it reaches a root r_i
    with i < j: that root lies outside K, so the join is not canonical and
    is reached from its own canonical parent.  The canonical chain of every
    subgroup survives both cuts, and every other path is stopped.
    """
    roots = list(
        {G.closure([x]): x for x, k in enumerate(G.element_orders) if _is_prime_power(k)}.values()
    )
    earlier = [frozenset(roots[:j]) for j in range(len(roots))]
    found = []
    stack: list[tuple[tuple[int, ...], frozenset[int], int]] = [
        ((), frozenset([G.identity]), -1)
    ]
    while stack:
        gens, known, m = stack.pop()
        found.append(known)
        for j in range(m + 1, len(roots)):
            if roots[j] in known:
                continue
            join_gens = gens + (roots[j],)
            join = _adjoin(G.mult, join_gens, known, earlier[j])
            if join is not None:
                stack.append((join_gens, join, j))
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def _is_prime_power(k: int) -> bool:
    """Whether k is p^e for a prime p and e >= 1."""
    if k < 2:
        return False
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return k == 1


def _check_subgroup(G: FiniteGroupTable, elems: Collection[int]) -> None:
    if G.closure(elems) != elems:
        raise ValueError("element set is not a subgroup")


def subgroup_table(G: FiniteGroupTable, elems: frozenset[int]) -> FiniteGroupTable:
    """The subgroup on the given element set as a standalone table; raises
    ``ValueError`` when the set is not a subgroup."""
    _check_subgroup(G, elems)
    order = sorted(elems)
    index = {e: i for i, e in enumerate(order)}
    mult = [[index[G.mult[a][b]] for b in order] for a in order]
    return _finish_table(len(order), mult, (), None, labels=tuple(order))


@lru_cache(maxsize=None)
def subgroups(G: FiniteGroupTable) -> tuple[SubgroupHandle, ...]:
    """All subgroups, labeled by isomorphism class and normality."""
    sets = _all_subgroup_sets(G)
    names = [_name(G, s) for s in sets]
    counts = Counter(names)
    return tuple(
        SubgroupHandle(s, _is_normal(G, s), name, counts[name] == 1)
        for s, name in zip(sets, names)
    )


def center(G: FiniteGroupTable) -> SubgroupHandle:
    elems = frozenset(
        a for a in range(G.order) if all(G.mult[a][g] == G.mult[g][a] for g in G.generators)
    )
    return SubgroupHandle(elems, True, _name(G, elems), True)


def quotient(G: FiniteGroupTable, N: SubgroupHandle | frozenset[int]) -> FiniteGroupTable:
    """The quotient by a normal subgroup, as a coset multiplication table;
    raises ``ValueError`` when N is not a subgroup or not normal."""
    elems = N.elements if isinstance(N, SubgroupHandle) else N
    _check_subgroup(G, elems)
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
    images of 0..|G|-1; None when there is not one image per generator, an
    image is not an element of H, the images conflict, or gens do not
    generate G.  Every edge x -> x g is checked, which is the proof."""
    if len(images) != len(gens) or not all(0 <= h < H.order for h in images):
        return None
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


def _is_automorphism(G: FiniteGroupTable, m: Sequence[int]) -> bool:
    """Whether the map m is a permutation of G that extends its own images of
    the distinguished generators, which proves it an automorphism."""
    m = tuple(m)
    return sorted(m) == list(range(G.order)) and m == _extend_map(
        G, G, G.generators, [m[g] for g in G.generators])


def _isomorphisms(
    G: FiniteGroupTable, H: FiniteGroupTable, skip: Container[tuple[int, ...]] = ()
) -> Iterator[tuple[int, ...]]:
    """Every isomorphism G -> H whose images of the distinguished generators
    (of the identity, for a table without generators) are not in ``skip``,
    in lexicographic order of those images.

    Images are chosen depth first.  An isomorphism preserves the order of
    every element and of every product, so h_i is kept only when it has the
    order of g_i and ord(g_j g_i) = ord(h_j h_i) for every earlier j (g_i g_j
    is conjugate to g_j g_i, so its order adds nothing).  A complete choice
    is looked up in ``skip``, which the caller may grow between yields, and
    otherwise extended and checked to be a bijective homomorphism, which is
    the proof.  Every element indexed before g_i is a word in g_1..g_(i-1)
    on the family, coset-enumerated and greedy-generated tables, so there
    this order is also the sorted order of the whole maps.
    """
    if G.order != H.order:
        return
    gens = G.generators or (G.identity,)
    go, ho = G.element_orders, H.element_orders
    pools = [[h for h in range(H.order) if ho[h] == go[g]] for g in gens]
    images: list[int] = []

    def choose(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(gens):
            if tuple(images) in skip:
                return
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


def is_isomorphic(G: FiniteGroupTable, H: FiniteGroupTable) -> bool:
    """Screen on the order histograms, then search: a found isomorphism is the proof."""
    if G.order_histogram() != H.order_histogram():
        return False
    return next(_isomorphisms(G, H), None) is not None


def _abelian_invariants(hist: Counter[int]) -> tuple[int, ...]:
    """Invariant factors, largest first, of the abelian group whose element
    orders are counted in ``hist``.

    For a prime p, if the p-part is the product of cyclic groups of orders
    p^e_i, the elements of order dividing p^k number p^s_k with s_k the sum
    of min(k, e_i); so s_k - s_(k-1) of the e_i are at least k.  The j-th
    invariant factor is the product over p of p to the j-th largest e_i."""
    n, p = sum(hist.values()), 2
    factors: list[int] = []
    while n > 1:
        if n % p:
            p += 1
            continue
        while n % p == 0:
            n //= p
        at_least, s_prev, q = [], 0, p
        while True:
            count, s = sum(c for k, c in hist.items() if q % k == 0), 0
            while count > 1:
                count //= p
                s += 1
            if s == s_prev:
                break
            at_least.append(s - s_prev)
            s_prev, q = s, q * p
        factors += [1] * (at_least[0] - len(factors))
        for j in range(at_least[0]):
            factors[j] *= p ** sum(1 for r in at_least if r > j)
    return tuple(factors)


def _index_two_cyclic(
    G: FiniteGroupTable, elems: Collection[int] | None = None
) -> tuple[int, int] | None:
    """In the subgroup on ``elems`` (all of G when None): x, its least
    element of order |elems|/2, and y, its least element outside <x>; None
    when no element has that order (or |elems| is odd)."""
    elems = range(G.order) if elems is None else elems
    n = len(elems)
    if n % 2:
        return None
    orders = G.element_orders
    x = min((e for e in elems if orders[e] == n // 2), default=None)
    if x is None:
        return None
    cyc = G.closure([x])
    return x, min(e for e in elems if e not in cyc)


def _name(G: FiniteGroupTable, elems: Collection[int]) -> str:
    """The name of the subgroup on ``elems``, read off G's own element
    orders, products and closures: a catalog name, the abelian invariants,
    or ``G<order>?``.

    The least element of each order stands for the subgroup's own least
    index, as it would in its standalone table, so the names are those of
    ``structure_name(subgroup_table(G, elems))``.  A subgroup is built as
    a table only when it reaches the catalog isomorphism search with the
    order histogram of a presented group."""
    n = len(elems)
    if n == 1:
        return "1"
    hist = Counter(G.element_orders[e] for e in elems)
    if n in hist:
        return f"Z{n}"
    gens = _greedy_closure(G.mult, G.identity, elems)[0]
    if all(G.mult[a][b] == G.mult[b][a] for i, a in enumerate(gens) for b in gens[:i]):
        return " x ".join(f"Z{f}" for f in _abelian_invariants(hist))
    # Dicyclic: y^2 = x^(n/4) and y x y^-1 = x^-1; dihedral: y of order 2
    # and y x y^-1 = x^-1.
    pair = _index_two_cyclic(G, elems)
    if pair is not None:
        x, y = pair
        if G.conj(y, x) == G.inverse[x]:
            if n % 4 == 0 and G.mult[y][y] == G.pow(x, n // 4):
                return dicyclic_name(n)
            if G.element_orders[y] == 2:
                return f"Dih{n}"
    histogram = tuple(sorted(hist.items()))
    for kind, (order, _) in _PRESENTED.items():
        if order == n and histogram == make_group(kind).order_histogram():
            table = G if n == G.order else subgroup_table(G, elems)
            if is_isomorphic(table, make_group(kind)):
                return kind
    return f"G{n}?"


@lru_cache(maxsize=None)
def structure_name(G: FiniteGroupTable) -> str:
    """A human name for the isomorphism class: a catalog name, the abelian
    invariants, or ``G<order>?``.  The subgroup names of ``subgroups`` come
    from the same rule, applied in place."""
    return _name(G, range(G.order))


# ---------------------------------------------------------------------------
# Automorphisms.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _aut_cosets(G: FiniteGroupTable, inner: bool) -> tuple[FiniteGroupTable, dict]:
    """Aut(G) (``inner`` false) or Out(G) (``inner`` true) on coset
    representatives, with the coset index of every automorphism's key.

    Each automorphism is keyed by its images of the distinguished generators
    (for the trivial group, of the identity).  The search of
    ``_isomorphisms`` runs in lexicographic order of the keys and skips every
    key already in a coset of the inner automorphisms, so the first
    automorphism of each coset is its Out representative: its key
    conjugated by every g is keyed to the new coset.  Aut is the union of
    these cosets, its maps in sorted order.  Representatives multiply by
    composing them on the generator images (apply the row's map first), and
    ``labels`` holds the representative maps.  Raises
    :class:`SubgroupBudgetError` as soon as the cosets found pass
    ``FAMILY_ORDER_BUDGET`` elements of the table.
    """
    gens = G.generators or (G.identity,)
    # One conjugator per inner automorphism.
    conjugators = tuple({tuple(G.conj(g, y) for y in gens): g for g in range(G.order)}.values())
    coset_size = 1 if inner else len(conjugators)
    coset_of: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    for a in _isomorphisms(G, G, coset_of):
        if (len(reps) + 1) * coset_size > FAMILY_ORDER_BUDGET:
            raise SubgroupBudgetError(
                f"order of the automorphism group exceeds table budget {FAMILY_ORDER_BUDGET}"
            )
        coset_of.update((tuple(G.conj(g, a[y]) for y in gens), len(reps)) for g in conjugators)
        reps.append(a)
    if not inner:
        reps = sorted(tuple(G.conj(g, y) for y in a) for a in reps for g in conjugators)
        coset_of = {tuple(a[y] for y in gens): i for i, a in enumerate(reps)}
    # "a, then b" is keyed by b read at a's generator images: one itemgetter
    # call and one lookup per entry.  On one generator the getter returns a
    # bare image, so the lookup is keyed by that.
    lookup = coset_of if len(gens) > 1 else {key[0]: i for key, i in coset_of.items()}
    mult = [list(map(lookup.__getitem__, map(itemgetter(*(a[g] for g in gens)), reps)))
            for a in reps]
    return _finish_table(len(reps), mult, (), None, labels=tuple(reps)), coset_of


def automorphisms(G: FiniteGroupTable) -> FiniteGroupTable:
    """The automorphism group; element labels carry the underlying maps."""
    return _aut_cosets(G, False)[0]


def outer_group(G: FiniteGroupTable) -> FiniteGroupTable:
    """Aut modulo the inner automorphisms; ``labels`` holds the coset
    representatives as maps, so the whole Aut table is never built."""
    return _aut_cosets(G, True)[0]


def same_semidirect_class(G: FiniteGroupTable, a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the infinite semidirect products twisted by a and b agree.

    The isomorphism class depends only on the outer class of the twisting
    automorphism, up to inversion and conjugation in the outer group, so the
    question is answered on the table of ``outer_group(G)``.  Raises
    ``ValueError`` when a or b is not an automorphism of G.
    """
    if not (_is_automorphism(G, a) and _is_automorphism(G, b)):
        raise ValueError("map is not an automorphism of the group")
    out, coset_of = _aut_cosets(G, True)
    gens = G.generators or (G.identity,)
    i, j = (coset_of[tuple(f[g] for g in gens)] for f in (a, b))
    return any(out.conj(c, i) in (j, out.inverse[j]) for c in range(out.order))


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
    # Every automorphism of G is an inner one after an Out representative.
    restrictions = {
        tuple(index[G.conj(g, a[e])] for e in order)
        for a in outer_group(G).labels
        for g in range(G.order)
        if all(G.conj(g, a[e]) in sub for e in sub)
    }
    # The Out walk keys every automorphism of the subgroup to its coset.
    return len(restrictions) == len(_aut_cosets(subgroup_table(G, sub), True)[1])
