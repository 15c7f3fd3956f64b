"""Known-answer query stream for the ``query_mix`` workload.

Every query is DSL text for ``spherebraid.words.parse_braid`` plus the answer
it must get from ``equals``, ``order_of`` or ``central_value``.  Answers are
known from how each query is built, never from the oracle:

- ``trivial``: a short word u with two random conjugates of relators
  inserted at random places (braid relation, far commutation, the sphere
  relation and, in half of them, FT^2), compared with u: equal.
- ``not_ft``: w compared with w FT: not equal, the full twist being
  nontrivial.
- ``alpha``: g alpha_i^k g^-1 has order 2(n-i) / gcd(k, 2(n-i)).
- ``delta_order`` / ``delta_central``: g delta(r,i) g^-1 has infinite order
  and is not central.
- ``ft_conj``: g FT g^-1 is the full twist (central value 2).
- ``hard_order`` / ``hard_central``: at n = 4, with p = (s1 s2^-1)^k, p has
  infinite order and p FT p^-1 is the full twist.  For k >= 14 the oracle
  raises ``OracleBudgetError`` on both (a known defect the workload keeps).

Each query also records the permutation cycle type and the exponent sum mod
2(n-1) of the element its answer is about, derived from the same
construction, so the generator can be checked without the oracle.

The stream is built in blocks of fixed composition (``BLOCK``), shuffled
within each block, so the cost of a run depends on the seed only through the
random parameters and not through how many expensive queries it drew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

N_RANGE = range(4, 11)

# Queries per strand count in one block, and the n = 4 hard slots.
PER_N = (
    ("trivial", 1),
    ("trivial_ft2", 1),
    ("not_ft", 2),
    ("alpha", 2),
    ("delta_order", 3),
    ("delta_central", 3),
    ("ft_conj", 1),
)
HARD = (
    ("hard_order", range(14, 21)),  # budget overflow today
    ("hard_order", (2, 3, 6, 9)),
    ("hard_central", range(2, 10)),
    ("hard_central", range(14, 21)),  # budget overflow today
)
BLOCK = sum(c for _, c in PER_N) * len(N_RANGE) + len(HARD)


@dataclass(frozen=True)
class Query:
    """One known-answer query.

    ``op`` is ``equals`` (``text`` against ``text2``), ``order_of`` (answer
    is the order, None for infinite) or ``central_value`` (0, 2 or None).
    ``cycle_type`` and ``expsum`` describe the element the answer is about:
    ``text`` for a single-word query, ``text * text2^-1`` for ``equals``.
    """

    cls: str
    n: int
    op: str
    text: str
    text2: str | None
    answer: object
    cycle_type: tuple[int, ...]
    expsum: int


def _letters(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(lo, hi))]


def _inv(letters: list[int]) -> list[int]:
    return [-x for x in reversed(letters)]


def _txt(*parts: object) -> str:
    return " ".join(str(p) for p in parts if p != "")


def _ints(letters: list[int]) -> str:
    return " ".join(str(x) for x in letters)


def _cycle_type_of_power(length: int, k: int) -> tuple[int, ...]:
    """Nontrivial cycle lengths of the k-th power of one ``length``-cycle."""
    d = gcd(k, length)
    c = length // d
    return (c,) * d if c > 1 else ()


def _short_relator(rng: random.Random, n: int) -> list[int]:
    """A braid, far-commutation or sphere relator, possibly inverted."""
    kind = rng.randrange(3)
    if kind == 0:
        i = rng.randint(1, n - 2)
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    elif kind == 1:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        rel = [i, j, -i, -j]
    else:
        rel = list(range(1, n)) + list(range(n - 1, 0, -1))
    return rel if rng.random() < 0.5 else _inv(rel)


def _trivial(rng: random.Random, n: int, long_relator: bool) -> Query:
    """u with two relator conjugates inserted; the second is FT^2 or FT^-2
    when ``long_relator`` (so every block has the same number of long words)."""
    u = _letters(rng, n, 3, 8)
    tokens = [str(x) for x in u]
    relators = [_ints(_short_relator(rng, n))]
    relators.append(rng.choice(("FT^2", "FT^-2")) if long_relator
                    else _ints(_short_relator(rng, n)))
    for rel in relators:
        h = _letters(rng, n, 0, 3)
        at = rng.randint(0, len(tokens))
        tokens[at:at] = [_txt(_ints(h), rel, _ints(_inv(h)))]
    return Query("trivial", n, "equals", _txt(*tokens), _ints(u), True, (), 0)


def _not_ft(rng: random.Random, n: int) -> Query:
    w = _ints(_letters(rng, n, 4, 10))
    m = 2 * (n - 1)
    return Query("not_ft", n, "equals", w, _txt(w, "FT"), False, (), -n * (n - 1) % m)


def _alpha(rng: random.Random, n: int) -> Query:
    i = rng.randrange(3)
    length = n - i  # alpha_i permutes n - i strands cyclically
    # k runs over the divisors of 2(n-i), so every possible order occurs while
    # the pure power that order_of checks stays at most 2(n-i) alphas long.
    k = rng.choice([d for d in range(1, 2 * length + 1) if 2 * length % d == 0])
    k *= rng.choice((1, -1))
    g = _letters(rng, n, 1, 4)
    letters_in_alpha = (n - 1, n, n - 1)[i]
    order = 2 * length // gcd(k, 2 * length)
    return Query(
        "alpha", n, "order_of", _txt(_ints(g), f"a{i}^{k}", _ints(_inv(g))), None, order,
        _cycle_type_of_power(length, k), k * letters_in_alpha % (2 * (n - 1)),
    )


def _delta(rng: random.Random, n: int, op: str) -> Query:
    i, r = rng.choice([(i, r) for i in (0, 1, 2) for r in range(2, n - i + 1) if (n - i) % r == 0])
    g = _letters(rng, n, 1, 4)
    runs = (n - i) // r  # delta(r, i) is a product of this many disjoint crossings
    return Query(
        f"delta_{'order' if op == 'order_of' else 'central'}", n, op,
        _txt(_ints(g), f"delta({r},{i})", _ints(_inv(g))), None, None,
        (2,) * runs, runs % (2 * (n - 1)),
    )


def _ft_conj(rng: random.Random, n: int) -> Query:
    g = _letters(rng, n, 1, 6)
    return Query(
        "ft_conj", n, "central_value", _txt(_ints(g), "FT", _ints(_inv(g))), None, 2,
        (), n * (n - 1) % (2 * (n - 1)),
    )


def _hard(rng: random.Random, cls: str, ks) -> Query:
    n, k = 4, rng.choice(list(ks))
    p = _ints([1, -2] * k)
    if cls == "hard_order":
        # s1 s2^-1 is a 3-cycle on strands 1..3 with exponent sum 0.
        return Query(cls, n, "order_of", p, None, None, _cycle_type_of_power(3, k), 0)
    return Query(
        cls, n, "central_value", _txt(p, "FT", _ints(_inv([1, -2] * k))), None, 2,
        (), n * (n - 1) % (2 * (n - 1)),
    )


def block(rng: random.Random) -> list[Query]:
    """One block of ``BLOCK`` queries in seeded random order."""
    makers = {
        "trivial": lambda r, n: _trivial(r, n, False),
        "trivial_ft2": lambda r, n: _trivial(r, n, True),
        "not_ft": _not_ft,
        "alpha": _alpha,
        "delta_order": lambda r, n: _delta(r, n, "order_of"),
        "delta_central": lambda r, n: _delta(r, n, "central_value"),
        "ft_conj": _ft_conj,
    }
    out = [makers[cls](rng, n) for n in N_RANGE for cls, count in PER_N for _ in range(count)]
    out += [_hard(rng, cls, ks) for cls, ks in HARD]
    rng.shuffle(out)
    return out


def stream(seed: int):
    """Endless known-answer queries, one block at a time."""
    rng = random.Random(seed)
    while True:
        yield block(rng)
