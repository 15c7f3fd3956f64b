import random
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebraid import oracle
from spherebraid import words as W
from spherebraid.groups import make_group, sphere_three_strand_table
from spherebraid.oracle import (
    _linking_class,
    Order,
    central_value,
    commute,
    equals,
    is_central,
    is_trivial,
    order_of,
    verify_finite_subgroup,
)
from spherebraid.words import alpha, alpha_prime, delta_comm, full_twist, half_twist, identity, sigma, word


def surface_relation(n):
    return word(n, list(range(1, n - 1)) + [n - 1, n - 1] + list(range(n - 2, 0, -1)))


def random_word(rng, n, max_len=20):
    return word(n, [rng.choice([1, -1]) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(1, max_len))])


class ReferenceBudgetError(Exception):
    """The reference's free-group images passed its budget; no verdict."""


def artin_steps_reference(letters, imgs, cat, inv):
    """The recurrence that rebuilds the image of x_n from all n - 1 images."""
    last = len(imgs)
    for x in letters:
        i = abs(x)
        if i < last:
            a, b = imgs[i - 1], imgs[i]
            if x > 0:
                imgs[i - 1], imgs[i] = cat(a, b, inv(a)), a
            else:
                imgs[i - 1], imgs[i] = b, cat(inv(b), a, b)
        elif x > 0:
            imgs[i - 1] = cat(*[inv(imgs[j]) for j in range(last - 2, -1, -1)], inv(imgs[i - 1]))
        else:
            imgs[i - 1] = cat(*[inv(imgs[j]) for j in range(last - 1, -1, -1)])
        yield


def artin_action_reference(w, budget=2_000_000):
    """The reduced images of x_1 .. x_{n-1} under the action of a braid word on
    the free group of the n-punctured sphere, x_n being (x_1 ... x_{n-1})^-1.

    The images can grow exponentially in the word's length, so they are
    re-summed after every letter, and past ``budget`` letters the reference
    raises :class:`ReferenceBudgetError`.
    """
    imgs = [(j,) for j in range(1, w.n)]
    for _ in artin_steps_reference(w.letters, imgs, W._reduce, oracle._finv):
        if sum(map(len, imgs)) > budget:
            raise ReferenceBudgetError(f"reference images passed {budget} letters")
    return tuple(imgs)


def is_inner(images):
    """Return a conjugator g with images[j - 1] = g x_j g^-1 for every j, or None.

    The image of x_1 must be conjugate to x_1; stripping matched ends pins a
    conjugator u up to a right factor x_1^k, and k is forced by the image of
    x_2: the reduced word u^-1 a(x_2) u must literally read x_1^k x_2 x_1^-k.
    The remaining generators are then verified outright.  The empty tuple
    means the identity conjugator, so test the result against ``None``.
    """
    w1 = images[0]
    lo = oracle._strip_ends(w1)
    if w1[lo : len(w1) - lo] != (1,):
        return None
    u = w1[:lo]
    v = W._reduce(oracle._finv(u), images[1] if len(images) >= 2 else (), u)
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
    g = W._reduce(u, (1,) * k if k >= 0 else (-1,) * (-k))
    g_inv = oracle._finv(g)
    for j, img in enumerate(images, start=1):
        if img != W._reduce(g, (j,), g_inv):
            return None
    return g


def last_heavy_word(rng, n, length):
    """A reduced word about half of whose letters are sigma_{n-1}^{+-1}, the
    letter whose image the reference rebuilds from all n - 1 images."""
    letters = []
    while len(letters) < length:
        k = n - 1 if rng.random() < 0.5 else rng.randint(1, n - 2)
        x = rng.choice([k, -k])
        if not letters or letters[-1] != -x:
            letters.append(x)
    return word(n, letters)


class TestArtinAction:
    def test_identity_word(self):
        assert artin_action_reference(identity(5)) == ((1,), (2,), (3,), (4,))

    def test_generator_images(self):
        assert artin_action_reference(sigma(4, 1)) == ((1, 2, -1), (1,), (3,))

    def test_last_generator_rewrites_missing_basis(self):
        assert artin_action_reference(sigma(4, 3)) == ((1,), (2,), (-2, -1, -3))

    def test_inverse_composes_to_identity(self):
        for x in (1, 2, 3):
            w = sigma(4, x) * sigma(4, -x)
            assert artin_action_reference(w) == ((1,), (2,), (3,))

    def test_surface_relation_is_inner(self):
        for n in range(3, 11):
            assert is_inner(artin_action_reference(surface_relation(n))) is not None

    @given(st.lists(st.integers(1, 4).flatmap(lambda k: st.sampled_from([k, -k])), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, a):
        w = word(5, a)
        f = artin_action_reference(w)
        # The action of w * w sends each basis letter x to f(f(x)).
        twice = tuple(W._reduce(*(f[x - 1] if x > 0 else oracle._finv(f[-x - 1]) for x in img))
                      for img in f)
        assert artin_action_reference(w * w) == twice

    def test_images_are_conjugates_of_the_permuted_basis(self):
        # After every letter of w, x_j goes to a conjugate of x_{p(j)}, p being
        # the inverse of w's permutation (the action composes right to left),
        # and x_n = (x_1 ... x_{n-1})^-1 to a conjugate of x_{p(n)}.  A cyclic
        # conjugate of x_n is a rotation of x_{n-1}^-1 ... x_1^-1.
        n = 40
        w = last_heavy_word(random.Random(40), n, 120)
        imgs = [(j,) for j in range(1, n)]
        x_n = tuple(range(-(n - 1), 0))
        rotations = {x_n[i:] + x_n[:i] for i in range(n - 1)}

        def core(img):
            lo = oracle._strip_ends(img)
            return img[lo : len(img) - lo]

        steps = artin_steps_reference(w.letters, imgs, W._reduce, oracle._finv)
        for t, _ in enumerate(steps, start=1):
            perm = W.permutation(word(n, w.letters[:t])).images
            p = {v: k for k, v in enumerate(perm, start=1)}
            images = imgs + [oracle._finv(W._reduce(*imgs))]
            for j, img in enumerate(images, start=1):
                c = core(img)
                assert c == (p[j],) if p[j] < n else c in rotations, (t, j)
        assert imgs != [(j,) for j in range(1, n)]
        assert W.permutation(w).images[n - 1] != n


class TestIsInner:
    def test_identity(self):
        assert is_inner(((1,), (2,), (3,))) == ()

    def test_basis_conjugation(self):
        g = (1,)
        a = tuple((1, j, -1) if j != 1 else (1,) for j in range(1, 4))
        assert is_inner(a) == g

    def test_square_not_inner(self):
        assert is_inner(artin_action_reference(word(4, [1, 1]))) is None

    def test_agrees_with_exhaustive_search(self):
        # Exhaustive conjugator search up to length 6 on short automorphisms.
        rng = random.Random(5)
        n = 4
        rank = n - 1
        syms = [s * k for k in range(1, rank + 1) for s in (1, -1)]

        def reduced_words(max_len):
            frontier = [()]
            yield ()
            for _ in range(max_len):
                frontier = [g + (x,) for g in frontier for x in syms
                            if not g or g[-1] != -x]
                yield from frontier

        def conj(g, j):
            red = []
            for x in g + (j,) + tuple(-x for x in reversed(g)):
                if red and red[-1] == -x:
                    red.pop()
                else:
                    red.append(x)
            return tuple(red)

        def brute(a):
            return any(
                all(a[j - 1] == conj(g, j) for j in range(1, rank + 1))
                for g in reduced_words(6)
            )

        for _ in range(8):
            w = random_word(rng, n, max_len=5)
            a = artin_action_reference(w)
            assert (is_inner(a) is not None) == brute(a)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_recovers_the_conjugator(self, n):
        # g is drawn to end in a power of x_1, which only the image of x_2
        # pins down.  Conjugating one generator x_j by g y instead, y = a x_j a
        # for a letter a other than x_j^+-1, is not inner: y does not lie in
        # x_i^k <x_j>, even when x_i is the only other generator.
        rng = random.Random(2300 + n)
        ends, longest = set(), 0
        for _ in range(150):
            g = random_word(rng, n, 8).letters
            g = rng.choice([g, W._reduce(g, (1,) * rng.randint(1, 3)),
                            W._reduce(g, (-1,) * rng.randint(1, 3)), (rng.choice([1, -1]),)])
            images = [W._reduce(g, (j,), oracle._finv(g)) for j in range(1, n)]
            assert is_inner(tuple(images)) == g
            ends.add(g[-1] if g and abs(g[-1]) == 1 else 0)
            longest = max(longest, len(g))
            j = rng.randint(1, n - 1)
            a = rng.choice([x for x in range(-(n - 1), n) if abs(x) not in (0, j)])
            gy = W._reduce(g, (a, j, a))
            images[j - 1] = W._reduce(gy, (j,), oracle._finv(gy))
            assert is_inner(tuple(images)) is None
        assert ends == {1, -1, 0} and longest >= 8


class TestEquals:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_full_twist_power_identity(self, n):
        assert equals(full_twist(n), alpha(n, 0) ** n)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_half_twist_reverses_indices(self, n):
        D = half_twist(n)
        for i in range(1, n):
            assert equals(D * sigma(n, i) * D.inv(), sigma(n, n - i))

    def test_distinct_generators(self):
        assert not equals(sigma(4, 1), sigma(4, 2))

    def test_congruence_properties(self):
        rng = random.Random(3)
        n = 5
        for _ in range(10):
            u, v, w = (random_word(rng, n, 8) for _ in range(3))
            assert equals(w, w)
            w2 = w * surface_relation(n)
            assert equals(w, w2) and equals(w2, w)
            # Multiplicative on both sides of an equality.
            assert equals(u * w * v, u * w2 * v)

    def test_central_value(self):
        assert central_value(identity(6)) == 0
        assert central_value(full_twist(6)) == 2
        assert central_value(sigma(6, 1) ** 2) is None
        assert is_central(full_twist(7)) and not is_central(sigma(7, 1))


class TestIsTrivial:
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_empty_word(self, n):
        assert is_trivial(identity(n))
        assert not is_trivial(full_twist(n))

    @pytest.mark.parametrize("n,i", [(5, 0), (6, 0), (6, 2)])
    def test_evaluated_relators(self, n, i):
        # The dicyclic relators on the standard copy: long words, each the
        # identity without being empty.
        gens = [alpha_prime(n, i), half_twist(n)]
        for rel in make_group("dicyclic", n - i).presentation.relators:
            w = identity(n)
            for x in rel:
                w = w * (gens[x - 1] if x > 0 else gens[-x - 1].inv())
            assert w.letters and is_trivial(w), rel


def _reduced_words(n, max_len):
    """Every free-reduced word on n strands with at most max_len letters."""
    alphabet = [x for k in range(1, n) for x in (k, -k)]
    layer = [()]
    for _ in range(max_len + 1):
        yield from layer
        layer = [w + (x,) for w in layer for x in alphabet if not w or w[-1] != -x]


class TestThreeStrandsAgainstTable:
    """The one pipeline decides B_3(S^2); its multiplication table, built by
    coset enumeration, is the independent reference."""

    def test_every_short_word(self):
        table = sphere_three_strand_table()
        assert table.order == 12
        g1, g2 = table.generators

        def element(letters):
            e = table.identity
            for x in letters:
                g = g1 if abs(x) == 1 else g2
                e = table.mul(e, g if x > 0 else table.inverse[g])
            return e

        ft, one = element(full_twist(3).letters), identity(3)
        ws = list(_reduced_words(3, 7))
        assert len(ws) == 4373
        for letters in ws:
            w, e = word(3, letters), element(letters)
            value = 0 if e == table.identity else 2 if e == ft else None
            assert central_value(w) == value, letters
            assert equals(w, one) == (value == 0), letters
            assert equals(w, full_twist(3)) == (value == 2), letters
            assert order_of(w) == Order.finite(table.element_orders[e]), letters
        assert equals(full_twist(3), alpha(3, 0) ** 3)
        assert not equals(sigma(3, 1), sigma(3, 2))


def torsion_order_candidates(n):
    """Murasugi's list of finite orders: the divisors of 2n, 2(n-1) and 2(n-2)."""
    return sorted({d for m in (2 * n, 2 * (n - 1), 2 * (n - 2))
                   for d in range(1, m + 1) if m % d == 0})


def order_by_candidates(w):
    """The order by the candidate list, then the full power: the reference path.

    With p the permutation's order, the order is p, 2p or infinite; it is
    infinite when neither p nor 2p is a candidate, and otherwise the
    centrality of w^p decides.
    """
    p = W.permutation(w).order()
    cands = torsion_order_candidates(w.n)
    if p not in cands and 2 * p not in cands:
        return Order(None)
    cv = central_value(w ** p)
    return Order(None) if cv is None else Order.finite(p if cv == 0 else 2 * p)


class TestOrder:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_torsion_orders(self, n):
        assert order_of(alpha(n, 0)) == Order.finite(2 * n)
        assert order_of(alpha(n, 1)) == Order.finite(2 * (n - 1))
        assert order_of(alpha(n, 2)) == Order.finite(2 * (n - 2))

    def test_identity_and_full_twist(self):
        assert order_of(identity(5)) == Order.finite(1)
        assert order_of(full_twist(5)) == Order.finite(2)

    def test_pure_square_infinite(self):
        assert not order_of(word(4, [1, 1])).is_finite

    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
    def test_torsion_census(self, n):
        # alpha_i has order m = 2(n - i), so alpha_i^k has order m / gcd(m, k),
        # and these orders are exactly the candidate list.
        reached = set()
        for i in (0, 1, 2):
            m = 2 * (n - i)
            for k in range(1, m + 1):
                assert order_of(alpha(n, i) ** k) == Order.finite(m // gcd(m, k)), (i, k)
                reached.add(m // gcd(m, k))
        assert reached == set(torsion_order_candidates(n))

    def test_random_orders_land_in_candidates(self):
        rng = random.Random(9)
        for n in (4, 5, 6):
            cands = set(torsion_order_candidates(n))
            for _ in range(15):
                o = order_of(random_word(rng, n, 10))
                if o.is_finite:
                    assert o.value in cands


class TestCycleTypeStage:
    @pytest.mark.parametrize("n", range(4, 41))
    def test_refutes_no_power_of_alpha(self, n):
        """alpha_i^r passes with its permutation's order, for i = 0, 1, 2 and
        1 <= r <= 2(n-i).

        The powers of alpha_2 that are not pure fix exactly two points, so a
        mutant stage that allows only one fixed point refutes them and fails
        here.
        """
        for i in (0, 1, 2):
            a = W.permutation(alpha(n, i)).images
            images = tuple(range(1, n + 1))
            for r in range(1, 2 * (n - i) + 1):
                images = tuple(a[k - 1] for k in images)
                perm = W.Permutation(images)
                assert oracle._torsion_cycle_length(perm) == perm.order(), (i, r)

    def test_refutes_mixed_lengths_and_many_fixed_points(self):
        for letters in ([1], [1, 2], [1, 3, 4], [1, 2, 4]):
            assert oracle._torsion_cycle_length(W.permutation(word(6, letters))) is None

    @pytest.mark.parametrize("n", range(4, 10))
    def test_agrees_with_the_candidate_list_and_full_power(self, n, monkeypatch):
        # Random words, and conjugates of torsion powers so that finite
        # orders of every cycle type occur; a word the stage refutes must
        # not reach central_value.
        rng = random.Random(100 + n)
        cases = [random_word(rng, n, 12) for _ in range(30)]
        for _ in range(30):
            u, i = random_word(rng, n, 6), rng.randrange(3)
            cases.append(u * alpha(n, i) ** rng.randint(1, 2 * (n - i)) * u.inv())
        expected = [order_by_candidates(w) for w in cases]
        decided = []
        screened = central_value

        def counted(w):
            decided.append(w)
            return screened(w)

        monkeypatch.setattr(oracle, "central_value", counted)
        for w, want in zip(cases, expected):
            before = len(decided)
            assert order_of(w) == want, w.letters
            if oracle._torsion_cycle_length(W.permutation(w)) is None:
                assert len(decided) == before
        # Every cycle type in S_4 is that of a torsion element.
        assert (len(decided) < len(cases)) == (n > 4)
        assert any(o.is_finite and o.value > 2 for o in expected)


def whole_power_order_of(w):
    """order_of before the root stage: the cycle type of w, then the power w^p."""
    p = oracle._torsion_cycle_length(W.permutation(w))
    if p is None:
        return Order(None)
    cv = central_value(w ** p)
    return Order(None) if cv is None else Order.finite(p if cv == 0 else 2 * p)


class TestRootStage:
    """The order of a power r^m is read off the order of its primitive root r."""

    def test_root_length(self):
        assert oracle._root_length(()) == 0
        assert oracle._root_length((1,)) == 1
        assert oracle._root_length((1, -2) * 7) == 2
        assert oracle._root_length((1, 2, 1) * 4) == 3
        assert oracle._root_length((1, 2, 1, 2, 1)) == 5  # period 2 does not divide 5
        assert oracle._root_length((1, 2) * 3 + (1, 2, 3)) == 9

    @pytest.mark.parametrize("n", range(4, 9))
    def test_agrees_with_the_whole_power(self, n):
        rng = random.Random(2300 + n)
        roots = [alpha(n, i) for i in (0, 1, 2)]
        roots += [alpha(n, i) ** rng.randint(2, 2 * (n - i) - 1) for i in (0, 1, 2)]
        roots += [delta_comm(n, r, i) for i in (0, 1, 2) for r in range(2, n - i + 1)
                  if (n - i) % r == 0][:3]
        roots += [random_word(rng, n, 6) for _ in range(3)]
        if n == 4:
            roots.append(word(4, [1, -2]))
        finite = 0
        for r in roots:
            for m in range(1, 7):
                g = random_word(rng, n, 5)
                w = g * r ** m * g.inv()
                want = whole_power_order_of(w)
                assert order_of(w) == want, (r.letters, m)
                finite += want.is_finite
        assert finite > len(roots)

    def test_hard_powers_decide_only_the_root(self, monkeypatch):
        # (1 -2)^k: the root 1 -2 is a 3-cycle on three strands, so the
        # exact stage meets (1 -2)^3 and never the power of w itself.
        decided = []
        acts_innerly = oracle._acts_innerly
        monkeypatch.setattr(oracle, "_acts_innerly",
                            lambda v, s: decided.append(v) or acts_innerly(v, s))
        for k in range(14, 21):
            assert order_of(word(4, [1, -2] * k)) == Order(None)
        assert [len(v) for v in decided] == [6] * 7


class TestCommute:
    def test_full_twist_is_central(self):
        rng = random.Random(1)
        for n in (4, 5, 6):
            ft = full_twist(n)
            for _ in range(5):
                assert commute(random_word(rng, n), ft)

    def test_generators_do_not_commute(self):
        assert not commute(sigma(4, 1), sigma(4, 2))

    def test_commuter_element(self):
        for n, i, m in ((6, 0, 2), (8, 0, 4), (8, 2, 3)):
            d = delta_comm(n, m if (n - i) % m == 0 else m // 2, i)
            assert commute(d, alpha(n, i) ** m)


def forget_strands(w, keep):
    """Project onto the braid group of the kept strands.

    Tracks strand positions through the word, drops every crossing that
    involves a forgotten strand, and relabels the surviving strands by the
    order-preserving bijection onto {1, ..., len(keep)}.  Defined only when
    the word's permutation maps the keep-set onto itself.  The engine has no
    caller for it; the tests use it as an independent reference.
    """
    keep_set = frozenset(keep)
    if not keep_set or not keep_set <= set(range(1, w.n + 1)):
        raise W.WordError(f"keep-set {sorted(keep_set)} is not a nonempty subset of 1..{w.n}")
    if len(keep_set) < 3:
        raise W.WordError("fewer than 3 strands would remain")
    p = W.permutation(w)
    if {p(k) for k in keep_set} != keep_set:
        raise W.WordError("word's permutation does not preserve the keep-set")
    kept = [False] * (w.n + 1)
    for k in keep_set:
        kept[k] = True
    strand_at = list(range(w.n + 1))  # strand occupying each position
    kept_upto = [0] * (w.n + 1)  # number of kept strands at positions 1..k
    for k in range(1, w.n + 1):
        kept_upto[k] = kept_upto[k - 1] + kept[k]
    out = []
    for x in w.letters:
        i = abs(x)
        a, b = strand_at[i], strand_at[i + 1]
        if kept[a] and kept[b]:
            j = kept_upto[i]
            out.append(j if x > 0 else -j)
        strand_at[i], strand_at[i + 1] = b, a
        kept_upto[i] = kept_upto[i - 1] + kept[b]
    return word(len(keep_set), out)


class TestForgetStrands:
    def test_untouched_strands(self):
        w = word(6, [1, 1, 3, 3])
        assert forget_strands(w, [1, 2, 3, 4]).letters == (1, 1, 3, 3)

    def test_incompatible_keep_set(self):
        with pytest.raises(W.WordError):
            forget_strands(W.sigma(5, 3), [1, 2, 3])

    def test_two_stage_functoriality(self):
        w = W.full_twist(7)
        once = forget_strands(w, [1, 2, 4, 6])
        staged = forget_strands(forget_strands(w, [1, 2, 4, 5, 6]), [1, 2, 3, 5])
        assert once == staged

    def test_full_twist_projects_to_full_twist(self):
        # Word-level identity: needs no oracle for this representative.
        got = forget_strands(W.full_twist(5), [1, 2, 3])
        assert equals(got, W.full_twist(3))


def scan_forget_strands(w, keep):
    """The projection as it was, recounting the kept strands below each crossing."""
    keep_set = frozenset(keep)
    kept = [False] * (w.n + 1)
    for p in keep_set:
        kept[p] = True
    strand_at = list(range(w.n + 1))
    out = []
    for x in w.letters:
        i = abs(x)
        a, b = strand_at[i], strand_at[i + 1]
        if kept[a] and kept[b]:
            j = sum(1 for p in range(1, i + 1) if kept[strand_at[p]])
            out.append(j if x > 0 else -j)
        strand_at[i], strand_at[i + 1] = b, a
    return word(len(keep_set), out)


class TestForgetStrandsRunningCount:
    @pytest.mark.parametrize("n", range(4, 10))
    def test_matches_position_scan(self, n):
        rng = random.Random(700 + n)
        for _ in range(40):
            u = word(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 40))])
            # Unions of the permutation's orbits (fixed points included) are kept.
            p = W.permutation(u)
            orbits = [set(c) for c in p.cycles()]
            orbits += [{k} for k in range(1, n + 1) if p(k) == k]
            rng.shuffle(orbits)
            keep = set()
            for orbit in orbits:
                keep |= orbit
                if len(keep) >= 3 and rng.random() < 0.5:
                    break
            if len(keep) >= 3:
                assert forget_strands(u, keep) == scan_forget_strands(u, keep)
            pure = u ** p.order()
            keep = rng.sample(range(1, n + 1), rng.randint(3, n))
            assert forget_strands(pure, keep) == scan_forget_strands(pure, keep)


class TestForgettingTorsion:
    @pytest.mark.parametrize("n", (6, 7))
    def test_alpha2_projects_to_alpha0(self, n):
        got = forget_strands(alpha(n, 2), range(1, n - 1))
        assert equals(got, alpha(n - 2, 0))

    def test_full_twist_projects_to_full_twist(self):
        got = forget_strands(full_twist(6), [1, 2, 3])
        assert equals(got, full_twist(3))


def binary_tetrahedral_gens():
    d = W.delta_b6()
    x = W.gamma_b6() ** 4  # order-3 part of the order-6 generator
    return [d, x * d * x.inv(), x]


class TestVerifyFiniteSubgroup:
    @pytest.mark.parametrize("n,i", [(5, 0), (5, 2), (6, 0), (6, 2)])
    def test_standard_dicyclic_copy(self, n, i):
        gens = [alpha_prime(n, i), half_twist(n)]
        assert verify_finite_subgroup(gens, make_group("dicyclic", n - i))

    def test_binary_tetrahedral_copy_on_six_strands(self):
        assert verify_finite_subgroup(binary_tetrahedral_gens(), make_group("T*"))

    def test_generator_order_failure(self):
        assert not verify_finite_subgroup([sigma(4, 1)], make_group("cyclic", 2))

    def test_mixed_strand_counts_raise(self):
        gens = [alpha_prime(5, 0), half_twist(6)]
        with pytest.raises(W.StrandMismatchError):
            verify_finite_subgroup(gens, make_group("dicyclic", 5))

    def test_quaternion_copy(self):
        n = 6
        gens = [alpha(n, 0) ** 3, half_twist(n)]
        assert verify_finite_subgroup(gens, make_group("dicyclic", 2))

    @pytest.mark.parametrize("gens,kind,param", [
        ([full_twist(6), identity(6)], "dicyclic", 2),
        ([full_twist(6), alpha(6, 0) ** 3], "dicyclic", 3),
        ([alpha(6, 0) ** 4], "cyclic", 6),
        ([identity(6)] * 3, "A4", None),
        ([identity(6)] * 2, "S4", None),
        ([identity(6)] * 2, "A5", None),
    ], ids=["Q8-onto-center", "Dic12-order-3-kernel", "Z6-onto-order-3",
            "A4-onto-trivial", "S4-onto-trivial", "A5-onto-trivial"])
    def test_relators_hold_but_the_kernel_is_nontrivial(self, gens, kind, param):
        # Only the injectivity check can refuse these maps.
        assert not verify_finite_subgroup(gens, make_group(kind, param))

    @pytest.mark.parametrize("gens,kind,param,subgroups", [
        ([alpha_prime(6, 0), half_twist(6)], "dicyclic", 6, 2),
        (binary_tetrahedral_gens(), "T*", None, 5),
    ], ids=["Dic24", "T*"])
    def test_one_check_per_subgroup_of_prime_order(self, gens, kind, param, subgroups, monkeypatch):
        target = make_group(kind, param)
        # Elements of prime order p fall into subgroups of p - 1 each.
        primes = [k for k in set(target.element_orders) if k > 1 and all(k % d for d in range(2, k))]
        assert sum(target.element_orders.count(p) // (p - 1) for p in primes) == subgroups
        checked = []
        monkeypatch.setattr(oracle, "is_trivial", lambda w: checked.append(w) or is_trivial(w))
        assert verify_finite_subgroup(gens, target)
        assert len(checked) == len(target.presentation.relators) + subgroups


class TestNoLetterChecks:
    """The oracle's words are made from the words it is given, which were
    checked when they were made, so it checks no letters again."""

    def test_oracle_checks_no_letters_on_words_it_is_given(self, monkeypatch):
        rng = random.Random(27)
        ws = [random_word(rng, n, 16) for n in (3, 4, 5, 6, 8) for _ in range(4)]
        ws += [full_twist(5), alpha(6, 0), alpha(6, 1) ** 5, surface_relation(5), identity(4)]
        a12, a23 = W.band_generator(4, 1, 2), W.band_generator(4, 2, 3)
        commutator = a12 * a23 * a12.inv() * a23.inv()  # pure, in the identity's class, not central
        subgroups = [([alpha_prime(5, 2), half_twist(5)], make_group("dicyclic", 3)),
                     (binary_tetrahedral_gens(), make_group("T*")),
                     ([alpha(6, 0) ** 4], make_group("cyclic", 6))]
        derived = [(w, w * w, w ** 2, w.inv()) for w in ws]
        calls = []
        real = W._check_letters
        monkeypatch.setattr(W, "_check_letters", lambda *a: calls.append(a) or real(*a))
        for w, square, power, inverse in derived:
            assert equals(square, power)
            equals(w, inverse)
            order_of(w)
            central_value(w)
        assert order_of(ws[-5]) == Order.finite(2)
        assert central_value(commutator) is None
        assert [verify_finite_subgroup(g, t) for g, t in subgroups] == [True, True, False]
        assert calls == []


class TestBudget:
    def test_pseudo_anosov_power_aborts_cleanly(self):
        # p FT p^-1 q FT q^-1 is trivial, but cyclic reduction cannot strip
        # it and its free-group images grow exponentially past the budget;
        # the exact stage needs no budget and decides it.
        p, q, ft = word(4, [1, -2] * 18), word(4, [2, -1] * 18), full_twist(4)
        w = p * ft * p.inv() * q * ft * q.inv()
        assert len(w) == 166
        assert order_of(w) == Order(1)
        with pytest.raises(ReferenceBudgetError):
            artin_action_reference(w)

    def test_budget_parameter(self):
        # The reference's budget is a letter count; the exact stage has none.
        w = word(4, [1, -2] * 9)
        with pytest.raises(ReferenceBudgetError):
            artin_action_reference(w, budget=1000)
        assert not free_group_acts_innerly(w) and not is_central(w)


def sphere_relators(n):
    """Braid, far-commutation and sphere relators, and the square of the full twist."""
    rels = [word(n, [i, i + 1, i, -(i + 1), -i, -(i + 1)]) for i in range(1, n - 1)]
    rels += [word(n, [i, j, -i, -j]) for i in range(1, n) for j in range(i + 2, n)]
    rels += [surface_relation(n), full_twist(n) ** 2]
    return rels


class TestScreenSoundness:
    """No stage refutes a word that is central in the group."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_inserted_relator_conjugates_are_never_refuted(self, n):
        rng = random.Random(40 + n)
        rels = sphere_relators(n)
        for _ in range(25):
            u = random_word(rng, n, 12)
            g = random_word(rng, n, 8)
            r = rng.choice(rels) ** rng.choice([1, -1])
            cut = rng.randint(0, len(u))
            head, tail = word(n, u.letters[:cut]), word(n, u.letters[cut:])
            v = head * g * r * g.inv() * tail
            assert equals(u, v)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_full_twist_conjugates_are_central(self, n):
        rng = random.Random(60 + n)
        for _ in range(10):
            g = random_word(rng, n, 15)
            w = g * full_twist(n) * g.inv()
            assert central_value(w) == 2

    @pytest.mark.parametrize("k", (14, 18))
    def test_pseudo_anosov_powers(self, k):
        # Both used to overflow the free-group budget.
        p = word(4, [1, -2] * k)
        assert order_of(p) == Order(None)
        assert central_value(p * full_twist(4) * p.inv()) == 2


def parity_split_value(w):
    """Which central element a central word is, read without the linking class.

    Odd n: the abelianization Z/2(n-1) separates the identity from the full
    twist.  Even n: the exponent sum mod 4 of the projection onto the first
    three strands does (B_3 of the sphere abelianizes to Z/4).  An
    independent reference for the value the linking class names.
    """
    if w.n % 2:
        return 0 if W.abelianize(w).is_zero() else 2
    return 0 if W.exponent_sum(forget_strands(w, (1, 2, 3))) % 4 == 0 else 2


def two_class_linking(w):
    """The linking class solved once for each of eps = 0 and eps = 1."""
    n = w.n
    d = [[0] * (n + 1) for _ in range(n + 1)]
    strand_at = list(range(n + 1))
    for x in w.letters:
        i = abs(x)
        a, b = sorted((strand_at[i], strand_at[i + 1]))
        d[a][b] += 1 if x > 0 else -1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    if strand_at != list(range(n + 1)):
        return None
    for eps in (0, 1):
        e = [[d[j][k] // 2 - eps for k in range(n + 1)] for j in range(n + 1)]
        t = e[1][2] + e[1][3] - e[2][3]
        if t % 2:
            continue
        c = [0] * (n + 1)
        c[1] = t // 2
        for j in range(2, n + 1):
            c[j] = e[1][j] - c[1]
        if all(e[j][k] == c[j] + c[k] for j in range(1, n + 1) for k in range(j + 1, n + 1)):
            return 2 * eps
    return None


class TestLinkingClass:
    """The linking class of a central word says which central element it is."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_agrees_with_parity_split_separation(self, n):
        rng = random.Random(80 + n)
        rels = sphere_relators(n)
        ft = full_twist(n)
        central = [alpha(n, i) ** (n - i) for i in (0, 1, 2)]
        central += [alpha(n, i) ** (2 * (n - i)) for i in (0, 1, 2)]
        for _ in range(8):
            g = random_word(rng, n, 15)
            central.append(g * ft * g.inv())
            u = random_word(rng, n, 12)
            r = rng.choice(rels) ** rng.choice([1, -1])
            cut = rng.randint(0, len(u))
            v = word(n, u.letters[:cut]) * g * r * g.inv() * word(n, u.letters[cut:])
            central += [v * u.inv(), v * u.inv() * ft]
        for w in central:
            value = central_value(w)
            assert value is not None
            assert value == parity_split_value(w) == _linking_class(w)[0]

    @pytest.mark.parametrize("n", range(4, 10))
    def test_none_on_words_that_are_not_pure(self, n):
        rng = random.Random(100 + n)
        words = [sigma(n, i) for i in range(1, n)] + [alpha(n, 0), half_twist(n)]
        words += [random_word(rng, n, 20) for _ in range(30)]
        for w in words:
            if not W.permutation(w).is_identity():
                assert _linking_class(w)[0] is None

    @pytest.mark.parametrize("n", range(3, 11))
    def test_agrees_with_the_two_class_solver_on_pure_words(self, n):
        # Random products of band generators, which mostly lie in neither
        # class, and products whose crossing counts lie in a class without
        # the word being central: blocks of one strand around all the others
        # in a shuffled order, commutators of band generators, and FT.
        rng = random.Random(2320 + n)

        def band():
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            return W.band_generator(n, i, j)

        values, not_central = [], 0
        for trial in range(40):
            w = identity(n)
            for _ in range(rng.randint(1, 5)):
                if trial % 2 == 0:
                    w = w * band() ** rng.choice([1, -1, 2, -2])
                elif rng.random() < 0.5:
                    a, b = band(), band()
                    w = w * a * b * a.inv() * b.inv()
                else:
                    j = rng.randint(1, n)
                    others = [k for k in range(1, n + 1) if k != j]
                    rng.shuffle(others)
                    block = identity(n)
                    for k in others:
                        block = block * W.band_generator(n, min(j, k), max(j, k))
                    w = w * block ** rng.choice([1, -1])
            if trial % 4 == 1:
                w = w * full_twist(n)
            assert W.permutation(w).is_identity()
            values.append(_linking_class(w)[0])
            assert values[-1] == two_class_linking(w), w.letters
            not_central += values[-1] is not None and central_value(w) is None
        assert {0, 2} <= set(values)
        # On three strands every pure braid is central.
        assert (None in values) == (not_central > 0) == (n > 3)

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_twist_apart_without_the_exact_stage(self, n, monkeypatch):
        # At even n the abelianization cannot tell w from w * FT; the
        # linking class does, so the exact stage never runs.
        def refuse(*args, **kwargs):
            raise AssertionError("the exact stage ran")

        monkeypatch.setattr(oracle, "_acts_innerly", refuse)
        rng = random.Random(120 + n)
        for _ in range(10):
            w = random_word(rng, n, 15)
            assert not equals(w, w * full_twist(n))


class TestCatalogIdentities:
    """Cross-identities between the direct letter forms and conjugated forms."""

    @pytest.mark.parametrize("n,i,m", [(6, 0, 1), (8, 0, 2), (8, 2, 1), (10, 2, 2), (12, 0, 3)])
    def test_xi_is_conjugated_commuter(self, n, i, m):
        a0 = alpha(n, 0)
        rhs = (a0 ** (i // 2)) * W.delta_comm(n, 2 * m, i) * (a0 ** (-(i // 2)))
        assert equals(W.xi_elt(n, i, m), rhs)

    @pytest.mark.parametrize("n,i,m", [(8, 0, 2), (8, 2, 1), (12, 0, 3)])
    def test_xi_prime_is_half_twist_conjugate(self, n, i, m):
        D = half_twist(n)
        assert equals(W.xi_prime_elt(n, i, m), D * W.xi_elt(n, i, m) * D.inv())

    @pytest.mark.parametrize("n,i", [(8, 0), (10, 2)])
    def test_lambda_fixed_by_half_twist(self, n, i):
        lam = W.lambda_elt(n, i, 1)
        D = half_twist(n)
        assert equals(D * lam * D.inv(), lam)


class TestForgettingIsHomomorphic:
    def test_on_pure_band_products(self):
        rng = random.Random(12)
        n, keep = 6, (1, 2, 3, 4)
        pool = [W.band_generator(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for _ in range(10):
            u = identity(n)
            v = identity(n)
            for _ in range(3):
                u = u * rng.choice(pool) ** rng.choice([1, -1])
                v = v * rng.choice(pool) ** rng.choice([1, -1])
            left = forget_strands(u * v, keep)
            right = forget_strands(u, keep) * forget_strands(v, keep)
            assert equals(left, right)


def braid_words(n, max_len):
    gen = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    return st.lists(gen, max_size=max_len).map(lambda ls: word(n, ls))


def elements(n):
    """Random words, and conjugates of torsion powers (some times the full twist)."""
    torsion = st.tuples(braid_words(n, 8), st.sampled_from((0, 1, 2)), st.integers(1, 2 * n),
                        st.booleans())
    return st.one_of(
        braid_words(n, 12),
        torsion.map(lambda t: t[0] * alpha(n, t[1]) ** t[2] * t[0].inv()
                    * (full_twist(n) if t[3] else identity(n))),
    )


class TestConjugationInvariance:
    """Verdicts are class functions: conjugating every argument changes none."""

    @given(st.integers(4, 7).flatmap(lambda n: st.tuples(
        elements(n), braid_words(n, 12), braid_words(n, 8), st.sampled_from(sphere_relators(n)),
        st.booleans())))
    @settings(max_examples=150, deadline=None)
    def test_equals(self, args):
        u, v, g, r, insert = args
        if insert:
            v = u * g.inv() * r * g
        got = equals(u, v)
        assert equals(g * u * g.inv(), g * v * g.inv()) == got
        assert got or not insert

    @given(st.integers(4, 7).flatmap(lambda n: st.tuples(elements(n), braid_words(n, 10))))
    @settings(max_examples=150, deadline=None)
    def test_order_of(self, args):
        w, g = args
        assert order_of(g * w * g.inv()) == order_of(w)

    @given(st.integers(4, 8).flatmap(elements))
    @settings(max_examples=200, deadline=None)
    def test_finite_order_is_p_or_2p(self, w):
        p = W.permutation(w).order()
        got = order_of(w)
        assert got.value in (None, p, 2 * p)


def free_group_acts_innerly(w, budget=2_000_000):
    """The free-group check, the reference for the exact stage: the word's
    automorphism of the punctured-sphere free group is inner."""
    return is_inner(artin_action_reference(w, budget)) is not None


def verdict(f, *args):
    try:
        return f(*args)
    except ReferenceBudgetError:
        return ReferenceBudgetError


def stage_cases(n):
    """Seeded equal pairs (a word and the same word with a relator conjugate
    inserted), and single words: random words, their pure powers, those times
    the full twist, g delta(r,i) g^-1, and (1 -2)^k FT."""
    rng = random.Random(80 + n)
    rels = sphere_relators(n)
    pairs, singles = [], []
    for _ in range(20):
        u, g = random_word(rng, n, 12), random_word(rng, n, 8)
        cut = rng.randint(0, len(u))
        r = rng.choice(rels) ** rng.choice([1, -1])
        pairs.append((u, word(n, u.letters[:cut]) * g * r * g.inv() * word(n, u.letters[cut:])))
        w = random_word(rng, n, 12)
        pure = w ** W.permutation(w).order()
        singles += [w, pure, pure * full_twist(n)]
    for i in (0, 1, 2):
        for r in range(2, n - i + 1):
            if (n - i) % r == 0:
                g = random_word(rng, n, 8)
                singles.append(g * delta_comm(n, r, i) * g.inv())
    singles += [word(n, [1, -2] * k) * full_twist(n) for k in (3, 4, 6, 9, 12)]
    return pairs, singles


def dynnikov(letters, coords):
    """Dynnikov's action on the flat vector (a_1, b_1, ..., a_m, b_m)."""
    pairs = [(0, 0)] + list(zip(coords[::2], coords[1::2]))
    return [x for pair in oracle._dynnikov(letters, pairs)[1:] for x in pair]


def delta_squared(m, k):
    """Delta^2k on m strands: (sigma_1 ... sigma_{m-1})^mk, or its inverse."""
    cycle = list(range(1, m)) if k > 0 else list(range(-(m - 1), 0))
    return cycle * (m * abs(k))


def exact_verdict(w, s):
    """The exact stage with strand s at infinity in place of the least-emitting one."""
    m = w.n - 1
    beta = oracle._capped_word(w.letters, w.n, s)
    assert all(0 < abs(x) < m for x in beta)
    k, r = divmod(sum(1 if x > 0 else -1 for x in beta), m * (m - 1))
    return r == 0 and dynnikov(beta + delta_squared(m, -k), [0, 1] * m) == [0, 1] * m


def disc_artin_images(letters, m):
    """The images of x_1 .. x_m under the Artin action of a B_m word on F_m,
    which is faithful: sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i."""
    imgs = [(j,) for j in range(1, m + 1)]
    for x in letters:
        i = abs(x)
        a, b = imgs[i - 1], imgs[i]
        if x > 0:
            imgs[i - 1], imgs[i] = W._reduce(a, b, oracle._finv(a)), a
        else:
            imgs[i - 1], imgs[i] = b, W._reduce(oracle._finv(b), a, b)
    return imgs


def central_class_words(n):
    """Seeded pure words in the linking class of the identity or of FT.

    Commutators of band-generator products and pure powers of random words
    land in a class, most of them without being central.  One to three
    relators conjugated into a random word u, then u^-1, and the twists
    g FT^+-1 g^-1 are central and long, without being trivial letter by
    letter.  A third of them are multiplied by FT.
    """
    rng = random.Random(3100 + n)
    rels = sphere_relators(n)
    ft = full_twist(n)

    def band():
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        return W.band_generator(n, i, j) ** rng.choice([1, -1, 2])

    ws = [alpha(n, i) ** (n - i) for i in range(min(3, n - 1))]
    for trial in range(60):
        kind = trial % 4
        if kind == 0:
            a, b = band() * band(), band()
            w = a * b * a.inv() * b.inv()
        elif kind == 1:
            w = random_word(rng, n, 10)
            w = w ** W.permutation(w).order()
        elif kind == 2:
            u = random_word(rng, n, 25)
            w = u
            for _ in range(rng.randint(1, 3)):
                g, r = random_word(rng, n, 15), rng.choice(rels) ** rng.choice([1, -1])
                cut = rng.randint(0, len(w))
                w = word(n, w.letters[:cut]) * g * r * g.inv() * word(n, w.letters[cut:])
            w = w * u.inv()
        else:
            g = random_word(rng, n, 30)
            w = g * ft ** rng.choice([1, -1]) * g.inv()
        ws.append(w * ft if rng.random() < 0.3 else w)
    return [w for w in ws if _linking_class(w)[0] is not None]


def two_walk_linking_class(w):
    """The linking class from a walk of its own, as it was computed before
    the emission count joined the walk: the reference for the class part."""
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
    t = (d[1][2] + d[1][3] - d[2][3]) // 2
    eps = t % 2
    c1 = (t - eps) // 2
    c = [0, c1] + [d[1][j] // 2 - eps - c1 for j in range(2, n + 1)]
    ok = all(
        d[j][k] // 2 - eps == c[j] + c[k] for j in range(2, n + 1) for k in range(j + 1, n + 1)
    )
    return 2 * eps if ok else None


def two_walk_least_emitting_strand(letters, n):
    """The least-emitting strand from a second walk: the reference for the
    strand part.  sigma_i is an emission of its left strand, sigma_i^-1 of
    its right one, and ties go to the lowest strand."""
    strand_at = list(range(n + 1))
    emitted = [0] * (n + 1)
    for x in letters:
        i = abs(x)
        a, b = strand_at[i], strand_at[i + 1]
        emitted[a if x > 0 else b] += 1
        strand_at[i], strand_at[i + 1] = b, a
    return min(range(1, n + 1), key=emitted.__getitem__)


class TestDynnikovAction:
    """The max-plus formulas are an action of B_m, and a faithful one."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_relations_on_random_vectors(self, m):
        rng = random.Random(3000 + m)
        for _ in range(40):
            v = [rng.randint(-60, 60) for _ in range(2 * m)]
            for i in range(1, m):
                assert dynnikov([i, -i], v) == v == dynnikov([-i, i], v)
                if i < m - 1:
                    assert dynnikov([i, i + 1, i], v) == dynnikov([i + 1, i, i + 1], v)
                for j in range(i + 2, m):
                    assert dynnikov([i, j], v) == dynnikov([j, i], v)
            # Some generator moves the vector, so the relations are not vacuous.
            assert any(dynnikov([i], v) != v for i in range(1, m))

    @pytest.mark.parametrize("m", range(2, 7))
    def test_fixes_the_unit_exactly_on_trivial_disc_braids(self, m):
        # Disc words with braid and commutation relators conjugated in,
        # against the faithful Artin action of B_m on F_m.
        rng = random.Random(3050 + m)
        rels = [[i, i + 1, i, -(i + 1), -i, -(i + 1)] for i in range(1, m - 1)]
        rels += [[i, j, -i, -j] for i in range(1, m) for j in range(i + 2, m)]
        rels += [[i, -i] for i in range(1, m)]
        unit, basis = [0, 1] * m, [(j,) for j in range(1, m + 1)]
        seen = set()
        for _ in range(80):
            u = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 8))]
            g = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 5))]
            r = rng.choice(rels) if rng.random() < 0.6 else [rng.choice([1, -1])]
            letters = u + g + r + [-x for x in reversed(g)] + [-x for x in reversed(u)]
            trivial = disc_artin_images(letters, m) == basis
            assert (dynnikov(letters, unit) == unit) == trivial, letters
            seen.add(trivial)
        assert seen == {True, False}


class TestExactStage:
    """The exact stage agrees with the free-group check, from every strand."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_agrees_with_the_free_group_check(self, n):
        ws = central_class_words(n)
        values = []
        for w in ws:
            want = free_group_acts_innerly(w)
            assert oracle._acts_innerly(w, _linking_class(w)[1]) == want, w.letters
            assert all(exact_verdict(w, s) == want for s in range(1, n + 1)), w.letters
            values.append(want)
        # Long central words that are not trivial letter by letter, and on
        # four strands or more, class members that are not central.
        assert any(want and len(w) > 60 for w, want in zip(ws, values))
        assert (False in values) == (n > 3)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_verdicts_match_the_free_group_check(self, n, monkeypatch):
        pairs, singles = stage_cases(n)

        def verdicts():
            return ([verdict(equals, u, v) for u, v in pairs],
                    [(verdict(central_value, w), verdict(order_of, w)) for w in singles])

        got = verdicts()
        assert all(got[0])
        monkeypatch.setattr(oracle, "_acts_innerly", lambda w, s: free_group_acts_innerly(w))
        want = verdicts()
        assert want[0] == got[0]
        # The reference may overflow its budget, e.g. on (1 -2)^12 FT at
        # n = 8; the exact stage never does.
        assert all(ReferenceBudgetError not in g for g in got[1])
        assert all(g == v or ReferenceBudgetError in v for g, v in zip(got[1], want[1]))

    @pytest.mark.parametrize("n", [*range(3, 13), 20, 40])
    def test_last_heavy_words_agree_with_the_reference(self, n):
        # sigma_{n-1} is the letter whose image the reference rebuilds from
        # all n - 1 images.  Words heavy in it, their pure powers, commutators
        # of those, which lie in the identity's linking class and so reach the
        # exact stage, and conjugates of the surface relation and of FT,
        # which are central.
        rng = random.Random(1800 + n)
        ws = [last_heavy_word(rng, n, length) for length in (0, 1, 2, 5, 9, 14, 20, 30, 45)]
        heavy = sum(abs(x) == n - 1 for w in ws for x in w.letters)
        assert 3 * heavy >= sum(len(w) for w in ws)
        ws += [w ** W.permutation(w).order() for w in ws[1:6]]
        ws += [a * b * a.inv() * b.inv() for a, b in zip(ws[9:13], ws[10:14])]
        assert all(_linking_class(w)[0] == 0 for w in ws[14:])
        central = [u * surface_relation(n) * u.inv() for u in ws[3:6]]
        central += [u * full_twist(n) * u.inv() for u in ws[3:5]]
        overflows, values = set(), []
        for w in ws + central:
            # A budget of half the word overflows on most words, and one of
            # 2 (n - 1) |w| letters on few.
            for budget in (n - 1 + len(w) // 2, 2 * (n - 1) * len(w)):
                overflows.add(verdict(free_group_acts_innerly, w, budget) is ReferenceBudgetError)
            want = verdict(free_group_acts_innerly, w, 100_000)
            if want is not ReferenceBudgetError:
                assert is_central(w) == want, w.letters
                values.append(want)
        assert overflows == {True, False}
        assert all(central_value(w) is not None for w in central)
        assert values.count(True) >= len(central) and False in values

    def test_least_emitting_strand(self):
        # Every letter is one emission of one of the two strands it crosses:
        # of the left one for sigma_i, of the right one for sigma_i^-1.  Ties
        # go to the lowest strand.  The walk reads only n and the letters,
        # so letters that cancel are counted too.
        def strand(letters, n):
            return _linking_class(SimpleNamespace(n=n, letters=letters))[1]

        assert strand((1, 1, 1, 1), 3) == 3
        assert strand((1, 1, -2, -2), 3) == 1
        assert strand((-2, -2, -2, -2), 4) == 1
        assert strand((1, 1, 3, 3), 4) == 1
        assert strand((1, 1, -1, -1), 3) == 3
        # sigma_1 sigma_2: strand 1 crosses from the left twice.
        assert strand((1, 2), 3) == 2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_one_walk_agrees_with_the_two_walks(self, n):
        # Pure words in both central classes, central ones past 60 letters
        # among them, random words that are not pure, and their pure powers,
        # most of which lie in neither class from four strands on.
        rng = random.Random(3200 + n)
        ws = central_class_words(n)
        for _ in range(30):
            w = random_word(rng, n, 30)
            ws += [w, w ** W.permutation(w).order()]
        classes, kinds = [], set()
        for w in ws:
            want = (two_walk_linking_class(w), two_walk_least_emitting_strand(w.letters, n))
            assert _linking_class(w) == want, w.letters
            classes.append(want[0])
            pure = W.permutation(w).is_identity()
            kinds.add((pure, want[0] is None))
        assert {0, 2} <= set(classes)
        assert (False, True) in kinds and ((True, True) in kinds) == (n > 3)
        assert any(len(w) > 60 and central_value(w) is not None for w in ws)
        # Every strand is the least-emitting one of some word at small n.
        if n <= 5:
            assert {_linking_class(w)[1] for w in ws} == set(range(1, n + 1))

    @pytest.mark.parametrize("m", range(2, 31))
    def test_twisted_unit(self, m):
        # The closed form is Delta^2k (0, 1, ..., 0, 1) applied letter by
        # letter, and only k = 0 leaves the unit.
        for k in (*range(-6, 7), 25, -25):
            got = [x for pair in oracle._twisted_unit(m, k) for x in pair]
            assert got == dynnikov(delta_squared(m, k), [0, 1] * m), k
            assert (got == [0, 1] * m) == (k == 0)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_states_of_the_closed_form_proof(self, m):
        # The README's induction: with delta = sigma_1 ... sigma_{m-1}, the
        # state after Delta^2k delta^j, for k = 0..3 and 1 <= j < m, and the
        # mirror (a, b) -> (-a, b), which turns sigma_i into sigma_i^-1.
        delta, M = list(range(1, m)), m - 1
        for k in range(4):
            for j in range(1, m):
                if k:
                    want = [(M, -M * (2 * k - 1) - j)] + [(M, -1)] * (m - j - 1)
                else:
                    want = [(i + j - 1, 0) for i in range(1, m - j + 1)]
                want += [(j - 1, 1 - j)] if j >= 2 else []
                want += [(m - i, 0) for i in range(m - j + 2, m)]
                want += [(0, 2 * M * k + m + j - 1)]
                got = dynnikov(delta_squared(m, k) + delta * j, [0, 1] * m)
                assert got == [x for pair in want for x in pair], (k, j)

        def mirror(v):
            return [x if t % 2 else -x for t, x in enumerate(v)]

        rng = random.Random(3400 + m)
        for _ in range(40):
            v = [rng.randint(-60, 60) for _ in range(2 * m)]
            for i in range(1, m):
                assert mirror(dynnikov([i], v)) == dynnikov([-i], mirror(v))

    @pytest.mark.parametrize("n", [*range(3, 13), 200])
    def test_a_p_windows(self, n):
        # sigma_p at the tracked position p emits A_p = sigma_p^-1 ...
        # sigma_{n-2}^-1 sigma_{n-2}^-1 ... sigma_1^-1 sigma_1^-1 ...
        # sigma_{p-1}^-1, and sigma_p^-1 at position p + 1 emits A_p^-1.
        for p in range(1, n):
            want = [-j for j in range(p, n - 1)] + [-j for j in range(n - 2, 0, -1)] \
                + [-j for j in range(1, p)]
            assert len(want) == 2 * n - 4
            assert oracle._capped_word((p,), n, p) == want
            assert oracle._capped_word((-p,), n, p + 1) == [-x for x in reversed(want)]

    @pytest.mark.parametrize("n", [3, 4, 7, 13, 40])
    def test_conjugated_twist_powers(self, n, monkeypatch):
        # g FT^j g^-1 is trivial for even j and the full twist for odd j;
        # its image in B_{n-1} is Delta^2k with k running over -4..4, so
        # reading both the size and the sign of k off the coordinates matters.
        rng = random.Random(3300 + n)
        g = random_word(rng, n, 12)
        ks = []
        closed_form = oracle._twisted_unit
        monkeypatch.setattr(oracle, "_twisted_unit", lambda m, k: ks.append(k) or closed_form(m, k))
        for j in range(-4, 5):
            w = g * full_twist(n) ** j * g.inv()
            assert central_value(w) == 2 * (j % 2), j
            assert is_trivial(w) == (j % 2 == 0), j
        assert set(ks) == set(range(-4, 5))


def full_n_linking_class(w):
    """The linking class and least-emitting strand from a pass over all n
    strands, however few the word moves: the reference for the pass that
    stops at the strands the word can move."""
    n = w.n
    d = [[0] * (n + 1) for _ in range(n + 1)]
    strand_at = list(range(n + 1))
    emitted = [0] * (n + 1)
    for x in w.letters:
        i = abs(x)
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
    t = (d[1][2] + d[2][1] + d[1][3] + d[3][1] - d[2][3] - d[3][2]) // 2
    eps = t % 2
    c1 = (t - eps) // 2
    c = [0, c1] + [(d[1][j] + d[j][1]) // 2 - eps - c1 for j in range(2, n + 1)]
    for j in range(2, n + 1):
        for k in range(j + 1, n + 1):
            if (d[j][k] + d[k][j]) // 2 != c[j] + eps + c[k]:
                return None, s
    return 2 * eps, s


class TestMovedStrands:
    """The linking class reads the first min(n, K + 3) strands, K the
    largest |letter|, and finds what the pass over all n strands finds."""

    @staticmethod
    def words_below(rng, n, k):
        """Words whose letters are at most k in absolute value: random ones,
        pure ones, the full twist of the first k + 1 strands, and their
        products and conjugates."""
        def short(length):
            return word(n, [rng.choice([1, -1]) * rng.randint(1, k) for _ in range(length)])

        def pure():
            w = identity(n)
            for _ in range(rng.randint(1, 3)):
                g = short(rng.randint(0, 6))
                w = w * g * sigma(n, rng.randint(1, k)) ** rng.choice([2, -2]) * g.inv()
            return w

        twist = word(n, list(range(1, k + 1)) * (k + 1))
        g = short(rng.randint(1, 8))
        return [short(rng.randint(1, 12)), pure(), twist, twist.inv() ** 2,
                g * twist * g.inv(), g * twist * pure() * g.inv(), pure() * twist ** 2]

    def test_agrees_with_the_full_pass(self):
        rng = random.Random(2121)
        classes, cut = [], 0
        for n in range(3, 61):
            ks = {n - 1, n - 2, n - 3, *(rng.randint(1, max(1, n // 4)) for _ in range(3))}
            for k in sorted(k for k in ks if k >= 1):
                for w in self.words_below(rng, n, k):
                    want = full_n_linking_class(w)
                    assert _linking_class(w) == want, (n, w.letters)
                    classes.append(want[0])
                    cut += max(map(abs, w.letters), default=0) + 3 < n
        # Every verdict of the class is met, and most words are read on
        # fewer strands than n.
        assert {None, 0, 2} <= set(classes)
        assert classes.count(None) < len(classes) - 100
        assert cut > len(classes) // 2


class TestBudgetWords:
    """The README's two words, trivial at 166 letters, and their k = 200 versions."""

    @pytest.mark.parametrize("k", (18, 200))
    def test_decided_trivial(self, k):
        p, q, ft = word(4, [1, -2] * k), word(4, [2, -1] * k), full_twist(4)
        for w in (p * ft * p.inv() * p.inv() * ft * p, p * ft * p.inv() * q * ft * q.inv()):
            assert len(w) == 8 * k + 22
            assert is_trivial(w) and central_value(w) == 0
            assert order_of(w) == Order(1) and equals(w, identity(4))
            assert not is_trivial(w * ft) and central_value(w * ft) == 2

    @pytest.mark.parametrize("k", (14, 20, 200))
    def test_powers_of_the_pseudo_anosov(self, k):
        p = word(4, [1, -2] * k)
        assert order_of(p) == Order(None)
        assert central_value(p * full_twist(4) * p.inv()) == 2
        assert central_value(p * word(4, [1, 1]) * p.inv()) is None
