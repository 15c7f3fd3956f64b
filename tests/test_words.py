import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebraid import oracle
from spherebraid import words as W
from spherebraid.groups import make_group
from spherebraid.words import (
    BraidWord,
    Permutation,
    SideConditionError,
    StrandMismatchError,
    WordError,
    abelianize,
    parse_braid,
    permutation,
    word,
)
from test_oracle import binary_tetrahedral_gens


def letters(n, max_len=20):
    gen = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    return st.lists(gen, max_size=max_len)


class TestParsing:
    def test_plain_tokens(self):
        assert parse_braid("1 2 -3", 4).letters == (1, 2, -3)

    def test_free_reduction(self):
        assert parse_braid("1 -1", 4).letters == ()

    def test_named_power(self):
        assert parse_braid("a0^4", 4) == W.alpha(4, 0) ** 4

    def test_dsl_concatenation(self):
        got = parse_braid("delta(2,0) * D^-1", 4)
        assert got == W.delta_comm(4, 2, 0) * W.half_twist(4).inv()

    def test_index_out_of_range(self):
        with pytest.raises(WordError):
            parse_braid("4", 4)

    def test_unknown_name(self):
        with pytest.raises(WordError):
            parse_braid("bogus", 4)

    def test_side_condition(self):
        with pytest.raises(SideConditionError):
            parse_braid("O1", 5)  # needs even strand count
        with pytest.raises(SideConditionError):
            parse_braid("delta(3,0)", 4)  # 3 does not divide 4

    def test_malformed(self):
        with pytest.raises(WordError):
            parse_braid("1 +", 4)


def reference_reduce(*parts):
    """The per-letter free reduction that the junction reducer replaced."""
    out = []
    for part in parts:
        for x in part:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def inverse(letters):
    return tuple(-x for x in reversed(letters))


reduced_parts = st.lists(letters(5, 8).map(reference_reduce), max_size=8)


class TestJunctionReduce:
    """``_reduce`` joins free-reduced parts exactly as a per-letter pass would."""

    @given(reduced_parts, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_letter_reduction(self, parts, data):
        # Follow a random tail of the parts with its inverses, so that whole
        # parts cancel and keep cancelling into the parts before them.
        k = data.draw(st.integers(0, len(parts)))
        tail = [inverse(p) for p in reversed(parts[len(parts) - k :])]
        mid = data.draw(reduced_parts)
        parts = parts + mid + tail
        assert W._reduce(*parts) == reference_reduce(*parts)

    def test_complete_cancellation_across_parts(self):
        a, b = (1, 2, -3), (3, 3, 1)
        assert W._reduce(a, b, inverse(b), inverse(a)) == ()
        assert W._reduce(a, b, inverse(b), (4,), inverse(a)) == a + (4,) + inverse(a)
        assert W._reduce((1,), (2,), (-2,), (-1,), (-1,)) == (-1,)
        assert W._reduce() == ()

    @given(letters(5, 40))
    @settings(max_examples=200, deadline=None)
    def test_word_reduces_unreduced_letters(self, a):
        assert word(5, a).letters == reference_reduce(a)

    @given(letters(5, 10), st.integers(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_power(self, a, e):
        w = word(5, a)
        base = w.letters if e >= 0 else inverse(w.letters)
        assert (w ** e).letters == reference_reduce(base * abs(e))
        assert (w ** 0).letters == ()
        assert w ** -e == (w ** e).inv()


def left_fold_parse(text, n):
    """The parser before groups: ``out = out * atom ** exp`` at every token."""
    out = W.identity(n)
    pos = 0
    expect_atom = True
    while pos < len(text):
        if not expect_atom:
            rest = text[pos:].lstrip()
            if rest.startswith("*"):
                pos = len(text) - len(rest) + 1
                expect_atom = True
                continue
        m = W._TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise WordError(f"malformed token at {text[pos:pos + 20]!r}")
        pos = m.end()
        expect_atom = False
        exp = int(m.group("exp")) if m.group("exp") else 1
        if m.group("int") is not None:
            k = int(m.group("int"))
            if k == 0 or abs(k) > n - 1:
                raise WordError(f"generator index {k} out of range for n={n}")
            atom = W.sigma(n, k)
        else:
            args = m.group("args")
            params = tuple(int(a) for a in args.split(",")) if args else ()
            atom = W.std_element(W.NamedElement(m.group("name"), params), n)
        out = out * atom ** exp
    return out


ATOMS_N6 = ("1", "-2", "3", "-4", "5", "a0", "a1", "a2", "D", "FT", "O1", "O2", "rho",
            "rho(2)", "delta(2,0)", "delta(3,0)", "xi(0)", "lam(2)", "A(1,3)", "A(2,6)", "zeta")


# Runs of plain integers: a power binds to the last integer only, and a run
# may hold a cancelling pair.
RUNS_N6 = ("1 2", "-2 3 -4", "5 -5 1", "4  -1\t2", "3 4 5 1 2")


def dsl_terms():
    atom = st.sampled_from(ATOMS_N6 + RUNS_N6)
    power = st.one_of(st.just(""), st.integers(-3, 3).map(lambda e: f"^{e}"))
    return st.tuples(atom, power).map("".join)


def dsl_text():
    return st.lists(st.tuples(dsl_terms(), st.sampled_from((" ", " * ", "*", "  "))),
                    max_size=10).map(lambda ts: "".join(t + sep for t, sep in ts).rstrip(" *"))


def dsl_group_text():
    """DSL text with nested groups, some right after an integer: ``2 -3(1 a0)^2``."""
    def grouped(inner):
        lead = st.sampled_from(("", "1", "2 -3", "a0 ", "4 *", "5 -5 "))
        power = st.sampled_from(("", "^2", "^-1", "^0"))
        return st.tuples(lead, inner, power, dsl_text()).map(
            lambda t: f"{t[0]}({t[1]}){t[2]} {t[3]}".rstrip())
    return st.recursive(dsl_text(), grouped, max_leaves=4)


# The token patterns of the one-token-per-integer parser, which let \d and \s
# match outside ASCII.
_UNICODE_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)(?:\((?P<args>[^)]*)\))?)"
    r"(?:\^(?P<exp>-?\d+))?\s*"
)
_UNICODE_CLOSE = re.compile(r"\)(?:\^(?P<exp>-?\d+))?\s*")
_UNICODE_SPACE = re.compile(r"\s*")
# A named atom's argument, read by the rule of generator indices.
_ASCII_ARG = re.compile(r"[ \t\n\r\f\v]*-?[0-9]+[ \t\n\r\f\v]*")


def token_parse(text, n):
    """The parser that matched one token per integer, without the letter
    bound.  Like parse_braid, it ends where only spaces are left, and it
    reads a named atom's arguments as ASCII spaces around an optional '-'
    and ASCII digits."""
    W.identity(n)
    groups = [[]]
    opened = []
    pos = 0
    expect_atom = True
    while pos < len(text):
        start = _UNICODE_SPACE.match(text, pos).end()
        c = text[start : start + 1]
        if not c:
            break
        if c == "*" and not expect_atom:
            pos = start + 1
            expect_atom = True
            continue
        if c == "(":
            opened.append(start)
            groups.append([])
            pos = start + 1
            expect_atom = True
            continue
        if c == ")":
            if not opened:
                raise WordError(f"unbalanced ')' at position {start}")
            m = _UNICODE_CLOSE.match(text, start)
            opened.pop()
            letters = W._reduce(*groups.pop())
        else:
            m = _UNICODE_TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise WordError(f"malformed token at {text[pos:pos + 20]!r}")
            if m.group("int") is not None:
                k = int(m.group("int"))
                if k == 0 or abs(k) > n - 1:
                    raise WordError(f"generator index {k} out of range for n={n}")
                letters = (k,)
            else:
                name, args = m.group("name"), m.group("args")
                params = []
                at = m.start("args")
                for arg in args.split(",") if args else ():
                    if not _ASCII_ARG.fullmatch(arg):
                        shown = f"{arg[:20]!r}..." if len(arg) > 20 else repr(arg)
                        raise WordError(f"bad argument {shown} to {name} at position {at}")
                    params.append(int(arg))
                    at += len(arg) + 1
                letters = W.std_element(W.NamedElement(name, tuple(params)), n).letters
        pos = m.end()
        expect_atom = False
        groups[-1] += W._power_parts(letters, int(m.group("exp") or 1))
    if opened:
        raise WordError(f"unbalanced '(' at position {opened[-1]}")
    return BraidWord(n, W._reduce(*groups[0]))


def parse_outcome(parse, text, n):
    try:
        return parse(text, n)
    except WordError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestIntegerRuns:
    """A run of integers read in one match parses as one token per integer did."""

    @given(dsl_group_text())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_token_parser(self, text):
        assert parse_braid(text, 6) == token_parse(text, 6)

    @given(dsl_group_text(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_errors_match_the_token_parser(self, text, data):
        at = data.draw(st.integers(0, len(text)))
        mutated = text[:at] + data.draw(st.sampled_from("*()+^x9-0 ,")) + text[at:]
        got, want = parse_outcome(parse_braid, mutated, 6), parse_outcome(token_parse, mutated, 6)
        dangling = re.fullmatch(r"WordError: dangling '\*' at position (\d+)", str(got))
        if dangling:
            # The token parser let the '*' pass; only spaces follow it, then ')' or the end.
            star = int(dangling.group(1))
            assert mutated[star] == "*" and mutated[star + 1 :].lstrip()[:1] in ("", ")")
        else:
            assert got == want, mutated

    @pytest.mark.parametrize("text,letters", [
        ("1 2(3 -4)^2", (1, 2, 3, -4, 3, -4)), ("1 2^3 4", (1, 2, 2, 2, 4)),
        ("1-2 3", (1, -2, 3)), ("1 2a0", (1, 2, *range(1, 30))), ("1 -1 2", (2,)),
        ("3 1 -1 -3", ()), ("1 23^2 4", (1, 23, 23, 4)), ("-12 -2^-2", (-12, 2, 2)),
        ("29 1(2)", (29, 1, 2)),
    ])
    def test_run_boundaries(self, text, letters):
        assert parse_braid(text, 30).letters == letters == token_parse(text, 30).letters

    @pytest.mark.parametrize("text,k", [("12 -1", 12), ("1 2 0", 0), ("1 -2 -6 7", -6)])
    def test_first_index_out_of_range_is_named(self, text, k):
        with pytest.raises(WordError, match=f"^generator index {k} out of range for n=6$"):
            parse_braid(text, 6)


class TestMalformedText:
    @pytest.mark.parametrize("text,position", [
        ("1 *", 2), ("1 *  ", 2), ("(1 *)", 3), ("a0 * (2 * )^2", 8), ("1 (2 * 3 *)", 9),
    ])
    def test_dangling_star(self, text, position):
        with pytest.raises(WordError, match=rf"^dangling '\*' at position {position}$"):
            parse_braid(text, 4)

    def test_star_before_a_group_is_not_dangling(self):
        assert parse_braid("1 * (2)", 4).letters == (1, 2)
        assert parse_braid("1 * ()^3", 4).letters == (1,)

    @pytest.mark.parametrize("text", [
        "\u0661", "1 \u0662", "a0^\u0662", "(1)^\u0663", "A(\u0661,2)", "\uff11",
        "1\u00a02",
    ])
    def test_digits_and_spaces_outside_ascii(self, text):
        with pytest.raises(WordError):
            parse_braid(text, 4)

    @pytest.mark.parametrize("text,position", [
        ("D^99999999", 0), ("1 (1 2)^1000001", 2), ("a0^-1000000 1", 0),
        ("1 ((2)^1000 3)^1999", 2),
    ])
    def test_letter_bound(self, text, position):
        message = f"^word passes 2,000,000 letters at position {position}$"
        with pytest.raises(WordError, match=message):
            parse_braid(text, 4)

    def test_letter_bound_counts_every_open_group(self, monkeypatch):
        monkeypatch.setattr(W, "_LETTER_BUDGET", 10)
        assert len(parse_braid("(1 2)^3 (1 2)^2", 4)) == 10
        assert len(parse_braid("((1 2)^2 3)^2", 4)) == 10
        assert len(parse_braid("1 -1 1 -1 1 -1 1 -1 1 -1", 4)) == 0
        with pytest.raises(WordError, match="at position 16$"):
            parse_braid("(1 2)^3 (1 2)^2 3", 4)
        with pytest.raises(WordError, match="at position 11$"):
            parse_braid("1 2 3 (1 2 (3 1 2 3 1)^2)", 4)
        # Eight letters outside the group and three inside pass the bound.
        with pytest.raises(WordError, match="at position 17$"):
            parse_braid("1 2 3 1 2 3 1 2 (1 2 3)", 4)

    @pytest.mark.parametrize("text", ["", " ", "   ", "\t\n "])
    def test_only_spaces_is_the_identity(self, text):
        assert parse_braid(text, 4) == W.identity(4)

    @pytest.mark.parametrize("text,message", [
        ("( ", "unbalanced '(' at position 0"), ("1 ((2)  ", "unbalanced '(' at position 2"),
        ("1 * ", "dangling '*' at position 2"),
    ])
    def test_spaces_after_an_open_group_or_a_star(self, text, message):
        with pytest.raises(WordError, match=f"^{re.escape(message)}$"):
            parse_braid(text, 4)

    # int() refuses more than 4,300 digits by default.
    LONG = "9" * 5000

    @pytest.mark.parametrize("text,position", [
        (LONG, 0), (f"1 -{LONG}", 2), (f"a0 {LONG}^2", 3), (f"1 2 {LONG} 9", 4),
    ])
    def test_long_generator_index_is_out_of_range(self, text, position):
        message = f"^generator index at position {position} out of range for n=4$"
        with pytest.raises(WordError, match=message):
            parse_braid(text, 4)

    @pytest.mark.parametrize("text,position", [
        (f"1^{LONG}", 0), (f"a0^-{LONG}", 0), (f"1 (2)^{LONG}", 2), (f"D^{LONG} ()", 0),
    ])
    def test_long_exponent_passes_the_letter_bound(self, text, position):
        message = f"^word passes 2,000,000 letters at position {position}$"
        with pytest.raises(WordError, match=message):
            parse_braid(text, 4)

    @pytest.mark.parametrize("text", [f"()^{LONG}", f"()^-{LONG}", f"(1 -1)^{LONG} 2 -2"])
    def test_long_exponent_of_an_empty_atom_is_the_identity(self, text):
        assert parse_braid(text, 4) == W.identity(4)

    def test_leading_zeros_past_the_digit_limit_are_read(self):
        zeros = "0" * 5000
        assert parse_braid(f"{zeros}1 -{zeros}3", 4).letters == (1, -3)
        assert parse_braid(f"a0^{zeros}2", 4) == parse_braid("a0^2", 4)
        assert parse_braid(f"A({zeros}1, {zeros}3)", 4) == W.band_generator(4, 1, 3)
        assert parse_braid(f"ap({zeros}2)", 4) == W.alpha_prime(4, 2)
        with pytest.raises(SideConditionError, match="got -2$"):
            parse_braid(f"ap(-{zeros}2)", 4)

    @pytest.mark.parametrize("text,shown,name,position", [
        (f"A(1,{LONG})", "9" * 20, "A", 4), (f"a0 * A( {LONG} ,2)", " " + "9" * 19, "A", 7),
        (f"delta(-{LONG})", "-" + "9" * 19, "delta", 6),
    ])
    def test_long_atom_argument_is_bad_and_shortened(self, text, shown, name, position):
        message = f"^bad argument {re.escape(repr(shown))}\\.\\.\\. to {name} at position {position}$"
        with pytest.raises(WordError, match=message):
            parse_braid(text, 4)

    def test_one_figure_bounds_words_and_images(self):
        assert oracle.IMAGE_BUDGET == W._LETTER_BUDGET == 2_000_000


def per_letter_check(n, letters):
    """The per-letter validation of BraidWord before builtins checked the whole tuple."""
    for x in letters:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > n - 1:
            raise WordError(f"letter {x!r} out of range for n={n}")
    for a, b in zip(letters, letters[1:]):
        if a == -b:
            raise WordError("letters are not free-reduced")


def check_outcome(f, *args):
    try:
        f(*args)
    except WordError as exc:
        return str(exc)
    return None


def odd_letters(n):
    return st.lists(st.sampled_from(
        (0, 1, -1, 2, -2, n - 1, 1 - n, n, -n, True, False, 1.0, "1", None)), max_size=8)


class TestBraidWordChecks:
    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), odd_letters(n))))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_message_as_the_per_letter_check(self, args):
        n, letters = args
        letters = tuple(letters)
        want = check_outcome(per_letter_check, n, letters)
        assert check_outcome(BraidWord, n, letters) == want
        if want is None:
            assert BraidWord(n, letters).letters == letters

    @pytest.mark.parametrize("letters,message", [
        ((1, 2, -2), "letters are not free-reduced"),
        ((1, 4, -1, 1), "letter 4 out of range for n=4"),
        ((True, -1), "letter True out of range for n=4"),
        ((1, "1"), "letter '1' out of range for n=4"),
        ((2, 1.0, 0), "letter 1.0 out of range for n=4"),
        ((-4,), "letter -4 out of range for n=4"),
    ])
    def test_first_bad_letter_is_named(self, letters, message):
        with pytest.raises(WordError, match=f"^{re.escape(message)}$"):
            BraidWord(4, letters)


def strands_and_letters(count):
    """n in 3..8 with ``count`` letter lists for it."""
    return st.integers(3, 8).flatmap(
        lambda n: st.tuples(st.just(n), *[letters(n) for _ in range(count)]))


def passes_the_check(w):
    """Rebuild w through the checking constructor: it must not raise and must compare equal."""
    assert BraidWord(w.n, w.letters) == w
    return w


def cyclic_core_reference(letters):
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


class TestDerivedWordsPassTheCheck:
    """Words made from valid words skip the constructor's check.  Each must
    still pass it, and equal the word :func:`word` checks and reduces from
    the same letters written out."""

    @given(strands_and_letters(2))
    @settings(max_examples=300, deadline=None)
    def test_products_inverses_powers_and_cores(self, args):
        n, a, b = args
        u, v = word(n, a), word(n, b)
        assert passes_the_check(u * v) == word(n, u.letters + v.letters)
        assert passes_the_check(u.inv()) == word(n, inverse(u.letters))
        for e in range(-3, 4):
            base = u.letters if e >= 0 else inverse(u.letters)
            assert passes_the_check(u ** e) == word(n, base * abs(e))
        core = passes_the_check(oracle._cyclic_core(u))
        assert core.letters == cyclic_core_reference(u.letters)
        p = permutation(u)
        assert Permutation(p.images) == p

    @given(dsl_text())
    @settings(max_examples=200, deadline=None)
    def test_parsed_words(self, text):
        passes_the_check(parse_braid(text, 6))

    @pytest.mark.parametrize("gens,kind,param", [
        ([W.alpha_prime(5, 2), W.half_twist(5)], "dicyclic", 3),
        (binary_tetrahedral_gens(), "T*", None),
    ], ids=["Dic12", "T*"])
    def test_words_verify_finite_subgroup_evaluates(self, gens, kind, param, monkeypatch):
        target = make_group(kind, param)
        n = gens[0].n

        def reference(gen_word):
            return word(n, [x for k in gen_word
                            for x in (gens[k - 1].letters if k > 0 else inverse(gens[-k - 1].letters))])

        checked = []
        real = oracle.is_trivial
        monkeypatch.setattr(oracle, "is_trivial", lambda w: checked.append(w) or real(w))
        assert oracle.verify_finite_subgroup(gens, target)
        relators = target.presentation.relators
        assert len(checked) > len(relators)
        for w, rel in zip(checked, relators):
            assert passes_the_check(w) == reference(rel)
        elements = {reference(g) for g in target.words}
        for w in checked[len(relators):]:
            assert passes_the_check(w) in elements


class TestParseOnce:
    @given(dsl_text())
    @settings(max_examples=200, deadline=None)
    def test_matches_left_fold(self, text):
        assert parse_braid(text, 6) == left_fold_parse(text, 6)

    @given(dsl_text(), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_group_power(self, text, e):
        assert parse_braid(f"({text})^{e}", 6) == parse_braid(text, 6) ** e
        assert parse_braid(f"1 * ( {text} ) 2", 6) == parse_braid(f"1 {text} 2", 6)

    def test_readme_group(self):
        got = parse_braid("(1 -2)^18 * FT", 4)
        assert got == word(4, [1, -2] * 18) * W.full_twist(4)

    def test_nested_groups_with_named_atoms(self):
        got = parse_braid("((1 2)^2 A(1,3))^-3 * a0^2", 4)
        inner = word(4, [1, 2]) ** 2 * W.band_generator(4, 1, 3)
        assert got == inner ** -3 * W.alpha(4, 0) ** 2
        assert parse_braid("()^5 (1)^0", 4) == W.identity(4)

    @pytest.mark.parametrize("text,position", [
        ("(1 2", 0), ("1 ((2)^2", 2), ("(1 2))", 5), (")", 0), ("a0 * (1 -2)^3 )", 14),
    ])
    def test_unbalanced(self, text, position):
        with pytest.raises(WordError, match=f"unbalanced '[()]' at position {position}$"):
            parse_braid(text, 4)

    @pytest.mark.parametrize("text,arg,name,position", [
        ("A(1 2)", "1 2", "A", 2), ("a0 * delta(2,x)", "x", "delta", 13),
        ("(1 A(1,))^2", "", "A", 7), ("A(1,0_3)", "0_3", "A", 4),
        ("A( 1 ,+3)", "+3", "A", 6), ("A(1,- 3)", "- 3", "A", 4), ("ap(_1)", "_1", "ap", 3),
        ("A(1,3\u00a0)", "3\u00a0", "A", 4), ("A(1,\u0663)", "\u0663", "A", 4),
    ])
    def test_bad_atom_argument(self, text, arg, name, position):
        with pytest.raises(WordError) as exc:
            parse_braid(text, 4)
        assert str(exc.value) == f"bad argument {arg!r} to {name} at position {position}"
        assert parse_outcome(token_parse, text, 4) == f"WordError: {exc.value}"

    @pytest.mark.parametrize("text", ["A( 1 , 3 )", "A(\t1,3\n)", "A(01,003)", "A(1,3)"])
    def test_atom_argument_with_spaces_and_zeros(self, text):
        assert parse_braid(text, 4) == token_parse(text, 4) == W.band_generator(4, 1, 3)

    def test_malformed_inside_group(self):
        with pytest.raises(WordError, match="malformed"):
            parse_braid("(1 * * 2)", 4)
        with pytest.raises(WordError, match="malformed"):
            parse_braid("(1 2)^", 4)


class TestWordAlgebra:
    def test_concat_cancels(self):
        s1 = W.sigma(4, 1)
        assert (s1 * s1.inv()).letters == ()

    def test_invert_reverses_and_negates(self):
        w = word(4, [1, 2])
        assert w.inv().letters == (-2, -1)

    def test_concat_inner_reduction(self):
        assert (word(4, [1, 2]) * word(4, [-2, 3])).letters == (1, 3)

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            word(4, [1]) * word(5, [1])

    def test_minimum_strands(self):
        with pytest.raises(WordError):
            word(2, [1])

    @given(letters(5), letters(5))
    @settings(max_examples=60, deadline=None)
    def test_reduction_invariant(self, a, b):
        w = word(5, a) * word(5, b)
        assert not any(x == -y for x, y in zip(w.letters, w.letters[1:]))

    @given(letters(5))
    @settings(max_examples=60, deadline=None)
    def test_word_times_inverse_is_empty(self, a):
        w = word(5, a)
        assert (w * w.inv()).letters == ()


class TestPermutation:
    def test_generator_is_transposition(self):
        p = permutation(W.sigma(4, 1))
        assert p(1) == 2 and p(2) == 1 and p(3) == 3

    def test_torsion_element_cycle(self):
        # The standard order-2n element shifts every strand down by one.
        p = permutation(W.alpha(6, 0))
        assert p(1) == 6
        assert all(p(k) == k - 1 for k in range(2, 7))

    def test_identity_word(self):
        assert permutation(W.identity(5)).is_identity()

    @given(letters(6), letters(6))
    @settings(max_examples=60, deadline=None)
    def test_homomorphism_left_to_right(self, a, b):
        wa, wb = word(6, a), word(6, b)
        pa, pb = permutation(wa), permutation(wb)
        assert permutation(wa * wb).images == tuple(pb(pa(k)) for k in range(1, 7))


class TestAbelianization:
    def test_generator_maps_to_one(self):
        for n in (4, 6, 9):
            cls = abelianize(W.sigma(n, 1))
            assert cls.value == 1 and cls.modulus == 2 * (n - 1)

    def test_torsion_word_exponent(self):
        assert abelianize(W.alpha(6, 0)).value == 5

    @given(letters(6))
    @settings(max_examples=40, deadline=None)
    def test_word_inverse_cancels(self, a):
        w = word(6, a)
        assert abelianize(w * w.inv()).is_zero()

    @given(letters(6), letters(6))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, a, b):
        wa, wb = word(6, a), word(6, b)
        assert abelianize(wa * wb) == abelianize(wa) + abelianize(wb)


class TestCatalog:
    def test_band_generator_adjacent(self):
        assert W.band_generator(4, 1, 2).letters == (1, 1)

    def test_delta_comm_letters(self):
        assert W.delta_comm(4, 2, 0).letters == (1, 3)

    def test_nu_expansion(self):
        assert W.nu_elt(8) == W.alpha(8, 0) ** 2 * W.omega2(8)

    def test_alpha_letter_counts(self):
        for n in (4, 7):
            assert len(W.alpha(n, 0)) == n - 1
            assert len(W.alpha(n, 1)) == n
            assert len(W.alpha(n, 2)) == n - 1

    def test_half_twist_length(self):
        assert len(W.half_twist(5)) == 10

    def test_lambda_letters(self):
        assert W.lambda_elt(6, 2, 1).letters == (2, 4)

    def test_xi_letters(self):
        assert W.xi_elt(8, 0, 2).letters == (1, 5)
        assert W.xi_prime_elt(8, 0, 2).letters == (3, 7)

    def test_v_pair_permutations(self):
        # One three-cycle and fixed points elsewhere.
        v1, v2 = W.v_pair(6)
        cycles = permutation(v1 * v2).cycles()
        assert cycles == ((2, 4, 5),)

    def test_catalog_side_conditions(self):
        with pytest.raises(SideConditionError):
            W.nu_elt(6)
        with pytest.raises(SideConditionError):
            W.lambda_elt(7, 0, 1)
        with pytest.raises(SideConditionError):
            W.gamma_b6(8)

    def test_std_element_dispatch(self):
        got = W.std_element(W.NamedElement("A", (1, 2)), 4)
        assert got.letters == (1, 1)

    @pytest.mark.parametrize(
        "text,n",
        [
            ("a0", 6), ("a1", 6), ("a2", 6), ("D", 6), ("FT", 6),
            ("O1", 6), ("O2", 6), ("rho", 6), ("delta(2,0)", 6),
            ("xi(0)", 6), ("lam(2)", 6), ("A(1,3)", 6), ("nu", 8), ("zeta", 6),
        ],
    )
    def test_dsl_surface(self, text, n):
        w = parse_braid(text, n)
        assert isinstance(w, BraidWord) and w.n == n


def catalog_outcome(f, n, name):
    try:
        return f(name, n)
    except WordError as e:
        return type(e), str(e)


class TestCatalogLengths:
    """Each catalog atom's closed-form length is the length of the built word,
    and it refuses exactly what the builder refuses, with the same error."""

    @pytest.mark.parametrize("tag", sorted(W._CATALOG))
    def test_length_formula_is_the_built_length(self, tag):
        arities = W._CATALOG[tag][1]
        checked = refused = 0
        for n in range(3, 41):
            for arity in arities:
                for params in product(range(-1, n + 2), repeat=arity):
                    name = W.NamedElement(tag, params)
                    want = catalog_outcome(lambda a, k: len(W.std_element(a, k)), n, name)
                    assert catalog_outcome(W._atom_length, n, name) == want, (n, params)
                    checked += isinstance(want, int)
                    refused += not isinstance(want, int)
        assert checked > 0 and (refused > 0) == (tag not in ("a0", "a1", "a2", "D", "FT", "v1", "v2"))

    @pytest.mark.parametrize("text,n", [
        ("FT", 1415), ("D", 2001), ("zeta", 1790), ("eta(2,1)", 2002), ("etat(0,708)", 1416),
        ("v1", 2001), ("rho", 2830),
    ])
    def test_atoms_past_the_bound_are_refused_unbuilt(self, text, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("the atom was built")

        monkeypatch.setattr(W, "std_element", refuse)
        with pytest.raises(WordError, match="^word passes 2,000,000 letters at position 0$"):
            parse_braid(text, n)

    def test_atoms_inside_the_bound_are_built(self):
        assert len(parse_braid("FT", 1414)) == 1414 * 1413
        assert len(parse_braid("FT^0", 5000)) == 0


class TestCatalogPermutationPatterns:
    """Closed-form cycle structures of the catalog elements."""

    def test_three_cycle_axis_pattern(self):
        # Contains the transposition (3n/4+1, n) and the six-cycle
        # (1, 3n/4, n/2, n/4, n/2+1, n/4+1).
        for n in (8, 12):
            cycles = set(permutation(W.nu_elt(n)).cycles())
            assert (3 * n // 4 + 1, n) in cycles
            assert (1, 3 * n // 4, n // 2, n // 4, n // 2 + 1, n // 4 + 1) in cycles

    def test_swap_axis_pattern_multiple_of_four(self):
        # All cycles have the form (j, n/2+j, n/2+1-j, n+1-j).
        n = 8
        expected = {(j, n // 2 + j, n // 2 + 1 - j, n + 1 - j) for j in range(1, n // 4 + 1)}
        assert set(permutation(W.zeta_elt(n)).cycles()) == expected

    def test_swap_axis_pattern_two_mod_four(self):
        n = 10
        cycles = set(permutation(W.zeta_elt(n)).cycles())
        assert ((n + 2) // 4, (3 * n + 2) // 4) in cycles
        assert (1, n // 2 + 1, n // 2, n) in cycles

    def test_order4_pair_transpositions(self):
        for n in (6, 7):
            i = 2 if n % 2 == 0 else 1
            half = (n - i) // 2
            v1, _ = W.v_pair(n)
            assert set(permutation(v1).cycles()) == {(k, half + k) for k in range(1, half + 1)}

    def test_infinite_product_cycle_shape(self):
        # Two (n-i)/4-cycles when 4 divides n-i, one (n-i)/2-cycle otherwise,
        # plus (n+i)/2 fixed points.
        for n, i in ((8, 0), (10, 0), (8, 2)):
            p = permutation(W.eta_tilde_elt(n, i))
            lens = sorted(len(c) for c in p.cycles())
            if (n - i) % 4 == 0:
                assert lens == [(n - i) // 4, (n - i) // 4]
            else:
                assert lens == [(n - i) // 2]
            assert sum(p(k) == k for k in range(1, n + 1)) == (n + i) // 2
