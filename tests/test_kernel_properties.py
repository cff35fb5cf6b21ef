"""Property tests of the polynomial kernel against the graded oracles, for
every class from 1 to 7 and for F(5,3), the widest group of the nf-deep
workload, of the monomial keys against the decoder in oracles, and counts of
how often the kernel's right operands are grouped into degree rows."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    decode_monomial,
    decode_terms,
    encode_terms,
    graded_power,
    graded_product,
    naive_embed,
    commutator_word,
    random_word,
    tuple_terms,
    word_power,
)
from nildist import magnus
from nildist.distortion import enumerate_ball
from nildist.errors import InternalInconsistencyError
from nildist.hall import step_map, to_coordinates
from nildist.magnus import (
    GroupElement,
    _degree_rows,
    _raw_mul,
    _series,
    commutator,
    degree,
    embed,
    evaluate,
    identity,
    inverse,
    monomial_key,
    multiply,
    power,
)
from nildist.presentation import Presentation
from nildist.words import Slp, parse, parse_word

GROUPS = tuple(
    Presentation(m, c)
    for m, c in (
        (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3),
        (2, 4), (3, 4), (2, 5), (2, 6), (2, 7), (5, 3),
    )
)

KERNEL = settings(max_examples=60, deadline=None)

groups = st.sampled_from(GROUPS)


def words(p, max_size):
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_size).map(tuple)


def nested_commutator_words(p):
    """Short words and commutators of them, nested up to three deep, so the
    bracket of two operands starts anywhere from degree 2 to past the class."""
    return st.recursive(
        words(p, 3),
        lambda inner: st.tuples(inner, inner).map(lambda t: commutator_word(*t)),
        max_leaves=4,
    )


@st.composite
def polynomials(draw, p):
    monomial = st.integers(0, p.c).flatmap(
        lambda d: st.lists(st.integers(0, p.m - 1), min_size=d, max_size=d).map(tuple)
    )
    coefficient = st.integers(-3, 3).filter(bool)
    return draw(st.dictionaries(monomial, coefficient, max_size=12))


def expressions(p):
    names = [p.name_of(i) for i in range(p.m)]
    leaves = st.sampled_from(names + ["1"])

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(" ".join),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: f"[{','.join(parts)}]"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def kernel(f, g, cutoff, bits):
    """f * g by the kernel, with g passed as its constant term and rows."""
    return _raw_mul(f, _degree_rows(g), g.get(1, 0), cutoff, bits)


@KERNEL
@given(st.data())
def test_raw_mul_matches_graded_product(data):
    # a cutoff below the class is the room commutator gives (hg)^-1; the
    # operands are cut there, as the kernel asks of its left one
    p = data.draw(groups)
    cutoff = data.draw(st.integers(0, p.c))
    f, g = (
        {m: v for m, v in data.draw(polynomials(p)).items() if len(m) <= cutoff}
        for _ in range(2)
    )
    f_keys, g_keys = encode_terms(f, p.m), encode_terms(g, p.m)
    product = kernel(f_keys, g_keys, cutoff, p.letter_bits)
    assert decode_terms(product, p.m) == graded_product(f, g, cutoff)


@KERNEL
@given(st.data())
def test_raw_mul_returns_a_new_dict(data):
    p = data.draw(groups)
    f = encode_terms(data.draw(polynomials(p)), p.m)
    g = encode_terms(data.draw(polynomials(p)), p.m)
    one = kernel(f, {1: 1}, p.c, p.letter_bits)
    assert one == f and one is not f
    before = (dict(f), dict(g))
    product = kernel(f, g, p.c, p.letter_bits)
    assert (f, g) == before and product is not f and product is not g


@KERNEL
@given(st.data())
def test_rows_cached_at_full_class_serve_a_lower_cutoff(data):
    # commutator's hg product and its (hg)^-1 series run below the class on
    # rows an element grouped for products at full class
    p = data.draw(groups)
    assume(p.c >= 2)
    u, v = data.draw(words(p, 6)), data.draw(words(p, 6))
    g, h = embed(u, p), embed(v, p)
    multiply(h, g)
    rows = g.rows
    cutoff = data.draw(st.integers(1, p.c - 1))
    bits = p.letter_bits
    low = 1 << bits * (cutoff + 1)
    h_low = {k: x for k, x in h.terms.items() if k < low}
    g_low = {k: x for k, x in g.terms.items() if k < low}
    hg = _raw_mul(h_low, rows, 1, cutoff, bits)
    assert decode_terms(hg, p.m) == graded_product(
        decode_terms(h_low, p.m), decode_terms(g_low, p.m), cutoff
    )
    n = data.draw(st.integers(-4, 4))
    del g_low[1]
    series = _series(g_low, rows, n, cutoff, bits)
    assert decode_terms(series, p.m) == naive_embed(word_power(u, n), p.m, cutoff)
    bracket = commutator(g, h)
    assert tuple_terms(bracket) == naive_embed(commutator_word(u, v), p.m, p.c)


@pytest.fixture
def groupings(monkeypatch):
    """The operands grouped into degree rows, in order."""
    grouped, group = [], magnus._degree_rows

    def counting(terms):
        grouped.append(terms)
        return group(terms)

    monkeypatch.setattr(magnus, "_degree_rows", counting)
    return grouped


def test_each_right_operand_is_grouped_once(groupings):
    p = Presentation(3, 4)
    rng = random.Random(43)
    g = embed(random_word(rng, p.m, 8, 8), p)
    lefts = [embed(random_word(rng, p.m, 6, 1), p) for _ in range(5)]
    groupings.clear()
    for f in lefts:
        multiply(f, g)
    assert len(groupings) == 1 and groupings[0] is g.terms
    # a power groups its base at most once, however many series products
    # it takes, and a second power of the same base groups nothing
    h = embed(random_word(rng, p.m, 8, 8), p)
    groupings.clear()
    power(h, 7)
    power(h, -3)
    assert len(groupings) == 1 and groupings[0] is h.terms
    # a commutator of grouped operands groups only its fresh bracket and hg
    groupings.clear()
    commutator(g, h)
    assert len(groupings) <= 2
    assert all(t is not g.terms and t is not h.terms for t in groupings)


def test_ball_groups_its_steps_and_little_else(groupings):
    # the ball steps on coordinates; only deriving the letter maps, cached
    # per step element, takes products
    p = Presentation(2, 3)
    for i in range(p.m):
        for sign in (1, -1):
            step_map(embed(((i, sign),), p))
    groupings.clear()
    ball = enumerate_ball(p, [Slp.letter(0), Slp.letter(1)], 4)
    assert len(ball) > 100
    assert len(groupings) <= 2 * p.m + 2


@KERNEL
@given(st.data())
def test_multiply_matches_naive_embed(data):
    p = data.draw(groups)
    u = data.draw(words(p, 10))
    v = data.draw(words(p, 10))
    product = multiply(embed(u, p), embed(v, p))
    assert tuple_terms(product) == naive_embed(u + v, p.m, p.c)


@KERNEL
@given(st.data())
def test_power_matches_repeated_word(data):
    p = data.draw(groups)
    w = data.draw(words(p, 5))
    n = data.draw(st.integers(-8, 8))
    assert tuple_terms(power(embed(w, p), n)) == naive_embed(word_power(w, n), p.m, p.c)


@KERNEL
@given(st.data())
def test_large_power_matches_square_and_multiply(data):
    p = data.draw(groups)
    w = data.draw(words(p, 4))
    n = data.draw(st.integers(10**6 - 50, 10**6 + 50)) * data.draw(
        st.sampled_from((1, -1))
    )
    assert tuple_terms(power(embed(w, p), n)) == graded_power(w, n, p.m, p.c)


@KERNEL
@given(st.data())
def test_evaluate_matches_expanded_word(data):
    p = data.draw(groups)
    text = data.draw(expressions(p))
    word = parse_word(text, p)
    assume(len(word) <= 400)
    assert evaluate(parse(text, p), p) == embed(word, p)


@KERNEL
@given(st.data())
def test_commutator_matches_the_product_of_four(data):
    p = data.draw(groups)
    u = data.draw(nested_commutator_words(p))
    v = data.draw(nested_commutator_words(p))
    g, h = embed(u, p), embed(v, p)
    bracket = commutator(g, h)
    assert bracket == multiply(multiply(inverse(g), inverse(h)), multiply(g, h))
    assert tuple_terms(bracket) == naive_embed(commutator_word(u, v), p.m, p.c)


def test_letter_powers_in_closed_form_equal_the_power_series():
    # (1 + x)^n = sum_k C(n, k) x^k, written down without a product; the
    # reference is the power series of the letter's image
    big = 10**6
    exponents = (
        *range(-60, 61), *range(big - 50, big + 51), *range(-big - 50, -big + 51)
    )
    for p in (*GROUPS, Presentation(1, 400)):
        for i, name in enumerate(p.names):
            letter = GroupElement(p, {1: 1, monomial_key((i,), p.letter_bits): 1})
            for n in exponents:
                expected = power(letter, n)
                assert magnus._letter_power(p, i, n) == expected
                if -60 <= n <= 60:
                    assert evaluate(parse(f"{name}^{n}", p), p) == expected
                    assert embed(((i, 1 if n > 0 else -1),) * abs(n), p) == expected


def test_commutator_of_deep_operands():
    # [a,b] and [a,[a,b]] bracket in degree 5: past the class, at it, and
    # with one or two degrees of (hg)^-1 to spare
    for c in (4, 5, 6, 7):
        p = Presentation(2, c)
        u = commutator_word(((0, 1),), ((1, 1),))
        v = commutator_word(((0, 1),), u)
        g, h = embed(u, p), embed(v, p)
        bracket = commutator(g, h)
        assert bracket.is_identity() == (c < 5)
        assert tuple_terms(bracket) == naive_embed(commutator_word(u, v), p.m, p.c)


def test_room_zero_commutator_takes_two_products(monkeypatch):
    # when uv - vu starts in degree c, (hg)^-1 is cut to 1 and the
    # commutator is 1 + (uv - vu): the two products that form the bracket
    calls, kernel = [], magnus._raw_mul

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(magnus, "_raw_mul", counting)
    rng = random.Random(41)
    room_zero = 0
    for p in GROUPS:
        for _ in range(40):
            u, v = random_word(rng, p.m, 3, 1), random_word(rng, p.m, 3, 1)
            for _ in range(rng.randrange(min(p.c, 4))):
                u, v = commutator_word(u, v), random_word(rng, p.m, 2, 1)
            g, h = embed(u, p), embed(v, p)
            calls.clear()
            bracket = commutator(g, h)
            room_zero += bracket.weight() == p.c
            assert (len(calls) == 2) == (bracket.weight() >= p.c)
            assert tuple_terms(bracket) == naive_embed(commutator_word(u, v), p.m, p.c)
    assert room_zero > 50


KEY_RANKS = (1, 2, 3, 4, 5, 8, 9, 10)


@KERNEL
@given(st.data())
def test_monomial_keys_round_trip_concatenate_and_carry_the_degree(data):
    m = data.draw(st.sampled_from(KEY_RANKS))
    bits = Presentation(m, 1).letter_bits
    monomials = st.lists(st.integers(0, m - 1), max_size=80).map(tuple)
    u, v = data.draw(monomials), data.draw(monomials)
    ku, kv = monomial_key(u, bits), monomial_key(v, bits)
    assert decode_monomial(ku, m) == u
    assert monomial_key(u + v, bits) == ((ku - 1) << bits * len(v)) + kv
    assert degree(ku, bits) == (ku.bit_length() - 1) // bits == len(u)
    # keys order by degree, then lexicographically
    assert (ku < kv) == ((len(u), u) < (len(v), v))


def test_keys_past_64_bits():
    # one-bit letters truncated at degree 400: the degree-400 key is 2^400,
    # and the series of (1 + x)^n has the binomial coefficients C(n, k) up
    # to degree 400, negative n too.  A rank-1 presentation carries class 1
    # (F(1, c) is Z), so the kernel is driven at that cutoff directly.
    x = monomial_key((0,), 1)
    rows = _degree_rows({x: 1})
    assert monomial_key((0,) * 400, 1) == 1 << 400
    p = Presentation(1, 400)
    a = embed(((0, 1),), p)
    assert p.c == 1 and p == Presentation(1, 1)
    for n in (2, 3, 1000, -1, -7):
        series = _series({x: 1}, rows, n, 400, 1)
        binomials = (
            math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)
            for k in range(401)
        )
        expected = {(0,) * k: b for k, b in enumerate(binomials) if b}
        assert decode_terms(series, 1) == expected
        back = _series({x: 1}, rows, -n, 400, 1)
        assert _raw_mul(series, _degree_rows(back), 1, 400, 1) == {1: 1}
        g = power(a, n)
        assert tuple_terms(g) == {(): 1, (0,): n}
        assert to_coordinates(g) == (n,) and g.weight() == 1
        assert multiply(g, power(a, -n)) == identity(p)


def test_group_element_refuses_tuple_keys():
    # the constant term is read at key 1, which a tuple-keyed dict lacks
    p = Presentation(2, 2)
    with pytest.raises(InternalInconsistencyError):
        GroupElement(p, {(): 1, (0,): 1})
    assert GroupElement(p, {1: 1, monomial_key((0,), p.letter_bits): 1}) == embed(
        ((0, 1),), p
    )
