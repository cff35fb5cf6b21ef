"""Property tests of the polynomial kernel against the graded oracles, for
every class from 1 to 7 and for F(5,3), the widest group of the nf-deep
workload."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import graded_power, graded_product, naive_embed
from nildist.magnus import (
    _raw_mul,
    commutator,
    embed,
    evaluate,
    inverse,
    multiply,
    power,
)
from nildist.presentation import Presentation
from nildist.words import commutator_word, parse, parse_word, word_power

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
    assert _raw_mul(f, g, cutoff) == graded_product(f, g, cutoff)


@KERNEL
@given(st.data())
def test_raw_mul_returns_a_new_dict(data):
    p = data.draw(groups)
    f = data.draw(polynomials(p))
    g = data.draw(polynomials(p))
    one = _raw_mul(f, {(): 1}, p.c)
    assert one == f and one is not f
    before = (dict(f), dict(g))
    product = _raw_mul(f, g, p.c)
    assert (f, g) == before and product is not f and product is not g


@KERNEL
@given(st.data())
def test_multiply_matches_naive_embed(data):
    p = data.draw(groups)
    u = data.draw(words(p, 10))
    v = data.draw(words(p, 10))
    assert multiply(embed(u, p), embed(v, p)).terms == naive_embed(u + v, p.m, p.c)


@KERNEL
@given(st.data())
def test_power_matches_repeated_word(data):
    p = data.draw(groups)
    w = data.draw(words(p, 5))
    n = data.draw(st.integers(-8, 8))
    assert power(embed(w, p), n).terms == naive_embed(word_power(w, n), p.m, p.c)


@KERNEL
@given(st.data())
def test_large_power_matches_square_and_multiply(data):
    p = data.draw(groups)
    w = data.draw(words(p, 4))
    n = data.draw(st.integers(10**6 - 50, 10**6 + 50)) * data.draw(
        st.sampled_from((1, -1))
    )
    assert power(embed(w, p), n).terms == graded_power(w, n, p.m, p.c)


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
    assert bracket.terms == naive_embed(commutator_word(u, v), p.m, p.c)


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
        assert bracket.terms == naive_embed(commutator_word(u, v), p.m, p.c)
