import random
import sys

import pytest

from nildist.errors import (
    CapExceededError,
    ExponentOverflowError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from nildist.presentation import Presentation
from nildist.words import (
    Commutator,
    Generator,
    Power,
    Product,
    Slp,
    commutator_word,
    flatten,
    format_word,
    free_reduce,
    invert_word,
    letter_count,
    parse,
    parse_word,
    substitute,
    word_power,
)

P22 = Presentation(2, 2)
P32 = Presentation(3, 2)


def test_parse_shapes():
    assert parse("a", P22) == Generator(0)
    assert parse("", P22) == Product(())
    assert parse("a^2[a,b]^3", P22) == Product(
        (
            Power(Generator(0), 2),
            Power(Commutator(Generator(0), Generator(1)), 3),
        )
    )
    assert parse("(ab)^-1", P22) == Power(
        Product((Generator(0), Generator(1))), -1
    )


def test_nary_commutator_nests_right():
    assert parse("[a,b,a]", P32) == parse("[a,[b,a]]", P32)
    assert parse("[c,b,a,c]", P32) == Commutator(
        Generator(2), Commutator(Generator(1), Commutator(Generator(0), Generator(2)))
    )


def test_canonical_and_alias_names():
    assert parse("x1 x2", P22) == parse("a b", P22)
    p = Presentation(6, 2)
    assert parse("x6", p) == Generator(5)
    with pytest.raises(UnknownGeneratorError):
        parse("a", p)


def test_custom_names():
    p = Presentation(2, 2, names=("u", "v"))
    assert parse("u v^-1", p) == Product((Generator(0), Power(Generator(1), -1)))
    # canonical names stay available
    assert parse("x2", p) == Generator(1)


def test_whitespace_insensitive():
    assert parse(" [ a , b ] ^ 2 ", P22) == parse("[a,b]^2", P22)


def test_one_is_the_empty_word():
    assert parse_word("1", P22) == ()
    assert parse_word("a 1 b", P22) == ((0, 1), (1, 1))
    assert parse_word("1^5", P22) == ()
    with pytest.raises(WordSyntaxError):
        parse("2", P22)
    with pytest.raises(WordSyntaxError):
        parse("11", P22)


def test_flatten_letters():
    assert parse_word("a", P22) == ((0, 1),)
    assert parse_word("a^-2", P22) == ((0, -1), (0, -1))
    assert parse_word("[a,b]", P22) == ((0, -1), (1, -1), (0, 1), (1, 1))
    assert parse_word("(ab)^-1", P22) == ((1, -1), (0, -1))
    # no free reduction at the word level
    assert parse_word("a a^-1", P22) == ((0, 1), (0, -1))


def test_flatten_length_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        u = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))
        )
        v = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))
        )
        n = rng.randint(-6, 6)
        assert len(word_power(u, n)) == abs(n) * len(u)
        assert len(commutator_word(u, v)) == 2 * (len(u) + len(v))
        assert invert_word(invert_word(u)) == u


def test_flatten_refuses_words_past_the_letter_cap():
    for text in ("a [a,b]^3 (a b^-1)^-2", "[a,b,a]^5 b", "1", "(a^2 [b,a])^-3"):
        expr = parse(text, P22)
        assert letter_count(expr) == len(flatten(expr))
    # 2 * 10^10 letters: refused before anything is expanded
    expr = parse("((a b)^100000)^100000", P22)
    assert letter_count(expr) == 2 * 10**10
    with pytest.raises(CapExceededError):
        flatten(expr)
    assert len(parse_word("a^1000000 b^1000000", P22)) == 2 * 10**6


def _random_slp(rng, m, steps):
    """Random Slp nodes, each next to the word the eliminator's word
    arithmetic builds for it."""
    pool = [(Slp.letter(i), ((i, 1),)) for i in range(m)]
    for _ in range(steps):
        (x, xw), (y, yw) = rng.choice(pool), rng.choice(pool)
        n = rng.choice((-2, -1, 1, 2))
        kind = rng.randrange(4)
        if kind == 0:
            pool.append((x.inverse(), invert_word(xw)))
        elif kind == 1:
            pool.append((Slp.product(x, n, y, 1), free_reduce(word_power(xw, n) + yw)))
        elif kind == 2:
            pool.append((Slp.product(x, 1, y, n), free_reduce(xw + word_power(yw, n))))
        else:
            pool.append((Slp.commutator(x, y), commutator_word(xw, yw)))
    return pool


def test_slp_expands_to_the_word_arithmetic_letter_for_letter():
    rng = random.Random(11)
    for _ in range(30):
        pool = _random_slp(rng, 3, 12)
        for node, word in reversed(pool):
            assert node.expand() == word
            # len() is the unreduced letter count, an upper bound
            assert len(node) >= len(word)


def test_slp_expansion_is_iterative_and_capped():
    # a chain far deeper than the recursion limit
    a, b = Slp.letter(0), Slp.letter(1)
    node = a
    for _ in range(5 * sys.getrecursionlimit()):
        node = Slp.product(b, -1, Slp.product(b, 1, node, 1), 1)
    assert node.expand() == ((0, 1),)
    # length grows fourfold at each commutator, without expanding anything
    node = Slp.commutator(a, b)
    for _ in range(80):
        node = Slp.commutator(node, node.inverse())
    assert node.letters == 4**81
    assert len(node) == sys.maxsize
    # expansion refuses a step past the cap before building it
    with pytest.raises(CapExceededError):
        Slp.product(a, 10**8, b, 1).expand()


def test_free_reduce():
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (1, -1), (0, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (0, -1))) == ((0, 1), (1, 1), (0, -1))


def test_substitute():
    a2 = ((0, 1), (0, 1))
    b = ((1, 1),)
    assert substitute(((0, 1), (1, -1)), [a2, b]) == ((0, 1), (0, 1), (1, -1))


def test_format_word():
    assert format_word((), P22) == "1"
    assert format_word(((0, 1), (0, 1)), P22) == "a^2"
    assert format_word(((0, -1), (1, 1)), P22) == "a^-1 b"
    assert format_word(((0, 1), (0, -1)), P22) == "a a^-1"


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        w = tuple(
            (rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))
        )
        assert parse_word(format_word(w, P22), P22) == w


def test_syntax_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as exc:
        parse("a^", P22)
    assert exc.value.position == 2

    with pytest.raises(WordSyntaxError) as exc:
        parse("[a]", P22)
    assert "two parts" in str(exc.value)

    with pytest.raises(WordSyntaxError):
        parse("(a", P22)
    with pytest.raises(WordSyntaxError):
        parse("a)", P22)
    with pytest.raises(WordSyntaxError):
        parse("a$b", P22)
    with pytest.raises(WordSyntaxError):
        parse("a^- b", P22)


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        parse("q", P22)
    with pytest.raises(UnknownGeneratorError):
        parse("c", P22)  # m = 2, so only a and b exist
    with pytest.raises(UnknownGeneratorError):
        parse("x3", P22)


def test_exponent_overflow():
    parse("a^1000000", P22)
    with pytest.raises(ExponentOverflowError):
        parse("a^1000001", P22)
    with pytest.raises(ExponentOverflowError):
        parse("a^-1000001", P22)
