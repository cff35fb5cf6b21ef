import random
import sys

import pytest

from nildist.errors import (
    CapExceededError,
    ExponentOverflowError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from nildist.magnus import commutator, embed, evaluate, identity, power
from nildist.presentation import Presentation
from nildist.words import (
    MAX_LETTERS,
    MAX_NESTING,
    Slp,
    format_word,
    free_reduce,
    parse,
    parse_word,
)
from oracles import commutator_word, invert_word, substitute, word_power

P22 = Presentation(2, 2)
P32 = Presentation(3, 2)


def letters(text, p=P22):
    return parse(text, p).expand()


def test_parse_shapes():
    # a letter node per generator, a power per "^", a concatenation per
    # product of factors and a commutator per bracket
    a, b = embed(((0, 1),), P22), embed(((1, 1),), P22)
    assert parse("a", P22).kind == "letter" and letters("a") == ((0, 1),)
    assert parse("", P22).kind == "concat" and letters("") == ()
    word = parse("a^2[a,b]^3", P22)
    # one node per generator, read twice here
    assert parse("b", P22) is Slp.letter(1) and word.nodes()[Slp.letter(0)] == 2
    order = list(word.nodes())
    assert sorted(node.kind for node in order) == [
        "commutator", "concat", "letter", "letter", "power", "power"
    ]
    assert order[-1] is word
    assert all(order.index(x) < order.index(node) for node in order for x in node.parts)
    assert word.expand() == word_power(((0, 1),), 2) + word_power(
        commutator_word(((0, 1),), ((1, 1),)), 3
    )
    assert evaluate(word, P22) == power(a, 2) * power(commutator(a, b), 3)
    assert letters("(ab)^-1") == ((1, -1), (0, -1))
    assert evaluate(parse("(ab)^-1", P22), P22) == power(a * b, -1)


def test_nary_commutator_nests_right():
    assert letters("[a,b,a]", P32) == letters("[a,[b,a]]", P32)
    c, b, a = (((i, 1),) for i in (2, 1, 0))
    nested = commutator_word(c, commutator_word(b, commutator_word(a, c)))
    assert letters("[c,b,a,c]", P32) == nested
    assert evaluate(parse("[c,b,a,c]", P32), P32) == embed(nested, P32)


def test_canonical_and_alias_names():
    assert letters("x1 x2") == letters("a b")
    p = Presentation(6, 2)
    assert letters("x6", p) == ((5, 1),)
    with pytest.raises(UnknownGeneratorError):
        parse("a", p)


def test_custom_names():
    p = Presentation(2, 2, names=("u", "v"))
    assert letters("u v^-1", p) == ((0, 1), (1, -1))
    # canonical names stay available
    assert letters("x2", p) == ((1, 1),)


def test_whitespace_insensitive():
    assert letters(" [ a , b ] ^ 2 ") == letters("[a,b]^2")


def test_one_is_the_empty_word():
    assert parse_word("1", P22) == ()
    assert parse_word("a 1 b", P22) == ((0, 1), (1, 1))
    assert parse_word("1^5", P22) == ()
    assert evaluate(parse("1^5", P22), P22) == identity(P22)
    with pytest.raises(WordSyntaxError):
        parse("2", P22)
    with pytest.raises(WordSyntaxError):
        parse("11", P22)


def test_parse_word_letters():
    assert parse_word("a", P22) == ((0, 1),)
    assert parse_word("a^-2", P22) == ((0, -1), (0, -1))
    assert parse_word("[a,b]", P22) == ((0, -1), (1, -1), (0, 1), (1, 1))
    assert parse_word("(ab)^-1", P22) == ((1, -1), (0, -1))
    # no free reduction at the word level
    assert parse_word("a a^-1", P22) == ((0, 1), (0, -1))


def test_word_length_arithmetic():
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


def test_inverted_letters_are_shared():
    # one tuple per inverted letter, however long the word
    word = parse_word("(a b^-1)^1000", P22)
    inverse = invert_word(word)
    for text, expected in (
        ("(a b^-1)^-1000", inverse),
        ("((a b^-1)^1000)^-1", inverse),
        ("[(a b^-1)^1000, 1]", inverse + word),
    ):
        spelled = parse_word(text, P22)
        assert spelled == expected
        assert len({id(letter) for letter in spelled}) == len(set(spelled))


def test_parse_word_refuses_words_past_the_letter_cap():
    # a parsed word's letter count is exact
    for text in ("a [a,b]^3 (a b^-1)^-2", "[a,b,a]^5 b", "1", "(a^2 [b,a])^-3"):
        assert parse(text, P22).letters == len(parse_word(text, P22))
    # 2 * 10^10 letters: refused before anything is expanded
    word = parse("((a b)^100000)^100000", P22)
    assert word.letters == 2 * 10**10
    with pytest.raises(CapExceededError) as exc:
        parse_word("((a b)^100000)^100000", P22)
    assert str(exc.value) == f"word of {2 * 10**10} letters exceeds the limit {MAX_LETTERS}"
    assert len(parse_word("a^1000000 b^1000000", P22)) == 2 * 10**6


def test_nesting_is_bounded():
    deep = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_word(deep, P22) == ((0, 1),)
    with pytest.raises(WordSyntaxError) as exc:
        parse("[" + deep + ",b]", P22)
    assert "nesting deeper than" in str(exc.value)
    # a long bracket nests no parser call: its walks are iterative
    bracket = parse("[" + ",".join(["a"] * 1000) + "]", P22)
    assert bracket.letters > MAX_LETTERS
    assert evaluate(bracket, P22) == identity(P22)
    assert evaluate(parse("[b," + ",".join(["a"] * 999) + "]", P22), P22).is_identity()


def _random_slp(rng, m, steps):
    """Random Slp nodes of every kind, each next to the word the
    eliminator's or the parser's word arithmetic builds for it."""
    pool = [(Slp.letter(i), ((i, 1),)) for i in range(m)]
    for _ in range(steps):
        (x, xw), (y, yw) = rng.choice(pool), rng.choice(pool)
        n = rng.choice((-2, -1, 1, 2))
        kind = rng.randrange(5)
        if kind == 0:
            pool.append((Slp.power(x, n), word_power(xw, n)))
        elif kind == 1:
            pool.append((Slp.product(x, n, y, 1), free_reduce(word_power(xw, n) + yw)))
        elif kind == 2:
            pool.append((Slp.product(x, 1, y, n), free_reduce(xw + word_power(yw, n))))
        elif kind == 3:
            pool.append((Slp.concat((x, y, x)), xw + yw + xw))
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
            assert evaluate(node, P32) == embed(word, P32)


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
        node = Slp.commutator(node, Slp.power(node, -1))
    assert node.letters == 4**81
    assert len(node) == sys.maxsize
    # expansion refuses a step past the cap before building it
    with pytest.raises(CapExceededError):
        Slp.product(a, 10**8, b, 1).expand()


def test_slp_expansion_bounds_the_letters_it_holds():
    # the five words of the chain add up past the cap, but each is dropped
    # once the next one has read it
    a, b = Slp.letter(0), Slp.letter(1)
    node = Slp.power(a, 3 * 10**6)
    for _ in range(4):
        node = Slp.concat((node, b))
    assert node.expand() == ((0, 1),) * (3 * 10**6) + ((1, 1),) * 4
    # a word read by several nodes is held until the last of them is spelled
    big = Slp.power(a, 4 * 10**6)
    with pytest.raises(CapExceededError) as exc:
        Slp.concat(tuple(Slp.power(big, -1) for _ in range(3))).expand()
    assert str(exc.value) == (
        f"word of 4000000 letters beside 8000000 held exceeds the limit {MAX_LETTERS}"
    )


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


def test_only_ascii_digits():
    # str.isdigit admits both: int() refused '²' and read '٣' as 3
    for text in ("a^²", "a^٣"):
        with pytest.raises(WordSyntaxError) as exc:
            parse(text, P22)
        assert exc.value.position == 2
        assert "unexpected character" in str(exc.value)
    # a name's suffix stops at the first non-ASCII digit
    with pytest.raises(WordSyntaxError) as exc:
        parse("x1٣", P22)
    assert exc.value.position == 2


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
