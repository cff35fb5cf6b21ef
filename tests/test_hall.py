import random

import pytest

import nildist.hall
from oracles import lyndon_count, product_peel, random_word
from nildist.hall import (
    from_coordinates,
    hall_basis,
    normal_form_str,
    to_coordinates,
)
from nildist.magnus import embed, evaluate, identity, multiply
from nildist.presentation import Presentation, witt_number
from nildist.words import parse, parse_word

P22 = Presentation(2, 2)
P23 = Presentation(2, 3)
P24 = Presentation(2, 4)
P32 = Presentation(3, 2)
P33 = Presentation(3, 3)


def test_sizes_and_bracket_strings():
    basis = hall_basis(P22)
    assert [basis.bracket_str(i) for i in range(len(basis))] == ["a", "b", "[b,a]"]

    basis = hall_basis(P23)
    assert [basis.bracket_str(i) for i in range(len(basis))] == [
        "a",
        "b",
        "[b,a]",
        "[[b,a],a]",
        "[[b,a],b]",
    ]

    assert len(hall_basis(P24)) == 8
    assert len(hall_basis(P32)) == 6
    assert len(hall_basis(P33)) == 14


def test_layer_sizes_match_necklace_counts():
    for m, c in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        basis = hall_basis(Presentation(m, c))
        for w in range(1, c + 1):
            expected = lyndon_count(m, w)
            assert len(basis.block(w)) == expected
            assert witt_number(m, w) == expected


def test_lie_expansion_example():
    # [[x2, x1], x1] expands to x2 x1 x1 - 2 x1 x2 x1 + x1 x1 x2
    basis = hall_basis(P23)
    assert basis.bracket_str(3) == "[[b,a],a]"
    assert basis.lie(3) == {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): 1}


def test_lie_term_is_leading_term_of_group_element():
    for p in (P22, P23, P32, P33):
        basis = hall_basis(p)
        for i in range(len(basis)):
            entry = basis.entries[i]
            g = basis.element(i)
            assert g.homogeneous(entry.weight) == basis.lie(i)
            assert g.weight() == entry.weight


def test_coordinate_fixtures():
    g = embed(parse_word("a b a^-1", P22), P22)
    assert to_coordinates(g) == (0, 1, -1)

    # [a,b]^2 [b,a] collapses to [b,a]^-1, whose display flips the bracket
    g = embed(parse_word("[a,b]^2 [b,a]", P22), P22)
    assert to_coordinates(g) == (0, 0, -1)
    assert normal_form_str((0, 0, -1), P22) == "[a,b]"

    assert to_coordinates(identity(P23)) == (0, 0, 0, 0, 0)


def test_commutator_of_cubes():
    g = embed(parse_word("[a^3,b^3]", P22), P22)
    coords = to_coordinates(g)
    assert coords[:2] == (0, 0) and abs(coords[2]) == 9
    assert from_coordinates(coords, P22) == g


def test_basis_elements_have_unit_coordinates():
    for p in (P23, P32):
        basis = hall_basis(p)
        for i in range(len(basis)):
            expected = tuple(1 if j == i else 0 for j in range(len(basis)))
            assert to_coordinates(basis.element(i)) == expected


def test_round_trip_random_elements():
    rng = random.Random(41)
    for p in (P22, P23, P24, P32, P33):
        for _ in range(100):
            g = embed(random_word(rng, p.m, 8), p)
            coords = to_coordinates(g)
            assert from_coordinates(coords, p) == g


def test_round_trip_random_coordinates():
    rng = random.Random(43)
    for p in (P22, P23, P32):
        n = p.hirsch_length
        for _ in range(100):
            coords = tuple(rng.randint(-6, 6) for _ in range(n))
            assert to_coordinates(from_coordinates(coords, p)) == coords


def test_weight_shows_in_first_nonzero_block():
    rng = random.Random(47)
    basis = hall_basis(P33)
    for _ in range(60):
        g = embed(random_word(rng, 3, 6, min_len=1), P33)
        if g.is_identity():
            continue
        coords = to_coordinates(g)
        first = next(i for i, v in enumerate(coords) if v)
        # index of the first nonzero coordinate sits in the block of g's weight
        assert first in basis.block(g.weight())


def test_normal_form_flips_negative_brackets():
    # a bracket to a negative power prints with its arguments swapped
    assert normal_form_str((0, 0, -1), P22) == "[a,b]"
    assert normal_form_str((0, 0, -2), P22) == "[a,b]^2"
    assert normal_form_str((2, -1, 1), P22) == "a^2 b^-1 [b,a]"
    assert normal_form_str((0, 0, 0), P22) == "1"


def test_normal_form_parses_back_to_the_same_element():
    rng = random.Random(59)
    for p in (P22, P23):
        n = p.hirsch_length
        for _ in range(60):
            coords = tuple(rng.randint(-4, 4) for _ in range(n))
            if not any(coords):
                continue  # "1" is a numeral, not a parseable word
            text = normal_form_str(coords, p)
            assert embed(parse_word(text, p), p) == from_coordinates(coords, p)


def test_from_coordinates_validates_length():
    with pytest.raises(ValueError):
        from_coordinates((1, 2), P23)


def test_multiplication_through_coordinates():
    # coordinates are a bijection, so multiply-then-encode must agree with
    # encode-decode-multiply round trips
    rng = random.Random(53)
    for _ in range(50):
        u = random_word(rng, 2, 5)
        v = random_word(rng, 2, 5)
        g, h = embed(u, P23), embed(v, P23)
        lhs = to_coordinates(multiply(g, h))
        rhs = to_coordinates(
            multiply(
                from_coordinates(to_coordinates(g), P23),
                from_coordinates(to_coordinates(h), P23),
            )
        )
        assert lhs == rhs


def test_peel_multiplies_only_below_half_the_class(monkeypatch):
    # a dense F(2,7) element of the benchmark's nf-deep shape; past half the
    # class (weights 4..7) the peel subtracts and never multiplies
    p = Presentation(2, 7)
    basis = hall_basis(p)
    g = evaluate(parse("(a b^-1 a)^25 [a b, b^-1 a, b a^-1]^2 (b a^-1 b)^-25", p), p)
    expected = product_peel(g)
    low = sum(1 for i, e in enumerate(expected) if e and basis.entries[i].weight <= 3)
    high = sum(1 for i, e in enumerate(expected) if e and basis.entries[i].weight > 3)
    assert high > 20
    calls = []

    def counting(f, h):
        calls.append(1)
        return multiply(f, h)

    monkeypatch.setattr(nildist.hall, "multiply", counting)
    assert to_coordinates(g) == expected
    assert 0 < len(calls) <= low
