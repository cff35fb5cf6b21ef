"""Step maps: x -> x s on Mal'cev coordinates, interpolated once from the
polynomial engine (hall.step_map) and checked here against it."""

import random

import pytest

from oracles import random_word
from nildist import distortion, hall
from nildist.errors import InternalInconsistencyError
from nildist.hall import (
    apply_step,
    from_coordinates,
    hall_basis,
    letter_steps,
    step_map,
    to_coordinates,
)
from nildist.magnus import embed, multiply
from nildist.presentation import Presentation
from nildist.words import parse_word

GROUPS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (5, 3),
]


def engine(x, s):
    return to_coordinates(multiply(from_coordinates(x, s.presentation), s))


@pytest.mark.parametrize("m, c", GROUPS)
def test_step_maps_match_the_engine(m, c):
    p = Presentation(m, c)
    rng = random.Random(f"step maps {m} {c}")
    length = len(hall_basis(p))
    letters = [embed(((i, sign),), p) for i in range(m) for sign in (1, -1)]
    cases = list(zip(letters, letter_steps(p)))
    for _ in range(2):
        s = embed(random_word(rng, m, 6, min_len=1), p)
        cases.append((s, step_map(s)))
    points = 2 if length > 30 else 4
    for s, step in cases:
        for _ in range(points):
            x = tuple(rng.randint(-20, 20) for _ in range(length))
            assert apply_step(x, step) == engine(x, s)


def test_letter_maps_are_the_heisenberg_law():
    # F(2,2) with basis a, b, [b,a]: a^x b^y [b,a]^z a = a^(x+1) b^y [b,a]^(z+y)
    p = Presentation(2, 2)
    a, a_inv, b, b_inv = letter_steps(p)
    assert apply_step((3, 5, 7), a) == (4, 5, 12)
    assert apply_step((3, 5, 7), a_inv) == (2, 5, 2)
    assert apply_step((3, 5, 7), b) == (3, 6, 7)
    assert apply_step((3, 5, 7), b_inv) == (3, 4, 7)


def test_rows_respect_the_weight_bound():
    # coordinate i moves by a polynomial of weighted degree <= w_i - 1
    p = Presentation(3, 3)
    basis = hall_basis(p)
    weights = [e.weight for e in basis.entries]
    s = embed(parse_word("a b^-2 [a,c] b", p), p)
    step = step_map(s)
    # values[0] is 1, values[1 + k] is x_k, then the built monomials
    degree = [0, *weights]
    for base, k, j in step.monomials:
        degree.append(degree[base] + j * weights[k])
    for i, terms in step.rows:
        assert max(degree[t] for _, t in terms) <= weights[i] - 1


@pytest.mark.parametrize("m, c", [(2, 3), (3, 3)])
def test_a_spoiled_coefficient_table_is_caught(monkeypatch, m, c):
    p = Presentation(m, c)
    s = embed(parse_word("a b a^-1", p), p)
    step_map(s)
    differences = hall._differences
    rng = random.Random(17)
    for _ in range(8):
        spoil = []

        def spoiled(points, values):
            table = differences(points, values)
            t, i = rng.randrange(len(table)), rng.randrange(len(table[0]))
            table[t][i] += rng.choice((-1, 1))
            spoil.append((t, i))
            return table

        monkeypatch.setattr(hall, "_differences", spoiled)
        with pytest.raises(InternalInconsistencyError):
            step_map(s)
        assert len(spoil) == 1


def test_hall_basis_set_up_derives_no_step_map(monkeypatch):
    def refuse(s):
        raise AssertionError("step map derived during set-up")

    monkeypatch.setattr(hall, "step_map", refuse)
    # names no other test uses, so the basis is built here
    hall_basis(Presentation(2, 5, names=("u", "v")))


def test_measure_derives_the_subgroup_maps_once(monkeypatch):
    p = Presentation(2, 3)
    letter_steps(p)
    derived = []

    def counting(s):
        derived.append(s)
        return step_map(s)

    monkeypatch.setattr(distortion, "step_map", counting)
    words = [parse_word(w, p) for w in ("a", "[a,b]")]
    distortion.measure_distortion(words, p, 4)
    # [a,b] and its inverse; the letter a reads the cached letter maps
    assert len(derived) == 2
