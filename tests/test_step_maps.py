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
    # for a step s of weight w, coordinate i moves by a polynomial of
    # weighted degree <= w_i - w
    p = Presentation(3, 3)
    basis = hall_basis(p)
    weights = [e.weight for e in basis.entries]
    for word in ("a b^-2 [a,c] b", "[a,c] [b,a]^2 [[a,b],c]", "[[a,b],c]^-3"):
        s = embed(parse_word(word, p), p)
        step = step_map(s)
        # values[0] is 1, values[1 + k] is x_k, then the built monomials
        degree = [0, *weights]
        for base, k, j in step.monomials:
            degree.append(degree[base] + j * weights[k])
        assert step.rows
        for i, terms in step.rows:
            assert max(degree[t] for _, t in terms) <= weights[i] - s.weight()


def step_of_weight(rng, p, w):
    """A random element of weight exactly w: a product of powers of the
    basis entries of weight >= w, one of weight w raised to a nonzero power."""
    basis = hall_basis(p)
    x = [rng.randint(-3, 3) if e.weight >= w else 0 for e in basis.entries]
    x[rng.choice(basis.block(w))] = rng.choice((-2, -1, 1, 2, 3))
    return from_coordinates(tuple(x), p)


@pytest.mark.parametrize("m, c", [(2, 4), (3, 3), (5, 3)])
def test_steps_of_every_weight_match_the_engine(m, c):
    p = Presentation(m, c)
    rng = random.Random(f"weighted steps {m} {c}")
    basis = hall_basis(p)
    length = len(basis)
    for w in range(1, c + 1):
        steps = [basis.element(basis.block(w)[0])]
        steps += [step_of_weight(rng, p, w) for _ in range(2)]
        for s in steps:
            assert s.weight() == w
            step = step_map(s)
            for _ in range(3):
                x = tuple(rng.randint(-20, 20) for _ in range(length))
                assert apply_step(x, step) == engine(x, s)


@pytest.mark.parametrize(
    "m, c, word, points",
    [
        (2, 3, "a", 7),
        (2, 3, "[a,b]", 3),
        (2, 3, "[[a,b],a]", 1),
        (5, 3, "[a,b]", 6),
        (3, 4, "[a,b]", 13),
    ],
)
def test_a_heavier_step_reads_a_smaller_staircase(monkeypatch, m, c, word, points):
    # one engine product per staircase point, then one per check point
    p = Presentation(m, c)
    s = embed(parse_word(word, p), p)
    calls = []

    def counting(x, s):
        calls.append(x)
        return engine(x, s)

    monkeypatch.setattr(hall, "_engine_step", counting)
    step_map(s)
    assert len(calls) == points + len(hall._CHECK_PATTERNS)


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
    # the subgroup search and the sift read one cache per call, which holds
    # the letter maps from the start, so no element's map is derived twice
    derived = []

    def counting(s):
        derived.append(s)
        return step_map(s)

    monkeypatch.setattr(distortion, "step_map", counting)
    cases = ((2, 3, ("a", "[a,b]")), (3, 2, ("[a,b]", "c")), (2, 3, ("a^2", "[a,b]^3")))
    for m, c, words in cases:
        p = Presentation(m, c)
        letters = {embed(((i, sign),), p) for i in range(m) for sign in (1, -1)}
        letter_steps(p)
        derived.clear()
        distortion.measure_distortion([parse_word(w, p) for w in words], p, 4)
        assert derived
        assert len(set(derived)) == len(derived)
        assert not letters & set(derived)
