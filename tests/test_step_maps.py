"""Step maps: x -> x s on Mal'cev coordinates, interpolated once from the
polynomial engine (hall.step_map) and checked here against it."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_word
from nildist import distortion, hall
from nildist.errors import InternalInconsistencyError
from nildist.hall import (
    apply_step_columns,
    from_coordinates,
    hall_basis,
    step_map,
    to_coordinates,
)
from nildist.magnus import embed, multiply
from nildist.presentation import Presentation
from nildist.words import parse, parse_word

GROUPS = [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (5, 3),
]


def engine(x, s):
    return to_coordinates(multiply(from_coordinates(x, s.presentation), s))


def letters(p):
    """a_1, a_1^-1, ..., a_m, a_m^-1, the steps of the ambient ball."""
    return [embed(((i, sign),), p) for i in range(p.m) for sign in (1, -1)]


def check_against_the_engine(tuples, s, step):
    """The step applied to the tuples as columns, one call, equals the
    engine's product x s for each tuple x."""
    length = len(hall_basis(s.presentation))
    columns = [[x[k] for x in tuples] for k in range(length)]
    assert list(zip(*apply_step_columns(columns, step))) == [
        engine(x, s) for x in tuples
    ]


@pytest.mark.parametrize("m, c", GROUPS)
def test_step_maps_match_the_engine(m, c):
    p = Presentation(m, c)
    rng = random.Random(f"step maps {m} {c}")
    length = len(hall_basis(p))
    steps = letters(p)
    steps += [embed(random_word(rng, m, 6, min_len=1), p) for _ in range(2)]
    points = 2 if length > 30 else 4
    for s in steps:
        tuples = [
            tuple(rng.randint(-20, 20) for _ in range(length)) for _ in range(points)
        ]
        check_against_the_engine(tuples, s, step_map(s))


def test_letter_maps_are_the_heisenberg_law():
    # F(2,2) with basis a, b, [b,a]: a^x b^y [b,a]^z a = a^(x+1) b^y [b,a]^(z+y)
    p = Presentation(2, 2)
    # the tuples (3, 5, 7) and (-2, 4, 0), as columns
    columns = [(3, -2), (5, 4), (7, 0)]
    a, a_inv, b, b_inv = (
        list(zip(*apply_step_columns(columns, step_map(s)))) for s in letters(p)
    )
    assert a == [(4, 5, 12), (-1, 4, 4)]
    assert a_inv == [(2, 5, 2), (-3, 4, -4)]
    assert b == [(3, 6, 7), (-2, 5, 0)]
    assert b_inv == [(3, 4, 7), (-2, 3, 0)]


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
            tuples = [
                tuple(rng.randint(-20, 20) for _ in range(length)) for _ in range(3)
            ]
            check_against_the_engine(tuples, s, step_map(s))


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
    # one engine product per staircase point, then one per check point, in a
    # derivation past the cache
    p = Presentation(m, c)
    s = embed(parse_word(word, p), p)
    calls = []

    def counting(x, s):
        calls.append(x)
        return engine(x, s)

    monkeypatch.setattr(hall, "_engine_step", counting)
    step_map.__wrapped__(s)
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
        # past the cache, which holds the good map
        with pytest.raises(InternalInconsistencyError):
            step_map.__wrapped__(s)
        assert len(spoil) == 1


def test_hall_basis_set_up_derives_no_step_map(monkeypatch):
    def refuse(s):
        raise AssertionError("step map derived during set-up")

    monkeypatch.setattr(hall, "step_map", refuse)
    # names no other test uses, so the basis is built here
    hall_basis(Presentation(2, 5, names=("u", "v")))


def test_measure_derives_the_subgroup_maps_once(monkeypatch):
    # step_map is the one cache: within a call no element's map is derived
    # twice, and a repeated call derives none
    requested, derived = [], []

    def requesting(s):
        requested.append(s)
        return step_map(s)

    def deriving(points, values):
        # each derivation takes the differences once
        derived.append(points)
        return differences(points, values)

    differences = hall._differences
    monkeypatch.setattr(distortion, "step_map", requesting)
    monkeypatch.setattr(hall, "_differences", deriving)
    cases = ((2, 3, ("a", "[a,b]")), (3, 2, ("[a,b]", "c")), (2, 3, ("a^2", "[a,b]^3")))
    for m, c, words in cases:
        p = Presentation(m, c)
        gens = [parse(w, p) for w in words]
        step_map.cache_clear()
        requested.clear()
        derived.clear()
        distortion.measure_distortion(gens, p, 4)
        # the letters, then the sift's pivot elements and the generators
        # the second search walks
        assert set(letters(p)) < set(requested)
        assert len(derived) == len(set(requested))
        distortion.measure_distortion(gens, p, 4)
        assert len(derived) == len(set(requested))
        assert step_map.cache_info().misses == len(derived)


@functools.cache
def column_cases():
    """(step, its map) pairs: the letters of F(2,2), F(2,3), F(3,2), F(2,5)
    and F(5,3), a^2 b^-1, the first basis entry of weight 2 and a product of
    weight-2 entries.  The maps of F(2,3) and up build binomials C(x_k, j)
    with j >= 2."""
    cases = []
    for m, c in ((2, 2), (2, 3), (3, 2), (2, 5), (5, 3)):
        p = Presentation(m, c)
        basis = hall_basis(p)
        heavier = [
            embed(((0, 2), (1, -1)), p),
            basis.element(basis.block(2)[0]),
            from_coordinates(
                tuple(2 if e.weight == 2 else 0 for e in basis.entries), p
            ),
        ]
        cases += [(s, step_map(s)) for s in letters(p) + heavier]
    return cases


@st.composite
def column_inputs(draw):
    s, step = draw(st.sampled_from(column_cases()))
    entry = st.integers(-40, 40)
    length = len(hall_basis(s.presentation))
    tuples = draw(st.lists(st.tuples(*[entry] * length), max_size=6))
    return tuples, s, step


@settings(max_examples=150, deadline=None)
@given(column_inputs())
def test_apply_step_columns_matches_the_engine(case):
    # columns of 0 to 6 entries, negative ones included; empty columns give
    # empty columns back
    check_against_the_engine(*case)
