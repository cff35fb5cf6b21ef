import math
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    HEIS_A,
    HEIS_B,
    element_ball,
    heis_inv,
    heis_mul,
    random_word,
    word_ball,
)
from nildist import distortion
from nildist.distortion import (
    DistortionRow,
    DistortionTable,
    _bfs,
    _sift,
    _step_cache,
    enumerate_ball,
    estimate_exponent,
    measure_distortion,
)
from nildist.errors import CapExceededError
from nildist.hall import apply_step, from_coordinates, hall_basis, to_coordinates
from nildist.magnus import embed, multiply
from nildist.presentation import Presentation
from nildist.subgroups import induced_basis, member
from nildist.words import parse_word

P11 = Presentation(1, 1)
P22 = Presentation(2, 2)


def ambient(p):
    return [((i, 1),) for i in range(p.m)]


def triple_ball(gens, radius):
    """Breadth-first ball in the integer Heisenberg group."""
    steps = []
    for g in gens:
        steps.append(g)
        steps.append(heis_inv(g))
    lengths = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for layer in range(1, radius + 1):
        new = []
        for t in frontier:
            for s in steps:
                u = heis_mul(t, s)
                if u not in lengths:
                    lengths[u] = layer
                    new.append(u)
        frontier = new
    return lengths


def test_ball_sizes():
    ball = enumerate_ball(P22, ambient(P22), 2)
    assert len(ball) == 17
    ball = enumerate_ball(P11, ambient(P11), 5)
    assert len(ball) == 11
    ball = enumerate_ball(P22, ambient(P22), 0)
    assert len(ball) == 1


def test_ball_matches_independent_search():
    ball = enumerate_ball(P22, ambient(P22), 4)
    oracle = triple_ball([HEIS_A, HEIS_B], 4)
    assert len(ball) == len(oracle)
    by_layer = {}
    for length in ball.lengths.values():
        by_layer[length] = by_layer.get(length, 0) + 1
    oracle_by_layer = {}
    for length in oracle.values():
        oracle_by_layer[length] = oracle_by_layer.get(length, 0) + 1
    assert by_layer == oracle_by_layer


def test_ball_matches_element_oracle():
    for p, radius in ((Presentation(2, 3), 4), (Presentation(3, 2), 3)):
        ball = enumerate_ball(p, ambient(p), radius)
        assert list(ball.lengths.items()) == coordinate_items(element_ball(p, radius))


@st.composite
def word_searches(draw):
    """F(2..3, 2..3), 1-2 generator words of up to 4 letters (the identity,
    repeats and inverse pairs included), a radius from 1 to 4."""
    p = Presentation(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=4).map(tuple)
    return p, draw(st.lists(word, min_size=1, max_size=2)), draw(st.integers(1, 4))


def coordinate_items(lengths):
    """A ball keyed by group element, as (coordinates, length) pairs."""
    return [(to_coordinates(g), length) for g, length in lengths.items()]


def _search(items):
    """The items a search yields, and its cap message or None."""
    seen = []
    try:
        for item in items:
            seen.append(item)
    except CapExceededError as err:
        return seen, str(err)
    return seen, None


@settings(max_examples=60, deadline=None)
@given(word_searches())
def test_bfs_matches_the_plain_search(case):
    # the same items in the same order; with room for one element past the
    # ball of radius r - 1, the same items before the same cap error
    p, gens, radius = case
    full = coordinate_items(word_ball(p, gens, radius))
    assert _search(_bfs(p, gens, radius, len(full))) == (full, None)
    cap = len(word_ball(p, gens, radius - 1)) + 1
    try:
        word_ball(p, gens, radius, cap)
        expected = (full, None)
    except CapExceededError as err:
        expected = (full[:cap], str(err))
    assert _search(_bfs(p, gens, radius, cap)) == expected


def test_ambient_products_only_step_outward(monkeypatch):
    # the ambient Cayley graph is bipartite, so once the steps back to a
    # parent are skipped every product lands one layer further out
    products = []

    def recording(x, step):
        product = apply_step(x, step)
        products.append((x, product))
        return product

    monkeypatch.setattr(distortion, "apply_step", recording)
    p = Presentation(2, 3)
    ball = enumerate_ball(p, ambient(p), 5)
    assert len(products) >= len(ball) - 1
    assert all(ball.lengths[h] == ball.lengths[g] + 1 for g, h in products)
    # the plain search takes 11,380 products here
    products.clear()
    assert len(enumerate_ball(P22, ambient(P22), 10)) == 4309
    assert len(products) <= 6928


def test_ball_lengths_satisfy_triangle_inequality():
    ball = enumerate_ball(P22, ambient(P22), 5)
    rng = random.Random(101)
    inside = [
        embed(random_word(rng, 2, 2), P22) for _ in range(40)
    ]
    for g in inside:
        for h in inside:
            lg = ball.lengths.get(to_coordinates(g))
            lh = ball.lengths.get(to_coordinates(h))
            lgh = ball.lengths.get(to_coordinates(multiply(g, h)))
            if lg is not None and lh is not None and lgh is not None:
                assert lgh <= lg + lh


def test_ball_growth_is_polynomial_of_the_right_degree():
    # the (2,2) group has growth degree 4, so doubling the radius
    # multiplies the ball size by roughly 16
    small = len(enumerate_ball(P22, ambient(P22), 4))
    large = len(enumerate_ball(P22, ambient(P22), 8))
    assert 8 <= large / small <= 32


def test_ball_input_validation():
    with pytest.raises(ValueError):
        enumerate_ball(P22, ambient(P22), -1)
    with pytest.raises(ValueError):
        enumerate_ball(P22, [], 2)
    with pytest.raises(CapExceededError):
        enumerate_ball(P22, ambient(P22), 4, max_elements=20)
    # the radius-2 ball has exactly 17 elements
    assert len(enumerate_ball(P22, ambient(P22), 2, max_elements=17)) == 17
    with pytest.raises(CapExceededError):
        enumerate_ball(P22, ambient(P22), 2, max_elements=16)


# subgroups whose slots have pivot values above 1
PIVOTED = (("a^2", "[a,b]^3"), ("a^2 b^4", "[a,b]^2"), ("b^3", "[b,a]^2 a^6"))


@st.composite
def sift_cases(draw):
    """A subgroup of F(2,2), F(2,3), F(3,2) or F(2,4), from PIVOTED or of
    1-3 random words, and a tuple: an element of H, that element with one
    coordinate moved by +-1, or a random tuple, negative entries included."""
    m, c = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))))
    p = Presentation(m, c)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        gens = [parse_word(w, p) for w in draw(st.sampled_from(PIVOTED))]
    else:
        gens = [random_word(rng, m, 5, min_len=1) for _ in range(rng.randint(1, 3))]
    kind = draw(st.sampled_from(("member", "moved", "random")))
    if kind == "random":
        x = tuple(rng.randint(-9, 9) for _ in range(p.hirsch_length))
    else:
        word = []
        for _ in range(rng.randint(0, 4)):
            g = rng.choice(gens)
            word += g if rng.random() < 0.5 else [(i, -e) for i, e in g[::-1]]
        x = list(to_coordinates(embed(tuple(word), p)))
        if kind == "moved":
            x[rng.randrange(len(x))] += rng.choice((-1, 1))
        x = tuple(x)
    return p, gens, x


@settings(max_examples=150, deadline=None)
@given(sift_cases())
def test_sift_agrees_with_member(case):
    p, gens, x = case
    basis = induced_basis(gens, p)
    expected = member(basis, from_coordinates(x, p))
    half = hall_basis(p).block(p.c // 2 + 1).start
    assert _sift(x, basis, _step_cache(p), {}, half) == expected


def test_measure_central_cyclic_subgroup():
    table = measure_distortion([parse_word("[a,b]", P22)], P22, 6)
    assert [row.delta for row in table.rows] == [0, 0, 0, 1, 1, 2]
    assert table.complete

    # against the matrix model: members of the ambient ball are the central
    # triples (0, 0, z), and the subgroup length of one is exactly |z|
    oracle = triple_ball([HEIS_A, HEIS_B], 6)
    for row in table.rows:
        best = max(
            (abs(t[2]) for t, length in oracle.items()
             if length <= row.n and t[:2] == (0, 0)),
            default=0,
        )
        assert row.delta == best


def test_measure_whole_group_is_linear():
    table = measure_distortion([parse_word("a", P22), parse_word("b", P22)], P22, 6)
    assert [row.delta for row in table.rows] == [1, 2, 3, 4, 5, 6]
    assert table.complete


def test_measure_free_abelian_cyclic():
    table = measure_distortion([parse_word("a", P22)], P22, 5)
    assert [row.delta for row in table.rows] == [1, 2, 3, 4, 5]
    assert table.complete


def test_measure_finite_index_subgroup():
    table = measure_distortion([parse_word("a^2", P22), parse_word("b^2", P22)], P22, 4)
    oracle = triple_ball([HEIS_A, HEIS_B], 4)
    sub_oracle = triple_ball(
        [heis_mul(HEIS_A, HEIS_A), heis_mul(HEIS_B, HEIS_B)], 12
    )
    for row in table.rows:
        assert row.exact
        best = max(
            (sub_oracle[t] for t, length in oracle.items()
             if length <= row.n and t in sub_oracle),
            default=0,
        )
        assert row.delta == best
    deltas = [row.delta for row in table.rows]
    assert deltas == sorted(deltas)


def test_measure_trivial_subgroup():
    table = measure_distortion([()], P22, 3)
    assert [row.delta for row in table.rows] == [0, 0, 0]
    assert table.complete


def test_measure_flags_truncated_rows():
    table = measure_distortion(
        [parse_word("a^2", P22), parse_word("b^2", P22)],
        P22,
        4,
        subgroup_radius_cap=1,
    )
    assert not table.complete
    assert any(not row.exact for row in table.rows)


def test_measure_flags_rows_when_subgroup_search_hits_element_cap():
    # b = (b a^10) a^-10 has subgroup length 11, far beyond the 53 elements
    # the cap (the size of the radius-3 ambient ball) lets the search visit
    gens = [parse_word("a", P22), parse_word("b a^10", P22)]
    table = measure_distortion(gens, P22, 3, max_elements=53)
    assert [row.exact for row in table.rows] == [False, False, False]
    assert [row.delta for row in table.rows] == [1, 2, 3]


def test_estimated_exponent_on_synthetic_tables():
    def synthetic(f, radius):
        rows = tuple(DistortionRow(n, f(n), True) for n in range(1, radius + 1))
        return DistortionTable(P22, radius, rows)

    assert abs(estimate_exponent(synthetic(lambda n: n, 12)) - 1.0) < 1e-9
    assert abs(estimate_exponent(synthetic(lambda n: n * n, 12)) - 2.0) < 1e-9
    assert abs(estimate_exponent(synthetic(lambda n: n**3, 12)) - 3.0) < 1e-9

    with pytest.raises(ValueError):
        estimate_exponent(synthetic(lambda n: 0, 12))
    with pytest.raises(ValueError):
        estimate_exponent(synthetic(lambda n: 1 if n > 9 else 0, 12))


def test_estimated_exponent_for_central_cyclic():
    # the subgroup has exact distortion exponent 2; the fitted slope should
    # agree within 0.4 once the table is deep enough
    table = measure_distortion([parse_word("[a,b]", P22)], P22, 12)
    slope = estimate_exponent(table)
    assert 1.6 < slope < 2.4


def test_csv_output():
    table = DistortionTable(
        P22,
        2,
        (DistortionRow(1, 0, True), DistortionRow(2, 3, False)),
    )
    assert table.to_csv() == "n,delta,exact\n1,0,true\n2,3,false\n"


def test_delta_is_monotone():
    rng = random.Random(103)
    for _ in range(6):
        gens = [random_word(rng, 2, 3, min_len=1) for _ in range(rng.randint(1, 2))]
        table = measure_distortion(gens, P22, 5)
        deltas = [row.delta for row in table.rows]
        assert deltas == sorted(deltas)
        assert all(not math.isnan(row.delta) for row in table.rows)
