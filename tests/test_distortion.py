import itertools
import math
import random
from unittest.mock import patch

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
    word_slp,
)
from nildist import distortion
from nildist.distortion import (
    DistortionRow,
    DistortionTable,
    _bfs,
    _sift,
    _steps,
    _subgroup_lengths,
    enumerate_ball,
    estimate_exponent,
    measure_distortion,
)
from nildist.errors import CapExceededError
from nildist.hall import (
    apply_step_columns,
    from_coordinates,
    step_map,
    to_coordinates,
)
from nildist.magnus import embed, multiply
from nildist.presentation import Presentation
from nildist.subgroups import induced_basis, member
from nildist.words import Slp, parse, parse_word

P11 = Presentation(1, 1)
P22 = Presentation(2, 2)


def ambient(p):
    return [Slp.letter(i) for i in range(p.m)]


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


def _search(chunks):
    """The items a search yields, chunk by chunk, flattened to (coordinates,
    length) pairs, and its cap message or None."""
    seen = []
    try:
        for elements, length in chunks:
            seen += [(x, length) for x in elements]
    except CapExceededError as err:
        return seen, str(err)
    return seen, None


def _check_against_the_plain_search(case):
    # the same items in the same order; with room for one element past the
    # ball of radius r - 1, the same items before the same cap error
    p, gens, radius = case
    full = coordinate_items(word_ball(p, gens, radius))
    steps = _steps(p, [word_slp(w) for w in gens])
    assert _search(_bfs(p, steps, radius, len(full))) == (full, None)
    cap = len(word_ball(p, gens, radius - 1)) + 1
    try:
        word_ball(p, gens, radius, cap)
        expected = (full, None)
    except CapExceededError as err:
        expected = (full[:cap], str(err))
    assert _search(_bfs(p, steps, radius, cap)) == expected


@settings(max_examples=60, deadline=None)
@given(word_searches())
def test_bfs_matches_the_plain_search(case):
    _check_against_the_plain_search(case)


@pytest.mark.parametrize("chunk", [1, 3])
@settings(max_examples=20, deadline=None)
@given(case=word_searches())
def test_bfs_matches_the_plain_search_in_small_chunks(chunk, case):
    # frontier chunks of 1 and 3 elements put the caps both inside a chunk
    # and on a chunk edge
    with patch.object(distortion, "_CHUNK", chunk):
        _check_against_the_plain_search(case)


def test_each_frontier_element_meets_each_step_once(monkeypatch):
    # every element of layers 0 .. r - 1 is multiplied by every step once,
    # and every element the search yields carries its word length
    calls = []

    def recording(columns, step):
        calls.extend((x, id(step)) for x in zip(*columns))
        return apply_step_columns(columns, step)

    monkeypatch.setattr(distortion, "apply_step_columns", recording)
    monkeypatch.setattr(distortion, "_CHUNK", 5)
    p, radius = Presentation(2, 3), 4
    oracle = dict(coordinate_items(element_ball(p, radius)))
    yielded = 0
    for elements, length in _bfs(p, _steps(p, ambient(p)), radius, len(oracle)):
        assert all(oracle[x] == length for x in elements)
        yielded += len(elements)
    assert yielded == len(oracle)
    inner = [x for x, length in oracle.items() if length < radius]
    letters = [embed(((i, sign),), p) for i in range(p.m) for sign in (1, -1)]
    steps = [id(step_map(s)) for s in letters]
    assert sorted(calls) == sorted((x, t) for x in inner for t in steps)


def _recording_bfs(calls):
    """_bfs that appends, per call, [start, [(elements, distance), ...]]."""
    bfs = distortion._bfs

    def recording(*args, **kwargs):
        chunks = []
        calls.append([kwargs.get("start"), chunks])
        for elements, length in bfs(*args, **kwargs):
            chunks.append((elements, length))
            yield elements, length

    return recording


def test_subgroup_lengths_stop_within_a_chunk_of_the_last_target(monkeypatch):
    # targets spread over the inner ball are all met by the forward search,
    # which ends with the chunk that yields its last target
    ball = list(enumerate_ball(P22, ambient(P22), 6).lengths)
    targets = dict.fromkeys(ball[:300:7])
    calls = []
    monkeypatch.setattr(distortion, "_bfs", _recording_bfs(calls))
    monkeypatch.setattr(distortion, "_CHUNK", 4)
    last = ball[294]
    found = _subgroup_lengths(P22, _steps(P22, ambient(P22)), targets, 10**6, 6)
    assert found.keys() == targets.keys()
    [(start, chunks)] = calls
    assert start is None
    assert last in chunks[-1][0]
    # a chunk of 4 frontier elements yields at most 4 * 4 new ones
    assert sum(len(elements) for elements, _ in chunks) <= 295 + 16


def test_subgroup_lengths_build_no_layer_past_the_switch(monkeypatch):
    # five targets in layer 6: the forward search completes the first layer
    # L_k with 5 * 4 <= |L_k| and builds nothing past it; each target's
    # backward search then ends with the chunk whose sphere meets L_k
    ball = enumerate_ball(P22, ambient(P22), 6).lengths
    layers = [[x for x, n in ball.items() if n == k] for k in range(7)]
    targets = dict.fromkeys(layers[6][::50][:5])
    assert len(targets) == 5
    calls = []
    monkeypatch.setattr(distortion, "_bfs", _recording_bfs(calls))
    monkeypatch.setattr(distortion, "_CHUNK", 4)
    steps = _steps(P22, ambient(P22))
    found = _subgroup_lengths(P22, steps, targets, 10**6, 6)
    assert found == dict.fromkeys(targets, 6)
    (start, forward), *backward = calls
    assert start is None
    k = forward[-1][1]
    assert k == min(k for k in range(7) if 5 * len(steps) <= len(layers[k]))
    # L_k spans several chunks, and all of it was built
    assert sum(n == k for _, n in forward) > 1
    assert [x for e, _ in forward for x in e] == [x for n in range(k + 1) for x in layers[n]]
    assert [start for start, _ in backward] == list(targets)
    sphere = set(layers[k])
    for _, chunks in backward:
        assert [n for _, n in chunks] == sorted(n for _, n in chunks)
        meets = [not sphere.isdisjoint(e) for e, _ in chunks]
        assert meets == [False] * (len(chunks) - 1) + [True]
        assert chunks[-1][1] == 6 - k


# subgroups of the two-ended search: distorted ones (<a, [a,b]>, <a b,
# [a,b]>, <a, [b,[a,b]]>), one of finite index and a central one
TWO_ENDED = (("a", "[a,b]"), ("a b", "[a,b]"), ("a", "[b,[a,b]]"), ("a^2", "b"), ("[a,b]", "b^2"))


@st.composite
def two_ended_searches(draw):
    """A subgroup of F(2,2), F(2,3), F(3,2) or F(2,4), from TWO_ENDED or
    of 1-2 random words; 1-5 targets drawn from H's members of ambient
    length 2 to 4, which the forward search alone rarely reaches; a
    subgroup radius cap from 2 to 6; a chunk size of 1, 3 or _CHUNK."""
    m, c = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))))
    p = Presentation(m, c)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        words = [parse_word(w, p) for w in draw(st.sampled_from(TWO_ENDED))]
    else:
        words = [random_word(rng, m, 2, min_len=1) for _ in range(rng.randint(1, 2))]
    basis = induced_basis([word_slp(w) for w in words], p)
    ball = enumerate_ball(p, ambient(p), 4, toward=basis).lengths
    members = [x for x in _sift(list(ball), basis) if ball[x] >= 2]
    targets = dict.fromkeys(rng.sample(members, min(len(members), rng.randint(1, 5))))
    chunk = draw(st.sampled_from((1, 3, distortion._CHUNK)))
    return p, words, targets, draw(st.integers(2, 6)), chunk


@settings(max_examples=60, deadline=None)
@given(two_ended_searches(), st.data())
def test_the_two_ended_search_agrees_with_the_word_ball(case, data):
    p, words, targets, radius_cap, chunk = case
    oracle = dict(coordinate_items(word_ball(p, words, radius_cap)))
    steps = _steps(p, [word_slp(w) for w in words])
    calls = []
    with patch.object(distortion, "_CHUNK", chunk), patch.object(
        distortion, "_bfs", _recording_bfs(calls)
    ):
        # uncapped, every target within the radius cap, at its length
        found = _subgroup_lengths(p, steps, targets, 10**6, radius_cap)
        assert found == {t: oracle[t] for t in targets if t in oracle}
        walked = sum(len(e) for _, chunks in calls for e, _ in chunks)
        # under a tighter cap, a subset of them, walking no more than it
        cap = data.draw(st.integers(1, walked))
        calls.clear()
        capped = _subgroup_lengths(p, steps, targets, cap, radius_cap)
        assert capped == {t: found[t] for t in capped}
        assert sum(len(e) for _, chunks in calls for e, _ in chunks) <= cap
        if cap == walked:
            assert capped == found


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
    for cap in (0, -5):
        with pytest.raises(ValueError, match="max_elements must be at least 1"):
            enumerate_ball(P22, ambient(P22), 2, max_elements=cap)
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
    1-3 random words, and a batch of 0-12 tuples, each an element of H,
    that element with one coordinate moved by +-1, or a random tuple,
    negative entries included."""
    m, c = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))))
    p = Presentation(m, c)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        gens = [parse_word(w, p) for w in draw(st.sampled_from(PIVOTED))]
    else:
        gens = [random_word(rng, m, 5, min_len=1) for _ in range(rng.randint(1, 3))]
    kinds = draw(st.lists(st.sampled_from(("member", "moved", "random")), max_size=12))
    batch = []
    for kind in kinds:
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
        batch.append(x)
    return p, gens, batch


@settings(max_examples=150, deadline=None)
@given(sift_cases())
def test_sift_agrees_with_member(case):
    # one batch, repeats included, sifted in its order
    p, gens, batch = case
    basis = induced_basis([word_slp(w) for w in gens], p)
    expected = [x for x in batch if member(basis, from_coordinates(x, p))]
    assert _sift(batch, basis) == expected


# spans of H's exponent sums that are no coordinate subspace (<ab>, <ab^2,
# [a,b]>), finite index (<a^2, b^3>) and the trivial subgroup; H = G is
# drawn as every letter
SPANS = (("a b",), ("a b^2", "[a,b]"), ("a^2", "b^3"), ("1",))


@st.composite
def pruned_searches(draw):
    """A subgroup of F(2,2), F(2,3), F(3,2) or F(2,4), from SPANS, H = G
    or of 1-3 random words, and a radius from 1 to 4."""
    m, c = draw(st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))))
    p = Presentation(m, c)
    kind = draw(st.sampled_from(("span", "whole", "random")))
    if kind == "span":
        gens = [parse(w, p) for w in draw(st.sampled_from(SPANS))]
    elif kind == "whole":
        gens = ambient(p)
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        gens = [
            word_slp(random_word(rng, m, 5, min_len=1))
            for _ in range(rng.randint(1, 3))
        ]
    return p, gens, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(pruned_searches())
def test_the_pruned_search_keeps_every_member_and_every_table(case):
    p, gens, radius = case
    basis = induced_basis(gens, p)
    full = enumerate_ball(p, ambient(p), radius).lengths
    pruned = enumerate_ball(p, ambient(p), radius, toward=basis).lengths
    # the walked elements are those the bound admits, each at its length
    bound = distortion._distance_to_span(basis, distortion._steps(p, ambient(p)))
    if bound is None:
        assert pruned == full
    else:
        distance, unit = bound
        near = {
            x: n for x, n in full.items() if distance[x[: p.m]] <= unit * (radius - n)
        }
        assert pruned == near
    # every member of H in the ball, at its length
    members = {x: n for x, n in full.items() if member(basis, from_coordinates(x, p))}
    assert {x: pruned.get(x) for x in members} == members
    table = measure_distortion(gens, p, radius)
    with patch.object(distortion, "_distance_to_span", lambda *args: None):
        assert measure_distortion(gens, p, radius) == table


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 4))),
    st.one_of(st.sampled_from(SPANS), st.lists(st.sampled_from(
        ("a", "b^-1", "a^2 b", "a^3 b^-2", "[a,b]", "a b a", "a^-2")
    ), min_size=1, max_size=3)),
    st.data(),
)
def test_the_bound_is_at_most_the_distance_to_the_lattice(group, words, data):
    # beta(v) = distance[v] / unit, against the least L1 distance from v
    # to an exponent-sum vector of H, searched among the vectors within
    # |v| of v (0 is one)
    p = Presentation(*group)
    basis = induced_basis([parse(w, p) for w in words], p)
    bound = distortion._distance_to_span(basis, distortion._steps(p, ambient(p)))
    if bound is None:
        return  # V = Q^m: nothing is pruned
    distance, unit = bound
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=p.m, max_size=p.m)))
    radius = sum(map(abs, v))
    near = [
        w for w in itertools.product(*(range(x - radius, x + radius + 1) for x in v))
        if sum(abs(a - b) for a, b in zip(v, w)) <= radius
    ]
    lattice = [w for w in near if basis.abelianization.solve(list(w)) is not None]
    least = min(sum(abs(a - b) for a, b in zip(v, w)) for w in lattice)
    assert distance[v] <= unit * least
    if not any(basis.slot(j) for j in range(p.m)):
        # V = 0: the bound is the distance
        assert distance[v] == unit * radius


def test_measure_central_cyclic_subgroup():
    table = measure_distortion([parse("[a,b]", P22)], P22, 6)
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
    table = measure_distortion([parse("a", P22), parse("b", P22)], P22, 6)
    assert [row.delta for row in table.rows] == [1, 2, 3, 4, 5, 6]
    assert table.complete


def test_measure_whole_group_skips_the_sift_and_the_second_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("not needed when H = G")

    monkeypatch.setattr(distortion, "_sift", refuse)
    monkeypatch.setattr(distortion, "_subgroup_lengths", refuse)
    for words in (("a", "b"), ("b^-1", "a", "a^-1")):
        table = measure_distortion([parse(w, P22) for w in words], P22, 6)
        assert [row.delta for row in table.rows] == [1, 2, 3, 4, 5, 6]
        assert table.complete

    # H = G over other steps: every element is a member, but its subgroup
    # length comes from the second search
    monkeypatch.undo()
    monkeypatch.setattr(distortion, "_sift", refuse)
    table = measure_distortion([parse(w, P22) for w in ("a", "b", "a b")], P22, 6)
    oracle = triple_ball([HEIS_A, HEIS_B], 6)
    sub_oracle = triple_ball([HEIS_A, HEIS_B, heis_mul(HEIS_A, HEIS_B)], 6)
    for row in table.rows:
        assert row.exact
        assert row.delta == max(
            sub_oracle[t] for t, length in oracle.items() if length <= row.n
        )


def test_measure_free_abelian_cyclic():
    table = measure_distortion([parse("a", P22)], P22, 5)
    assert [row.delta for row in table.rows] == [1, 2, 3, 4, 5]
    assert table.complete


@pytest.mark.parametrize(
    "words, deltas",
    [(("a^2", "a^3"), [2, 2, 2, 2]), (("a", "a^2"), [1, 1, 2, 2]),
     (("[a,b]^2", "[a,b]^3"), [0, 0, 0, 2])],
)
def test_measure_cyclic_subgroup_over_several_generators(words, deltas):
    # H is cyclic, but its length is over the given generators, not over
    # the one basis element: a = a^3 a^-2 has length 2 over a^2 and a^3
    table = measure_distortion([parse(w, P22) for w in words], P22, 4)
    ambient_ball = element_ball(P22, 4)
    subgroup_ball = word_ball(P22, [parse_word(w, P22) for w in words], 4)
    basis = induced_basis([parse(w, P22) for w in words], P22)
    assert all(g in subgroup_ball for g in ambient_ball if member(basis, g))
    oracle = [
        max(subgroup_ball[g] for g, n in ambient_ball.items() if n <= r and g in subgroup_ball)
        for r in range(1, 5)
    ]
    assert oracle == deltas
    assert [row.delta for row in table.rows] == deltas
    assert table.complete


def test_measure_reads_one_generator_lengths_off_the_coordinates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a subgroup given by one generator needs no search")

    monkeypatch.setattr(distortion, "_subgroup_lengths", refuse)
    for words in (("a^2",), ("[a,b]^-1",), ("a b", "b^-1 a^-1")):
        measure_distortion([parse(w, P22) for w in words], P22, 4)


def test_measure_finite_index_subgroup():
    table = measure_distortion([parse("a^2", P22), parse("b^2", P22)], P22, 4)
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
    table = measure_distortion([parse("1", P22)], P22, 3)
    assert [row.delta for row in table.rows] == [0, 0, 0]
    assert table.complete


def test_measure_flags_truncated_rows():
    table = measure_distortion(
        [parse("a^2", P22), parse("b^2", P22)],
        P22,
        4,
        subgroup_radius_cap=1,
    )
    assert not table.complete
    assert any(not row.exact for row in table.rows)


def test_an_unresolved_member_flags_every_row_from_its_length_on(monkeypatch):
    # a, at ambient length 1, loses its subgroup length: rows 1 .. r all
    # read it, so none is exact, and the deltas stand as lower bounds
    gens = [parse("a", P22), parse("[a,b]", P22)]
    exact = measure_distortion(gens, P22, 5)
    lengths = distortion._subgroup_lengths

    def losing_a(*args):
        found = lengths(*args)
        del found[(1, 0, 0)]
        return found

    monkeypatch.setattr(distortion, "_subgroup_lengths", losing_a)
    table = measure_distortion(gens, P22, 5)
    assert [row.exact for row in table.rows] == [False] * 5
    assert [row.delta for row in table.rows] == [row.delta for row in exact.rows]


def test_measure_flags_rows_when_subgroup_search_hits_element_cap():
    # b = (b a^10) a^-10 has subgroup length 11, far beyond the 53 elements
    # the cap (the size of the radius-3 ambient ball) lets the search visit
    gens = [parse("a", P22), parse("b a^10", P22)]
    table = measure_distortion(gens, P22, 3, max_elements=53)
    assert [row.exact for row in table.rows] == [False, False, False]
    assert [row.delta for row in table.rows] == [1, 2, 3]


def test_measure_f33_subgroup_search_stays_small(monkeypatch):
    # <ab, [a,c], b> in F(3,3): the forward search alone walks 201,087
    # elements to resolve the radius-4 members; from both ends it stays
    # under 10,000
    p = Presentation(3, 3)
    gens = [parse(w, p) for w in ("ab", "[a,c]", "b")]
    calls = []
    monkeypatch.setattr(distortion, "_bfs", _recording_bfs(calls))
    table = measure_distortion(gens, p, 4)
    assert table.to_csv() == "n,delta,exact\n1,2,true\n2,4,true\n3,6,true\n4,8,true\n"
    ambient_search, *subgroup_searches = calls
    assert subgroup_searches
    assert sum(len(e) for _, chunks in subgroup_searches for e, _ in chunks) <= 10_000


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
    table = measure_distortion([parse("[a,b]", P22)], P22, 12)
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
        table = measure_distortion([word_slp(w) for w in gens], P22, 5)
        deltas = [row.delta for row in table.rows]
        assert deltas == sorted(deltas)
        assert all(not math.isnan(row.delta) for row in table.rows)
