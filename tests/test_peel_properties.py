"""Property tests of the Mal'cev peel on random 2-3-generator subgroups of
F(2..3, 2..4): membership that reads only pivots, each solved at the
element's weight, agrees with the full-coordinate greedy reduction, the
coordinates have one entry per basis element and round-trip, the pivot that
insertion reads is the first nonzero coordinate, each slot stores its pivot
value and peels its coordinates on first read, and the basis entries
back-reduced on first read keep the standard shape and the pivot values of
the pivoted sequence.  On deep elements of groups up to the Hirsch cap, the
peel that subtracts past half the class gives the same coordinates as the
product-only peel of tests/oracles.py."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import commutator_word, greedy_member, product_peel, word_slp
from nildist.hall import from_coordinates, hall_basis, to_coordinates
from nildist.magnus import commutator, embed, evaluate, identity, inverse, multiply, power
from nildist.presentation import Presentation
from nildist.subgroups import _lead, induced_basis, member

GROUPS = tuple(
    Presentation(m, c) for m, c in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
)

PROPERTIES = settings(max_examples=100, deadline=None)

# deep peels on F(2,7) and F(5,3) take tens of milliseconds each
DEEP_PROPERTIES = settings(max_examples=60, deadline=None)

# near the Hirsch cap, and the even classes where the block w = c/2 must
# still peel by products
DEEP_GROUPS = tuple(
    Presentation(m, c)
    for m, c in ((2, 5), (2, 6), (2, 7), (3, 4), (4, 3), (5, 3), (2, 2), (2, 4))
)


@st.composite
def subgroups(draw):
    p = draw(st.sampled_from(GROUPS))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    short = st.lists(letter, min_size=1, max_size=3).map(tuple)
    word = st.one_of(short, st.tuples(short, short).map(lambda t: commutator_word(*t)))
    gens = draw(st.lists(word.map(word_slp), min_size=2, max_size=3))
    return p, gens, letter


@PROPERTIES
@given(subgroups(), st.data())
def test_member_agrees_with_full_coordinate_reduction(case, data):
    p, gens, letter = case
    basis = induced_basis(gens, p)
    elements = [evaluate(w, p) for w in gens]
    factors = data.draw(
        st.lists(st.tuples(st.integers(0, len(gens) - 1), st.booleans()), max_size=4)
    )
    g = identity(p)
    for i, inverted in factors:
        g = multiply(g, inverse(elements[i]) if inverted else elements[i])
    assert member(basis, g)
    assert greedy_member(basis, g)
    # a letter changes the weight-1 block; a deeper Hall basis element leaves
    # it alone, so only a later block can decide
    hall = hall_basis(p)
    deep = hall.element(data.draw(st.integers(p.m, len(hall) - 1)))
    for step in (embed((data.draw(letter),), p), deep):
        perturbed = multiply(g, step)
        assert member(basis, perturbed) == greedy_member(basis, perturbed)


@PROPERTIES
@given(subgroups(), st.data())
def test_coordinates_round_trip(case, data):
    p, _, letter = case
    word = tuple(data.draw(st.lists(letter, max_size=8)))
    g = embed(word, p)
    coords = to_coordinates(g)
    assert len(coords) == len(hall_basis(p))
    assert from_coordinates(coords, p) == g


@PROPERTIES
@given(subgroups(), st.data())
def test_lead_is_the_first_nonzero_coordinate(case, data):
    p, _, letter = case
    hall = hall_basis(p)
    g = embed(tuple(data.draw(st.lists(letter, max_size=6))), p)
    if data.draw(st.booleans()):
        # a weight-1 block of zeros: the lead sits in a deeper block
        g = hall.element(data.draw(st.integers(p.m, len(hall) - 1)))
    coords = to_coordinates(g)
    first = next(((j, v) for j, v in enumerate(coords) if v), None)
    assert _lead(g) == first


@PROPERTIES
@given(subgroups())
def test_slots_store_pivot_values_and_peel_coordinates_on_first_read(case):
    p, gens, _ = case
    basis = induced_basis(gens, p)
    for j in range(len(hall_basis(p))):
        entry = basis.slot(j)
        if entry is None:
            continue
        coords = to_coordinates(entry.element)
        assert entry.pivot == j
        assert entry.value == coords[j] > 0
        assert entry.coords == coords


@PROPERTIES
@given(subgroups())
def test_entries_reduced_on_first_read_keep_the_standard_shape(case):
    p, gens, _ = case
    basis = induced_basis(gens, p)
    entries = basis.entries
    pivots = [t.pivot for t in entries]
    assert pivots == sorted(set(pivots))
    assert len(basis) == len(entries)
    for t in entries:
        j = t.pivot
        assert t.coords == to_coordinates(t.element)
        assert t.coords[j] > 0
        assert all(v == 0 for v in t.coords[:j])
        assert basis.slot(j).coords[j] == t.coords[j]
        for s in entries:
            if s.pivot < j:
                assert 0 <= s.coords[j] < t.coords[j]
        assert greedy_member(basis, t.element)
        assert evaluate(t.word, p) == t.element
    assert all(basis.slot(j) is None for j in range(len(hall_basis(p))) if j not in pivots)


@st.composite
def deep_elements(draw):
    """u^q [v,[w,y]]^e x^r (or [v,w]^e) for short words u, v, w, x, y."""
    p = draw(st.sampled_from(DEEP_GROUPS))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))

    def short(n):
        return embed(tuple(draw(st.lists(letter, min_size=1, max_size=n))), p)

    def exponent(n):
        return draw(st.integers(-n, n).filter(bool))

    u, v, w = short(3), short(2), short(2)
    inner = commutator(w, short(2)) if draw(st.booleans()) else w
    g = multiply(power(u, exponent(25)), power(commutator(v, inner), exponent(3)))
    return multiply(g, power(short(3), exponent(25)))


@DEEP_PROPERTIES
@given(deep_elements())
def test_peel_agrees_with_product_peel_on_deep_elements(g):
    assert to_coordinates(g) == product_peel(g)


@pytest.mark.parametrize("c", (2, 4, 6))
def test_even_class_boundary_block_peels_by_products(c):
    # every coordinate nonzero, the block w = c/2 included
    p = Presentation(2, c)
    coords = tuple((-1) ** i * (i % 5 + 1) for i in range(len(hall_basis(p))))
    g = from_coordinates(coords, p)
    assert to_coordinates(g) == product_peel(g) == coords
