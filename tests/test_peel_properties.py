"""Property tests of the lazy Mal'cev peel on random 2-3-generator subgroups
of F(2..3, 2..4): membership that stops at the first decisive block agrees
with the full-coordinate greedy reduction, the drained peel is the coordinate
vector, the pivot that insertion reads is the first nonzero coordinate, each
slot stores its pivot value and peels its coordinates on first read, and the
basis entries back-reduced on first read keep the standard shape and the
pivot values of the pivoted sequence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_member
from nildist.hall import coordinate_blocks, from_coordinates, hall_basis, to_coordinates
from nildist.magnus import embed, identity, inverse, multiply
from nildist.presentation import Presentation
from nildist.subgroups import _lead, induced_basis, member
from nildist.words import commutator_word, substitute

GROUPS = tuple(
    Presentation(m, c) for m, c in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
)

PROPERTIES = settings(max_examples=100, deadline=None)

# expanding a preimage word past this many letters is skipped
EXPAND_LIMIT = 10**4


@st.composite
def subgroups(draw):
    p = draw(st.sampled_from(GROUPS))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    short = st.lists(letter, min_size=1, max_size=3).map(tuple)
    word = st.one_of(short, st.tuples(short, short).map(lambda t: commutator_word(*t)))
    return p, draw(st.lists(word, min_size=2, max_size=3)), letter


@PROPERTIES
@given(subgroups(), st.data())
def test_member_agrees_with_full_coordinate_reduction(case, data):
    p, gens, letter = case
    basis = induced_basis(gens, p)
    elements = [embed(w, p) for w in gens]
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
def test_drained_blocks_are_the_coordinates(case, data):
    p, _, letter = case
    word = tuple(data.draw(st.lists(letter, max_size=8)))
    g = embed(word, p)
    blocks = list(coordinate_blocks(g))
    assert [i for block, _ in blocks for i in block] == list(range(len(hall_basis(p))))
    coords = tuple(e for _, exponents in blocks for e in exponents)
    assert coords == to_coordinates(g)
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
        if len(t.word) <= EXPAND_LIMIT:
            assert embed(substitute(t.word.expand(), gens), p) == t.element
    assert all(basis.slot(j) is None for j in range(len(hall_basis(p))) if j not in pivots)
