"""Property tests of subgroup elimination on random 2-3-generator subgroups
of F(2..3, 2..3): preimage words spell their elements, and every distorted
verdict carries a certificate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nildist.magnus import embed
from nildist.presentation import Presentation
from nildist.subgroups import (
    abelianized_basis,
    apply_retraction,
    build_retraction,
    decide_undistorted,
    induced_basis,
    member,
)
from nildist.words import commutator_word, substitute

GROUPS = tuple(Presentation(m, c) for m, c in ((2, 2), (2, 3), (3, 2), (3, 3)))

SUBGROUPS = settings(max_examples=100, deadline=None)


@st.composite
def subgroups(draw):
    p = draw(st.sampled_from(GROUPS))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    short = st.lists(letter, min_size=1, max_size=3).map(tuple)
    # some generators are commutators, so derived and mixed subgroups occur
    word = st.one_of(short, st.tuples(short, short).map(lambda t: commutator_word(*t)))
    return p, draw(st.lists(word, min_size=2, max_size=3))


@SUBGROUPS
@given(subgroups())
def test_expanded_preimages_spell_their_elements(case):
    p, gens = case
    basis = induced_basis(gens, p)
    for t in basis.entries:
        word = t.word.expand()
        assert len(t.word) >= len(word)
        assert embed(substitute(word, gens), p) == t.element
    for rel in basis.relations:
        assert embed(substitute(rel.expand(), gens), p).is_identity()


@SUBGROUPS
@given(subgroups())
def test_distorted_witnesses_are_certified(case):
    p, gens = case
    report = decide_undistorted(gens, p)
    if report.verdict != "distorted" or report.k == 0:
        return
    assert report.kernel_witness is not None
    word, wt = report.kernel_witness
    g = embed(word, p)
    assert not g.is_identity()
    assert g.weight() == wt
    assert member(induced_basis(gens, p), g)
    retraction = build_retraction(abelianized_basis(gens, p), p)
    assert apply_retraction(retraction, word).is_identity()
