"""Property tests of subgroup elimination on random 2-3-generator subgroups
of F(2..3, 2..3) and F(2, 4): entries' words spell their elements, every
distorted verdict carries a certificate, the verdict's invariants do not
depend on how the subgroup and the ambient group are presented nor on an
automorphism of the ambient group, the retraction is an idempotent
endomorphism that zeroes exactly the Mal'cev coordinates of the Hall
entries holding a killed letter (in F(2,3) up to F(2,6)), the retraction,
the abelianization and the normality test read off polynomial images agree
with their letter-level oracles, the one elimination along the pullback
series agrees with two eliminations that commute every queued pair, and membership
agrees with greedy reduction on full coordinates along either series."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_rank,
    commutator_word,
    conjugation_normal,
    entry_letters,
    every_pair_basis,
    exponent_vector,
    greedy_member,
    invert_word,
    retract_word,
    spread_coordinates,
    substitute,
    two_elimination_decision,
    word_slp,
)
from nildist.hall import from_coordinates, to_coordinates
from nildist.magnus import commutator, embed, evaluate, multiply
from nildist.presentation import Presentation
from nildist.subgroups import (
    DEFAULT_MAX_EVENTS,
    Retraction,
    _eliminate,
    _pullback_lead,
    decide_undistorted,
    induced_basis,
    member,
    retraction_for,
)
from nildist.words import free_reduce

GROUPS = tuple(Presentation(m, c) for m, c in ((2, 2), (2, 3), (3, 2), (3, 3)))
INVARIANCE_GROUPS = GROUPS + (Presentation(2, 4),)
AUTOMORPHISM_GROUPS = tuple(Presentation(m, c) for m, c in ((2, 3), (2, 4), (3, 2)))
LETTER_GROUPS = tuple(Presentation(m, c) for m in (2, 3) for c in (2, 3, 4))

SUBGROUPS = settings(max_examples=100, deadline=None)


def slps(gens):
    return [word_slp(w) for w in gens]


def _generators(p):
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    short = st.lists(letter, min_size=1, max_size=3).map(tuple)
    # some generators are commutators, so derived and mixed subgroups occur
    word = st.one_of(short, st.tuples(short, short).map(lambda t: commutator_word(*t)))
    return st.lists(word, min_size=2, max_size=3)


@st.composite
def subgroups(draw):
    p = draw(st.sampled_from(GROUPS))
    return p, draw(_generators(p))


@SUBGROUPS
@given(subgroups())
def test_expanded_preimages_spell_their_elements(case):
    p, gens = case
    basis = induced_basis(slps(gens), p)
    for t in basis.entries:
        assert evaluate(t.word, p) == t.element
        # the words are programs over the generators' own: they spell the
        # elements in the ambient letters
        word = t.word.expand()
        assert len(t.word) >= len(word)
        assert embed(word, p) == t.element
    for rel in basis.relations:
        assert embed(rel.expand(), p).is_identity()


@SUBGROUPS
@given(subgroups())
def test_distorted_witnesses_are_certified(case):
    p, gens = case
    report = decide_undistorted(slps(gens), p)
    if report.verdict != "distorted" or report.k == 0:
        return
    assert report.kernel_witness is not None
    word, wt = report.kernel_witness
    g = embed(word, p)
    assert not g.is_identity()
    assert g.weight() == wt
    assert member(induced_basis(slps(gens), p), g)
    retraction = retraction_for([embed(w, p) for w in gens], p)
    assert retraction(g).is_identity()


PROJECTION_GROUPS = tuple(
    Presentation(m, c) for m, c in ((2, 3), (3, 3), (3, 4), (4, 3), (2, 6))
)


def _retractions(p):
    """The retraction of p's group that kills a random proper subset of the
    letters."""

    def retraction(killed):
        kept = tuple(i for i in range(p.m) if i not in killed)
        return Retraction(p, kept, tuple(sorted(killed)))

    killed = st.lists(st.integers(0, p.m - 1), max_size=p.m - 1, unique=True)
    return killed.map(retraction)


@st.composite
def projected_elements(draw):
    """A retraction of F(2,3), F(3,3), F(3,4), F(4,3) or F(2,6), two
    elements by their Mal'cev coordinates, and a word over the kept
    letters."""
    p = draw(st.sampled_from(PROJECTION_GROUPS))
    r = draw(_retractions(p))
    n = p.hirsch_length
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    letter = st.tuples(st.sampled_from(r.kept), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=8).map(tuple)
    return r, tuple(draw(vector)), tuple(draw(vector)), draw(word)


@SUBGROUPS
@given(projected_elements())
def test_retraction_is_the_projection_onto_kept_entries(case):
    # the design's premise: on Mal'cev coordinates r zeroes every Hall entry
    # that holds a killed letter, and it is an idempotent endomorphism of F
    # fixing D
    r, x, y, word = case
    p = r.presentation
    held = entry_letters(p)
    g, h = from_coordinates(x, p), from_coordinates(y, p)
    killed = set(r.killed)
    projected = tuple(0 if held[i] & killed else e for i, e in enumerate(x))
    assert to_coordinates(r(g)) == projected
    assert r(multiply(g, h)) == multiply(r(g), r(h))
    assert r(r(g)) == r(g)
    d = embed(word, p)
    assert r(d) == d


@st.composite
def retracted_words(draw):
    """A retraction of F(2..3, 2..4) killing a proper subset of the
    generators, and random words."""
    p = draw(st.sampled_from(LETTER_GROUPS))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    words = st.lists(st.lists(letter, max_size=8).map(tuple), min_size=1, max_size=3)
    return draw(_retractions(p)), draw(words)


@SUBGROUPS
@given(retracted_words())
def test_polynomial_retraction_and_abelianization_match_letters(case):
    # r(g) is the element of D that the word with killed letters dropped
    # spells in D's own presentation, read at F's kept Hall entries
    r, words = case
    p = r.presentation
    names = tuple(p.names[i] for i in r.kept)
    D = Presentation(len(r.kept), p.c, names)
    elements = [embed(w, p) for w in words]
    for w, g in zip(words, elements):
        image = to_coordinates(embed(retract_word(r.kept, w), D))
        assert to_coordinates(r(g)) == spread_coordinates(image, p, r.kept)
        assert [g.coefficient((i,)) for i in range(p.m)] == exponent_vector(w, p.m)
    assert len(retraction_for(elements, p).kept) == bareiss_rank(
        [exponent_vector(w, p.m) for w in words]
    )


@SUBGROUPS
@given(subgroups())
def test_normality_matches_two_sided_conjugation(case):
    p, gens = case
    report = decide_undistorted(slps(gens), p)
    elements = [embed(w, p) for w in gens]
    assert report.normal == conjugation_normal(induced_basis(slps(gens), p), elements, p)


def _invariants(report):
    return (
        report.verdict,
        report.k,
        report.hirsch_H,
        report.hirsch_rH,
        report.finite_index,
        report.normal,
        report.cyclic_exponent,
    )


@st.composite
def moved_subgroups(draw):
    """A subgroup of F(2, 2..4) or F(3, 2..3) and the same subgroup after
    each move: permuted generators, the Tietze move g_i <- g_i g_j, and the
    ambient generators relabelled."""
    p = draw(st.sampled_from(INVARIANCE_GROUPS))
    gens = draw(_generators(p))
    permuted = [gens[i] for i in draw(st.permutations(range(len(gens))))]
    i, j = draw(st.permutations(range(len(gens))))[:2]
    tietze = list(gens)
    tietze[i] = gens[i] + gens[j]
    sigma = draw(st.permutations(range(p.m)))
    relabelled = [tuple((sigma[x], s) for x, s in w) for w in gens]
    return p, gens, (permuted, tietze, relabelled)


@SUBGROUPS
@given(moved_subgroups())
def test_verdict_invariants_survive_moves(case):
    p, gens, moved = case
    base = _invariants(decide_undistorted(slps(gens), p))
    for other in moved:
        assert _invariants(decide_undistorted(slps(other), p)) == base


@st.composite
def automorphic_images(draw):
    """A subgroup of F(2, 3), F(2, 4) or F(3, 2) and its image under an
    automorphism of F: a product of Nielsen moves a_i <- a_i^-1,
    a_i <- a_i a_j^(+-1) and a_i <- a_j^(+-1) a_i, applied to the letters'
    images one after another."""
    p = draw(st.sampled_from(AUTOMORPHISM_GROUPS))
    gens = draw(_generators(p))
    images = [((i, 1),) for i in range(p.m)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(p.m)))[:2]
        move = draw(st.integers(0, 2))
        piece = draw(st.sampled_from((images[j], invert_word(images[j]))))
        if move == 0:
            images[i] = invert_word(images[i])
        elif move == 1:
            images[i] = free_reduce(images[i] + piece)
        else:
            images[i] = free_reduce(piece + images[i])
    return p, gens, [free_reduce(substitute(w, images)) for w in gens]


@SUBGROUPS
@given(automorphic_images())
def test_verdict_invariants_survive_ambient_automorphisms(case):
    # an automorphism of F keeps the lower central series, so H and its
    # image agree on everything the theorem reads and on the least weight
    # of H's kernel witness; the greedy retraction may differ
    p, gens, moved = case

    def invariants(report):
        verdict, k, hirsch_H, _, finite_index, normal, exponent = _invariants(report)
        weight = report.kernel_witness and report.kernel_witness[1]
        return verdict, k, hirsch_H, finite_index, normal, exponent, weight

    base = invariants(decide_undistorted(slps(gens), p))
    assert invariants(decide_undistorted(slps(moved), p)) == base


@SUBGROUPS
@given(subgroups())
def test_one_elimination_decides_as_two(case):
    # the invariants equal those of eliminating H and r(H) apart, and the
    # lightest kernel entry is never heavier than the scanned relations
    p, gens = case
    report = decide_undistorted(slps(gens), p)
    oracle = two_elimination_decision(gens, p)
    keys = ("verdict", "k", "H", "rH", "finite_index", "normal", "cyclic_exponent")
    assert _invariants(report) == tuple(oracle[key] for key in keys)
    if oracle["witness_weight"] is None:
        assert report.kernel_witness is None
    else:
        assert report.kernel_witness[1] <= oracle["witness_weight"]


@SUBGROUPS
@given(subgroups(), st.data())
def test_pullback_slots_split_H_into_rH_and_the_kernel(case, data):
    p, gens = case
    elements = [embed(w, p) for w in gens]
    r = retraction_for(elements, p)
    assume(r.kept)
    basis = _eliminate(slps(gens), elements, p, DEFAULT_MAX_EVENTS, _pullback_lead(r))
    # r(H)'s pivots are F's own indices, the kernel's are shifted past them
    shift = p.hirsch_length
    assert all(j < 2 * shift for j in basis._slots)
    kernel = [basis.slot(j) for j in range(shift, 2 * shift)]
    kernel = [t for t in kernel if t is not None]
    oracle = two_elimination_decision(gens, p)
    assert len(kernel) == oracle["H"] - oracle["rH"]
    assert len(basis) - len(kernel) == oracle["rH"]
    assert all(r(t.element).is_identity() for t in kernel)
    # membership along the pullback series is membership in H
    plain = induced_basis(slps(gens), p)
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    for word in data.draw(st.lists(st.lists(letter, max_size=6), max_size=4)):
        g = embed(tuple(word), p)
        assert member(basis, g) == member(plain, g)
        h = multiply(elements[0], multiply(g, elements[-1]))
        assert member(basis, h) == member(plain, h)


@SUBGROUPS
@given(subgroups())
def test_skipping_displaced_pairs_keeps_the_standard_basis(case):
    p, gens = case
    ours = induced_basis(slps(gens), p).entries
    theirs = every_pair_basis([embed(w, p) for w in gens], p).entries
    assert [(t.pivot, t.value, t.coords) for t in ours] == [
        (t.pivot, t.value, t.coords) for t in theirs
    ]


@SUBGROUPS
@given(subgroups(), st.data())
def test_member_matches_greedy_reduction_on_every_series(case, data):
    # membership rejects on the abelianization first, on the ambient basis
    # and on the pullback basis alike; greedy_member reads no lattice
    p, gens = case
    elements = [embed(w, p) for w in gens]
    plain = induced_basis(slps(gens), p)
    bases = [plain]
    r = retraction_for(elements, p)
    if r.kept:
        lead = _pullback_lead(r)
        bases.append(_eliminate(slps(gens), elements, p, DEFAULT_MAX_EVENTS, lead))
    letter = st.tuples(st.integers(0, p.m - 1), st.sampled_from((1, -1)))
    in_h = st.tuples(st.integers(0, len(gens) - 1), st.sampled_from((1, -1)))
    for word in data.draw(st.lists(st.lists(in_h, max_size=5), max_size=3)):
        g = embed(substitute(tuple(word), gens), p)
        assert greedy_member(plain, g)
        assert all(member(basis, g) for basis in bases)
    for word in data.draw(st.lists(st.lists(letter, max_size=6), max_size=4)):
        g = embed(tuple(word), p)
        # a commutator passes every lattice, so the pivot loop decides it
        for h in (g, multiply(elements[0], g), commutator(elements[-1], g)):
            expected = greedy_member(plain, h)
            assert [member(basis, h) for basis in bases] == [expected] * len(bases)
