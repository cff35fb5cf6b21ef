import random

import pytest

from oracles import (
    bareiss_rank,
    closure_products,
    conjugation_normal,
    element_ball,
    exponent_vector,
    random_word,
    retract_word,
)
from nildist import distortion, subgroups
from nildist.errors import CapExceededError, InternalInconsistencyError
from nildist.hall import from_coordinates, to_coordinates
from nildist.magnus import embed, identity, inverse, multiply
from nildist.presentation import Presentation
from nildist.subgroups import (
    abelianized_basis,
    build_retraction,
    cyclic_distortion_exponent,
    decide_undistorted,
    induced_basis,
    member,
)
from nildist.words import (
    free_reduce,
    invert_word,
    parse_word,
    substitute,
    word_power,
)

P22 = Presentation(2, 2)
P23 = Presentation(2, 3)
P32 = Presentation(3, 2)


def words(p, *texts):
    return [parse_word(t, p) for t in texts]


def elements(p, *texts):
    return [embed(w, p) for w in words(p, *texts)]


def test_exponent_vector():
    # the degree-1 coefficients of a word's image are its exponent sums
    g = embed(parse_word("a^2 b^-1 a [a,b]^5", P22), P22)
    assert [g.coefficient((i,)) for i in range(2)] == [3, -1]
    assert exponent_vector(parse_word("a^2 b^-1 a", P22), 2) == [3, -1]
    assert exponent_vector((), 2) == [0, 0]


def test_abelianized_examples():
    ab = abelianized_basis(elements(P22, "a^2[a,b]^3"), P22)
    assert ab.k == 1
    assert ab.completion == (1,)

    ab = abelianized_basis(elements(P22, "a", "b"), P22)
    assert ab.k == 2
    assert ab.completion == ()

    ab = abelianized_basis(elements(P22, "[a,b]"), P22)
    assert ab.k == 0
    assert ab.completion == (0, 1)


def test_abelianized_rank_and_completion_span():
    # k is the rank of the generators' abelianized images, and the completion
    # generators extend those images to a rank-m family
    rng = random.Random(61)
    for p in (P22, P32):
        for _ in range(40):
            gens = [
                random_word(rng, p.m, 4, min_len=1)
                for _ in range(rng.randint(1, 3))
            ]
            ab = abelianized_basis([embed(w, p) for w in gens], p)
            vecs = [exponent_vector(w, p.m) for w in gens]
            assert bareiss_rank(vecs) == ab.k
            full = vecs + [
                [1 if i == j else 0 for i in range(p.m)] for j in ab.completion
            ]
            assert bareiss_rank(full) == p.m
            assert ab.k + len(ab.completion) == p.m


def test_retraction_partitions_generators():
    ab = abelianized_basis(elements(P22, "a^2[a,b]^3"), P22)
    r = build_retraction(ab, P22)
    assert r.kept == (0,)
    assert r.killed == (1,)
    assert r.target.m == 1
    assert r.target.c == 2
    assert r.target.names == ("a",)

    with pytest.raises(ValueError):
        build_retraction(abelianized_basis(elements(P22, "[a,b]"), P22), P22)


def test_retract_word():
    ab = abelianized_basis(elements(P22, "a^2[a,b]^3"), P22)
    r = build_retraction(ab, P22)
    assert retract_word(r, parse_word("a b a^-1 b", P22)) == ((0, 1), (0, -1))
    assert r(embed(parse_word("a b a^-1 b", P22), P22)).is_identity()
    assert r(embed(parse_word("b^5 [a,b]", P22), P22)).is_identity()
    # the retraction fixes every word over the kept letters
    assert r(embed(parse_word("a^3", P22), P22)) == embed(
        parse_word("a^3", r.target), r.target
    )


def test_retraction_refuses_a_foreign_element():
    r = build_retraction(abelianized_basis(elements(P22, "a"), P22), P22)
    for g in (identity(P23), identity(r.target), embed(parse_word("a", P32), P32)):
        with pytest.raises(ValueError):
            r(g)


def test_retraction_is_idempotent_on_kept_letters():
    rng = random.Random(67)
    ab = abelianized_basis(elements(P32, "a", "c"), P32)
    r = build_retraction(ab, P32)
    assert r.killed == (1,)
    for _ in range(30):
        w = tuple(
            (rng.choice((0, 2)), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 6))
        )
        rw = tuple(((0, 1)[i // 2], sign) for i, sign in w)
        assert retract_word(r, w) == rw
        assert r(embed(w, P32)) == embed(rw, r.target)


def test_induced_basis_fixtures():
    basis = induced_basis(words(P22, "a", "b"), P22)
    assert [(e.pivot, e.coords) for e in basis.entries] == [
        (0, (1, 0, 0)),
        (1, (0, 1, 0)),
        (2, (0, 0, 1)),
    ]

    basis = induced_basis(words(P22, "a^2", "b^2"), P22)
    assert [(e.pivot, e.coords) for e in basis.entries] == [
        (0, (2, 0, 0)),
        (1, (0, 2, 0)),
        (2, (0, 0, 4)),
    ]

    basis = induced_basis(words(P22, "[a,b]"), P22)
    assert [(e.pivot, e.coords) for e in basis.entries] == [(2, (0, 0, 1))]

    basis = induced_basis([()], P22)
    assert len(basis) == 0


def test_induced_basis_shape_invariants():
    rng = random.Random(71)
    for p in (P22, P23):
        for _ in range(40):
            gens = [
                random_word(rng, p.m, 4, min_len=1)
                for _ in range(rng.randint(1, 3))
            ]
            basis = induced_basis(gens, p)
            pivots = [e.pivot for e in basis.entries]
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)
            for t in basis.entries:
                j = t.pivot
                assert t.coords[j] > 0
                assert all(v == 0 for v in t.coords[:j])
                for s in basis.entries:
                    if s.pivot < j:
                        assert 0 <= s.coords[j] < t.coords[j]
            # every generator reduces to nothing against the basis
            for w in gens:
                assert member(basis, embed(w, p))
            # each entry's word really spells the entry out of the generators
            for t in basis.entries:
                assert embed(substitute(t.word.expand(), gens), p) == t.element
            # relations spell the identity out of the generators
            for rel in basis.relations:
                assert embed(substitute(rel.expand(), gens), p).is_identity()


def test_member_fixtures():
    basis = induced_basis(words(P22, "a^2", "b^2"), P22)
    assert member(basis, embed(parse_word("a^2", P22), P22))
    assert member(basis, embed(parse_word("b^2 a^-4", P22), P22))
    assert not member(basis, embed(parse_word("a", P22), P22))
    assert not member(basis, embed(parse_word("[a,b]^2", P22), P22))
    assert member(basis, embed(parse_word("[a,b]^4", P22), P22))
    assert member(basis, identity(P22))

    with pytest.raises(ValueError):
        member(basis, identity(P23))


def _counting_leads(basis):
    """Count the leads member reads from basis from now on."""
    calls = []
    lead = basis.lead
    basis.lead = lambda g: calls.append(g) or lead(g)
    return calls


def test_member_rejects_on_the_abelianization_before_any_lead():
    # H = <a^2, b^3>: exponent sums in 2Z x 3Z, and H meets the derived
    # subgroup in <[a,b]^6>
    basis = induced_basis(words(P22, "a^2", "b^3"), P22)
    for text, expected, rejected_by_lattice in (
        ("a b^3", False, True),
        ("[a,b]", False, False),  # the lattice passes it, block 2 does not
        ("[a,b]^6", True, False),
        ("a^2 b^3", True, False),
        ("a^2 b^3 [a,b]^3", False, False),
    ):
        calls = _counting_leads(basis)
        assert member(basis, embed(parse_word(text, P22), P22)) is expected, text
        assert (not calls) is rejected_by_lattice, text


def test_member_of_the_trivial_subgroup_is_only_the_identity():
    # no slots: the lattice is 0 and has no columns, so solve answers [] for
    # zero sums and None for any other; [a,b] passes it, and no pivot takes it
    for basis in (induced_basis([], P23), induced_basis(words(P23, "a a^-1"), P23)):
        assert len(basis) == 0
        assert basis.abelianization.solve([0, 0]) == []
        assert basis.abelianization.solve([1, 0]) is None
        assert member(basis, identity(P23))
        for text in ("a", "[a,b]", "[[a,b],b]", "a b a^-1 b^-1"):
            assert not member(basis, embed(parse_word(text, P23), P23)), text


def test_member_inside_the_derived_subgroup():
    # k = 0: the lattice is 0, so any element with a nonzero exponent sum is
    # rejected at once and the rest go down the pivot loop
    basis = induced_basis(words(P23, "[a,b]"), P23)
    calls = _counting_leads(basis)
    assert not member(basis, embed(parse_word("a", P23), P23))
    assert not member(basis, embed(parse_word("[a,b] b", P23), P23))
    assert not calls
    assert member(basis, embed(parse_word("[a,b]^-3", P23), P23))
    assert not member(basis, embed(parse_word("[[a,b],a]", P23), P23))
    assert not member(basis, embed(parse_word("[a,b]^2 [[a,b],b]", P23), P23))
    assert member(basis, identity(P23))


def test_member_on_the_pullback_series_rejects_on_the_abelianization():
    # H = <a, [a,b]^2>, eliminated along the series that decide uses
    els = elements(P22, "a", "[a,b]^2")
    r = build_retraction(abelianized_basis(els, P22), P22)
    basis = subgroups._eliminate(els, P22, 10**4, subgroups._pullback_lead(r))
    calls = _counting_leads(basis)
    assert not member(basis, embed(parse_word("b", P22), P22))
    assert not member(basis, embed(parse_word("a^3 b^-1", P22), P22))
    assert not calls
    assert not member(basis, embed(parse_word("[a,b]", P22), P22))
    assert member(basis, embed(parse_word("a^-3 [a,b]^4", P22), P22))


@pytest.mark.parametrize(
    "m, c, radius, texts, bound",
    [
        # the measure tables of the ball benchmark; without the abelianization
        # check the filter reads 4,321, 3,081 and 3,681 leads
        (2, 2, 10, ("[a,b]",), 50),
        (2, 3, 6, ("a", "[a,b]"), 1000),
        (3, 2, 5, ("[a,b]", "c"), 400),
    ],
)
def test_member_filter_reads_few_leads(monkeypatch, m, c, radius, texts, bound):
    p = Presentation(m, c)
    calls = []

    def counted_basis(gens, presentation):
        basis = induced_basis(gens, presentation)
        calls.append(_counting_leads(basis))
        return basis

    monkeypatch.setattr(distortion, "induced_basis", counted_basis)
    distortion.measure_distortion(words(p, *texts), p, radius)
    [leads] = calls
    assert len(leads) <= bound


def test_member_against_brute_force_closure():
    rng = random.Random(73)
    for trial in range(12):
        p = (P22, P23)[trial % 2]
        gens = [
            random_word(rng, p.m, 3, min_len=1) for _ in range(rng.randint(1, 2))
        ]
        basis = induced_basis(gens, p)
        closure = closure_products([embed(w, p) for w in gens], 4)
        ball = element_ball(p, 3)
        for g in ball:
            if g in closure:
                assert member(basis, g)
        # and membership of the closure itself is always recognized
        for g in closure:
            assert member(basis, g)


def test_hirsch_length_examples():
    assert len(induced_basis(words(P22, "a", "b"), P22)) == 3
    assert len(induced_basis(words(P22, "a"), P22)) == 1
    assert len(induced_basis(words(P23, "a", "b"), P23)) == 5
    assert Presentation(2, 3).hirsch_length == 5


def test_independent_generators_give_free_image():
    # tuples independent in the abelianization generate a free nilpotent
    # subgroup, so the Hirsch length only depends on the tuple size
    rng = random.Random(79)
    from oracles import bareiss_rank

    done = 0
    while done < 10:
        p = (P22, P32)[done % 2]
        k = rng.randint(1, p.m)
        gens = [random_word(rng, p.m, 3, min_len=1) for _ in range(k)]
        vecs = [exponent_vector(w, p.m) for w in gens]
        if bareiss_rank(vecs) != k:
            continue
        basis = induced_basis(gens, p)
        assert len(basis) == Presentation(k, p.c).hirsch_length
        done += 1


def test_cyclic_distortion_exponent():
    def exponent(p, text):
        return cyclic_distortion_exponent(embed(parse_word(text, p), p))

    assert exponent(P22, "a") == 1
    assert exponent(P22, "[a,b]") == 2
    assert exponent(P23, "[a,[a,b]]") == 3
    assert exponent(P22, "a^2[a,b]^3") == 1
    with pytest.raises(ValueError):
        exponent(P22, "a a^-1")


def test_decide_commutator_subgroup():
    report = decide_undistorted(words(P22, "[a,b]"), P22)
    assert report.verdict == "distorted"
    assert report.k == 0
    assert report.hirsch_H == 1
    assert report.hirsch_rH == 0
    assert report.hirsch_F == 3
    assert report.finite_index is False
    assert report.normal is True
    assert report.cyclic_exponent == 2
    word, wt = report.kernel_witness
    assert wt == 2
    assert not embed(word, P22).is_identity()

    d = report.json_dict()
    assert d["verdict"] == "distorted"
    assert d["hirsch"] == {"H": 1, "rH": 0, "F": 3}
    assert d["kernel_witness"]["weight"] == 2
    assert d["retract"] is None


def test_decide_undistorted_cyclic():
    report = decide_undistorted(words(P22, "a^2[a,b]^3"), P22)
    assert report.verdict == "undistorted"
    assert report.k == 1
    assert report.hirsch_H == 1
    assert report.hirsch_rH == 1
    assert report.cyclic_exponent == 1
    assert report.finite_index is False
    assert report.normal is False
    assert report.retract_witness.kept == (0,)
    assert report.retract_witness.killed == (1,)

    d = report.json_dict()
    assert d["retract"] == {"kept": ["a"], "killed": ["b"]}
    assert d["kernel_witness"] is None


def test_decide_finite_index():
    report = decide_undistorted(words(P22, "a^2", "b", "[a,b]"), P22)
    assert report.verdict == "undistorted"
    assert report.finite_index is True
    assert (report.hirsch_H, report.hirsch_rH, report.hirsch_F) == (3, 3, 3)

    report = decide_undistorted(words(P22, "a", "b"), P22)
    assert report.verdict == "undistorted"
    assert report.finite_index is True


def test_decide_distorted_with_positive_rank():
    report = decide_undistorted(words(P22, "a", "[a,b]"), P22)
    assert report.verdict == "distorted"
    assert report.k == 1
    assert report.hirsch_H == 2
    assert report.hirsch_rH == 1
    assert report.normal is True
    word, wt = report.kernel_witness
    g = embed(word, P22)
    assert not g.is_identity()
    assert g.weight() == wt
    # the witness lies in the subgroup and dies under the retraction
    basis = induced_basis(words(P22, "a", "[a,b]"), P22)
    assert member(basis, g)
    retraction = build_retraction(
        abelianized_basis(elements(P22, "a", "[a,b]"), P22), P22
    )
    assert retraction(g).is_identity()


def test_decide_checks_the_witness_certificate(monkeypatch):
    # a witness that the retraction does not kill is refused, not reported
    spoiled = lambda word, gens: substitute(word, gens) + ((0, 1),)
    monkeypatch.setattr(subgroups, "substitute", spoiled)
    with pytest.raises(InternalInconsistencyError):
        decide_undistorted(words(P22, "a", "[a,b]"), P22)


def test_kernel_witness_must_lie_in_the_subgroup():
    # H = <a, [a,b]^2> meets the kernel of the retraction that kills b in
    # <[a,b]^2>: [a,b] dies under it but lies outside H, and a lies in H but
    # survives it; the check runs on the basis along the pullback series
    els = elements(P22, "a", "[a,b]^2")
    retraction = build_retraction(abelianized_basis(els, P22), P22)
    basis = subgroups._eliminate(els, P22, 10**4, subgroups._pullback_lead(retraction))
    for word, message in (
        (parse_word("[a,b]", P22), "outside H"),
        (parse_word("a", P22), "survives"),
        ((), "trivial"),
    ):
        with pytest.raises(InternalInconsistencyError, match=message):
            subgroups._kernel_witness(basis, word, retraction)
    word = parse_word("[a,b]^2", P22)
    assert subgroups._kernel_witness(basis, word, retraction) == (word, 2)


def test_decide_trivial_subgroup():
    report = decide_undistorted([(), parse_word("a a^-1", P22)], P22)
    assert report.verdict == "trivial"
    # the trivial subgroup has infinite index: H = 1 is never all of F
    assert report.finite_index is False
    assert report.normal is True
    assert report.kernel_witness is None


def test_decide_more_cases():
    report = decide_undistorted(words(P22, "a^3"), P22)
    assert report.verdict == "undistorted"
    assert report.normal is False
    assert report.cyclic_exponent == 1

    report = decide_undistorted(words(P22, "a^2", "b^2"), P22)
    assert report.verdict == "undistorted"
    assert report.finite_index is True
    assert report.normal is False

    report = decide_undistorted(words(P23, "[a,b]"), P23)
    assert report.verdict == "distorted"
    assert report.cyclic_exponent == 2

    report = decide_undistorted(words(P23, "[a,[a,b]]"), P23)
    assert report.verdict == "distorted"
    assert report.cyclic_exponent == 3


def test_normal_infinite_index_forces_distortion():
    # a proper normal subgroup of infinite index is always distorted
    cases = [
        (P22, ("[a,b]",)),
        (P22, ("[a,b]^2",)),
        (P22, ("a", "[a,b]")),
        (P23, ("[a,b]", "[a,[a,b]]", "[b,[a,b]]")),
        (P23, ("[a,[a,b]]", "[b,[a,b]]")),
        (P32, ("[a,b]", "[a,c]", "[b,c]")),
    ]
    for p, texts in cases:
        report = decide_undistorted(words(p, *texts), p)
        assert report.normal
        assert not report.finite_index
        assert report.verdict == "distorted"

    # random sets obey the same implication whenever they happen to hit it
    rng = random.Random(83)
    for _ in range(40):
        p = (P22, P23)[rng.randrange(2)]
        gens = [random_word(rng, p.m, 3, min_len=1) for _ in range(rng.randint(1, 2))]
        report = decide_undistorted(gens, p)
        if report.normal and not report.finite_index and report.verdict != "trivial":
            assert report.verdict == "distorted"


def test_normality_fixed_cases():
    # {a, [a,b]} is normal in F(2,2), where [a,b] is central, but not in
    # F(2,3), where [[a,b],b] is missing
    cases = [
        (P22, ("[a,b]",), True),
        (P22, ("a", "[a,b]"), True),
        (P22, ("a^2", "b", "[a,b]"), True),
        (P23, ("[a,b]", "[[a,b],a]", "[[a,b],b]"), True),
        (P23, ("a", "[a,b]"), False),
    ]
    for p, texts, normal in cases:
        report = decide_undistorted(words(p, *texts), p)
        assert report.normal is normal, texts
        basis = induced_basis(words(p, *texts), p)
        assert conjugation_normal(basis, elements(p, *texts), p) is normal, texts


def test_verdict_survives_tietze_moves():
    rng = random.Random(89)
    for _ in range(25):
        p = (P22, P23)[rng.randrange(2)]
        gens = [random_word(rng, p.m, 3, min_len=1) for _ in range(rng.randint(1, 3))]
        base = decide_undistorted(gens, p).verdict
        moved = [list(w) for w in gens]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            i = rng.randrange(len(moved))
            if kind == 0 and len(moved) > 1:
                j = rng.randrange(len(moved))
                moved[i], moved[j] = moved[j], moved[i]
            elif kind == 1:
                moved[i] = list(invert_word(tuple(moved[i])))
            elif len(moved) > 1:
                j = (i + 1) % len(moved)
                moved[i] = list(
                    free_reduce(
                        tuple(moved[i]) + word_power(tuple(moved[j]), rng.choice((1, -1)))
                    )
                )
        assert decide_undistorted([tuple(w) for w in moved], p).verdict == base


def test_event_cap_is_enforced():
    with pytest.raises(CapExceededError):
        induced_basis(words(P23, "a", "b"), P23, max_events=3)


def test_displaced_pairs_cost_no_commutators():
    # a finite-index subgroup of F(5,3) whose elimination displaces most of
    # its entries: commuting the pairs queued for displaced entries too takes
    # about 15,900 events (tests/oracles.py every_pair_basis), skipping them
    # 3,024
    p = Presentation(5, 3)
    gens = words(p, "a^6 b^10", "b^15 c", "c^-4 d^9", "d e^12", "e^7 a^2")
    report = decide_undistorted(gens, p, max_events=4000)
    assert report.verdict == "undistorted" and report.finite_index
    assert len(induced_basis(gens, p, max_events=4000)) == p.hirsch_length


def test_member_uses_coordinates_consistently():
    # reducing an element and rebuilding it from coordinates are inverse
    rng = random.Random(97)
    basis = induced_basis(words(P22, "a^2", "b^2"), P22)
    for _ in range(40):
        w = random_word(rng, 2, 6)
        g = embed(w, P22)
        assert member(basis, from_coordinates(to_coordinates(g), P22)) == member(
            basis, g
        )
