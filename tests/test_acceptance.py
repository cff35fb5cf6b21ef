"""Acceptance gate: eight end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
check also asserts, so a FAIL line comes with a failing test.
"""

import random
import resource
import time

from oracles import (
    HEIS_A,
    HEIS_B,
    bareiss_rank,
    closure_products,
    element_ball,
    exponent_vector,
    lyndon_count,
    invert_word,
    random_word,
    word_power,
    word_slp,
)
from nildist.distortion import estimate_exponent, measure_distortion
from nildist.hall import from_coordinates, hall_basis, to_coordinates
from nildist.magnus import commutator, embed, evaluate, identity, multiply, power
from nildist.presentation import Presentation
from nildist.subgroups import (
    decide_undistorted,
    induced_basis,
    member,
    retraction_for,
)
from nildist.words import Slp, free_reduce, parse

P22 = Presentation(2, 2)
P23 = Presentation(2, 3)
P24 = Presentation(2, 4)
P32 = Presentation(3, 2)
P33 = Presentation(3, 3)


def check(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def nested_commutator(elements):
    acc = elements[-1]
    for g in reversed(elements[:-1]):
        acc = commutator(g, acc)
    return acc


def heis_ball(radius):
    def mul(s, t):
        return (s[0] + t[0], s[1] + t[1], s[2] + t[2] + s[0] * t[1])

    steps = [HEIS_A, HEIS_B, (-1, 0, 0), (0, -1, 0)]
    lengths = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for layer in range(1, radius + 1):
        new = []
        for t in frontier:
            for s in steps:
                u = mul(t, s)
                if u not in lengths:
                    lengths[u] = layer
                    new.append(u)
        frontier = new
    return lengths


def test_criterion_1_commutator_power_coordinates():
    start = time.monotonic()
    a = embed(((0, 1),), P22)
    b = embed(((1, 1),), P22)
    ab = commutator(a, b)
    ok = True
    for n in range(1, 31):
        left = to_coordinates(commutator(power(a, n), power(b, n)))
        right = to_coordinates(power(ab, n * n))
        if left != right:
            ok = False
            break
        if left[:2] != (0, 0) or abs(left[2]) != n * n:
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    check(1, ok, f"n = 1..30 exact, {elapsed:.2f}s")


def test_criterion_2_multilinear_identities():
    rng = random.Random(20220822)
    presentations = (P22, P23, P32, P24)
    failures = 0
    for trial in range(500):
        p = presentations[trial % 4]
        c = p.c
        args = [
            embed(random_word(rng, p.m, 3, min_len=1), p) for _ in range(c)
        ]
        slot = rng.randrange(c)
        y = embed(random_word(rng, p.m, 3, min_len=1), p)
        z = embed(random_word(rng, p.m, 3, min_len=1), p)

        with_yz = list(args)
        with_yz[slot] = multiply(y, z)
        with_y = list(args)
        with_y[slot] = y
        with_z = list(args)
        with_z[slot] = z
        if nested_commutator(with_yz) != multiply(
            nested_commutator(with_y), nested_commutator(with_z)
        ):
            failures += 1
            continue

        exponents = [rng.randint(-5, 5) for _ in range(c)]
        powered = [power(g, n) for g, n in zip(args, exponents)]
        total = 1
        for n in exponents:
            total *= n
        if nested_commutator(powered) != power(nested_commutator(args), total):
            failures += 1
    check(2, failures == 0, f"500 instances, {failures} failures")


def test_criterion_3_decision_catalog():
    problems = []

    def expect(condition, label):
        if not condition:
            problems.append(label)

    def witness_checks(texts, p, report):
        gens = [parse(t, p) for t in texts]
        if report.verdict == "undistorted":
            killed_letters = [Slp.letter(i) for i in report.retract_witness.killed]
            hn = induced_basis(gens + killed_letters, p)
            expect(len(hn) == p.hirsch_length, f"{texts}: HN index")
            expect(report.hirsch_H == report.hirsch_rH, f"{texts}: hirsch match")
        elif report.kernel_witness is not None:
            word, wt = report.kernel_witness
            g = embed(word, p)
            expect(not g.is_identity(), f"{texts}: witness trivial")
            expect(g.weight() == wt, f"{texts}: witness weight")
            r = retraction_for([evaluate(w, p) for w in gens], p)
            if r.kept:
                expect(
                    r(g).is_identity(),
                    f"{texts}: witness survives retraction",
                )
            else:
                # D is trivial, so the retraction kills everything; the
                # witness must sit below the abelianization
                expect(g.weight() >= 2, f"{texts}: witness weight under k=0")

    report = decide_undistorted([parse("[a,b]", P22)], P22)
    expect(report.verdict == "distorted", "{[a,b]}: verdict")
    expect(report.cyclic_exponent == 2, "{[a,b]}: exponent")
    witness_checks(["[a,b]"], P22, report)

    report = decide_undistorted([parse("a^2[a,b]^3", P22)], P22)
    expect(report.verdict == "undistorted", "{a^2[a,b]^3}: verdict")
    expect(
        report.retract_witness is not None
        and [P22.name_of(i) for i in report.retract_witness.killed] == ["b"],
        "{a^2[a,b]^3}: killed set",
    )
    witness_checks(["a^2[a,b]^3"], P22, report)

    report = decide_undistorted(
        [parse(t, P22) for t in ("a^2", "b", "[a,b]")], P22
    )
    expect(report.verdict == "undistorted", "{a^2,b,[a,b]}: verdict")
    expect(report.finite_index, "{a^2,b,[a,b]}: finite index")
    witness_checks(["a^2", "b", "[a,b]"], P22, report)

    report = decide_undistorted([parse(t, P22) for t in ("a", "[a,b]")], P22)
    expect(report.verdict == "distorted", "{a,[a,b]}: verdict")
    expect(report.normal, "{a,[a,b]}: normal")
    witness_checks(["a", "[a,b]"], P22, report)

    check(3, not problems, "4 catalog cases + witnesses" if not problems else "; ".join(problems))


def test_criterion_4_quadratic_distortion_measurement():
    start = time.monotonic()
    table = measure_distortion([parse("[a,b]", P22)], P22, 12)
    slope = estimate_exponent(table)
    elapsed = time.monotonic() - start

    oracle = heis_ball(12)
    expected = {}
    for t, length in oracle.items():
        if t[:2] == (0, 0):
            for n in range(length, 13):
                expected[n] = max(expected.get(n, 0), abs(t[2]))
    deltas = [row.delta for row in table.rows]
    rows_ok = all(
        row.delta == expected.get(row.n, 0) and row.exact for row in table.rows
    )

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = (
        rows_ok
        and deltas[2] == 0
        and deltas[3] == 1
        and 1.6 <= slope <= 2.4
        and elapsed < 300
        and peak_kb < 2 * 1024 * 1024
    )
    check(
        4,
        ok,
        f"slope={slope:.3f}, delta(3)={deltas[2]}, delta(4)={deltas[3]}, "
        f"{elapsed:.1f}s, peak {peak_kb // 1024} MB",
    )


def test_criterion_5_membership_against_closure():
    # The depth-4 closure is only a valid two-sided membership oracle when it
    # already saturates the subgroup inside the radius-3 ball.  That is
    # certified oracle-side: products of twice the depth must add nothing new
    # within the ball.  Draws failing the certificate (e.g. {b a b^-1, a b},
    # where reaching "a" takes six factors) are redrawn, and the comparison
    # itself stays exact and two-sided on every ball element.
    rng = random.Random(5)
    balls = {P22: element_ball(P22, 3), P23: element_ball(P23, 3)}
    disagreements = 0
    tested = 0
    redraws = 0
    while tested < 20:
        p = (P22, P23)[tested % 2]
        gens = [
            random_word(rng, p.m, 4, min_len=1) for _ in range(rng.randint(1, 2))
        ]
        ball = balls[p]
        closure = closure_products([embed(w, p) for w in gens], 4)
        deeper = closure_products([embed(w, p) for w in gens], 8)
        if {g for g in ball if g in closure} != {g for g in ball if g in deeper}:
            redraws += 1
            assert redraws < 200
            continue
        basis = induced_basis([word_slp(w) for w in gens], p)
        for g in ball:
            if member(basis, g) != (g in closure):
                disagreements += 1
        tested += 1
    check(
        5,
        disagreements == 0,
        f"20 subgroups ({redraws} redraws), {disagreements} disagreements",
    )


def test_criterion_6_basis_layer_counts():
    expected_sizes = {P22: 3, P23: 5, P24: 8, P32: 6, P33: 14}
    ok = True
    for p, size in expected_sizes.items():
        basis = hall_basis(p)
        if len(basis) != size:
            ok = False
        for w in range(1, p.c + 1):
            if len(basis.block(w)) != lyndon_count(p.m, w):
                ok = False
    check(6, ok, "sizes 3/5/8/6/14 and per-weight necklace counts")


def test_criterion_7_round_trip_and_homomorphism():
    rng = random.Random(7)
    presentations = (P22, P23, P32, P33)
    hom_failures = 0
    for trial in range(500):
        p = presentations[trial % 4]
        u = random_word(rng, p.m, 6)
        v = random_word(rng, p.m, 6)
        if embed(u + v, p) != multiply(embed(u, p), embed(v, p)):
            hom_failures += 1

    trip_failures = 0
    for trial in range(500):
        p = presentations[trial % 4]
        g = embed(random_word(rng, p.m, 6), p)
        if from_coordinates(to_coordinates(g), p) != g:
            trip_failures += 1

    hirsch_failures = 0
    done = 0
    while done < 50:
        p = (P22, P32, P23)[done % 3]
        k = rng.randint(1, p.m)
        gens = [random_word(rng, p.m, 3, min_len=1) for _ in range(k)]
        if bareiss_rank([exponent_vector(w, p.m) for w in gens]) != k:
            continue
        basis = induced_basis([word_slp(w) for w in gens], p)
        if len(basis) != Presentation(k, p.c).hirsch_length:
            hirsch_failures += 1
        done += 1

    ok = hom_failures == 0 and trip_failures == 0 and hirsch_failures == 0
    check(
        7,
        ok,
        f"500 products, 500 round trips, 50 independent tuples; "
        f"{hom_failures + trip_failures + hirsch_failures} failures",
    )


def test_criterion_8_tietze_stability():
    rng = random.Random(8)
    flips = 0
    for _ in range(100):
        p = (P22, P23)[rng.randrange(2)]
        gens = [
            random_word(rng, p.m, 3, min_len=1) for _ in range(rng.randint(1, 3))
        ]
        base = decide_undistorted([word_slp(w) for w in gens], p).verdict
        moved = list(gens)
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            i = rng.randrange(len(moved))
            if kind == 0:
                j = rng.randrange(len(moved))
                moved[i], moved[j] = moved[j], moved[i]
            elif kind == 1:
                moved[i] = invert_word(moved[i])
            elif len(moved) > 1:
                j = rng.choice([t for t in range(len(moved)) if t != i])
                moved[i] = free_reduce(
                    moved[i] + word_power(moved[j], rng.choice((1, -1)))
                )
        if decide_undistorted([word_slp(w) for w in moved], p).verdict != base:
            flips += 1
    check(8, flips == 0, f"100 trials, {flips} verdict flips")
