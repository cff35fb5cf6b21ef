import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nildist
from oracles import heis_eval, homogeneous, naive_embed, random_word, tuple_terms
from nildist.magnus import (
    commutator,
    embed,
    evaluate,
    identity,
    inverse,
    multiply,
    power,
)
from nildist.presentation import Presentation
from nildist.words import parse, parse_word

P22 = Presentation(2, 2)
P23 = Presentation(2, 3)
P32 = Presentation(3, 2)
P33 = Presentation(3, 3)

PRESENTATIONS = (P22, P23, P32, P33)


def test_generator_images():
    g = embed(parse_word("a", P23), P23)
    assert tuple_terms(g) == {(): 1, (0,): 1}
    h = embed(parse_word("a^-1", P23), P23)
    assert tuple_terms(h) == {(): 1, (0,): -1, (0, 0): 1, (0, 0, 0): -1}
    assert multiply(g, h).is_identity()


def test_commutator_image():
    g = embed(parse_word("[a,b]", P22), P22)
    assert tuple_terms(g) == {(): 1, (0, 1): 1, (1, 0): -1}


def test_product_image():
    g = multiply(embed(((0, 1),), P22), embed(((1, 1),), P22))
    assert tuple_terms(g) == {(): 1, (0,): 1, (1,): 1, (0, 1): 1}


def test_powers_have_binomial_coefficients():
    # (1 + x)^n truncated: coefficient of x^k is C(n, k)
    a = embed(((0, 1),), P23)
    for n in range(12):
        g = power(a, n)
        for k in range(4):
            assert g.coefficient((0,) * k) == math.comb(n, k)


def test_power_matches_repeated_multiplication():
    rng = random.Random(3)
    for p in PRESENTATIONS:
        for _ in range(20):
            w = random_word(rng, p.m, 4)
            g = embed(w, p)
            acc = identity(p)
            for n in range(8):
                assert power(g, n) == acc
                assert multiply(power(g, -n), acc).is_identity()
                acc = multiply(acc, g)


def test_embed_matches_naive_expansion():
    rng = random.Random(5)
    for p in PRESENTATIONS:
        for _ in range(60):
            w = random_word(rng, p.m, 8)
            assert tuple_terms(embed(w, p)) == naive_embed(w, p.m, p.c)
        # long runs of one letter, each embedded as one power
        w = parse_word("a^7 b^-5 a^-3 b^2 a", p)
        assert tuple_terms(embed(w, p)) == naive_embed(w, p.m, p.c)


def test_embed_is_a_homomorphism():
    rng = random.Random(9)
    for p in PRESENTATIONS:
        for _ in range(60):
            u = random_word(rng, p.m, 6)
            v = random_word(rng, p.m, 6)
            assert embed(u + v, p) == multiply(embed(u, p), embed(v, p))
            assert inverse(embed(u, p)) == embed(
                tuple((i, -s) for i, s in reversed(u)), p
            )


def test_faithful_on_rank_two_class_two():
    # Every word of length <= 8 maps to the identity exactly when its image
    # in the integer Heisenberg group is the identity matrix.
    p = P22
    letters = [((i, s),) for i in range(2) for s in (1, -1)]
    images = [(embed(w, p), heis_eval(w)) for w in letters]
    stack = [(identity(p), (0, 0, 0))]
    checked = 0
    for _ in range(8):
        new = []
        for g, t in stack:
            for step_g, step_t in images:
                h = multiply(g, step_g)
                u = (t[0] + step_t[0], t[1] + step_t[1], t[2] + step_t[2] + t[0] * step_t[1])
                assert h.is_identity() == (u == (0, 0, 0))
                new.append((h, u))
                checked += 1
        stack = new
    assert checked == sum(4**k for k in range(1, 9))


def test_commutator_of_powers():
    # [a^n, b^n] has degree-two part n^2 (x1 x2 - x2 x1)
    for n in (1, 2, 3, 7, 15):
        g = commutator(
            power(embed(((0, 1),), P23), n), power(embed(((1, 1),), P23), n)
        )
        assert homogeneous(g, 2) == {(0, 1): n * n, (1, 0): -n * n}


def test_weight():
    assert identity(P23).weight() == math.inf
    assert embed(parse_word("a", P23), P23).weight() == 1
    assert embed(parse_word("[a,b]", P23), P23).weight() == 2
    assert embed(parse_word("[a,[a,b]]", P23), P23).weight() == 3


def test_weight_is_filtration_compatible():
    rng = random.Random(13)
    for _ in range(80):
        u = random_word(rng, 2, 5)
        v = random_word(rng, 2, 5)
        g = embed(u, P23)
        h = embed(v, P23)
        assert multiply(g, h).weight() >= min(g.weight(), h.weight())
        assert commutator(g, h).weight() >= min(g.weight() + h.weight(), math.inf)
        assert inverse(g).weight() == g.weight()


def test_mismatched_presentations_rejected():
    with pytest.raises(ValueError):
        multiply(identity(P22), identity(P23))
    with pytest.raises(ValueError):
        commutator(embed(((0, 1),), P22), embed(((1, 1),), P23))
    with pytest.raises(ValueError):
        embed(((5, 1),), P22)


def test_hash_is_by_terms_and_equality_by_presentation_too():
    g, h = embed(((0, 1),), P22), embed(((0, 1),), P23)
    assert g.terms == h.terms and hash(g) == hash(h) and g != h


def test_empty_products_are_the_identity():
    assert embed((), P23) == identity(P23)
    assert evaluate(parse("1", P23), P23) == identity(P23)


def test_invariant_checks_survive_optimize():
    # python -O strips assert statements; the invariants must still raise
    script = """
from nildist import hall
from nildist.errors import InternalInconsistencyError
from nildist.magnus import GroupElement
from nildist.presentation import Presentation
hall.witt_number = lambda m, k: 0  # the Hall basis count can no longer match
p = Presentation(2, 3)
for build in (lambda: GroupElement(p, {1: 2}), lambda: hall.HallBasis(p)):
    try:
        build()
    except InternalInconsistencyError:
        continue
    raise SystemExit("no InternalInconsistencyError")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(nildist.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
