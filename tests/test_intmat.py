import random

import pytest

from oracles import bareiss_rank, fraction_det, matmul
from nildist.intmat import RepeatedSolver, hermite_normal_form, hermite_transform


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def is_row_echelon(h):
    last = -1
    seen_zero_row = False
    for i, row in enumerate(h):
        pivots = [j for j, v in enumerate(row) if v]
        if not pivots:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero row above a nonzero row"
        j = pivots[0]
        assert j > last
        assert row[j] > 0
        for k in range(i):
            assert 0 <= h[k][j] < row[j]
        last = j
    return True


def test_hnf_examples():
    a = [[2, 0], [3, 0]]
    h, u = hermite_transform(a)
    assert h == hermite_normal_form(a) == [[1, 0], [0, 0]]
    assert matmul(u, a) == h
    assert a == [[2, 0], [3, 0]]  # the input is left alone

    assert hermite_normal_form([[4, 6], [6, 9]]) == [[2, 3], [0, 0]]


def test_hnf_properties():
    rng = random.Random(17)
    for _ in range(200):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hermite_transform(a)
        assert h == hermite_normal_form(a)
        assert matmul(u, a) == h
        assert abs(fraction_det(u)) == 1
        assert is_row_echelon(h)


def test_hnf_huge_entries():
    big = 2**100
    a = [[big, big + 1], [3, 5]]
    h, u = hermite_transform(a)
    assert matmul(u, a) == h
    assert is_row_echelon(h)


def rank(a):
    """The number of nonzero rows of a's Hermite form."""
    return sum(1 for row in hermite_normal_form(a) if any(row))


def test_rank_against_fraction_free_elimination():
    rng = random.Random(19)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(a) == bareiss_rank(a)
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(identity) == 4


def apply(a, x):
    return [sum(v * xj for v, xj in zip(row, x)) for row in a]


def solve(a, b):
    return RepeatedSolver(a).solve(b)


def test_solve_examples():
    assert solve([[2]], [3]) is None
    assert solve([[2]], [4]) == [2]
    # 3x + 5y = 1 has integer solutions
    x = solve([[3, 5]], [1])
    assert x is not None and 3 * x[0] + 5 * x[1] == 1


def test_solve_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        x = [rng.randint(-9, 9) for _ in range(cols)]
        b = apply(a, x)
        y = solve(a, b)
        assert y is not None
        assert apply(a, y) == b


def test_solve_unsolvable_small():
    # brute force over a box certifies the None answers
    rng = random.Random(31)
    for _ in range(80):
        rows, cols = rng.randint(1, 2), rng.randint(1, 2)
        a = random_matrix(rng, rows, cols, bound=4)
        b = [rng.randint(-6, 6) for _ in range(rows)]
        y = solve(a, b)
        if y is not None:
            assert apply(a, y) == b
            continue
        box = range(-30, 31)
        if cols == 1:
            candidates = ((x0,) for x0 in box)
        else:
            candidates = ((x0, x1) for x0 in box for x1 in box)
        for x in candidates:
            assert apply(a, list(x)) != b


def test_repeated_solver_matches_one_shot():
    # one solver reused across right-hand sides answers as a fresh one does,
    # on consistent, inconsistent and non-divisible right-hand sides alike
    rng = random.Random(37)
    a = random_matrix(rng, 4, 3)
    assert bareiss_rank(a) == 3
    doubled = [[2 * v for v in row] for row in a]
    solver, doubled_solver = RepeatedSolver(a), RepeatedSolver(doubled)
    inconsistent = 0
    for _ in range(50):
        b = [rng.randint(-20, 20) for _ in range(4)]
        one = solve(a, b)
        many = solver.solve(b)
        assert (one is None) == (many is None)
        if many is not None:
            assert apply(a, many) == b
        # b off the rational span of the columns has no solution at all
        if bareiss_rank([row + [v] for row, v in zip(a, b)]) > 3:
            inconsistent += 1
            assert many is None
        # 2a y = a x has the one rational solution x / 2, an integer one
        # exactly when x is even
        x = [rng.randint(-9, 9) for _ in range(3)]
        y = doubled_solver.solve(apply(a, x))
        assert y == solve(doubled, apply(a, x))
        if all(v % 2 == 0 for v in x):
            assert y == [v // 2 for v in x]
        else:
            assert y is None
    assert inconsistent > 25
    with pytest.raises(ValueError):
        solver.solve([0, 0, 0])
