import random

import pytest

from oracles import bareiss_rank, fraction_det, matmul
from nildist.intmat import IntMatrix, RepeatedSolver, hermite_normal_form, rank


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def is_row_echelon(h):
    last = -1
    seen_zero_row = False
    for i in range(h.rows):
        row = h.row(i)
        pivots = [j for j, v in enumerate(row) if v]
        if not pivots:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero row above a nonzero row"
        j = pivots[0]
        assert j > last
        assert row[j] > 0
        for k in range(i):
            assert 0 <= h.row(k)[j] < row[j]
        last = j
    return True


def test_hnf_examples():
    h, u = hermite_normal_form(IntMatrix([[2, 0], [3, 0]]))
    assert h == IntMatrix([[1, 0], [0, 0]])
    assert matmul(u.data, [[2, 0], [3, 0]]) == h.tolists()

    h, _ = hermite_normal_form(IntMatrix([[4, 6], [6, 9]]))
    assert h == IntMatrix([[2, 3], [0, 0]])


def test_hnf_properties():
    rng = random.Random(17)
    for _ in range(200):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u = hermite_normal_form(a)
        assert matmul(u.data, a.data) == h.tolists()
        assert abs(fraction_det(u.tolists())) == 1
        assert is_row_echelon(h)


def test_hnf_huge_entries():
    big = 2**100
    a = IntMatrix([[big, big + 1], [3, 5]])
    h, u = hermite_normal_form(a)
    assert matmul(u.data, a.data) == h.tolists()
    assert is_row_echelon(h)


def test_rank_against_fraction_free_elimination():
    rng = random.Random(19)
    for _ in range(100):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(a) == bareiss_rank(a.tolists())
    assert rank(IntMatrix([[0, 0], [0, 0]])) == 0
    identity = IntMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert rank(identity) == 4


def apply(a, x):
    return [sum(v * xj for v, xj in zip(row, x)) for row in a.data]


def solve(a, b):
    return RepeatedSolver(a).solve(b)


def test_solve_examples():
    assert solve(IntMatrix([[2]]), [3]) is None
    assert solve(IntMatrix([[2]]), [4]) == [2]
    # 3x + 5y = 1 has integer solutions
    x = solve(IntMatrix([[3, 5]]), [1])
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
    # one solver reused across right-hand sides answers as a fresh one does
    rng = random.Random(37)
    a = random_matrix(rng, 4, 3)
    solver = RepeatedSolver(a)
    for _ in range(50):
        b = [rng.randint(-20, 20) for _ in range(4)]
        one = solve(a, b)
        many = solver.solve(b)
        assert (one is None) == (many is None)
        if many is not None:
            assert apply(a, many) == b


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert a != IntMatrix([[1, 2], [3, 5]])
    assert IntMatrix([[0, 0, 0], [0, 0, 0]]).cols == 3
    assert (a.rows, a.cols) == (2, 2)
    assert a.row(0) == (1, 2)
    assert a.tolists() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
