"""Exact integer matrix algebra.

Row-style Hermite normal form with unimodular transformation tracking, and
integral linear solving against one fixed matrix (RepeatedSolver).
Everything runs on arbitrary-precision integers; pivots are chosen by least
absolute value to keep intermediate entries small.
"""

from __future__ import annotations


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    for j in range(len(target)):
        target[j] -= q * source[j]


def _hnf_lists(a: list[list[int]]):
    """Reduce a in place to row HNF; return the tracked unimodular factor."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if a[i][col]]
            if not nz:
                break
            ipiv = min(nz, key=lambda i: (abs(a[i][col]), i))
            if ipiv != r:
                a[r], a[ipiv] = a[ipiv], a[r]
                u[r], u[ipiv] = u[ipiv], u[r]
            done = True
            for i in range(r + 1, nrows):
                if a[i][col]:
                    q = a[i][col] // a[r][col]
                    if q:
                        _row_sub(a[i], a[r], q)
                        _row_sub(u[i], u[r], q)
                    if a[i][col]:
                        done = False
            if done:
                break
        if r < nrows and a[r][col]:
            if a[r][col] < 0:
                a[r] = [-v for v in a[r]]
                u[r] = [-v for v in u[r]]
            for i in range(r):
                q = a[i][col] // a[r][col]
                if q:
                    _row_sub(a[i], a[r], q)
                    _row_sub(u[i], u[r], q)
            r += 1
    return u


def hermite_normal_form(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Return (h, u) with h = u rows, u unimodular, h in row echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot)."""
    h = [list(row) for row in rows]
    u = _hnf_lists(h)
    return h, u


class RepeatedSolver:
    """Solves a x = b over the integers for many right-hand sides b, for a
    matrix a given by its rows.

    The Hermite form of the transpose is computed once; each solve is then a
    forward substitution along the pivot rows.  Each pivot row and its row
    of the transform are kept as their nonzero (column, value) pairs, since
    most of either is zero, and x sums only the rows of the pivots used.
    """

    def __init__(self, rows):
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        h = [list(col) for col in zip(*rows)]
        u = _hnf_lists(h)
        # (pivot column, pivot value, the nonzero entries of the row and of
        # its row of u)
        self.pivots = []
        for row, urow in zip(h, u):
            entries = [(j, v) for j, v in enumerate(row) if v]
            if entries:
                transform = [(t, v) for t, v in enumerate(urow) if v]
                self.pivots.append((entries[0][0], entries[0][1], entries, transform))

    def solve(self, b) -> list[int] | None:
        if len(b) != self.nrows:
            raise ValueError("right-hand side has the wrong length")
        residual = list(b)
        # the nonzero entries q of y, each with its row of u
        combination = []
        for j, pivot, entries, transform in self.pivots:
            value = residual[j]
            if value % pivot:
                return None
            q = value // pivot
            if q:
                combination.append((q, transform))
                for col, v in entries:
                    residual[col] -= q * v
        if any(residual):
            return None
        x = [0] * self.ncols
        for q, transform in combination:
            for t, v in transform:
                x[t] += q * v
        return x
