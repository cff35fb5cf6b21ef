"""Exact integer matrix algebra.

Row-style Hermite normal form, with the unimodular transformation tracked
only where it is read (hermite_transform), and integral linear solving
against one fixed matrix (RepeatedSolver), which reads it.
Everything runs on arbitrary-precision integers; pivots are chosen by least
absolute value to keep intermediate entries small.
"""

from __future__ import annotations


def _row_sub(target: list[int], source: list[int], q: int) -> None:
    for j in range(len(target)):
        target[j] -= q * source[j]


def _hnf_lists(a: list[list[int]], ncols: int) -> None:
    """Reduce the first ncols columns of a in place to row HNF, applying
    each row operation to the whole row, so that columns past ncols
    record the operations."""
    nrows = len(a)
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
            done = True
            for i in range(r + 1, nrows):
                if a[i][col]:
                    q = a[i][col] // a[r][col]
                    if q:
                        _row_sub(a[i], a[r], q)
                    if a[i][col]:
                        done = False
            if done:
                break
        if r < nrows and a[r][col]:
            if a[r][col] < 0:
                a[r] = [-v for v in a[r]]
            for i in range(r):
                q = a[i][col] // a[r][col]
                if q:
                    _row_sub(a[i], a[r], q)
            r += 1


def hermite_normal_form(rows) -> list[list[int]]:
    """h = u rows for some unimodular u, in row echelon form with positive
    pivots and entries above each pivot reduced into [0, pivot)."""
    h = [list(row) for row in rows]
    _hnf_lists(h, len(h[0]) if h else 0)
    return h


def hermite_transform(rows) -> tuple[list[list[int]], list[list[int]]]:
    """(h, u): hermite_normal_form(rows) and the unimodular u with
    h = u rows, tracked as identity columns beside rows."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    _hnf_lists(a, ncols)
    return [row[:ncols] for row in a], [row[ncols:] for row in a]


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
        h, u = hermite_transform(list(zip(*rows)))
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
