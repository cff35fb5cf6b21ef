"""Exact integer matrix algebra.

Row-style Hermite normal form with unimodular transformation tracking, rank,
and integral linear solving against one fixed matrix (RepeatedSolver).
Everything runs on arbitrary-precision integers; pivots are chosen by least
absolute value to keep intermediate entries small.
"""

from __future__ import annotations


class IntMatrix:
    __slots__ = ("data",)

    def __init__(self, rows):
        data = tuple(tuple(int(v) for v in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows must all have the same length")
        self.data = data

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def tolists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]})"


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


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (H, U) with H = U a, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot)."""
    h = a.tolists()
    u = _hnf_lists(h)
    return IntMatrix(h), IntMatrix(u)


def rank(a: IntMatrix) -> int:
    h = a.tolists()
    _hnf_lists(h)
    return sum(1 for row in h if any(row))


class RepeatedSolver:
    """Solves a x = b over the integers for many right-hand sides b.

    The Hermite form of the transpose is computed once; each solve is then a
    forward substitution along the pivot rows.
    """

    def __init__(self, a: IntMatrix):
        self.nrows = a.rows
        self.ncols = a.cols
        h = a.transpose().tolists()
        self.u = _hnf_lists(h)
        self.h = h
        self.pivots = []
        for i, row in enumerate(h):
            for j, vv in enumerate(row):
                if vv:
                    self.pivots.append((i, j))
                    break

    def solve(self, b) -> list[int] | None:
        if len(b) != self.nrows:
            raise ValueError("right-hand side has the wrong length")
        residual = list(b)
        y = [0] * self.ncols
        for i, j in self.pivots:
            value = residual[j]
            pivot = self.h[i][j]
            if value % pivot:
                return None
            q = value // pivot
            if q:
                y[i] = q
                row = self.h[i]
                for col in range(j, self.nrows):
                    residual[col] -= q * row[col]
        if any(residual):
            return None
        return [sum(y[i] * self.u[i][t] for i in range(self.ncols))
                for t in range(self.ncols)]

