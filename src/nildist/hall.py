"""Hall basis of basic commutators and Mal'cev coordinates.

The weight-1 basic commutators are the generators in index order.  A bracket
[u, v] of basic commutators is basic when u > v in basis order and, if
u = [a, b], additionally b <= v.  Listing entries by weight and then by
construction order gives the classical Hall set; the weight-k layer has
exactly witt_number(m, k) entries.

Every group element factors uniquely as b1^e1 b2^e2 ... bL^eL over the basis
listed in order, and the exponent vector (e1, ..., eL) is the element's
coordinate tuple.  The two directions:

  * from_coordinates multiplies the ordered powers out;
  * to_coordinates peels one weight at a time.  If the residual lies in the
    weight-w term of the lower central series, the degree-w part of its
    polynomial image is an integer combination of the Lie expansions of the
    weight-w basis entries; solving that linear system yields the
    exponents, and removing b_i^-e_i for each weight-w entry, in basis
    order, pushes the residual one weight deeper.  For 2w <= c the removal
    is a product, b_i^-e_i times the residual.  Past half the class it is a
    subtraction: gamma_w is abelian once 2w > c, and its Magnus images add
    under the truncation, since (1 + u)(1 + v) = 1 + u + v when u and v
    start in degree w, so the residual loses e_i (b_i - 1).  The system
    matrix per weight is fixed, so its Hermite form is computed once per
    presentation.  Its rows are the degree-w monomials in lexicographic
    order, which is the order of their integer keys (HallBasis._monomials),
    so a block is read from the terms at those keys.  An element of weight w
    has zero coordinates below block w, so its first nonzero coordinate
    takes one solve, at block w.

Both directions build a power b_i^e of a letter in closed form,
(1 + x)^e = sum_k C(e, k) x^k (magnus._letter_power), with no product, and
a power of a bracket by its binomial series (magnus.power).

Right multiplication by a fixed element s of weight w is a polynomial map
on coordinate tuples (step_map): coordinate i of x s minus x_i has weighted
degree at most w_i - w when x_k weighs the weight of entry k.  Its
coefficients in the binomial basis prod C(x_k, n_k) are finite differences
of the engine's values on the staircase of exponent vectors of weighted
degree <= c - w.  For a letter that is 3, 7 and 4 points for F(2,2), F(2,3)
and F(3,2), 31 for F(5,3), 127 for F(2,7); a heavier step takes fewer, 3
for [a,b] in F(2,3) and 31 for [a,[b,a]] in F(2,7), and a central one
takes 1.  apply_step_columns is the one evaluator: it takes a map over
many tuples at once, given as their coordinate columns, with one map over
a column per monomial and per row term.  The ball searches step a frontier
chunk by it, the member sift a batch of tuples, and step_map's own check
its three check points.  step_map is the one cache, one per process: it
keeps the maps of the last 20 * CACHED_PRESENTATIONS step elements, letters
and subgroup elements alike, each derived on its first use, never while
the Hall basis is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv, mul, sub
from typing import NamedTuple

from .errors import InternalInconsistencyError
from .intmat import RepeatedSolver
from .magnus import (
    GroupElement,
    _letter_power,
    _product,
    commutator,
    degree_keys,
    embed,
    key_product,
    monomial_key,
    multiply,
    power,
)
from .presentation import CACHED_PRESENTATIONS, Presentation, witt_number

MalcevCoords = tuple[int, ...]


@dataclass(frozen=True)
class BasicCommutator:
    position: int
    weight: int
    gen: int | None = None
    left: int | None = None
    right: int | None = None


def _lie_bracket(f: dict, g: dict) -> dict:
    out: dict[int, int] = {}
    for k1, a in f.items():
        for k2, b in g.items():
            for key, coeff in (
                (key_product(k1, k2), a * b),
                (key_product(k2, k1), -a * b),
            ):
                v = out.get(key, 0) + coeff
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


class HallBasis:
    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        entries: list[BasicCommutator] = [
            BasicCommutator(i, 1, gen=i) for i in range(presentation.m)
        ]
        blocks = {1: range(0, presentation.m)}
        for w in range(2, presentation.c + 1):
            start = len(entries)
            known = len(entries)
            for v_idx in range(known):
                wv = entries[v_idx].weight
                wu = w - wv
                if wu < 1 or wu > presentation.c:
                    continue
                for u_idx in blocks.get(wu, ()):
                    if u_idx <= v_idx:
                        continue
                    u = entries[u_idx]
                    if u.gen is None and u.right > v_idx:
                        continue
                    entries.append(
                        BasicCommutator(len(entries), w, left=u_idx, right=v_idx)
                    )
            blocks[w] = range(start, len(entries))
        self.entries = tuple(entries)
        self._blocks = blocks
        # each bracket's name from the names of its two parts
        names: list[str] = []
        for entry in entries:
            if entry.gen is not None:
                names.append(presentation.name_of(entry.gen))
            else:
                names.append(f"[{names[entry.left]},{names[entry.right]}]")
        self.names = tuple(names)
        for w in range(1, presentation.c + 1):
            if len(blocks[w]) != witt_number(presentation.m, w):
                raise InternalInconsistencyError(
                    f"weight-{w} Hall layer has the wrong size"
                )

        bits = presentation.letter_bits
        self._lie: list[dict] = []
        for entry in self.entries:
            if entry.gen is not None:
                self._lie.append({monomial_key((entry.gen,), bits): 1})
            else:
                self._lie.append(_lie_bracket(self._lie[entry.left], self._lie[entry.right]))

        self._elements: list[GroupElement] = []
        for entry in self.entries:
            if entry.gen is not None:
                self._elements.append(embed(((entry.gen, 1),), presentation))
            else:
                self._elements.append(
                    commutator(self._elements[entry.left], self._elements[entry.right])
                )

        # the keys of the degree-w monomials in lexicographic order, one
        # solver row each
        self._monomials: dict[int, list[int]] = {}
        self._solvers: dict[int, RepeatedSolver] = {}
        for w in range(1, presentation.c + 1):
            keys = degree_keys(presentation, w)
            self._monomials[w] = keys
            self._solvers[w] = RepeatedSolver(
                [[self._lie[i].get(key, 0) for i in blocks[w]] for key in keys]
            )

    def __len__(self) -> int:
        return len(self.entries)

    def block(self, w: int) -> range:
        return self._blocks[w]

    def lie(self, i: int) -> dict:
        return self._lie[i]

    def element(self, i: int) -> GroupElement:
        return self._elements[i]

    def bracket_str(self, i: int) -> str:
        return self.names[i]

    def element_power(self, i: int, e: int) -> GroupElement:
        """b_i^e: the entry itself for e = 1, whose rows are grouped; a
        letter's power in closed form; a bracket's by its series."""
        if e == 1:
            return self._elements[i]
        if i < self.presentation.m:
            return _letter_power(self.presentation, i, e)
        return power(self._elements[i], e)


@lru_cache(maxsize=CACHED_PRESENTATIONS)
def hall_basis(presentation: Presentation) -> HallBasis:
    return HallBasis(presentation)


def _block_exponents(basis: HallBasis, w: int, terms: dict):
    """Exponents of the weight-w block for a residual in the weight-w term."""
    vector = [terms.get(key, 0) for key in basis._monomials[w]]
    exponents = basis._solvers[w].solve(vector)
    if exponents is None:
        raise InternalInconsistencyError(
            f"degree-{w} part is not a combination of basic commutators"
        )
    return exponents


def to_coordinates(g: GroupElement) -> MalcevCoords:
    """Mal'cev coordinates of g, weight block by weight block.  Blocks with
    2w <= c peel by products b^-e r, the letters' b^-e in closed form;
    blocks past half the class peel by subtraction, because gamma_w is
    abelian for 2w > c and b^-e r = r - e(b - 1) there.  The peel must end
    at the identity."""
    p = g.presentation
    basis = hall_basis(p)
    half = p.c // 2
    coords: list[int] = []
    residual = g
    for w in range(1, half + 1):
        exponents = _block_exponents(basis, w, residual.terms)
        coords.extend(exponents)
        for i, e in zip(basis.block(w), exponents):
            if e:
                residual = multiply(basis.element_power(i, -e), residual)
    # (b - 1)^2 and (b - 1)(r - 1) start in degree 2w > c, so they vanish
    terms = dict(residual.terms)
    for w in range(half + 1, p.c + 1):
        exponents = _block_exponents(basis, w, terms)
        coords.extend(exponents)
        for i, e in zip(basis.block(w), exponents):
            if not e:
                continue
            for key, v in basis.element(i).terms.items():
                if key == 1:
                    continue
                total = terms.get(key, 0) - e * v
                if total:
                    terms[key] = total
                else:
                    del terms[key]
    if not GroupElement(p, terms).is_identity():
        raise InternalInconsistencyError("nonzero residual after peeling all weights")
    return tuple(coords)


def from_coordinates(coords, presentation: Presentation) -> GroupElement:
    basis = hall_basis(presentation)
    if len(coords) != len(basis):
        raise ValueError(
            f"expected {len(basis)} coordinates, got {len(coords)}"
        )
    powers = (basis.element_power(i, e) for i, e in enumerate(coords) if e)
    return _product(powers, presentation)


def normal_form_str(coords, presentation: Presentation) -> str:
    """Render a coordinate tuple as a product of basis powers.

    A negative power of a bracket prints with the bracket flipped, using
    [u,v]^-1 = [v,u]; generators keep their negative exponents.
    """
    basis = hall_basis(presentation)
    names = basis.names
    parts = []
    for i, e in enumerate(coords):
        if not e:
            continue
        entry = basis.entries[i]
        if entry.gen is None and e < 0:
            body = f"[{names[entry.right]},{names[entry.left]}]"
            e = -e
        else:
            body = names[i]
        parts.append(body if e == 1 else f"{body}^{e}")
    return " ".join(parts) or "1"


# ------------------------------------------------------------------ step maps


class StepMap(NamedTuple):
    """x -> x s on coordinate tuples, for one fixed step s.

    values starts as [1, x_1, ..., x_L] and each (base, k, j) of monomials
    appends values[base] * C(x_k, j), so every value is a product of
    binomials C(x_k, n_k).  Coordinate i of x s is x_i plus coeff *
    values[t] summed over the (coeff, t) in i's row; coordinates without a
    row keep x_i."""

    monomials: tuple[tuple[int, int, int], ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _binomial_column(column, j: int):
    # C(x, j) entrywise for any integers x: r * (x - i) is (i + 1) C(x, i + 1)
    r = column
    for i in range(1, j):
        r = map(floordiv, map(mul, r, map(sub, column, repeat(i))), repeat(i + 1))
    return list(r)


def apply_step_columns(columns, step: StepMap) -> list:
    """The columns of the products x s, for step = step_map(s) and many
    tuples x given as their coordinate columns (columns[k] holds x_k of
    every tuple).  Each monomial and each row term is one map over a whole
    column, so the per-element work runs in C.  A column without a row
    comes back as it went in; a row's column is a lazy map, to be read
    once."""
    monomials, rows = step
    values = [None, *columns]  # values[0], the constant 1, is never read
    for base, k, j in monomials:
        column = columns[k] if j == 1 else _binomial_column(columns[k], j)
        values.append(column if base == 0 else list(map(mul, values[base], column)))
    y = list(columns)
    for i, terms in rows:
        for coeff, t in terms:
            if t == 0:
                y[i] = map(add, y[i], repeat(coeff))
            elif coeff == 1:
                y[i] = map(add, y[i], values[t])
            elif coeff == -1:
                y[i] = map(sub, y[i], values[t])
            else:
                y[i] = map(add, y[i], map(mul, values[t], repeat(coeff)))
    return y


def _staircase(presentation: Presentation, top: int) -> list[tuple[int, ...]]:
    """The exponent vectors n over the coordinates of weight <= top with
    sum n_k w_k <= top, by that weighted degree and then lexicographically:
    lowering an entry of n gives a point that comes earlier."""
    weights = [e.weight for e in hall_basis(presentation).entries if e.weight <= top]
    points = [(0, ())]  # (weighted degree, n)
    for w in weights:
        points = [
            (d + j * w, n + (j,)) for d, n in points for j in range((top - d) // w + 1)
        ]
    return [n for _, n in sorted(points)]


def _differences(points: list, values: list) -> list:
    """The binomial-basis coefficients of the polynomial map taking
    values[t] at points[t]: a[n] = (Delta^n f)(0), by forward differences
    along one variable at a time.  Lowering an entry of a point gives
    another point, so every difference reads inside the set."""
    at = {n: t for t, n in enumerate(points)}
    table = [list(v) for v in values]
    for k in range(len(points[0])):
        for level in range(1, max(n[k] for n in points) + 1):
            # highest n_k first, so n - e_k still holds the last level
            raised = sorted((n for n in points if n[k] >= level), key=lambda n: -n[k])
            for n in raised:
                lower = table[at[n[:k] + (n[k] - 1,) + n[k + 1 :]]]
                row = table[at[n]]
                for i, v in enumerate(lower):
                    row[i] -= v
    return table


# points off the staircase, cycled to the coordinate count.  C(x, j) is
# nonzero for every j at x < 0, so at the all-negative point every monomial
# is, and any one wrong coefficient shows there.
_CHECK_PATTERNS = ((-2, -1, -3), (1, -2, 3), (-3, 1, -1, 2))


def _engine_step(x, s: GroupElement) -> MalcevCoords:
    return to_coordinates(multiply(from_coordinates(x, s.presentation), s))


# one entry per step element: the 2m <= 20 letters of a presentation of
# class >= 2 under the default Hirsch cap, and the generators and pivot
# elements of the subgroups measured in it
@lru_cache(maxsize=20 * CACHED_PRESENTATIONS)
def step_map(s: GroupElement) -> StepMap:
    """The map x -> x s on Mal'cev coordinates, interpolated from the engine.

    For s of weight w, coordinate i of x s minus x_i is an integer-valued
    polynomial in x of weighted degree at most w_i - w, where x_k weighs
    w_k, the weight of basis entry k: Hall's bound w_i for a basis through
    the lower central series, less the weight of the coordinate of s that
    every term of the difference carries.  So it reads only the coordinates
    of weight <= c - w, and its coefficients in the binomial basis
    prod C(x_k, n_k) are the finite differences on the staircase of points
    of weighted degree <= c - w, one engine product per point.  The map is
    then checked against the engine at fixed points off the staircase.  s
    must not be the identity."""
    p = s.presentation
    length = len(hall_basis(p))
    points = _staircase(p, p.c - s.weight())
    values = []
    for n in points:
        x = n + (0,) * (length - len(n))
        values.append([b - a for a, b in zip(x, _engine_step(x, s))])
    table = _differences(points, values)

    # values[0] is 1 and values[1 + k] is x_k; any other monomial a row
    # reads is built from its base, n with its last nonzero entry n_k zeroed,
    # times C(x_k, n_k)
    at = {n: t for t, n in enumerate(points)}
    slots = {0: 0}
    monomials = []

    def place(t):
        if t not in slots:
            n = points[t]
            k = max(k for k, j in enumerate(n) if j)
            base = place(at[n[:k] + (0,) * (len(n) - k)])
            if base == 0 and n[k] == 1:
                slots[t] = 1 + k
            else:
                slots[t] = 1 + length + len(monomials)
                monomials.append((base, k, n[k]))
        return slots[t]

    rows = []
    for i in range(length):
        terms = tuple((row[i], place(t)) for t, row in enumerate(table) if row[i])
        if terms:
            rows.append((i, terms))
    step = StepMap(tuple(monomials), tuple(rows))

    checks = [
        tuple(pattern[k % len(pattern)] for k in range(length))
        for pattern in _CHECK_PATTERNS
    ]
    products = zip(*apply_step_columns(list(zip(*checks)), step))
    if list(products) != [_engine_step(x, s) for x in checks]:
        raise InternalInconsistencyError(
            "interpolated step map disagrees with the engine"
        )
    return step
