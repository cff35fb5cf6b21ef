"""Empirical distortion measurement by breadth-first Cayley ball search.

The ambient ball is grown layer by layer from the identity, one multiplication
per generator (and inverse) per frontier element, deduplicating on the group
elements themselves: the Magnus map is injective, so equal polynomials are
equal elements.  enumerate_ball returns word lengths keyed by group element.
Delta(n) is the largest subgroup length among ball elements that lie in the
subgroup; for a cyclic subgroup <u> the subgroup length of u^k is |k| exactly,
otherwise a second search over the subgroup's own generators supplies the
lengths.  When that second search hits a cap before resolving every member,
the affected table rows are reported as lower bounds and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError
from .hall import coordinate_blocks
from .magnus import embed, identity, inverse, multiply
from .presentation import Presentation
from .subgroups import induced_basis, member

DEFAULT_MAX_ELEMENTS = 5 * 10**6


@dataclass
class BallIndex:
    presentation: Presentation
    radius: int
    lengths: dict

    def __len__(self) -> int:
        return len(self.lengths)


def _bfs(presentation, gens, radius, max_elements):
    """Yield (element, word length) over gens and their inverses, breadth
    first, out to the given radius.  Raises CapExceededError rather than
    visit more than max_elements elements."""
    steps = {}
    for word in gens:
        g = embed(tuple(word), presentation)
        for h in (g, inverse(g)):
            if not h.is_identity():
                steps[h] = None
    start = identity(presentation)
    seen = {start}
    yield start, 0
    frontier = [start]
    for layer in range(1, radius + 1):
        new: list = []
        for g in frontier:
            for s in steps:
                h = multiply(g, s)
                if h not in seen:
                    if len(seen) >= max_elements:
                        raise CapExceededError(
                            f"ball exceeded {max_elements} elements at radius {layer}"
                        )
                    seen.add(h)
                    new.append(h)
                    yield h, layer
        if not new:
            return
        frontier = new


def enumerate_ball(
    presentation: Presentation,
    gens,
    radius: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> BallIndex:
    """All elements within the given word length of the identity."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not gens:
        raise ValueError("need at least one generator")
    lengths = dict(_bfs(presentation, gens, radius, max_elements))
    return BallIndex(presentation, radius, lengths)


@dataclass
class DistortionRow:
    n: int
    delta: int
    exact: bool


@dataclass
class DistortionTable:
    presentation: Presentation
    radius: int
    rows: tuple[DistortionRow, ...]

    @property
    def complete(self) -> bool:
        return all(row.exact for row in self.rows)

    def to_csv(self) -> str:
        lines = ["n,delta,exact"]
        for row in self.rows:
            lines.append(f"{row.n},{row.delta},{'true' if row.exact else 'false'}")
        return "\n".join(lines) + "\n"


def _ambient_words(presentation):
    return [((i, 1),) for i in range(presentation.m)]


def _subgroup_lengths(presentation, gens, targets, max_elements, radius_cap):
    """Subgroup lengths of the target elements, by BFS over gens.

    Stops once every target is found or a cap is reached; targets missing
    from the result are unresolved and the caller flags their rows.
    """
    found = {}
    try:
        for g, length in _bfs(presentation, gens, radius_cap, max_elements):
            if g in targets:
                found[g] = length
                if len(found) == len(targets):
                    break
    except CapExceededError:
        pass
    return found


def _coordinate(g, j):
    """Mal'cev coordinate j of g, peeled only as far as j's weight block."""
    return next(e[j - block.start] for block, e in coordinate_blocks(g) if j in block)


def measure_distortion(
    gens,
    presentation: Presentation,
    radius: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    subgroup_radius_cap: int | None = None,
) -> DistortionTable:
    gens = [tuple(w) for w in gens]
    ball = enumerate_ball(
        presentation, _ambient_words(presentation), radius, max_elements=max_elements
    )
    basis = induced_basis(gens, presentation)

    members = {g: flen for g, flen in ball.lengths.items() if member(basis, g)}

    if len(basis) == 1:
        # members are the powers entry.element^k, with pivot exponent k * a
        entry = basis.entries[0]
        j = entry.pivot
        a = entry.coords[j]
        hlengths = {g: abs(_coordinate(g, j) // a) for g in members}
    elif len(basis) == 0:
        hlengths = dict.fromkeys(members, 0)
    else:
        if subgroup_radius_cap is None:
            subgroup_radius_cap = max(4 * radius + 4, 16)
        hlengths = _subgroup_lengths(
            presentation, gens, members, max_elements, subgroup_radius_cap
        )

    # a row is exact when every member inside that radius got a resolved
    # subgroup length; otherwise its delta is only a lower bound
    rows = []
    for n in range(1, radius + 1):
        delta = 0
        exact = True
        for g, flen in members.items():
            if flen > n:
                continue
            hl = hlengths.get(g)
            if hl is None:
                exact = False
            elif hl > delta:
                delta = hl
        rows.append(DistortionRow(n, delta, exact))
    return DistortionTable(presentation, radius, tuple(rows))


def estimate_exponent(table: DistortionTable) -> float:
    """Least-squares slope of log delta against log n, over the largest half
    of the radii with nonzero delta.  Needs at least four such radii.

    This is a finite-radius estimate, not a verdict: at the radii a ball
    reaches the table can still be pre-asymptotic.  For <a, [b,[a,b]]> in
    F(2,3) at radius 7, delta(n) = n and the estimate is 1.0, although
    decide_undistorted finds the subgroup distorted; <a, [b,c]> in F(3,2)
    at radius 6 also reads 1.0."""
    nonzero = [(row.n, row.delta) for row in table.rows if row.delta > 0]
    if len(nonzero) < 4:
        raise ValueError(
            f"need at least 4 radii with nonzero delta, have {len(nonzero)}"
        )
    window = nonzero[len(nonzero) // 2 :]
    xs = [math.log(n) for n, _ in window]
    ys = [math.log(d) for _, d in window]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var
