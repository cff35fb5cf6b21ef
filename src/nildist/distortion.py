"""Empirical distortion measurement by breadth-first Cayley ball search.

The ambient ball is grown layer by layer from the identity, deduplicating on
the group elements themselves: the Magnus map is injective, so equal
polynomials are equal elements.  Each frontier element h remembers every
step s by which it was reached from the layer before, and is multiplied by
every step except the inverses of those: h s^-1 is a parent, already seen.
For the ambient generators every step flips the parity of the exponent sum,
so the Cayley graph is bipartite and every edge out of layer n goes to
layer n - 1 or n + 1.  So every product that is not skipped lands in layer
n + 1, and each element of layer n >= 1 skips one of its 2m products for
each of its parents: 1/(2m) of them while the ball is a tree, more once
relations close cycles.  Over the three benchmark tables (F(2,2) to radius
10, F(2,3) to 6, F(3,2) to 5) about a third of the products go, 18,474 ->
12,602.  The skip drops only products that are already seen, so the
elements, their lengths and their order are those of the plain search, and
so is the point where max_elements stops it.  enumerate_ball returns word
lengths keyed by group element.

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
from .magnus import embed, identity, inverse, multiply
from .presentation import Presentation
from .subgroups import _lead, induced_basis, member

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
    steps = []
    for word in gens:
        g = embed(tuple(word), presentation)
        if not g.is_identity() and g not in steps:
            steps += [g, inverse(g)]
    # the list stays closed under inverses, so it holds (g, g^-1) pairs and
    # step t ^ 1 undoes step t
    start = identity(presentation)
    seen = {start}
    yield start, 0
    # each frontier element maps to the steps that lead back to a parent
    frontier = {start: set()}
    for layer in range(1, radius + 1):
        new: dict = {}
        for g, parents in frontier.items():
            for t, s in enumerate(steps):
                if t in parents:
                    continue
                h = multiply(g, s)
                arrived = new.get(h)
                if arrived is not None:
                    arrived.add(t ^ 1)
                elif h not in seen:
                    if len(seen) >= max_elements:
                        raise CapExceededError(
                            f"ball exceeded {max_elements} elements at radius {layer}"
                        )
                    seen.add(h)
                    new[h] = {t ^ 1}
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
        # members are the powers entry.element^k; for k != 0 the first
        # nonzero coordinate is k * a, at the entry's pivot
        a = basis.entries[0].value
        hlengths = {}
        for g in members:
            lead = _lead(g)
            hlengths[g] = 0 if lead is None else abs(lead[1]) // a
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
