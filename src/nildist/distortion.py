"""Empirical distortion measurement by breadth-first Cayley ball search.

Both searches, the ambient ball and the subgroup lengths, and the member
test walk Mal'cev coordinate tuples (hall.to_coordinates), which are unique
per element, so the search deduplicates on the tuples.  A step by a fixed
element s of weight w is a map x -> x s on tuples: coordinate i of x s
minus x_i is an integer-valued polynomial in x of weighted degree at most
w_i - w, where x_k weighs the weight w_k of basis entry k.  That is Hall's
bound for a Mal'cev basis through the lower central series (P. Hall,
Nilpotent groups, Edmonton notes, 1957); the "Deep Thought" collection
polynomials of Leedham-Green and Soicher (LMS J. Comput. Math. 1, 1998)
are the same maps in general form.  hall.step_map interpolates one per
step from the polynomial engine, by finite differences in the binomial
basis on the points of weighted degree <= c - w, and checks it against the
engine at points off that set.  The 2m letter maps are derived on a
presentation's first search and cached for as many presentations as the
Hall bases are.  measure_distortion keeps one map cache per call, keyed by
step element and holding the letter maps from the start; the subgroup
search and the member sift read it, so no element's map is derived twice
in a call.  No step touches a polynomial.

The ambient ball is grown layer by layer from the identity.  Each frontier
element h remembers every step s by which it was reached from the layer
before, and is multiplied by every step except the inverses of those:
h s^-1 is a parent, already seen.  So a product that is not skipped lies in
layer n or n + 1, and the current and next layers are all the search
keeps.  For the ambient generators every step flips the parity of the
exponent sum, so the Cayley graph is bipartite and every such product lands
in layer n + 1; each element of layer n >= 1 skips one of its 2m products
for each of its parents: 1/(2m) of them while the ball is a tree, more once
relations close cycles.  Over the three benchmark tables (F(2,2) to radius
10, F(2,3) to 6, F(3,2) to 5) about a third of the products go, 18,474 ->
12,602.  The skip drops only products that are already seen, so the
elements, their lengths and their order are those of the plain search, and
so is the point where max_elements stops it, which counts the elements
yielded.  enumerate_ball returns word lengths keyed by coordinate tuple.

Delta(n) is the largest subgroup length among ball elements that lie in the
subgroup.  An element's weight-1 coordinates are its exponent sums, so one
outside the subgroup's abelianization is rejected on its tuple.  The rest
are sifted on their tuples along the subgroup's pivots: the first nonzero
coordinate x_j must be a multiple q of the pivot value of H's slot t at j,
and then x t^-q has it zeroed.  At a pivot of weight w <= c/2 that takes
|q| steps; past half the class x lies in gamma_w, which is abelian, and
t^-q subtracts q times t's coordinates, as in hall.to_coordinates.  Over
the three benchmark tables that is 656 steps for 367 survivors.  For a
cyclic subgroup <u> the subgroup length of u^k is |k| exactly, read off
the first nonzero coordinate; otherwise a second search over the
subgroup's own generators supplies the lengths.  When that second search
hits a cap before resolving every member, the affected table rows are
reported as lower bounds and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError
from .hall import apply_step, hall_basis, letter_steps, step_map
from .magnus import embed, inverse
from .presentation import Presentation
from .subgroups import induced_basis

# A ball element is a coordinate tuple and a dict entry, about 0.26 KB in
# F(3,2): the radius-9 ball (350,591 elements) peaks at 102 MB RSS.  With
# H = G a measurement also keeps every member and walks the ball again, so
# the largest ball under this cap, in F(2,2), F(2,4) or F(3,2), measures
# inside a 256 MB address space (160-180 MB peak RSS).  Longer tuples and
# larger coordinates cost more per element: in F(2,7) about 0.83 KB.
DEFAULT_MAX_ELEMENTS = 400_000


class _StepMaps(dict):
    """Step maps keyed by step element, each derived on its first read."""

    def __missing__(self, s):
        step = self[s] = step_map(s)
        return step


def _step_cache(presentation):
    """A step map cache holding the presentation's cached letter maps."""
    letters = (
        embed(((i, sign),), presentation)
        for i in range(presentation.m)
        for sign in (1, -1)
    )
    return _StepMaps(zip(letters, letter_steps(presentation)))


@dataclass
class BallIndex:
    presentation: Presentation
    radius: int
    lengths: dict

    def __len__(self) -> int:
        return len(self.lengths)


def _step_maps(presentation, gens, maps):
    """The step maps of gens and their inverses, read from the cache maps:
    (g, g^-1) pairs with the identity and repeats left out."""
    steps = []
    for word in gens:
        g = embed(tuple(word), presentation)
        if not g.is_identity() and g not in steps:
            steps += [g, inverse(g)]
    return [maps[g] for g in steps]


def _bfs(presentation, gens, radius, max_elements, maps=None):
    """Yield (coordinates, word length) over gens and their inverses,
    breadth first, out to the given radius.  Raises CapExceededError rather
    than yield more than max_elements elements."""
    if maps is None:
        maps = _step_cache(presentation)
    steps = _step_maps(presentation, gens, maps)
    # the list holds (g, g^-1) pairs, so step t ^ 1 undoes step t
    start = (0,) * presentation.hirsch_length
    yield start, 0
    count = 1
    # each frontier element maps to a bit mask of the steps that lead back
    # to a parent; every parent is in it, so a product that is not skipped
    # lies in this layer or the next, and those two dicts are all the
    # search keeps
    frontier = {start: 0}
    for layer in range(1, radius + 1):
        new: dict = {}
        for x, parents in frontier.items():
            for t, step in enumerate(steps):
                if parents >> t & 1:
                    continue
                y = apply_step(x, step)
                arrived = new.get(y)
                if arrived is not None:
                    new[y] = arrived | 1 << (t ^ 1)
                elif y not in frontier:
                    if count >= max_elements:
                        raise CapExceededError(
                            f"ball exceeded {max_elements} elements at radius {layer}"
                        )
                    count += 1
                    new[y] = 1 << (t ^ 1)
                    yield y, layer
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
    """All elements within the given word length of the identity, as word
    lengths keyed by Mal'cev coordinate tuple."""
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


def _subgroup_lengths(presentation, gens, targets, max_elements, radius_cap, maps):
    """Subgroup lengths of the target elements, by BFS over gens.

    Stops once every target is found or a cap is reached; targets missing
    from the result are unresolved and the caller flags their rows.
    """
    found = {}
    try:
        for x, length in _bfs(presentation, gens, radius_cap, max_elements, maps):
            if x in targets:
                found[x] = length
                if len(found) == len(targets):
                    break
    except CapExceededError:
        pass
    return found


def _sift(x, basis, maps, pivot_steps, half):
    """Whether the element with coordinates x lies in H, decided on the
    tuple.  Where x's first nonzero coordinate x_j is, H's slot t at pivot
    j must exist and its value must divide x_j; then x t^-q with q = x_j /
    t.value has x_j zeroed and the coordinates before j still zero, because
    the series has central cyclic factors, and lies in H exactly when x
    does.  Below coordinate half, the first of weight > c/2, x t^-q takes
    |q| steps by t^-1 or t, whose maps pivot_steps keeps by (j, q > 0).
    From there on x and t lie in gamma_w with 2w > c, which is abelian, so
    coordinates subtract."""
    for j in range(len(x)):
        if not x[j]:
            continue
        t = basis.slot(j)
        if t is None or x[j] % t.value:
            return False
        q = x[j] // t.value
        if j >= half:
            x = [a - q * b for a, b in zip(x, t.coords)]
            continue
        step = pivot_steps.get((j, q > 0))
        if step is None:
            s = inverse(t.element) if q > 0 else t.element
            step = pivot_steps[j, q > 0] = maps[s]
        for _ in range(abs(q)):
            x = apply_step(x, step)
    return True


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
    maps = _step_cache(presentation)

    # the weight-1 coordinates are the exponent sums: those outside H's
    # abelianization reject at once, solved once per sum vector, and only
    # the rest are sifted
    m, lattice = presentation.m, basis.abelianization
    in_lattice = {}
    pivot_steps = {}
    half = hall_basis(presentation).block(presentation.c // 2 + 1).start
    members = {}
    for x, flen in ball.lengths.items():
        sums = x[:m]
        if sums not in in_lattice:
            in_lattice[sums] = not any(sums) or lattice.solve(sums) is not None
        if in_lattice[sums] and _sift(x, basis, maps, pivot_steps, half):
            members[x] = flen

    if len(basis) == 1:
        # members are the powers entry.element^k; for k != 0 the first
        # nonzero coordinate is k * a, at the entry's pivot
        a = basis.entries[0].value
        hlengths = {
            x: abs(next((e for e in x if e), 0)) // a for x in members
        }
    elif len(basis) == 0:
        hlengths = dict.fromkeys(members, 0)
    else:
        if subgroup_radius_cap is None:
            subgroup_radius_cap = max(4 * radius + 4, 16)
        hlengths = _subgroup_lengths(
            presentation, gens, members, max_elements, subgroup_radius_cap, maps
        )

    # a row is exact when every member inside that radius got a resolved
    # subgroup length; otherwise its delta is only a lower bound
    rows = []
    for n in range(1, radius + 1):
        delta = 0
        exact = True
        for x, flen in members.items():
            if flen > n:
                continue
            hl = hlengths.get(x)
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
