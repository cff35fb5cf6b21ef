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

Each search grows its ball layer by layer from the identity and cuts
every layer's frontier into chunks of _CHUNK elements.  A chunk is
transposed to coordinate columns, and hall.apply_step_columns takes each
step over the whole chunk at once, one map per monomial and per row term,
so the work per element runs in C.  The products are put back in the order
of the plain search, x s_1, x s_2, ... for one x after another; those
already seen are dropped and the rest deduplicated by dict.fromkeys, also
in C.  Every neighbour of an element of layer n lies in layer n - 1, n or
n + 1, so seen holds only the layer before the frontier, the frontier and
the next layer so far.  The search yields each chunk's new elements with
their length before it starts the next chunk.  So the elements, their
lengths and their order are those of the plain search, and so is the
element at which max_elements, which counts the elements yielded, stops
it; a caller that stops early, as the subgroup search does once it holds
every target, has walked at most one chunk further.  enumerate_ball
returns word lengths keyed by coordinate tuple.

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
reported as lower bounds and flagged.  Two cases skip work: when H's
standard basis has pivot value 1 at every coordinate, H = G and every ball
element is a member, with no sift; when H's steps are the ambient letters
and their inverses, the two Cayley graphs are one and the ball's lengths
are the subgroup lengths, with no second search.  The rows then take one
pass over the members: the largest subgroup length and an unresolved flag
per ambient length, and running maxima over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, repeat
from operator import itemgetter

from .errors import CapExceededError, InputError
from .hall import apply_step, apply_step_columns, hall_basis, letter_steps, step_map
from .magnus import embed, evaluate, inverse
from .presentation import Presentation
from .subgroups import induced_basis
from .words import Slp

# A ball element is a coordinate tuple and a dict entry, about 0.26 KB in
# F(3,2).  The largest balls under this cap in F(2,2), F(2,4) and F(3,2),
# of radius 31, 11 and 9, measure with H = G at 86, 98 and 98 MB peak RSS;
# the F(3,2) one with H = <a> peaks at 98 MB too.  Longer tuples and larger
# coordinates cost more per element: in F(2,7) about 0.8 KB, so 250,000
# elements peak at 198 MB.
DEFAULT_MAX_ELEMENTS = 400_000

# frontier elements multiplied out per batch of column maps
_CHUNK = 1024


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


def _steps(presentation, gens):
    """gens and their inverses as elements: (g, g^-1) pairs with the
    identity and repeats left out."""
    steps = []
    for word in gens:
        g = evaluate(word, presentation)
        if not g.is_identity() and g not in steps:
            steps += [g, inverse(g)]
    return steps


def _bfs(presentation, gens, radius, max_elements, maps=None):
    """Yield (coordinate tuples, word length) over gens and their inverses,
    breadth first, out to the given radius, a frontier chunk's new elements
    at a time.  Raises CapExceededError rather than yield more than
    max_elements elements."""
    if maps is None:
        maps = _step_cache(presentation)
    steps = [maps[s] for s in _steps(presentation, gens)]
    start = (0,) * presentation.hirsch_length
    yield [start], 0
    count = 1
    # every neighbour of layer n lies in layer n - 1, n or n + 1, so those
    # three layers are all that seen needs
    previous, frontier = [], [start]
    seen = {start}
    for layer in range(1, radius + 1):
        new = []
        for at in range(0, len(frontier), _CHUNK):
            chunk = frontier[at : at + _CHUNK]
            columns = list(zip(*chunk))
            per_step = [zip(*apply_step_columns(columns, step)) for step in steps]
            # the order of the plain search: x s_1, x s_2, ... for each x
            products = chain.from_iterable(zip(*per_step))
            fresh = list(dict.fromkeys(filterfalse(seen.__contains__, products)))
            if count + len(fresh) > max_elements:
                if max_elements > count:
                    yield fresh[: max_elements - count], layer
                raise CapExceededError(
                    f"ball exceeded {max_elements} elements at radius {layer}"
                )
            count += len(fresh)
            seen.update(fresh)
            new += fresh
            yield fresh, layer
        if not new:
            return
        seen.difference_update(previous)
        previous, frontier = frontier, new


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
        raise InputError("radius must be nonnegative")
    if not gens:
        raise InputError("need at least one generator")
    lengths = {}
    for elements, length in _bfs(presentation, gens, radius, max_elements):
        lengths.update(zip(elements, repeat(length)))
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


def _subgroup_lengths(presentation, gens, targets, max_elements, radius_cap, maps):
    """Subgroup lengths of the target elements, by BFS over gens.

    Stops once every target is found or a cap is reached; targets missing
    from the result are unresolved and the caller flags their rows.
    """
    found = {}
    try:
        for elements, length in _bfs(
            presentation, gens, radius_cap, max_elements, maps
        ):
            found.update(zip(filter(targets.__contains__, elements), repeat(length)))
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
    gens = list(gens)
    letters = [Slp.letter(i) for i in range(presentation.m)]
    ball = enumerate_ball(presentation, letters, radius, max_elements=max_elements)
    basis = induced_basis(gens, presentation)
    maps = _step_cache(presentation)

    lengths = ball.lengths
    # H = G when H has pivot value 1 at every coordinate
    slots = [basis.slot(j) for j in range(presentation.hirsch_length)]
    whole = all(t is not None and t.value == 1 for t in slots)
    if whole:
        members = lengths
    else:
        # the weight-1 coordinates are the exponent sums: those outside H's
        # abelianization reject at once, solved once per sum vector, and
        # only the rest are sifted
        lattice, sums = basis.abelianization, itemgetter(slice(presentation.m))
        in_lattice = {
            v: not any(v) or lattice.solve(v) is not None
            for v in set(map(sums, lengths))
        }
        candidates = compress(lengths, map(in_lattice.__getitem__, map(sums, lengths)))
        pivot_steps = {}
        half = hall_basis(presentation).block(presentation.c // 2 + 1).start
        members = {
            x: lengths[x]
            for x in candidates
            if _sift(x, basis, maps, pivot_steps, half)
        }

    if len(basis) == 1:
        # members are the powers entry.element^k; for k != 0 the first
        # nonzero coordinate is k * a, at the entry's pivot
        a = basis.entries[0].value
        hlengths = {
            x: abs(next((e for e in x if e), 0)) // a for x in members
        }
    elif len(basis) == 0:
        hlengths = dict.fromkeys(members, 0)
    elif whole and set(_steps(presentation, gens)) == set(
        _steps(presentation, letters)
    ):
        # the subgroup's Cayley graph is the ambient one
        hlengths = lengths
    else:
        if subgroup_radius_cap is None:
            subgroup_radius_cap = max(4 * radius + 4, 16)
        hlengths = _subgroup_lengths(
            presentation, gens, members, max_elements, subgroup_radius_cap, maps
        )

    # the largest resolved subgroup length at each ambient length, and
    # whether one there is unresolved; a row n takes the running maximum
    # over lengths <= n, and is exact when none of them has an unresolved
    # member, otherwise its delta is only a lower bound
    best = [0] * (radius + 1)
    unresolved = [False] * (radius + 1)
    for x, flen in members.items():
        hl = hlengths.get(x)
        if hl is None:
            unresolved[flen] = True
        elif hl > best[flen]:
            best[flen] = hl
    rows = []
    delta, exact = best[0], not unresolved[0]
    for n in range(1, radius + 1):
        delta = max(delta, best[n])
        exact = exact and not unresolved[n]
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
