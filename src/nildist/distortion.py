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
engine at points off that set.  step_map is the one map cache, one per
process, keyed by step element: a letter's map, and the maps of a
subgroup's generators and pivot elements, are each derived on first use
and read by every later search and sift, in this call and later ones,
while they stay among the last 20 * CACHED_PRESENTATIONS elements.  No
step touches a polynomial.

Each search grows its ball layer by layer from its start, the identity
unless another tuple is given, and cuts every layer's frontier into
chunks of _CHUNK elements.  A chunk is
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
every target, has walked at most one chunk further.  Layer k + 1 comes in
one chunk per _CHUNK elements of layer k, so a caller can tell when a
layer is complete.  enumerate_ball returns word lengths keyed by
coordinate tuple.

measure walks only the part of the ambient ball that can still reach the
subgroup H.  A letter step changes the exponent-sum vector ab(x), the
weight-1 coordinates, by a unit vector, and ab(h) lies in the span V of
H's exponent sums over Q for every member h.  Let R be V's reduced echelon
form, P its pivot coordinates and N the others.  For v in Q^m put
u = v_N - sum_p v_p R_{p,N} and beta(v) = |u|_1 / M with
M = max(1, max_p |R_{p,N}|_1).  For y in V, y_N = sum_p y_p R_{p,N}, so
with e = v - y, u = e_N - sum_p e_p R_{p,N} and |u|_1 <= M |e|_1: beta(v)
is at most the L1 distance from v to V, and is that distance when V = 0
or V is spanned by coordinate vectors.  u is linear and vanishes on V, so
a unit step moves beta by at most 1 and beta(ab(h)) = 0.  The search keeps
an element x of layer k only if beta(ab(x)) <= r - k.  Along a geodesic to
a member h of length <= r, the prefix at layer k has beta at most r - k,
so it is kept and h is found at its word length.  An element that fails
the test at its length fails it at every later layer, as r - k only
falls, and the prefixes of a geodesic to an element that passes pass too,
as beta moves by at most 1 a step; so every element kept is kept at its
word length.  beta stays in integers: with D the common denominator of
R's entries over N, D |u|_1 = sum_n |D v_n - sum_p v_p D R_{p,n}| is
compared with (r - k) max(D, max_p |D R_{p,N}|_1), computed once per
exponent-sum vector.  When V = Q^m, for a subgroup of finite index and
for H = G, N is empty and the whole ball is walked.  Over the three
benchmark tables the search walks 1,405 elements of the 9,299 in the
balls.

Delta(n) is the largest subgroup length among ball elements that lie in the
subgroup.  An element's weight-1 coordinates are its exponent sums, so one
outside the subgroup's abelianization is rejected on its tuple.  The rest
are sifted on their tuples, all in one batch, along the subgroup's pivots:
a first nonzero coordinate x_j must be a multiple q of the pivot value of
H's slot t at j, and then x t^-q has it zeroed.  At a pivot of weight
w <= c/2 that takes |q| steps, taken in rounds: every tuple with x_j > 0
steps by t^-1 in one column map, and every one with x_j < 0 by t in
another.  Past half the class x lies in gamma_w, which is abelian, and
t^-q subtracts q times t's coordinates, as in hall.to_coordinates.  Over
the three benchmark tables that is 656 steps for 367 survivors, in 22
column maps.  For a
subgroup given by one generator u, the subgroup length of u^k is |k|
exactly, read off the first nonzero coordinate.  That needs the steps to
be u and u^-1 themselves: <a^2, a^3> is cyclic too, but a = a^3 a^-2 has
length 2 over its generators.  Otherwise a second search over the
subgroup's own generators supplies the lengths.

That search runs from both ends (I. Pohl, Bi-directional search, Machine
Intelligence 6, 1971).  The forward search from the identity walks H's
Cayley graph layer by layer and stops once it holds every target.  When a
layer L_k is complete and the unresolved targets, times the step count,
number at most |L_k|, so that their radius-1 spheres together hold no
more elements than L_k, each of them is searched backward instead: a
search from t over the same steps, x -> x s, whose sphere of radius j is
t times the elements of length j, as the steps are closed under
inverses.  It stops at the first j at which that sphere meets L_k, and
then |t|_H = k + j exactly.  t is not in the radius-k ball, where the
forward search would have found it, so a geodesic to t crosses L_k at
distance |t|_H - k from t, and j <= |t|_H - k.  An element l of L_k at
distance j from t spells t as l's word times j more letters, so
|t|_H <= k + j.  Searching backward costs a ball about t,
which is as large as the ball about the identity of the same radius; it
pays because the last targets are few and far, and the forward layers
past L_k are large.  Over the benchmark's middle table, <a, [a,b]> in
F(2,3) at radius 6, the subgroup search walks 543 elements where the
forward search alone walked 1,793 out to layer 8; for <ab, [a,c], b> in
F(3,3) at radius 4 it walks 6,589 elements where the forward search
walked 201,087.  Every search's elements count toward max_elements, and
no length passes the subgroup radius cap, max(4 radius + 4, 16) by
default: the forward search stops at it and a backward one at the cap
minus k.  A target the searches do not resolve within the caps leaves its
table rows reported as lower bounds and flagged; a length they do report
is exact.  Under a binding cap they can resolve other targets than the
forward search alone would.  Two cases skip work: when H's
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
from fractions import Fraction
from itertools import chain, compress, filterfalse, repeat
from operator import itemgetter, mul

from .errors import CapExceededError, InputError
from .hall import apply_step_columns, hall_basis, step_map
from .magnus import evaluate, exponent_sums, inverse
from .presentation import Presentation
from .subgroups import induced_basis
from .words import Slp

# The cap counts walked elements: the whole ball when H = G or H has finite
# index, else the part that can still reach H (see the module docstring).
# A walked element is a coordinate tuple and a dict entry, about 0.26 KB in
# F(3,2).  The largest balls under this cap in F(2,2), F(2,4) and F(3,2),
# of radius 31, 11 and 9, measure with H = G at 86, 98 and 98 MB peak RSS.
# Longer tuples and larger coordinates cost more per element: in F(2,7)
# about 0.8 KB, so 250,000 elements peak at 198 MB; toward <a> the radius-11
# ball there walks 82,533 of its 354,293 elements and peaks at 118 MB.
DEFAULT_MAX_ELEMENTS = 400_000

# frontier elements multiplied out per batch of column maps
_CHUNK = 1024


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


class _Distance(dict):
    """beta(v) times a positive integer scale, for exponent-sum vectors v,
    computed on first read: the sum over the forms f of |f . v|."""

    def __init__(self, forms):
        self.forms = forms

    def __missing__(self, v):
        self[v] = d = sum(abs(sum(map(mul, f, v))) for f in self.forms)
        return d


def _distance_to_span(basis, steps):
    """(distance, unit) for the search over the given step elements toward
    the subgroup H of the standard basis, or None when the span V of H's
    exponent sums is all of Q^m and nothing can be pruned.  distance[v] is
    D |u|_1 of the module docstring, and unit the largest distance of a
    step, so distance[ab(x)] <= unit * (r - k) reads beta(ab(x)) <= r - k
    for the letters.  V is spanned by the exponent sums of H's slots at the
    weight-1 pivots, which are rows in echelon form."""
    m = basis.presentation.m
    rows = {}  # pivot p -> row p of R, V's reduced echelon form
    for p in reversed(range(m)):
        t = basis.slot(p)
        if t is not None:
            s = exponent_sums(t.element)
            row = [Fraction(x, s[p]) for x in s]
            for q, other in rows.items():
                f = row[q]
                row = [a - f * b for a, b in zip(row, other)]
            rows[p] = row
    free = [n for n in range(m) if n not in rows]
    if not free:
        return None
    scale = math.lcm(*(row[n].denominator for row in rows.values() for n in free))
    forms = []
    for n in free:
        f = [0] * m
        f[n] = scale
        for p, row in rows.items():
            f[p] = int(-row[n] * scale)
        forms.append(f)
    distance = _Distance(forms)
    return distance, max((distance[tuple(exponent_sums(s))] for s in steps), default=0)


def _bfs(presentation, steps, radius, max_elements, toward=None, start=None):
    """Yield (coordinate tuples, distance) over the step elements (_steps),
    breadth first from start (the identity by default) out to the given
    radius, a frontier chunk's new elements at a time: start alone at
    distance 0, then layer k + 1 in one chunk, empty or not, per _CHUNK
    elements of layer k.  Raises CapExceededError rather than yield more
    than max_elements elements.  With toward, the standard basis of a
    subgroup H, it yields only the elements that can still reach H within
    the radius (see the module docstring)."""
    bound = None if toward is None else _distance_to_span(toward, steps)
    steps = [step_map(s) for s in steps]
    sums = itemgetter(slice(presentation.m))
    if start is None:
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
            if bound is not None:
                # beta(ab(x)) <= radius - layer, in the distance's scale
                distance, unit = bound
                limit = unit * (radius - layer)
                products = list(products)
                near = map(limit.__ge__, map(distance.__getitem__, map(sums, products)))
                products = compress(products, near)
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


def _check_ball(radius, gens, max_elements):
    """Refuse a ball search's bad arguments as usage errors."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    if not gens:
        raise InputError("need at least one generator")
    if max_elements < 1:
        raise InputError("max_elements must be at least 1")


def enumerate_ball(
    presentation: Presentation,
    gens,
    radius: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    toward=None,
) -> BallIndex:
    """All elements within the given word length of the identity, as word
    lengths keyed by Mal'cev coordinate tuple; max_elements caps the
    elements walked.

    With toward, the standard basis of a subgroup H (induced_basis), only
    the part of the ball that can still reach H is walked and returned:
    the elements x with beta(ab(x)) <= (radius - |x|) * L, where ab(x) is
    x's exponent-sum vector, beta the lower bound on its L1 distance to the
    span V of H's exponent sums given in the module docstring, and L the
    largest beta of a step.  Every member of H in the ball is among them,
    each at its word length: every prefix of a geodesic to a member passes
    the test, and an element that fails it at its length fails it at every
    later layer too, so it never comes back with a wrong length.  When V
    is all of Q^m, as for a subgroup of finite index, this is the whole
    ball."""
    _check_ball(radius, gens, max_elements)
    lengths = {}
    steps = _steps(presentation, gens)
    for elements, length in _bfs(presentation, steps, radius, max_elements, toward):
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


def _subgroup_lengths(presentation, steps, targets, max_elements, radius_cap):
    """Subgroup lengths of the target elements over the step elements
    (_steps of H's generators), searched from both ends (see the module
    docstring).

    The forward search from the identity stops once every target is
    found.  Once a layer L_k is complete and |L_k| is at least the number
    of unresolved targets times the step count, each of them is searched
    backward instead, until its sphere meets L_k.  The elements of every
    search count toward max_elements, and no length passes radius_cap.
    Stops at a cap; targets missing from the result are unresolved and the
    caller flags their rows.
    """
    found = {}
    walked = 0
    layer, chunks_left = [], 1
    try:
        for elements, k in _bfs(presentation, steps, radius_cap, max_elements):
            walked += len(elements)
            found.update(zip(filter(targets.__contains__, elements), repeat(k)))
            if len(found) == len(targets):
                return found
            layer += elements
            chunks_left -= 1
            if chunks_left:
                continue
            # layer is L_k, complete; layer k + 1 comes in one chunk per
            # _CHUNK elements of it
            if k < radius_cap and (len(targets) - len(found)) * len(steps) <= len(layer):
                break
            layer, chunks_left = [], -(-len(layer) // _CHUNK)
        else:
            return found
    except CapExceededError:
        return found

    # every target left is outside the radius-k ball, so a geodesic to it
    # crosses L_k, and |t|_H = k + j for the least j at which the sphere
    # of radius j about t meets L_k
    sphere = set(layer)
    try:
        for t in targets:
            if t in found:
                continue
            if walked >= max_elements:
                break
            backward = _bfs(
                presentation, steps, radius_cap - k, max_elements - walked, start=t
            )
            for elements, j in backward:
                walked += len(elements)
                if not sphere.isdisjoint(elements):
                    found[t] = k + j
                    break
    except CapExceededError:
        pass
    return found


def _sift(batch, basis):
    """The tuples of batch whose elements lie in H, in batch order, decided
    on the tuples one coordinate j at a time.  A tuple x whose first
    nonzero coordinate is x_j needs H's slot t at pivot j, and t's value
    must divide x_j; then x t^-q with q = x_j / t.value has x_j zeroed and
    the coordinates before j still zero, because the series has central
    cyclic factors, and lies in H exactly when x does.  Below coordinate
    half, the first of weight > c/2, the tuples step in rounds until every
    x_j is zero: those with x_j > 0 by t^-1 and those with x_j < 0 by t,
    each group as one column map, and a map is read only for a sign that
    occurs.  From there on x and t lie in gamma_w with 2w > c, which is
    abelian, so coordinates subtract."""
    p = basis.presentation
    half = hall_basis(p).block(p.c // 2 + 1).start
    live = dict(enumerate(batch))  # the tuples not yet refused, as reduced
    for j in range(p.hirsch_length):
        t = basis.slot(j)
        groups = {}  # below half, the tuples to step, by the sign of x_j
        for i, x in list(live.items()):
            if not x[j]:
                continue
            if t is None or x[j] % t.value:
                del live[i]
            elif j >= half:
                q = x[j] // t.value
                live[i] = tuple([a - q * b for a, b in zip(x, t.coords)])
            else:
                groups.setdefault(x[j] > 0, {})[i] = x
        for positive, group in groups.items():
            step = step_map(inverse(t.element) if positive else t.element)
            while group:
                products = apply_step_columns(list(zip(*group.values())), step)
                reduced = zip(group, zip(*products))
                group = {}
                for i, x in reduced:
                    if x[j]:
                        group[i] = x
                    else:
                        live[i] = x
    return [batch[i] for i in live]


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
    # usage errors before the subgroup is eliminated
    _check_ball(radius, letters, max_elements)
    basis = induced_basis(gens, presentation)
    ball = enumerate_ball(
        presentation, letters, radius, max_elements=max_elements, toward=basis
    )

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
        members = {x: lengths[x] for x in _sift(list(candidates), basis)}

    steps = _steps(presentation, gens)
    t = basis.entries[0] if len(basis) == 1 else None
    if t is not None and set(steps) == {t.element, inverse(t.element)}:
        # H = <t> over the steps t and t^-1: members are the powers t^k,
        # and for k != 0 the first nonzero coordinate is k * a, at t's
        # pivot
        a = t.value
        hlengths = {
            x: abs(next((e for e in x if e), 0)) // a for x in members
        }
    elif len(basis) == 0:
        hlengths = dict.fromkeys(members, 0)
    elif whole and set(steps) == set(_steps(presentation, letters)):
        # the subgroup's Cayley graph is the ambient one
        hlengths = lengths
    else:
        if subgroup_radius_cap is None:
            subgroup_radius_cap = max(4 * radius + 4, 16)
        hlengths = _subgroup_lengths(
            presentation, steps, members, max_elements, subgroup_radius_cap
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
