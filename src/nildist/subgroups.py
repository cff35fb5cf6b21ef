r"""Finitely generated subgroups: standard bases, retractions, the
undistortedness decision.

The decision rests on three pieces.

Rank and completion.  The coefficient of x_i in a generator's polynomial
image is its exponent sum in generator i, so these degree-1 coefficients are
the abelianized generators: an integer matrix whose Hermite form has rank k.
Greedily chosen ambient generators (smallest index first) complete them to a
rank-m family.  Killing exactly those completion generators defines a
retraction r of the ambient group onto the subgroup D generated by the kept
ones, with kernel N the normal closure of the killed generators.  On
polynomial images r is the ring map x_j -> 0 for every killed j, the kept
variables renumbered.

Standard bases.  A subgroup is described by a pivoted generating sequence:
elements with strictly increasing first nonzero coordinate (pivot), positive
pivot entries, and entries above each pivot reduced into [0, pivot).  The
sequence is produced by noncommutative Gaussian elimination: insert each
generator, exchange along pivots by Euclidean steps (pivot exponents add on
first nonzero coordinates, so the usual gcd argument applies), and whenever
an element is installed, enqueue its commutators with the elements already
present.  Commutators sit strictly deeper in the coordinate filtration, so
the queue drains.  The number of basis elements is the Hirsch length;
back-reducing the entries above each pivot waits for the first read of
SubgroupStandardBasis.entries.  Insertion and membership read only an
element's pivot and pivot value, with one solve at the element's weight w:
every coordinate block below w is zero and block w is not.  A reduction
step that leaves the pivot value nonzero solves nothing, because pivot
values of elements in the same weight term add.  An entry's full coordinate
vector is peeled on first read, which only the back-reduction does.
Membership is greedy pivot reduction: the pivot either decides (no entry
there, or a pivot value that does not divide) or gives the next reduction
step.

The verdict.  The subgroup H is undistorted exactly when H meets N
trivially, which by additivity of Hirsch length along 1 -> H \cap N -> H ->
r(H) -> 1 happens exactly when H and r(H) have equal Hirsch length.  r(H) is
eliminated from the images of the embedded generators under r.  When the
lengths differ, any insertion on the r(H) side that collapsed to the
identity pulls back (through tracked preimage words) to a candidate element
of H \cap N; nontrivial ones are kernel witnesses, and each reported witness
is checked to lie in H and to die under r.  H is normal exactly when the
commutator of each generator with each ambient letter lies in H, one
membership test per pair.

Preimage words.  Exchange steps and commutators compound preimage words
exponentially (10^9 letters and more at F(3,3)), so elimination tracks each
one as a straight-line program (words.Slp): every step adds one O(1) node
over the nodes it combines.  Only the relations scored as witness candidates
are ever expanded into letters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, InternalInconsistencyError
from .hall import _block_exponents, hall_basis, to_coordinates
from .intmat import hermite_normal_form, rank
from .magnus import GroupElement, commutator, embed, inverse, multiply, power
from .presentation import Presentation
from .words import Slp, Word, free_reduce, format_word, substitute

DEFAULT_MAX_EVENTS = 10**6


@dataclass(frozen=True)
class AbelianizedBasis:
    presentation: Presentation
    k: int
    completion: tuple[int, ...]


def abelianized_basis(elements, presentation: Presentation) -> AbelianizedBasis:
    m = presentation.m
    # the coefficient of x_i is the exponent sum of generator i
    rows = [[g.coefficient((i,)) for i in range(m)] for g in elements]
    h, _ = hermite_normal_form(rows)
    base_rows = [row for row in h if any(row)]
    k = len(base_rows)
    completion: list[int] = []
    for j in range(m):
        if k + len(completion) == m:
            break
        stacked = list(base_rows)
        for idx in completion + [j]:
            row = [0] * m
            row[idx] = 1
            stacked.append(row)
        if rank(stacked) == len(stacked):
            completion.append(j)
    return AbelianizedBasis(presentation, k, tuple(completion))


@dataclass(frozen=True)
class Retraction:
    kept: tuple[int, ...]
    killed: tuple[int, ...]
    source: Presentation
    target: Presentation

    def __call__(self, g: GroupElement) -> GroupElement:
        """r(g): every monomial with a killed index dropped, the kept
        indices renumbered into target."""
        if g.presentation != self.source:
            raise ValueError("element and retraction live in different presentations")
        # x_j -> 0 for killed j is a ring map that keeps degrees, so it
        # commutes with the truncation, and it sends 1 + x_j to 1
        renumber = {amb: i for i, amb in enumerate(self.kept)}
        terms = {}
        for mono, v in g.terms.items():
            image = tuple(map(renumber.get, mono))
            if None not in image:
                terms[image] = v
        return GroupElement(self.target, terms)


def build_retraction(basis: AbelianizedBasis, presentation: Presentation) -> Retraction:
    if basis.k == 0:
        raise ValueError(
            "the subgroup lies inside the derived subgroup; no retraction exists"
        )
    killed = basis.completion
    kept = tuple(i for i in range(presentation.m) if i not in killed)
    target = Presentation(
        len(kept),
        presentation.c,
        names=tuple(presentation.names[i] for i in kept),
        max_hirsch=presentation.max_hirsch,
    )
    return Retraction(kept, killed, presentation, target)


class _Entry:
    """A pivoted element: its first nonzero coordinate is value, at index
    pivot.  The full coordinate vector is peeled on first read."""

    __slots__ = ("element", "word", "pivot", "value", "_coords")

    def __init__(self, element, word, pivot, value):
        self.element = element
        self.word = word
        self.pivot = pivot
        self.value = value
        self._coords = None

    @property
    def coords(self):
        if self._coords is None:
            self._coords = to_coordinates(self.element)
        return self._coords


def _lead(g: GroupElement):
    """(pivot, value) of g's first nonzero coordinate, or None for the
    identity.  For g of weight w the blocks below w are zero and block w is
    not, so one solve on the degree-w terms finds it."""
    if g.is_identity():
        return None
    w = g.weight()
    basis = hall_basis(g.presentation)
    exponents = _block_exponents(basis, w, g.terms)
    return next((i, e) for i, e in zip(basis.block(w), exponents) if e)


class SubgroupStandardBasis:
    """Pivoted generating sequence of a subgroup.

    slot, member and len read the eliminator's pivoted sequence; entries is
    that sequence by strictly increasing pivot, back-reduced (entries above
    each pivot into [0, pivot), pivot values unchanged) on first read.  Each
    entry carries its pivot and pivot value, its coordinate vector (peeled on
    first read) and a preimage word over the input generator symbols.
    relations collects preimage words that collapsed to the identity during
    elimination (useful to the caller, e.g. for kernel witnesses).  Preimage
    words are words.Slp nodes; expand() spells one out.
    """

    def __init__(self, presentation, slots, relations):
        self.presentation = presentation
        self.relations = tuple(relations)
        self._slots = dict(slots)

    def __len__(self) -> int:
        return len(self._slots)

    def slot(self, pivot: int):
        return self._slots.get(pivot)

    @cached_property
    def entries(self) -> tuple[_Entry, ...]:
        entries = [self._slots[j] for j in sorted(self._slots)]
        for si in range(len(entries)):
            for ti in range(si + 1, len(entries)):
                s, t = entries[si], entries[ti]
                q = s.coords[t.pivot] // t.value
                if q:
                    element = multiply(s.element, power(t.element, -q))
                    word = Slp.product(s.word, 1, t.word, -q)
                    entries[si] = _Entry(element, word, s.pivot, s.value)
        return tuple(entries)


class _Eliminator:
    def __init__(self, presentation: Presentation, max_events: int):
        self.presentation = presentation
        self.max_events = max_events
        self.events = 0
        self.slots: dict[int, _Entry] = {}
        self.queue: deque = deque()
        self.relations: list[Slp] = []

    def _tick(self):
        self.events += 1
        if self.events > self.max_events:
            raise CapExceededError(
                f"subgroup elimination exceeded {self.max_events} events"
            )

    def _install(self, entry: _Entry):
        others = [t for t in self.slots.values() if t is not entry]
        self.slots[entry.pivot] = entry
        for t in others:
            self.queue.append((entry, t))

    def insert(self, element: GroupElement, word: Slp):
        lead = _lead(element)
        while True:
            self._tick()
            if lead is None:
                self.relations.append(word)
                return
            j, e = lead
            current = self.slots.get(j)
            if current is None:
                if e < 0:
                    element = inverse(element)
                    word = word.inverse()
                    e = -e
                self._install(_Entry(element, word, j, e))
                return
            q = e // current.value
            if q:
                # pivot values add: both factors lie in the pivot's weight
                # term and vanish before the pivot
                element = multiply(power(current.element, -q), element)
                word = Slp.product(current.word, -q, word, 1)
                e -= q * current.value
                if not e:
                    lead = _lead(element)
                    continue
            # 0 < e < current.value: exchange, then keep inserting the
            # displaced entry so the pivot value walks down to the gcd
            self._install(_Entry(element, word, j, e))
            element, word, lead = current.element, current.word, (j, current.value)

    def run(self):
        while self.queue:
            self._tick()
            item = self.queue.popleft()
            if isinstance(item[0], _Entry):
                ea, eb = item
                element = commutator(ea.element, eb.element)
                word = Slp.commutator(ea.word, eb.word)
            else:
                element, word = item
            self.insert(element, word)


def _eliminate(elements, presentation: Presentation, max_events: int):
    """Standard basis of the subgroup generated by already embedded
    generators; preimage letter i stands for elements[i]."""
    eliminator = _Eliminator(presentation, max_events)
    for i, g in enumerate(elements):
        eliminator.queue.append((g, Slp.letter(i)))
    eliminator.run()
    return SubgroupStandardBasis(presentation, eliminator.slots, eliminator.relations)


def induced_basis(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> SubgroupStandardBasis:
    """Standard basis of the subgroup generated by the given words."""
    elements = [embed(tuple(word), presentation) for word in gens]
    return _eliminate(elements, presentation, max_events)


def member(basis: SubgroupStandardBasis, g: GroupElement) -> bool:
    if g.presentation != basis.presentation:
        raise ValueError("element and basis live in different presentations")
    while True:
        # the block at g's weight holds its pivot, which decides or reduces
        lead = _lead(g)
        if lead is None:
            return True
        j, e = lead
        entry = basis.slot(j)
        if entry is None or e % entry.value:
            return False
        g = multiply(power(entry.element, -(e // entry.value)), g)


def cyclic_distortion_exponent(g: GroupElement) -> int:
    """Distortion exponent of the cyclic subgroup generated by g."""
    if g.is_identity():
        raise ValueError("the trivial element generates no cyclic subgroup")
    return g.weight()


@dataclass
class DistortionReport:
    presentation: Presentation
    verdict: str
    k: int
    hirsch_H: int
    hirsch_rH: int
    hirsch_F: int
    finite_index: bool
    normal: bool
    cyclic_exponent: int | None
    kernel_witness: tuple[Word, int] | None
    retract_witness: Retraction | None

    def json_dict(self) -> dict:
        p = self.presentation
        witness = None
        if self.kernel_witness is not None:
            word, wt = self.kernel_witness
            witness = {"word": format_word(word, p), "weight": wt}
        retract = None
        if self.retract_witness is not None:
            retract = {
                "kept": [p.name_of(i) for i in self.retract_witness.kept],
                "killed": [p.name_of(i) for i in self.retract_witness.killed],
            }
        return {
            "verdict": self.verdict,
            "k": self.k,
            "hirsch": {"H": self.hirsch_H, "rH": self.hirsch_rH, "F": self.hirsch_F},
            "finite_index": self.finite_index,
            "normal": self.normal,
            "cyclic_exponent": self.cyclic_exponent,
            "kernel_witness": witness,
            "retract": retract,
        }


def _is_normal(basis: SubgroupStandardBasis, elements, presentation) -> bool:
    # a^-1 g a = g [g, a], so a^-1 H a lies in H exactly when every [g, a]
    # does.  That already gives a^-1 H a = H: the chain H, a H a^-1,
    # a^2 H a^-2, ... ascends, and every ascending chain of subgroups of a
    # finitely generated nilpotent group stabilizes.  So one commutator per
    # (generator, letter) decides, and inverse letters need none.
    letters = [embed(((i, 1),), presentation) for i in range(presentation.m)]
    return all(member(basis, commutator(g, a)) for g in elements for a in letters)


def _kernel_witness(basis_H, relations, gens, retraction: Retraction):
    """The lightest (weight, then length) nontrivial element of H spelled by
    a relation of r(H), as (word, weight); checked to lie in H (standard
    basis basis_H) and to die under r."""
    best = None
    for relation in relations:
        ambient = free_reduce(substitute(relation.expand(), gens))
        g = embed(ambient, retraction.source)
        if g.is_identity():
            continue
        key = (g.weight(), len(ambient))
        if best is None or key < best[0]:
            best = (key, ambient, g)
    if best is None:
        return None
    (wt, _), ambient, g = best
    if not member(basis_H, g):
        raise InternalInconsistencyError("the kernel witness lies outside H")
    if not retraction(g).is_identity():
        raise InternalInconsistencyError("the kernel witness survives the retraction")
    return ambient, wt


def decide_undistorted(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> DistortionReport:
    gens = [tuple(w) for w in gens]
    elements = [embed(w, presentation) for w in gens]
    hirsch_F = presentation.hirsch_length

    if all(g.is_identity() for g in elements):
        return DistortionReport(
            presentation,
            "trivial",
            0,
            0,
            0,
            hirsch_F,
            finite_index=True,
            normal=True,
            cyclic_exponent=None,
            kernel_witness=None,
            retract_witness=None,
        )

    ab = abelianized_basis(elements, presentation)
    basis_H = _eliminate(elements, presentation, max_events)
    hirsch_H = len(basis_H)
    normal = _is_normal(basis_H, elements, presentation)
    cyclic_exponent = basis_H.entries[0].element.weight() if hirsch_H == 1 else None

    if ab.k == 0:
        # H sits inside the derived subgroup, hence inside the kernel of
        # every candidate retraction: always distorted.
        retraction = None
        hirsch_rH = 0
        witness = next(
            (free_reduce(w), g.weight())
            for w, g in zip(gens, elements)
            if not g.is_identity()
        )
    else:
        retraction = build_retraction(ab, presentation)
        basis_D = _eliminate(
            [retraction(g) for g in elements], retraction.target, max_events
        )
        hirsch_rH = len(basis_D)
        witness = None
        if hirsch_H != hirsch_rH:
            witness = _kernel_witness(basis_H, basis_D.relations, gens, retraction)

    undistorted = retraction is not None and hirsch_H == hirsch_rH
    return DistortionReport(
        presentation,
        "undistorted" if undistorted else "distorted",
        ab.k,
        hirsch_H,
        hirsch_rH,
        hirsch_F,
        finite_index=hirsch_H == hirsch_F,
        normal=normal,
        cyclic_exponent=cyclic_exponent,
        kernel_witness=witness,
        retract_witness=retraction if undistorted else None,
    )
