r"""Finitely generated subgroups: standard bases, retractions, the
undistortedness decision.

The decision rests on three pieces.

Rank and completion.  Abelianizing the subgroup generators gives an integer
matrix; its Hermite form has rank k, and the tracked transformation rows
realize k subgroup words b1..bk whose abelianized images are independent.
Greedily chosen ambient generators (smallest index first) complete them to a
rank-m family.  Killing exactly those completion generators defines a
retraction r of the ambient group onto the subgroup D generated by the kept
ones, with kernel N the normal closure of the killed generators.

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
SubgroupStandardBasis.entries.  Membership is greedy pivot reduction over a
lazy peel (hall.coordinate_blocks): the first nonzero weight block holds the
pivot and either decides (no entry there, or a pivot value that does not
divide) or gives the next reduction step; deeper blocks are never peeled.

The verdict.  The subgroup H is undistorted exactly when H meets N
trivially, which by additivity of Hirsch length along 1 -> H \cap N -> H ->
r(H) -> 1 happens exactly when H and r(H) have equal Hirsch length.  When
they differ, any insertion on the r(H) side that collapsed to the identity
pulls back (through tracked preimage words) to a candidate element of
H \cap N; nontrivial ones are kernel witnesses, and each reported witness is
checked to die under r.

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
from .hall import coordinate_blocks, to_coordinates
from .intmat import IntMatrix, hermite_normal_form, rank
from .magnus import GroupElement, commutator, embed, inverse, multiply, power
from .presentation import Presentation
from .words import Slp, Word, free_reduce, format_word, substitute

DEFAULT_MAX_EVENTS = 10**6


def exponent_vector(word: Word, m: int) -> list[int]:
    vec = [0] * m
    for index, sign in word:
        vec[index] += sign
    return vec


@dataclass(frozen=True)
class AbelianizedBasis:
    presentation: Presentation
    k: int
    completion: tuple[int, ...]


def abelianized_basis(gens, presentation: Presentation) -> AbelianizedBasis:
    gens = [tuple(w) for w in gens]
    m = presentation.m
    matrix = IntMatrix([exponent_vector(w, m) for w in gens])
    h, _ = hermite_normal_form(matrix)
    k = sum(1 for row in h.data if any(row))
    base_rows = [list(h.row(i)) for i in range(k)]
    completion: list[int] = []
    for j in range(m):
        if k + len(completion) == m:
            break
        stacked = list(base_rows)
        for idx in completion + [j]:
            row = [0] * m
            row[idx] = 1
            stacked.append(row)
        if rank(IntMatrix(stacked)) == len(stacked):
            completion.append(j)
    return AbelianizedBasis(presentation, k, tuple(completion))


@dataclass(frozen=True)
class Retraction:
    kept: tuple[int, ...]
    killed: tuple[int, ...]
    source: Presentation
    target: Presentation


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


def retract_word(retraction: Retraction, word: Word) -> Word:
    position = {amb: i for i, amb in enumerate(retraction.kept)}
    return tuple(
        (position[index], sign) for index, sign in word if index in position
    )


def apply_retraction(retraction: Retraction, word: Word) -> GroupElement:
    return embed(retract_word(retraction, word), retraction.target)


class _Entry:
    __slots__ = ("element", "coords", "word", "pivot")

    def __init__(self, element, coords, word, pivot):
        self.element = element
        self.coords = coords
        self.word = word
        self.pivot = pivot


def _pivot(coords) -> int | None:
    for j, v in enumerate(coords):
        if v:
            return j
    return None


class SubgroupStandardBasis:
    """Pivoted generating sequence of a subgroup.

    slot, member and len read the eliminator's pivoted sequence; entries is
    that sequence by strictly increasing pivot, back-reduced (entries above
    each pivot into [0, pivot), pivot values unchanged) on first read.  Each
    entry carries its coordinate vector and a preimage word over the input
    generator symbols.  relations collects preimage words that collapsed to
    the identity during elimination (useful to the caller, e.g. for kernel
    witnesses).  Preimage words are words.Slp nodes; expand() spells one out.
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
                t = entries[ti]
                a = t.coords[t.pivot]
                e = entries[si].coords[t.pivot]
                q = e // a
                if q:
                    element = multiply(entries[si].element, power(t.element, -q))
                    word = Slp.product(entries[si].word, 1, t.word, -q)
                    entries[si] = _Entry(
                        element, to_coordinates(element), word, entries[si].pivot
                    )
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
        coords = to_coordinates(element)
        while True:
            self._tick()
            j = _pivot(coords)
            if j is None:
                self.relations.append(word)
                return
            current = self.slots.get(j)
            if current is None:
                if coords[j] < 0:
                    element = inverse(element)
                    word = word.inverse()
                    coords = to_coordinates(element)
                self._install(_Entry(element, coords, word, j))
                return
            a = current.coords[j]
            q = coords[j] // a
            if q:
                element = multiply(power(current.element, -q), element)
                word = Slp.product(current.word, -q, word, 1)
                coords = to_coordinates(element)
            if coords[j] == 0 or _pivot(coords) != j:
                continue
            # 0 < coords[j] < a: exchange, then keep inserting the displaced
            # entry so the pivot value walks down to the gcd
            self._install(_Entry(element, coords, word, j))
            element, coords, word = current.element, current.coords, current.word

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


def induced_basis(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> SubgroupStandardBasis:
    """Standard basis of the subgroup generated by the given words."""
    eliminator = _Eliminator(presentation, max_events)
    for i, word in enumerate(gens):
        word = tuple(word)
        eliminator.queue.append((embed(word, presentation), Slp.letter(i)))
    eliminator.run()
    return SubgroupStandardBasis(presentation, eliminator.slots, eliminator.relations)


def member(basis: SubgroupStandardBasis, g: GroupElement) -> bool:
    if g.presentation != basis.presentation:
        raise ValueError("element and basis live in different presentations")
    while True:
        # the first nonzero block holds g's pivot and decides or reduces
        for block, exponents in coordinate_blocks(g):
            if any(exponents):
                break
        else:
            return True
        i = _pivot(exponents)
        entry = basis.slot(block.start + i)
        if entry is None:
            return False
        a = entry.coords[entry.pivot]
        if exponents[i] % a:
            return False
        g = multiply(power(entry.element, -(exponents[i] // a)), g)


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
    for g in elements:
        if g.is_identity():
            continue
        for i in range(presentation.m):
            for sign in (1, -1):
                conjugator = embed(((i, sign),), presentation)
                conjugate = multiply(multiply(conjugator, g), inverse(conjugator))
                if not member(basis, conjugate):
                    return False
    return True


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

    ab = abelianized_basis(gens, presentation)
    basis_H = induced_basis(gens, presentation, max_events=max_events)
    hirsch_H = len(basis_H)
    normal = _is_normal(basis_H, elements, presentation)
    finite_index = hirsch_H == hirsch_F
    cyclic_exponent = basis_H.entries[0].element.weight() if hirsch_H == 1 else None

    if ab.k == 0:
        # H sits inside the derived subgroup, hence inside the kernel of
        # every candidate retraction: always distorted.
        witness = None
        for word, g in zip(gens, elements):
            if not g.is_identity():
                witness = (free_reduce(word), g.weight())
                break
        return DistortionReport(
            presentation,
            "distorted",
            0,
            hirsch_H,
            0,
            hirsch_F,
            finite_index=finite_index,
            normal=normal,
            cyclic_exponent=cyclic_exponent,
            kernel_witness=witness,
            retract_witness=None,
        )

    retraction = build_retraction(ab, presentation)
    rgens = [retract_word(retraction, w) for w in gens]
    basis_D = induced_basis(rgens, retraction.target, max_events=max_events)
    hirsch_rH = len(basis_D)

    if hirsch_H == hirsch_rH:
        return DistortionReport(
            presentation,
            "undistorted",
            ab.k,
            hirsch_H,
            hirsch_rH,
            hirsch_F,
            finite_index=finite_index,
            normal=normal,
            cyclic_exponent=cyclic_exponent,
            kernel_witness=None,
            retract_witness=retraction,
        )

    witness = None
    best_key = None
    for relation in basis_D.relations:
        ambient = free_reduce(substitute(relation.expand(), gens))
        g = embed(ambient, presentation)
        if g.is_identity():
            continue
        wt = g.weight()
        key = (wt, len(ambient))
        if best_key is None or key < best_key:
            best_key = key
            witness = (ambient, wt)
    if witness is not None and not apply_retraction(retraction, witness[0]).is_identity():
        raise InternalInconsistencyError("the kernel witness survives the retraction")
    return DistortionReport(
        presentation,
        "distorted",
        ab.k,
        hirsch_H,
        hirsch_rH,
        hirsch_F,
        finite_index=finite_index,
        normal=normal,
        cyclic_exponent=cyclic_exponent,
        kernel_witness=witness,
        retract_witness=None,
    )
