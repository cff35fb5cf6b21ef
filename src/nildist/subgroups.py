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

Standard bases.  A subgroup is described by a pivoted generating sequence
along a central series with cyclic factors, read by a lead function: the
pivot is the first factor where an element is nontrivial (on the ambient
series, its first nonzero Mal'cev coordinate), the pivot value its image
there.  Pivots strictly increase and pivot values are positive.  The
sequence is produced by noncommutative Gaussian elimination: insert each
generator, exchange along pivots by Euclidean steps (pivot values add, so
the usual gcd argument applies), and whenever an element is installed,
enqueue its commutators with the elements already present.  Commutators sit
strictly deeper in a central series, so the queue drains.  A pair whose
entry has been displaced since is skipped: by the induced-sequence
criterion (Sims, Computation with Finitely Presented Groups, ch. 9) the
sequence is closed once the commutator of every two final entries is
inserted, each such pair is queued when its later entry is installed, and
a displaced entry is reinserted, so it is a product of later entries.  The
number of entries is the Hirsch length.  On the ambient series a lead is
one solve at the element's weight w (the blocks below w are zero, block w
is not), and none after a reduction step that leaves the pivot value
nonzero.  Membership first reads the abelianization: g in H puts g's
exponent sums (its degree-1 coefficients) in the lattice those of H's
entries span, since the entries generate H and exponent sums add.  That
holds along every series, so an element outside the lattice is rejected
before any lead is read, whatever series the basis was built along.  Then
it is greedy pivot reduction: the pivot either decides (no entry there, or
a pivot value that does not divide) or gives the next reduction step.
Back-reduction, which alone peels full coordinate vectors, waits for the
first read of SubgroupStandardBasis.entries.

The verdict.  The subgroup H is undistorted exactly when H meets N
trivially, which by additivity of Hirsch length along 1 -> H \cap N -> H ->
r(H) -> 1 happens exactly when H and r(H) have equal Hirsch length.  One
elimination of H gives both, along D's series pulled back through r and
then N cut by the ambient series: the lead is that of r(g) in D while
r(g) != 1, else g's own, shifted past D's slots.  r is a ring map, so pivot
values still add, and as N is normal every step stays central.  Entries
with a pivot in D map to a standard basis of r(H), the others form one of
H \cap N, and the lightest of those, of least weight in H \cap N, is the
kernel witness, checked to be nontrivial, to lie in H and to die under r.
Membership along this series is membership in H, so H is normal exactly
when it holds the commutator of each generator with each ambient letter.
With k = 0 there is no retraction, H is distorted, the ambient series
serves, and a lightest generator is the witness.

Preimage words.  Exchange steps and commutators compound preimage words
exponentially (10^9 letters and more at F(3,3)), so elimination tracks each
one as a straight-line program (words.Slp): every step adds one O(1) node
over the nodes it combines.  Only the witness is ever expanded into letters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, InternalInconsistencyError
from .hall import _block_exponents, hall_basis, to_coordinates
from .intmat import RepeatedSolver, hermite_normal_form, rank
from .magnus import (
    GroupElement,
    commutator,
    embed,
    exponent_sums,
    inverse,
    key_product,
    monomial_key,
    multiply,
    power,
)
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
    h, _ = hermite_normal_form([exponent_sums(g) for g in elements])
    base_rows = [row for row in h if any(row)]
    k = len(base_rows)
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    completion: list[int] = []
    for j in range(m):
        stacked = base_rows + [unit[i] for i in completion + [j]]
        if len(stacked) <= m and rank(stacked) == len(stacked):
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
        indices renumbered into target.  Each source key is looked up in
        one table of target keys, so no monomial is decoded."""
        if g.presentation != self.source:
            raise ValueError("element and retraction live in different presentations")
        # x_j -> 0 for killed j is a ring map that keeps degrees, so it
        # commutes with the truncation, and it sends 1 + x_j to 1
        table = self._keys
        images = ((table[k], v) for k, v in g.terms.items())
        return GroupElement(self.target, {k: v for k, v in images if k})

    @cached_property
    def _keys(self) -> dict[int, int]:
        """Every source monomial key of degree <= c mapped to the target key
        of its image, or to 0 when the monomial holds a killed index.  It
        lives as long as the retraction, one per decision."""
        sbits, tbits = self.source.letter_bits, self.target.letter_bits
        image = {amb: monomial_key((i,), tbits) for i, amb in enumerate(self.kept)}
        # (source key, target key) per letter, 0 for a killed one
        letters = [
            (monomial_key((j,), sbits), image.get(j, 0)) for j in range(self.source.m)
        ]
        table = {1: 1}
        layer = [(1, 1)]
        for _ in range(self.source.c):
            layer = [
                (key_product(k, x), t and y and key_product(t, y))
                for k, t in layer
                for x, y in letters
            ]
            table.update(layer)
        return table


def build_retraction(basis: AbelianizedBasis, presentation: Presentation) -> Retraction:
    if basis.k == 0:
        raise ValueError(
            "the subgroup lies inside the derived subgroup; no retraction exists"
        )
    killed = basis.completion
    kept = tuple(i for i in range(presentation.m) if i not in killed)
    names = tuple(presentation.names[i] for i in kept)
    target = Presentation(len(kept), presentation.c, names, presentation.max_hirsch)
    return Retraction(kept, killed, presentation, target)


class _Entry:
    """A pivoted element: its lead is (pivot, value).  The full coordinate
    vector is peeled on first read."""

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
    not, so one solve on the degree-w terms, read at the weight's monomial
    keys, finds it."""
    if g.is_identity():
        return None
    w = g.weight()
    basis = hall_basis(g.presentation)
    exponents = _block_exponents(basis, w, g.terms)
    return next((i, e) for i, e in zip(basis.block(w), exponents) if e)


class SubgroupStandardBasis:
    """Pivoted generating sequence of a subgroup along the series that lead
    reads.

    slot, member and len read the eliminator's pivoted sequence, and member
    first its abelianization, built on first use; entries is
    that sequence by strictly increasing pivot, back-reduced by Mal'cev
    coordinates (so on the ambient series only) on first read.  Each entry
    carries its pivot and pivot value, its coordinate vector (peeled on first
    read) and a preimage word over the input generator symbols, a words.Slp
    node that expand() spells out.  relations collects preimage words that
    collapsed to the identity during elimination.
    """

    def __init__(self, eliminator):
        self.presentation = eliminator.presentation
        self.relations = tuple(eliminator.relations)
        self._slots = dict(eliminator.slots)
        self.lead = eliminator.lead

    def __len__(self) -> int:
        return len(self._slots)

    def slot(self, pivot: int):
        return self._slots.get(pivot)

    @cached_property
    def abelianization(self) -> RepeatedSolver:
        """The lattice of H's exponent sums, spanned by those of its slots."""
        m, slots = self.presentation.m, self._slots.values()
        sums = [exponent_sums(t.element) for t in slots]
        return RepeatedSolver([[s[i] for s in sums] for i in range(m)])

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
    def __init__(self, presentation: Presentation, max_events: int, lead):
        self.presentation = presentation
        self.max_events = max_events
        self.lead = lead
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
        lead = self.lead(element)
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
                # pivot values add: both factors have their pivot at j
                element = multiply(power(current.element, -q), element)
                word = Slp.product(current.word, -q, word, 1)
                e -= q * current.value
                if not e:
                    lead = self.lead(element)
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
                if self.slots[ea.pivot] is not ea or self.slots[eb.pivot] is not eb:
                    continue  # displaced since queued: see "Standard bases"
                element = commutator(ea.element, eb.element)
                word = Slp.commutator(ea.word, eb.word)
            else:
                element, word = item
            self.insert(element, word)


def _eliminate(elements, presentation: Presentation, max_events: int, lead):
    """Standard basis, along the series that lead reads, of the subgroup
    generated by already embedded generators; preimage letter i stands for
    elements[i]."""
    eliminator = _Eliminator(presentation, max_events, lead)
    for i, g in enumerate(elements):
        eliminator.queue.append((g, Slp.letter(i)))
    eliminator.run()
    return SubgroupStandardBasis(eliminator)


def induced_basis(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> SubgroupStandardBasis:
    """Standard basis of the subgroup generated by the given words."""
    elements = [embed(tuple(word), presentation) for word in gens]
    return _eliminate(elements, presentation, max_events, _lead)


def member(basis: SubgroupStandardBasis, g: GroupElement) -> bool:
    p = g.presentation
    if p is not basis.presentation and p != basis.presentation:
        raise ValueError("element and basis live in different presentations")
    # g in H puts g's exponent sums in H's abelianization; zero sums, as a
    # commutator has, lie in every lattice and need no solve
    sums = exponent_sums(g)
    if any(sums) and basis.abelianization.solve(sums) is None:
        return False
    while True:
        # the block at g's weight holds its pivot, which decides or reduces
        lead = basis.lead(g)
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


def _pullback_lead(retraction: Retraction):
    """The lead along the pullback series (see "The verdict")."""
    shift = retraction.target.hirsch_length

    def lead(g: GroupElement):
        image = retraction(g)
        if not image.is_identity():
            return _lead(image)
        lead = _lead(g)
        return lead and (lead[0] + shift, lead[1])

    return lead


def _kernel_witness(basis, word, retraction: Retraction):
    """(word, weight), once word spells a nontrivial element of H that r kills."""
    g = embed(word, retraction.source)
    if g.is_identity() or not member(basis, g):
        raise InternalInconsistencyError("the kernel witness is trivial or outside H")
    if not retraction(g).is_identity():
        raise InternalInconsistencyError("the kernel witness survives the retraction")
    return word, g.weight()


def decide_undistorted(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> DistortionReport:
    gens = [tuple(w) for w in gens]
    elements = [embed(w, presentation) for w in gens]
    hirsch_F = presentation.hirsch_length
    nontrivial = [(w, g) for w, g in zip(gens, elements) if not g.is_identity()]

    if not nontrivial:
        return DistortionReport(
            presentation, "trivial", 0, 0, 0, hirsch_F, False, True, None, None, None
        )

    ab = abelianized_basis(elements, presentation)
    if ab.k == 0:
        # H sits inside the derived subgroup, hence inside the kernel of
        # every candidate retraction: always distorted.
        retraction, lead, shift = None, _lead, 0
    else:
        retraction = build_retraction(ab, presentation)
        lead, shift = _pullback_lead(retraction), retraction.target.hirsch_length
    basis = _eliminate(elements, presentation, max_events, lead)
    hirsch_H = len(basis)
    hirsch_rH = sum(j < shift for j in basis._slots)
    normal = _is_normal(basis, elements, presentation)
    # a lightest generator has H's least weight, the weight of every
    # nontrivial element when H is cyclic
    lightest, g = min(nontrivial, key=lambda wg: wg[1].weight())
    cyclic_exponent = g.weight() if hirsch_H == 1 else None

    witness = None
    if retraction is None:
        witness = (free_reduce(lightest), g.weight())
    elif hirsch_H != hirsch_rH:
        # the lightest F-pivot slot is an element of H \cap N of least weight
        entry = min(
            (t for j, t in basis._slots.items() if j >= shift),
            key=lambda t: (t.element.weight(), len(t.word)),
        )
        ambient = free_reduce(substitute(entry.word.expand(), gens))
        witness = _kernel_witness(basis, ambient, retraction)

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
