r"""Finitely generated subgroups: standard bases, retractions, the
undistortedness decision.

The decision rests on three pieces.

Rank and completion.  The coefficient of x_i in a generator's polynomial
image is its exponent sum in generator i, so these degree-1 coefficients are
the abelianized generators: an integer matrix whose Hermite form has rank k.
Greedily chosen ambient generators (smallest index first) complete them to a
rank-m family.  Killing exactly those completion generators defines a
retraction r: F -> F onto the subgroup D generated by the k kept ones, with
kernel N the normal closure of the killed generators.  On polynomial images
r is the ring map x_j -> 0 for every killed j: it keeps the monomials over
kept letters, under their own keys.  r(b) is b or 1 for every Hall entry b,
and the entries over kept letters, in F's order, are D's Hall basis (the
basic commutator conditions only compare indices), so r is the coordinate
projection that zeroes every entry holding a killed letter.

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
a displaced entry is reinserted, so it is a product of later entries.  A
pair whose entries' weights sum past c is skipped too, never commuted: the
commutator lies in gamma_{i+j} for entries in gamma_i and gamma_j (P. Hall),
which is trivial past c, so it would only add an identity relation.  The
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
then N cut by the ambient series: the lead is that of r(g), read on F's
Hall basis, while r(g) != 1, else g's own, shifted by hirsch(F) past every
pivot r(g) can have.  r is a ring map, so pivot values still add, and as N
is normal every step stays central.  Entries with a pivot below hirsch(F)
map to a standard basis of r(H), the others form one of H \cap N, and the
lightest of those, of least weight in H \cap N, is the kernel witness,
checked to be nontrivial, to lie in H and to die under r.
Membership along this series is membership in H, so H is normal exactly
when it holds the commutator of each generator with each ambient letter;
a generator of weight c commutes with every letter, so its pairs are never
formed.
With k = 0, D = 1 and r kills everything, so the series is the ambient one
shifted, H = H \cap N is distorted, and a lightest generator is the
witness.

Words.  Exchange steps and commutators compound words exponentially (10^9
letters and more at F(3,3)), so elimination tracks each one as a
straight-line program (words.Slp): generator i starts as its own parsed
program, each step adds one O(1) node, and only the witness is spelled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, InputError, InternalInconsistencyError
from .hall import _block_exponents, hall_basis, to_coordinates
from .intmat import RepeatedSolver, hermite_normal_form
from .magnus import (
    GroupElement,
    commutator,
    embed,
    evaluate,
    exponent_sums,
    inverse,
    multiply,
    power,
)
from .presentation import Presentation
from .words import Slp, Word, free_reduce, format_word

DEFAULT_MAX_EVENTS = 10**6


@dataclass(frozen=True)
class Retraction:
    """r: F -> F, every killed letter sent to 1 and every kept one fixed.
    Its image is the subgroup D the kept letters generate and its kernel N
    the normal closure of the killed ones.  With no letter kept, D = 1 and
    r kills everything."""

    presentation: Presentation
    kept: tuple[int, ...]
    killed: tuple[int, ...]

    def __call__(self, g: GroupElement) -> GroupElement:
        """r(g): every monomial with a killed letter dropped, the others
        kept under their own keys."""
        if g.presentation != self.presentation:
            raise ValueError("element and retraction live in different presentations")
        # x_j -> 0 for killed j is a ring map that keeps degrees, so it
        # commutes with the truncation, and it sends 1 + x_j to 1
        kept = self._kept_keys
        terms = {k: v for k, v in g.terms.items() if k in kept}
        return GroupElement(self.presentation, terms)

    @cached_property
    def _kept_keys(self) -> set[int]:
        """Every monomial key of degree <= c whose letters are all kept, the
        constant 1 included.  It lives as long as the retraction, one per
        decision."""
        bits = self.presentation.letter_bits
        keys = layer = {1}
        for _ in range(self.presentation.c):
            layer = {k << bits | j for k in layer for j in self.kept}
            keys = keys | layer
        return keys


def retraction_for(elements, presentation: Presentation) -> Retraction:
    """The retraction that keeps k letters and kills the greedy completion
    (see "Rank and completion"), from one Hermite form.  Unit vectors
    complete the abelianized generators' row space to rank m exactly when
    the other columns are independent on it, so the greedy completion,
    smallest index first, is the complement of the column basis chosen
    greedily from the last column down: the pivot columns of an echelon
    form with the columns reversed."""
    m = presentation.m
    h = hermite_normal_form([exponent_sums(g)[::-1] for g in elements])
    kept = {m - 1 - next(j for j, v in enumerate(row) if v) for row in h if any(row)}
    killed = tuple(j for j in range(m) if j not in kept)
    return Retraction(presentation, tuple(sorted(kept)), killed)


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
    read) and its word, a words.Slp over the generators' own programs that
    expand() spells in the ambient letters.  relations collects the words
    that collapsed to the identity during elimination.  A weight-dead pair
    (see "Standard bases") is never commuted, so its identity word is not
    among them, nor counted by perfbench's subgroups.induced_basis.relations,
    and it spends one event toward max_events where a commuted pair spends
    two.
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
                    word = Slp.power(word, -1)
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
        c = self.presentation.c
        while self.queue:
            self._tick()
            item = self.queue.popleft()
            if isinstance(item[0], _Entry):
                ea, eb = item
                if self.slots[ea.pivot] is not ea or self.slots[eb.pivot] is not eb:
                    continue  # displaced since queued: see "Standard bases"
                if ea.element.weight() + eb.element.weight() > c:
                    continue  # weight-dead: see "Standard bases"
                element = commutator(ea.element, eb.element)
                word = Slp.commutator(ea.word, eb.word)
            else:
                element, word = item
            self.insert(element, word)


def _eliminate(gens, elements, presentation: Presentation, max_events: int, lead):
    """Standard basis, along the series that lead reads, of the subgroup
    generated by the programs gens, already evaluated as elements."""
    eliminator = _Eliminator(presentation, max_events, lead)
    eliminator.queue.extend(zip(elements, gens))
    eliminator.run()
    return SubgroupStandardBasis(eliminator)


def induced_basis(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> SubgroupStandardBasis:
    """Standard basis of the subgroup generated by the given words (Slps)."""
    elements = [evaluate(word, presentation) for word in gens]
    return _eliminate(gens, elements, presentation, max_events, _lead)


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
        raise InputError("the trivial element generates no cyclic subgroup")
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
    # (generator, letter) decides, and inverse letters need none.  A
    # generator of weight c (or the identity) commutes with every letter.
    letters = [embed(((i, 1),), presentation) for i in range(presentation.m)]
    c = presentation.c
    return all(
        member(basis, commutator(g, a))
        for g in elements
        if g.weight() < c
        for a in letters
    )


def _pullback_lead(retraction: Retraction):
    """The lead along the pullback series (see "The verdict")."""
    shift = retraction.presentation.hirsch_length

    def lead(g: GroupElement):
        image = retraction(g)
        if not image.is_identity():
            return _lead(image)
        lead = _lead(g)
        return lead and (lead[0] + shift, lead[1])

    return lead


def _kernel_witness(basis, word, retraction: Retraction):
    """(word, weight), once word spells a nontrivial element of H that r kills."""
    g = embed(word, retraction.presentation)
    if g.is_identity() or not member(basis, g):
        raise InternalInconsistencyError("the kernel witness is trivial or outside H")
    if not retraction(g).is_identity():
        raise InternalInconsistencyError("the kernel witness survives the retraction")
    return word, g.weight()


def decide_undistorted(
    gens, presentation: Presentation, *, max_events: int = DEFAULT_MAX_EVENTS
) -> DistortionReport:
    gens = list(gens)
    elements = [evaluate(w, presentation) for w in gens]
    hirsch_F = presentation.hirsch_length
    nontrivial = [(w, g) for w, g in zip(gens, elements) if not g.is_identity()]

    if not nontrivial:
        return DistortionReport(
            presentation, "trivial", 0, 0, 0, hirsch_F, False, True, None, None, None
        )

    retraction = retraction_for(elements, presentation)
    lead = _pullback_lead(retraction)
    basis = _eliminate(gens, elements, presentation, max_events, lead)
    hirsch_H = len(basis)
    hirsch_rH = sum(j < hirsch_F for j in basis._slots)
    normal = _is_normal(basis, elements, presentation)
    # a lightest generator has H's least weight, the weight of every
    # nontrivial element when H is cyclic
    lightest, g = min(nontrivial, key=lambda wg: wg[1].weight())
    cyclic_exponent = g.weight() if hirsch_H == 1 else None

    witness = None
    if not retraction.kept:
        # H sits inside the derived subgroup, hence inside the kernel of
        # every candidate retraction
        witness = (free_reduce(lightest.expand()), g.weight())
    elif hirsch_H != hirsch_rH:
        # the lightest kernel slot is an element of H \cap N of least weight
        entry = min(
            (t for j, t in basis._slots.items() if j >= hirsch_F),
            key=lambda t: (t.element.weight(), len(t.word)),
        )
        witness = _kernel_witness(basis, free_reduce(entry.word.expand()), retraction)

    undistorted = hirsch_H == hirsch_rH
    return DistortionReport(
        presentation,
        "undistorted" if undistorted else "distorted",
        len(retraction.kept),
        hirsch_H,
        hirsch_rH,
        hirsch_F,
        finite_index=hirsch_H == hirsch_F,
        normal=normal,
        cyclic_exponent=cyclic_exponent,
        kernel_witness=witness,
        retract_witness=retraction if undistorted else None,
    )
