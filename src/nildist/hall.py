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
  * coordinate_blocks peels one weight at a time, lazily.  If the residual
    lies in the weight-w term of the lower central series, the degree-w part
    of its polynomial image is an integer combination of the Lie expansions
    of the weight-w basis entries; solving that linear system yields the
    exponents, and removing b_i^-e_i for each weight-w entry, in basis order,
    pushes the residual one weight deeper only when the next block is asked
    for, so a caller that stops early never pays for the deeper weights;
    to_coordinates drains every block.  For 2w <= c the removal is a product,
    b_i^-e_i times the residual.  Past half the class it is a subtraction:
    gamma_w is abelian once 2w > c, and its Magnus images add under the
    truncation, since (1 + u)(1 + v) = 1 + u + v when u and v start in
    degree w, so the residual loses e_i (b_i - 1).  The system matrix per
    weight is fixed, so its Hermite form is computed once per presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian

from .errors import InternalInconsistencyError
from .intmat import RepeatedSolver
from .magnus import (
    GroupElement,
    Monomial,
    commutator,
    embed,
    identity,
    multiply,
    power,
)
from .presentation import Presentation, witt_number

MalcevCoords = tuple[int, ...]


@dataclass(frozen=True)
class BasicCommutator:
    position: int
    weight: int
    gen: int | None = None
    left: int | None = None
    right: int | None = None


def _lie_bracket(f: dict, g: dict) -> dict:
    out: dict[Monomial, int] = {}
    for m1, a in f.items():
        for m2, b in g.items():
            for key, coeff in ((m1 + m2, a * b), (m2 + m1, -a * b)):
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
        for w in range(1, presentation.c + 1):
            if len(blocks[w]) != witt_number(presentation.m, w):
                raise InternalInconsistencyError(
                    f"weight-{w} Hall layer has the wrong size"
                )

        self._lie: list[dict] = []
        for entry in self.entries:
            if entry.gen is not None:
                self._lie.append({(entry.gen,): 1})
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

        self._monomials: dict[int, list[Monomial]] = {}
        self._solvers: dict[int, RepeatedSolver] = {}
        for w in range(1, presentation.c + 1):
            monos = [tuple(t) for t in cartesian(range(presentation.m), repeat=w)]
            self._monomials[w] = monos
            self._solvers[w] = RepeatedSolver(
                [[self._lie[i].get(mono, 0) for i in blocks[w]] for mono in monos]
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
        entry = self.entries[i]
        if entry.gen is not None:
            return self.presentation.name_of(entry.gen)
        return f"[{self.bracket_str(entry.left)},{self.bracket_str(entry.right)}]"


@lru_cache(maxsize=None)
def hall_basis(presentation: Presentation) -> HallBasis:
    return HallBasis(presentation)


def _block_exponents(basis: HallBasis, w: int, terms: dict):
    """Exponents of the weight-w block for a residual in the weight-w term."""
    part = {m: v for m, v in terms.items() if len(m) == w}
    if not part:
        return (0,) * len(basis.block(w))
    vector = [part.get(mono, 0) for mono in basis._monomials[w]]
    exponents = basis._solvers[w].solve(vector)
    if exponents is None:
        raise InternalInconsistencyError(
            f"degree-{w} part is not a combination of basic commutators"
        )
    return exponents


def coordinate_blocks(g: GroupElement):
    """Yield (block, exponents) for g weight by weight, peeling the residual
    past a block only when the next one is asked for.  Blocks with 2w <= c
    peel by products; blocks past half the class peel by subtraction, because
    gamma_w is abelian for 2w > c and b^-e r = r - e(b - 1) there.  Draining
    the generator checks that the peel ends at the identity."""
    p = g.presentation
    basis = hall_basis(p)
    half = p.c // 2
    residual = g
    for w in range(1, half + 1):
        exponents = _block_exponents(basis, w, residual.terms)
        yield basis.block(w), exponents
        for i, e in zip(basis.block(w), exponents):
            if e:
                residual = multiply(power(basis.element(i), -e), residual)
    # (b - 1)^2 and (b - 1)(r - 1) start in degree 2w > c, so they vanish
    terms = dict(residual.terms)
    for w in range(half + 1, p.c + 1):
        exponents = _block_exponents(basis, w, terms)
        yield basis.block(w), exponents
        for i, e in zip(basis.block(w), exponents):
            if not e:
                continue
            for mono, v in basis.element(i).terms.items():
                if not mono:
                    continue
                total = terms.get(mono, 0) - e * v
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
    if not GroupElement(p, terms).is_identity():
        raise InternalInconsistencyError("nonzero residual after peeling all weights")


def to_coordinates(g: GroupElement) -> MalcevCoords:
    return tuple(e for _, exponents in coordinate_blocks(g) for e in exponents)


def from_coordinates(coords, presentation: Presentation) -> GroupElement:
    basis = hall_basis(presentation)
    if len(coords) != len(basis):
        raise ValueError(
            f"expected {len(basis)} coordinates, got {len(coords)}"
        )
    g = identity(presentation)
    for i, e in enumerate(coords):
        if e:
            g = multiply(g, power(basis.element(i), e))
    return g


def normal_form_str(coords, presentation: Presentation) -> str:
    """Render a coordinate tuple as a product of basis powers.

    A negative power of a bracket prints with the bracket flipped, using
    [u,v]^-1 = [v,u]; generators keep their negative exponents.
    """
    basis = hall_basis(presentation)
    parts = []
    for i, e in enumerate(coords):
        if not e:
            continue
        entry = basis.entries[i]
        if entry.gen is not None:
            name = presentation.name_of(entry.gen)
            parts.append(name if e == 1 else f"{name}^{e}")
        else:
            if e < 0:
                body = f"[{basis.bracket_str(entry.right)},{basis.bracket_str(entry.left)}]"
                e = -e
            else:
                body = basis.bracket_str(i)
            parts.append(body if e == 1 else f"{body}^{e}")
    return " ".join(parts) or "1"
