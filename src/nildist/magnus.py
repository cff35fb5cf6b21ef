"""Exact group arithmetic through truncated noncommutative power series.

Each generator a_i of the free nilpotent group of rank m and class c maps to
1 + x_i in the ring of integer polynomials on noncommuting variables
x_1..x_m, truncated above total degree c.  The map lands in the group of
units with constant term 1 and is injective, so equality of polynomials is
equality of group elements and every computation below is exact.

Every integer power, the inverse included, is the binomial series
(1 + u)^n = sum_k C(n, k) u^k for u = g - 1, negative n too: u^k starts in
degree k, so the sum stops by degree c.  Multiplication visits only the term
pairs under the truncation, walking the right operand's monomials in degree
order.  evaluate reads a parse tree without expanding its powers.

An element g lies in the k-th term of the lower central series exactly when
every nonconstant term of its image has degree >= k; the weight of g is the
smallest degree that actually occurs (infinite for the identity).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

from .errors import InternalInconsistencyError
from .presentation import Presentation
from .words import Commutator, Generator, Power, Product, Word, WordExpr

Monomial = tuple[int, ...]


def _raw_mul(f: dict, g: dict, cutoff: int) -> dict:
    right = [(m2, g[m2]) for m2 in sorted(g, key=len)]
    out: dict[Monomial, int] = {}
    for m1, a in f.items():
        room = cutoff - len(m1)
        for m2, b in right:
            if len(m2) > room:
                break
            key = m1 + m2
            v = out.get(key, 0) + a * b
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


class GroupElement:
    """A group element stored as its truncated polynomial image.

    terms maps monomials (tuples of generator indices) to nonzero integer
    coefficients; the empty monomial always carries coefficient 1.
    """

    __slots__ = ("presentation", "terms", "_hash")

    def __init__(self, presentation: Presentation, terms: dict):
        if terms.get((), 0) != 1:
            raise InternalInconsistencyError("constant term must be 1")
        self.presentation = presentation
        self.terms = terms
        self._hash = None

    def coefficient(self, monomial: Monomial) -> int:
        return self.terms.get(monomial, 0)

    def homogeneous(self, degree: int) -> dict:
        return {m: v for m, v in self.terms.items() if len(m) == degree}

    def is_identity(self) -> bool:
        return len(self.terms) == 1

    def weight(self):
        if self.is_identity():
            return math.inf
        return min(len(m) for m in self.terms if m)

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return multiply(self, other)

    def __invert__(self):
        return inverse(self)

    def __pow__(self, n):
        return power(self, n)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.presentation == other.presentation and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.presentation, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        names = self.presentation.names
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            body = "*".join(names[i] for i in mono) if mono else "1"
            if not parts:
                parts.append(body if coeff == 1 and mono == () else f"{coeff}*{body}")
                continue
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            head = body if mag == 1 else f"{mag}*{body}"
            parts.append(f"{sign} {head}")
        return f"GroupElement({' '.join(parts)})"


def identity(presentation: Presentation) -> GroupElement:
    return GroupElement(presentation, {(): 1})


@lru_cache(maxsize=None)
def _letter_image(presentation: Presentation, index: int, sign: int) -> GroupElement:
    if not 0 <= index < presentation.m:
        raise ValueError(f"letter index {index} out of range")
    if sign > 0:
        terms = {(): 1, (index,): 1}
    else:
        terms = {(index,) * k: (-1) ** k for k in range(presentation.c + 1)}
    return GroupElement(presentation, terms)


def embed(word: Word, presentation: Presentation) -> GroupElement:
    """Image of a letter sequence; a run of equal letters is one power."""
    g = identity(presentation)
    for (index, sign), run in groupby(word):
        step = _letter_image(presentation, index, sign)
        n = len(list(run))
        g = multiply(g, step if n == 1 else power(step, n))
    return g


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.presentation != h.presentation:
        raise ValueError("elements live in different presentations")
    return GroupElement(g.presentation, _raw_mul(g.terms, h.terms, g.presentation.c))


def inverse(g: GroupElement) -> GroupElement:
    return power(g, -1)


def power(g: GroupElement, n: int) -> GroupElement:
    c = g.presentation.c
    u = {m: v for m, v in g.terms.items() if m}
    acc = {(): 1}
    term, coeff, k = u, n, 1
    while coeff and term:
        for mono, v in term.items():
            total = acc.get(mono, 0) + coeff * v
            if total:
                acc[mono] = total
            elif mono in acc:
                del acc[mono]
        k += 1
        coeff = coeff * (n - k + 1) // k  # C(n, k), exact for negative n too
        if coeff:
            term = _raw_mul(term, u, c)
    return GroupElement(g.presentation, acc)


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    return multiply(multiply(inverse(g), inverse(h)), multiply(g, h))


def evaluate(expr: WordExpr, presentation: Presentation) -> GroupElement:
    """Image of a parse tree (see words.parse), without expanding it."""
    if isinstance(expr, Generator):
        return _letter_image(presentation, expr.index, 1)
    if isinstance(expr, Power):
        return power(evaluate(expr.child, presentation), expr.exponent)
    if isinstance(expr, Product):
        g = identity(presentation)
        for child in expr.children:
            g = multiply(g, evaluate(child, presentation))
        return g
    if isinstance(expr, Commutator):
        return commutator(
            evaluate(expr.left, presentation), evaluate(expr.right, presentation)
        )
    raise TypeError(f"not a word expression: {expr!r}")
