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
order.  The right operand's constant term b0 adds b0 times the left operand
in one copy (dict(f) for a group element), so the pair loop walks only the
nonconstant monomials; the copy needs a left operand with nothing above the
cutoff, so commutator truncates h before it forms hg.  embed and evaluate
start a product from its first factor, and evaluate reads a parse tree
without expanding its powers.

A commutator takes two products and a short series.  With u = g - 1 and
v = h - 1, gh - hg = uv - vu, so [g, h] = g^-1 h^-1 g h = (hg)^-1 gh
= 1 + (hg)^-1 (uv - vu).  If uv - vu starts in degree d (d >= the sum of
the weights), only the terms of (hg)^-1 up to degree c - d matter: its
series runs on hg - 1 = u + v + vu truncated there, and for d > c the
commutator is the identity.

An element g lies in the k-th term of the lower central series exactly when
every nonconstant term of its image has degree >= k; the weight of g is the
smallest degree that actually occurs (infinite for the identity).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import groupby

from .errors import InternalInconsistencyError
from .presentation import CACHED_PRESENTATIONS, Presentation
from .words import Commutator, Generator, Power, Product, Word, WordExpr

Monomial = tuple[int, ...]


def _raw_mul(f: dict, g: dict, cutoff: int) -> dict:
    """f * g truncated above degree cutoff.  f must hold no monomial above
    cutoff: g's constant term b0 contributes b0 * f as it stands."""
    b0 = g.get((), 0)
    out = dict(f) if b0 == 1 else {m: a * b0 for m, a in f.items()} if b0 else {}
    right = [(m2, g[m2]) for m2 in sorted(g, key=len) if m2]
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
            # equal terms in two presentations collide; __eq__ tells them apart
            self._hash = hash(frozenset(self.terms.items()))
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


# one entry per letter and sign: 2m <= 20 per presentation of class >= 2
# under the default Hirsch cap
@lru_cache(maxsize=20 * CACHED_PRESENTATIONS)
def _letter_image(presentation: Presentation, index: int, sign: int) -> GroupElement:
    if not 0 <= index < presentation.m:
        raise ValueError(f"letter index {index} out of range")
    if sign > 0:
        terms = {(): 1, (index,): 1}
    else:
        terms = {(index,) * k: (-1) ** k for k in range(presentation.c + 1)}
    return GroupElement(presentation, terms)


def _product(factors: Iterator[GroupElement], p: Presentation) -> GroupElement:
    """The factors multiplied from the first one on; the identity if none."""
    first = next(factors, None)
    return identity(p) if first is None else reduce(multiply, factors, first)


def embed(word: Word, presentation: Presentation) -> GroupElement:
    """Image of a letter sequence; a run of equal letters is one power."""
    runs = (
        (_letter_image(presentation, index, sign), len(list(run)))
        for (index, sign), run in groupby(word)
    )
    return _product((g if n == 1 else power(g, n) for g, n in runs), presentation)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.presentation != h.presentation:
        raise ValueError("elements live in different presentations")
    return GroupElement(g.presentation, _raw_mul(g.terms, h.terms, g.presentation.c))


def inverse(g: GroupElement) -> GroupElement:
    return power(g, -1)


def _series(u: dict, n: int, cutoff: int) -> dict:
    """The terms of (1 + u)^n = sum_k C(n, k) u^k up to degree cutoff, for u
    without a constant term or terms above cutoff."""
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
            term = _raw_mul(term, u, cutoff)
    return acc


def power(g: GroupElement, n: int) -> GroupElement:
    u = {m: v for m, v in g.terms.items() if m}
    return GroupElement(g.presentation, _series(u, n, g.presentation.c))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h = 1 + (hg)^-1 (uv - vu) for u = g - 1, v = h - 1."""
    if g.presentation != h.presentation:
        raise ValueError("elements live in different presentations")
    c = g.presentation.c
    u = {m: x for m, x in g.terms.items() if m}
    v = {m: x for m, x in h.terms.items() if m}
    bracket = _raw_mul(u, v, c)
    for mono, x in _raw_mul(v, u, c).items():
        total = bracket.get(mono, 0) - x
        if total:
            bracket[mono] = total
        else:
            del bracket[mono]
    if not bracket:
        return identity(g.presentation)
    # (hg)^-1 matters only up to degree c - d, where uv - vu starts in degree d
    room = c - min(len(m) for m in bracket)
    h_low = {m: x for m, x in h.terms.items() if len(m) <= room}
    hg = _raw_mul(h_low, g.terms, room)
    del hg[()]
    terms = _raw_mul(_series(hg, -1, room), bracket, c)
    terms[()] = 1
    return GroupElement(g.presentation, terms)


def evaluate(expr: WordExpr, presentation: Presentation) -> GroupElement:
    """Image of a parse tree (see words.parse), without expanding it."""
    if isinstance(expr, Generator):
        return _letter_image(presentation, expr.index, 1)
    if isinstance(expr, Power):
        return power(evaluate(expr.child, presentation), expr.exponent)
    if isinstance(expr, Product):
        factors = (evaluate(child, presentation) for child in expr.children)
        return _product(factors, presentation)
    if isinstance(expr, Commutator):
        return commutator(
            evaluate(expr.left, presentation), evaluate(expr.right, presentation)
        )
    raise TypeError(f"not a word expression: {expr!r}")
