"""Exact group arithmetic through truncated noncommutative power series.

Each generator a_i of the free nilpotent group of rank m and class c maps to
1 + x_i in the ring of integer polynomials on noncommuting variables
x_1..x_m, truncated above total degree c.  The map lands in the group of
units with constant term 1 and is injective, so equality of polynomials is
equality of group elements and every computation below is exact.

A polynomial is a dict from monomials to nonzero coefficients, and a
monomial is one int.  With s = max(1, (m - 1).bit_length()) bits per
letter (Presentation.letter_bits), x_i1 ... x_id is keyed by a leading 1
bit followed by the d s-bit digits i1, ..., id, so the empty monomial is 1.
The degree of a key k is (k.bit_length() - 1) // s, keys order by degree
and then lexicographically, and the key of a product of monomials is
((k1 - 1) << s d2) + k2 for k2 of degree d2: one shift per left monomial
and one add per term pair, where a tuple key would be built and hashed
letter by letter.

Every integer power, the inverse included, is the binomial series
(1 + u)^n = sum_k C(n, k) u^k for u = g - 1, negative n too: for g of
weight w, u^k starts in degree k w, so the sum ends at top = c // w, or at
n if n >= 0 is smaller.  _series sums it by Horner's rule: from
p = C(n, top - 1) + C(n, top) u, a scaled copy of u, each step
p <- C(n, k) + p u, k = top - 2 down to 0, keeps p only up to degree
c - k w, all that u^k leaves room for.  So a power takes top - 1 products,
the first ones on a short p, each with u on the right and no sum on the
side.  Multiplication visits only the term pairs under the truncation: the
right operand's nonconstant monomials come grouped by degree into rows, and
each left monomial walks the rows up to the degree it has room for.  A
GroupElement groups its terms once, on its first use as a right operand,
and keeps the rows: every product by it, the products of a power's Horner
steps and a commutator's three products all read them.  The rows hold
every degree and the walk stops at the room, so one row set serves any
cutoff.  Only fresh dicts, the bracket and hg in a commutator, are grouped
on the spot.  The right operand's constant term b0 adds b0 times the left
operand in one copy (dict(f) for a group element), so the pair loop walks
only the rows; the copy needs a left operand with nothing above the cutoff,
so commutator truncates h before it forms hg.
embed and evaluate start a product from its first factor, and evaluate walks
a straight-line program (a parsed word) bottom-up without expanding it, one
power per power node and one commutator per bracket.  A letter power needs
no product at all: (1 + x_i)^n = sum_k C(n, k) x_i^k, so _letter_power
writes its terms down at once, for a power node over a letter, each run of
equal letters that embed reads and each letter's power in the Mal'cev peel
and product of hall; a lone letter or its inverse, which recurs from word to
word, comes from a cache (_letter_image).

A commutator takes two products and a short series.  With u = g - 1 and
v = h - 1, gh - hg = uv - vu, so [g, h] = g^-1 h^-1 g h = (hg)^-1 gh
= 1 + (hg)^-1 (uv - vu).  If uv - vu starts in degree d (d >= the sum of
the weights), only the terms of (hg)^-1 up to degree c - d matter: its
series, the same Horner sum, runs on hg - 1 = u + v + vu truncated there.
For d = c that is the constant 1 and the commutator is 1 + (uv - vu) at
once; for d > c it is the identity.

An element g lies in the k-th term of the lower central series exactly when
every nonconstant term of its image has degree >= k; the weight of g is the
smallest degree that actually occurs (infinite for the identity).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import groupby
from itertools import product as cartesian

from .errors import InternalInconsistencyError
from .presentation import CACHED_PRESENTATIONS, Presentation
from .words import Slp, Word

Monomial = tuple[int, ...]


def monomial_key(monomial: Monomial, bits: int) -> int:
    """The integer key of a monomial: a leading 1 bit, then one bits-wide
    digit per letter index."""
    key = 1
    for i in monomial:
        key = key << bits | i
    return key


def key_product(k1: int, k2: int) -> int:
    """The key of m1 m2, for m1 keyed k1 and m2 keyed k2: k2's digits take
    k2.bit_length() - 1 bits."""
    return ((k1 - 1) << k2.bit_length() - 1) + k2


def degree(key: int, bits: int) -> int:
    return (key.bit_length() - 1) // bits


def degree_keys(presentation: Presentation, d: int) -> list[int]:
    """The keys of the degree-d monomials, in lexicographic order."""
    monomials = cartesian(range(presentation.m), repeat=d)
    return [monomial_key(t, presentation.letter_bits) for t in monomials]


def _degree_rows(terms: dict) -> list:
    """terms' nonconstant monomials grouped by key shift, in increasing
    order: a key of degree d has shift s d, and the key of m1 m2 is
    ((k1 - 1) << s d2) + k2.  Every degree is kept, so the rows serve any
    cutoff."""
    rows: dict[int, list] = {}
    for k, b in terms.items():
        shift = k.bit_length() - 1
        if shift:
            rows.setdefault(shift, []).append((k, b))
    return sorted(rows.items())


def _raw_mul(f: dict, rows: list, b0: int, cutoff: int, bits: int) -> dict:
    """f * g truncated above degree cutoff, on keys of bits bits per letter,
    for g given by its constant term b0 and its _degree_rows.  f must hold
    no monomial above cutoff: b0 contributes b0 * f as it stands."""
    out = dict(f) if b0 == 1 else {k: a * b0 for k, a in f.items()} if b0 else {}
    most = bits * cutoff
    for k1, a in f.items():
        room = most + 1 - k1.bit_length()
        k1 -= 1
        for shift, row in rows:
            if shift > room:
                break
            base = k1 << shift
            for k2, b in row:
                key = base + k2
                v = out.get(key, 0) + a * b
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
    return out


class GroupElement:
    """A group element stored as its truncated polynomial image.

    terms maps monomials to nonzero integer coefficients.  A monomial
    x_i1 ... x_id is keyed by one int, monomial_key: a leading 1 bit, then d
    digits of presentation.letter_bits bits, i1 first; the empty monomial is
    1 and always carries coefficient 1.  An int hashes and concatenates in
    one machine step where a tuple is built and hashed letter by letter, so
    the kernel pays one add per term pair.  The degree is read from the bit
    length, and keys order by degree, then lexicographically.

    terms is never changed after construction, so the hash, the weight and
    the degree rows the kernel reads of a right operand are computed once,
    on first use, and kept; the rows hold every degree, so any cutoff can
    read them.
    """

    __slots__ = ("presentation", "terms", "_hash", "_rows", "_weight")

    def __init__(self, presentation: Presentation, terms: dict):
        if terms.get(1, 0) != 1:
            raise InternalInconsistencyError("constant term must be 1")
        self.presentation = presentation
        self.terms = terms
        self._hash = None
        self._rows = None
        self._weight = None

    @property
    def rows(self) -> list:
        """The nonconstant terms grouped by degree (_degree_rows)."""
        if self._rows is None:
            self._rows = _degree_rows(self.terms)
        return self._rows

    def coefficient(self, monomial: Monomial) -> int:
        return self.terms.get(monomial_key(monomial, self.presentation.letter_bits), 0)

    def is_identity(self) -> bool:
        return len(self.terms) == 1

    def weight(self):
        if self._weight is None:
            if self.is_identity():
                self._weight = math.inf
            else:
                # keys order by degree, and 1 is the least
                lowest = min(k for k in self.terms if k != 1)
                self._weight = degree(lowest, self.presentation.letter_bits)
        return self._weight

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
        p, q = self.presentation, other.presentation
        return (p is q or p == q) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            # equal terms in two presentations collide; __eq__ tells them apart
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self):
        names = self.presentation.names
        bits = self.presentation.letter_bits
        mask = (1 << bits) - 1
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            d = degree(key, bits)
            letters = (key >> bits * (d - 1 - j) & mask for j in range(d))
            body = "*".join(names[i] for i in letters) if d else "1"
            if not parts:
                parts.append(body if coeff == 1 and d == 0 else f"{coeff}*{body}")
                continue
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            head = body if mag == 1 else f"{mag}*{body}"
            parts.append(f"{sign} {head}")
        return f"GroupElement({' '.join(parts)})"


def exponent_sums(g: GroupElement) -> list[int]:
    """The degree-1 coefficients of g: the exponent sum of each generator."""
    first = 1 << g.presentation.letter_bits
    return [g.terms.get(k, 0) for k in range(first, first + g.presentation.m)]


def identity(presentation: Presentation) -> GroupElement:
    return GroupElement(presentation, {1: 1})


def _letter_power(presentation: Presentation, index: int, n: int) -> GroupElement:
    """The image of letter index to the power n, any integer n: the terms
    C(n, k) x^k of (1 + x)^n, k = 0..c, that do not vanish."""
    if not 0 <= index < presentation.m:
        raise ValueError(f"letter index {index} out of range")
    bits = presentation.letter_bits
    terms = {}
    key, coeff = 1, 1
    for k in range(1, presentation.c + 2):
        if not coeff:
            break  # C(n, k) = 0 from k = n + 1 on, for n >= 0
        terms[key] = coeff
        key = key << bits | index  # x^(k-1) -> x^k
        coeff = coeff * (n - k + 1) // k  # C(n, k), exact for negative n too
    return GroupElement(presentation, terms)


# one entry per letter and sign: 2m <= 20 per presentation of class >= 2
# under the default Hirsch cap; other powers are built afresh, in about a
# microsecond
@lru_cache(maxsize=20 * CACHED_PRESENTATIONS)
def _letter_image(presentation: Presentation, index: int, sign: int) -> GroupElement:
    return _letter_power(presentation, index, sign)


def _product(factors: Iterator[GroupElement], p: Presentation) -> GroupElement:
    """The factors multiplied from the first one on; the identity if none."""
    first = next(factors, None)
    return identity(p) if first is None else reduce(multiply, factors, first)


def embed(word: Word, presentation: Presentation) -> GroupElement:
    """Image of a letter sequence; a run of equal letters is one letter power."""
    runs = ((index, sign * len(list(run))) for (index, sign), run in groupby(word))
    return _product(
        (
            (_letter_image if abs(n) == 1 else _letter_power)(presentation, index, n)
            for index, n in runs
        ),
        presentation,
    )


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    p = g.presentation
    if p is not h.presentation and p != h.presentation:
        raise ValueError("elements live in different presentations")
    return GroupElement(p, _raw_mul(g.terms, h.rows, 1, p.c, p.letter_bits))


def inverse(g: GroupElement) -> GroupElement:
    return power(g, -1)


def _series(rows: list, n: int, cutoff: int, bits: int) -> dict:
    """The terms of (1 + u)^n up to degree cutoff by Horner's rule (see the
    module docstring), for u without a constant term given by its
    _degree_rows, or those of any u' that agrees with u up to cutoff.  u's
    weight w is the degree of its first row."""
    if not rows:
        return {1: 1}
    w = rows[0][0] // bits
    top = cutoff // w if n < 0 else min(cutoff // w, n)
    if not top:
        return {1: 1}
    coeffs = [1]
    for k in range(1, top + 1):
        coeffs.append(coeffs[-1] * (n - k + 1) // k)  # C(n, k), negative n too
    most = bits * (cutoff - (top - 1) * w)
    scale = coeffs[top]
    p = {key: scale * b for shift, row in rows if shift <= most for key, b in row}
    p[1] = coeffs[top - 1]
    for k in range(top - 2, -1, -1):
        p = _raw_mul(p, rows, 0, cutoff - k * w, bits)
        p[1] = coeffs[k]
    return p


def power(g: GroupElement, n: int) -> GroupElement:
    p = g.presentation
    return GroupElement(p, _series(g.rows, n, p.c, p.letter_bits))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g^-1 h^-1 g h = 1 + (hg)^-1 (uv - vu) for u = g - 1, v = h - 1."""
    p = g.presentation
    if p is not h.presentation and p != h.presentation:
        raise ValueError("elements live in different presentations")
    c, bits = p.c, p.letter_bits
    u = {k: x for k, x in g.terms.items() if k != 1}
    v = {k: x for k, x in h.terms.items() if k != 1}
    bracket = _raw_mul(u, h.rows, 0, c, bits)
    for key, x in _raw_mul(v, g.rows, 0, c, bits).items():
        total = bracket.get(key, 0) - x
        if total:
            bracket[key] = total
        else:
            del bracket[key]
    if not bracket:
        return identity(p)
    # (hg)^-1 matters only up to degree c - d, where uv - vu starts in degree d
    room = c - degree(min(bracket), bits)
    if room:
        # the keys of degree <= room are those below 1 << bits * (room + 1)
        limit = 1 << bits * (room + 1)
        h_low = {k: x for k, x in h.terms.items() if k < limit}
        hg = _raw_mul(h_low, g.rows, 1, room, bits)
        inverse_hg = _series(_degree_rows(hg), -1, room, bits)
        bracket = _raw_mul(inverse_hg, _degree_rows(bracket), 0, c, bits)
    bracket[1] = 1
    return GroupElement(p, bracket)


def evaluate(word: Slp, presentation: Presentation) -> GroupElement:
    """Image of a straight-line program (see words.parse), node by node
    from the letters up; free reduction leaves the element alone."""
    values: dict[Slp, GroupElement] = {}
    for node in word.nodes():
        kind, a = node.kind, node.a
        if kind == "letter":
            value = _letter_image(presentation, a, 1)
        elif kind == "power":
            base = node.parts[0]
            if base.kind == "letter":
                value = (_letter_image if abs(a) == 1 else _letter_power)(
                    presentation, base.a, a
                )
            else:
                value = power(values[base], a)
        elif kind == "concat":
            value = _product(map(values.__getitem__, node.parts), presentation)
        elif kind == "commutator":
            value = commutator(*map(values.__getitem__, node.parts))
        else:
            x, y = map(values.__getitem__, node.parts)
            value = multiply(power(x, a), power(y, node.b))
        values[node] = value
    return values[word]
