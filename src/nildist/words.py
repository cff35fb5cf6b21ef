"""Group words: parse trees, flat letter sequences, and printing.

Grammar (whitespace-insensitive):

    expr   := factor*
    factor := atom ("^" int)?
    atom   := name | "1" | "(" expr ")" | "[" expr ("," expr)+ "]"
    int    := "-"? digit+
    name   := letter digit*

The atom "1" is the empty word, so printed output always parses back.  A
parse tree has four node types: Generator, Power, Product and Commutator.

A bracket with more than two parts nests to the right, [u, v, w] = [u, [v, w]],
and the commutator convention throughout is [g, h] = g^-1 h^-1 g h.  Parsing
performs no free reduction; a word is exactly the letter sequence written.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import groupby

from .errors import (
    CapExceededError,
    ExponentOverflowError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from .presentation import Presentation

# Flattening repeats letters |exponent| times, so bound the exponent a parse
# will accept rather than letting a stray "a^99999999999" eat all memory.
MAX_EXPONENT = 10**6

# Nested powers multiply their exponents, so also bound the letters of any
# word spelled out in full: a flattened parse tree or an expanded Slp.
MAX_LETTERS = 10**7

Letter = tuple[int, int]  # (generator index, +1 or -1)
Word = tuple[Letter, ...]


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class Power:
    child: "WordExpr"
    exponent: int


@dataclass(frozen=True)
class Product:
    children: tuple["WordExpr", ...]


@dataclass(frozen=True)
class Commutator:
    left: "WordExpr"
    right: "WordExpr"


WordExpr = Generator | Power | Product | Commutator


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "[](),^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch == "-" or ch.isdigit():
            j = i + 1 if ch == "-" else i
            k = j
            while k < n and text[k].isdigit():
                k += 1
            if k == j:
                raise WordSyntaxError("expected digits after '-'", i)
            tokens.append(("int", int(text[i:k]), i))
            i = k
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, presentation: Presentation):
        self.text = text
        self.presentation = presentation
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", None, len(self.text))

    def advance(self):
        token = self.peek()
        self.pos += 1
        return token

    def expect(self, kind):
        token = self.advance()
        if token[0] != kind:
            raise WordSyntaxError(f"expected {kind!r}", token[2])
        return token

    def parse_expr(self) -> WordExpr:
        factors = []
        while True:
            kind, value, _ = self.peek()
            if kind not in ("name", "(", "[") and not (kind == "int" and value == 1):
                break
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> WordExpr:
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, where = self.advance()
            if kind != "int":
                raise WordSyntaxError("expected an integer exponent after '^'", where)
            if abs(value) > MAX_EXPONENT:
                raise ExponentOverflowError(
                    f"exponent {value} exceeds the limit {MAX_EXPONENT}", where
                )
            return Power(atom, value)
        return atom

    def parse_atom(self) -> WordExpr:
        kind, value, where = self.advance()
        if kind == "int" and value == 1:
            return Product(())
        if kind == "name":
            try:
                index = self.presentation.index_of(value)
            except KeyError:
                raise UnknownGeneratorError(
                    f"unknown generator {value!r}", where
                ) from None
            return Generator(index)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "[":
            parts = [self.parse_expr()]
            while self.peek()[0] == ",":
                self.advance()
                parts.append(self.parse_expr())
            self.expect("]")
            if len(parts) < 2:
                raise WordSyntaxError("a commutator needs at least two parts", where)
            expr = parts[-1]
            for part in reversed(parts[:-1]):
                expr = Commutator(part, expr)
            return expr
        raise WordSyntaxError(f"unexpected {value!r}", where)


def parse(text: str, presentation: Presentation) -> WordExpr:
    parser = _Parser(text, presentation)
    expr = parser.parse_expr()
    kind, value, where = parser.peek()
    if kind != "end":
        raise WordSyntaxError(f"unexpected {value!r}", where)
    return expr


def _check_letters(count: int) -> None:
    if count > MAX_LETTERS:
        raise CapExceededError(
            f"word of {count} letters exceeds the limit {MAX_LETTERS}"
        )


def letter_count(expr: WordExpr) -> int:
    """len(flatten(expr)), computed without expanding anything."""
    if isinstance(expr, Generator):
        return 1
    if isinstance(expr, Power):
        return abs(expr.exponent) * letter_count(expr.child)
    if isinstance(expr, Product):
        return sum(letter_count(child) for child in expr.children)
    if isinstance(expr, Commutator):
        return 2 * (letter_count(expr.left) + letter_count(expr.right))
    raise TypeError(f"not a word expression: {expr!r}")


def flatten(expr: WordExpr) -> Word:
    """Expand a parse tree into a letter sequence, without free reduction.

    Raises CapExceededError, before expanding, past MAX_LETTERS letters."""
    _check_letters(letter_count(expr))
    return _flatten(expr)


def _flatten(expr: WordExpr) -> Word:
    if isinstance(expr, Generator):
        return ((expr.index, 1),)
    if isinstance(expr, Power):
        return word_power(_flatten(expr.child), expr.exponent)
    if isinstance(expr, Product):
        out = []
        for child in expr.children:
            out.extend(_flatten(child))
        return tuple(out)
    if isinstance(expr, Commutator):
        return commutator_word(_flatten(expr.left), _flatten(expr.right))
    raise TypeError(f"not a word expression: {expr!r}")


def parse_word(text: str, presentation: Presentation) -> Word:
    return flatten(parse(text, presentation))


def invert_word(word: Word) -> Word:
    return tuple((index, -sign) for index, sign in reversed(word))


def word_power(word: Word, n: int) -> Word:
    base = word if n >= 0 else invert_word(word)
    return base * abs(n)


def commutator_word(u: Word, v: Word) -> Word:
    return invert_word(u) + invert_word(v) + u + v


def free_reduce(word: Word) -> Word:
    out: list[Letter] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class Slp:
    """A word as a straight-line program: one node of a DAG over letters.

    A node is a letter, the inverse of a node, the free-reduced product
    x^a y^b, or the commutator [x, y] (not reduced).  Building one is O(1)
    and touches no letters; len() is the letter count of the unreduced word
    it denotes (capped at sys.maxsize), kept from construction.  expand()
    spells the word out and keeps it, so shared nodes are spelled once.
    """

    __slots__ = ("kind", "x", "y", "a", "b", "letters", "_word")

    def __init__(self, kind, x, y, letters, a=1, b=1, word=None):
        self.kind = kind
        self.x = x
        self.y = y
        self.a = a
        self.b = b
        self.letters = letters
        self._word = word

    @staticmethod
    def letter(index: int) -> "Slp":
        return Slp("letter", None, None, 1, word=((index, 1),))

    def inverse(self) -> "Slp":
        return Slp("inverse", self, None, self.letters)

    @staticmethod
    def product(x: "Slp", a: int, y: "Slp", b: int) -> "Slp":
        """free_reduce(x^a y^b)"""
        return Slp("product", x, y, abs(a) * x.letters + abs(b) * y.letters, a, b)

    @staticmethod
    def commutator(x: "Slp", y: "Slp") -> "Slp":
        return Slp("commutator", x, y, 2 * (x.letters + y.letters))

    def __len__(self) -> int:
        return min(self.letters, sys.maxsize)

    def expand(self) -> Word:
        """The word, raising CapExceededError before any step would build
        more than MAX_LETTERS letters.  The walk is iterative: the DAG runs
        as deep as the elimination that built it."""
        stack = [self]
        while stack:
            node = stack[-1]
            if node._word is not None:
                stack.pop()
                continue
            pending = [c for c in (node.x, node.y) if c is not None and c._word is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            node._word = node._spell()
        return self._word

    def _spell(self) -> Word:
        x = self.x._word
        if self.kind == "inverse":
            return invert_word(x)
        y = self.y._word
        if self.kind == "commutator":
            _check_letters(2 * (len(x) + len(y)))
            return commutator_word(x, y)
        _check_letters(abs(self.a) * len(x) + abs(self.b) * len(y))
        return free_reduce(word_power(x, self.a) + word_power(y, self.b))


def substitute(word: Word, replacements: list[Word] | tuple[Word, ...]) -> Word:
    """Map letter (j, s) to replacements[j] (inverted when s < 0).

    Raises CapExceededError, before building it, past MAX_LETTERS letters."""
    _check_letters(sum(len(replacements[index]) for index, _ in word))
    out: list[Letter] = []
    for index, sign in word:
        piece = replacements[index]
        out.extend(piece if sign > 0 else invert_word(piece))
    return tuple(out)


def format_word(word: Word, presentation: Presentation) -> str:
    """Print a word with run-length syllables, e.g. 'a^2 b^-1'."""
    if not word:
        return "1"
    parts = []
    for letter, run in groupby(word):
        exponent = letter[1] * len(list(run))
        name = presentation.name_of(letter[0])
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
    return " ".join(parts)
