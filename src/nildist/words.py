"""Group words: straight-line programs, flat letter sequences, and printing.

Grammar (whitespace-insensitive):

    expr   := factor*
    factor := atom ("^" int)?
    atom   := name | "1" | "(" expr ")" | "[" expr ("," expr)+ "]"
    int    := "-"? digit+
    name   := letter digit*
    digit  := "0" | "1" | ... | "9"

The atom "1" is the empty word, so printed output always parses back.  A
parsed word is a straight-line program (Slp), which elimination extends
node by node: a letter node per generator, a power node per "^", a
concatenation per product of factors and a commutator per bracket.

A bracket with more than two parts nests to the right, [u, v, w] = [u, [v, w]],
and the commutator convention throughout is [g, h] = g^-1 h^-1 g h.  Parsing
performs no free reduction; a word is exactly the letter sequence written.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import cache
from itertools import chain, count, groupby, repeat
from operator import attrgetter

from .errors import (
    CapExceededError,
    ExponentOverflowError,
    UnknownGeneratorError,
    WordSyntaxError,
)
from .presentation import Presentation, _name_table

# Spelling repeats letters |exponent| times, so bound the exponent a parse
# will accept rather than letting a stray "a^99999999999" eat all memory.
MAX_EXPONENT = 10**6

# Nested powers multiply their exponents, so also bound the letters of any
# word spelled out in full, and the letters one Slp.expand holds at once.
MAX_LETTERS = 10**7

# The parser recurses once per bracket or parenthesis: bound the nesting.
MAX_NESTING = 100

Letter = tuple[int, int]  # (generator index, +1 or -1)
Word = tuple[Letter, ...]


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
            # ASCII digits only, here and in exponents: str.isdigit also
            # admits '²', which int() refuses, and '٣', which it reads as 3
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch == "-" or "0" <= ch <= "9":
            j = i + 1 if ch == "-" else i
            k = j
            while k < n and "0" <= text[k] <= "9":
                k += 1
            if k == j:
                raise WordSyntaxError("expected digits after '-'", i)
            try:
                value = int(text[i:k])
            except ValueError:
                # more digits than int() converts (4300 by default)
                raise ExponentOverflowError(
                    f"integer of {k - j} digits exceeds the limit {MAX_EXPONENT}", i
                ) from None
            tokens.append(("int", value, i))
            i = k
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, presentation: Presentation):
        self.names = _name_table(presentation)
        # an end token closes the list; reading it ends the parse or raises
        self.tokens = _tokenize(text) + [("end", None, len(text))]
        self.pos = 0
        self.depth = 0

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind):
        token = self.advance()
        if token[0] != kind:
            raise WordSyntaxError(f"expected {kind!r}", token[2])
        return token

    def parse_expr(self) -> "Slp":
        factors = []
        while True:
            kind, value, _ = self.tokens[self.pos]
            if kind not in ("name", "(", "[") and not (kind == "int" and value == 1):
                break
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Slp.concat(tuple(factors))

    def parse_factor(self) -> "Slp":
        atom = self.parse_atom()
        if self.tokens[self.pos][0] == "^":
            self.advance()
            kind, value, where = self.advance()
            if kind != "int":
                raise WordSyntaxError("expected an integer exponent after '^'", where)
            if abs(value) > MAX_EXPONENT:
                raise ExponentOverflowError(
                    f"exponent {value} exceeds the limit {MAX_EXPONENT}", where
                )
            return Slp.power(atom, value)
        return atom

    def parse_atom(self) -> "Slp":
        kind, value, where = self.advance()
        if kind == "int" and value == 1:
            return Slp.concat(())
        if kind == "name":
            if value not in self.names:
                raise UnknownGeneratorError(f"unknown generator {value!r}", where)
            return Slp.letter(self.names[value])
        if kind not in ("(", "["):
            raise WordSyntaxError(f"unexpected {value!r}", where)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise WordSyntaxError(f"nesting deeper than {MAX_NESTING}", where)
        if kind == "(":
            expr = self.parse_expr()
            self.expect(")")
        else:
            parts = [self.parse_expr()]
            while self.tokens[self.pos][0] == ",":
                self.advance()
                parts.append(self.parse_expr())
            self.expect("]")
            if len(parts) < 2:
                raise WordSyntaxError("a commutator needs at least two parts", where)
            expr = parts[-1]
            for part in reversed(parts[:-1]):
                expr = Slp.commutator(part, expr)
        self.depth -= 1
        return expr


def parse(text: str, presentation: Presentation) -> "Slp":
    """The word as a straight-line program over letters, without free
    reduction: its expand() is the letter sequence as written."""
    parser = _Parser(text, presentation)
    word = parser.parse_expr()
    kind, value, where = parser.tokens[parser.pos]
    if kind != "end":
        raise WordSyntaxError(f"unexpected {value!r}", where)
    return word


def _check_letters(count: int, held: int = 0) -> None:
    if count + held > MAX_LETTERS:
        beside = f" beside {held} held" if held else ""
        raise CapExceededError(
            f"word of {count} letters{beside} exceeds the limit {MAX_LETTERS}"
        )


def parse_word(text: str, presentation: Presentation) -> Word:
    """The letter sequence of a word as written; parsing performs no free
    reduction.  Raises CapExceededError past MAX_LETTERS letters before
    anything is expanded: a parsed word's letter count is exact."""
    word = parse(text, presentation)
    _check_letters(word.letters)
    return word.expand()


class _Inverses(dict):
    """letter -> its inverse, one shared tuple per letter and sign, so an
    inverted word costs a pointer per letter."""

    def __missing__(self, letter: Letter) -> Letter:
        self[letter] = inverse = (letter[0], -letter[1])
        return inverse


_INVERSE = _Inverses().__getitem__


def _inverted(word: Word) -> Iterator[Letter]:
    return map(_INVERSE, reversed(word))


def _power_letters(word: Word, n: int) -> Iterator[Letter]:
    """The letters of word^n, streamed: no copy of word or its inverse."""
    if n < 0:
        return chain.from_iterable(map(_inverted, repeat(word, -n)))
    return chain.from_iterable(repeat(word, n))


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

    A node is a letter, a power u^n of a node (n = -1 is the inverse), the
    concatenation of nodes as written (a parsed product; none: the empty
    word), the free-reduced product x^a y^b, or the commutator [x, y] (not
    reduced); parts are the nodes it reads, and serial, counted up as nodes
    are made, exceeds theirs.  Building one is O(1); letters is the length
    of the unreduced word, exact when no product node reduces, as in every
    parsed word, and len() caps it at sys.maxsize.
    """

    __slots__ = ("kind", "parts", "a", "b", "letters", "serial")

    def __init__(self, kind, parts, letters, a=1, b=1):
        self.kind = kind
        self.parts = parts
        self.a = a
        self.b = b
        self.letters = letters
        self.serial = next(_SERIALS)

    @staticmethod
    @cache
    def letter(index: int) -> "Slp":
        """The generator of that index, one node per index; a holds it."""
        return Slp("letter", (), 1, index)

    @staticmethod
    def power(x: "Slp", n: int) -> "Slp":
        return Slp("power", (x,), abs(n) * x.letters, n)

    @staticmethod
    def concat(parts: tuple) -> "Slp":
        """The words of parts one after another, not reduced."""
        return Slp("concat", parts, sum(x.letters for x in parts))

    @staticmethod
    def product(x: "Slp", a: int, y: "Slp", b: int) -> "Slp":
        """free_reduce(x^a y^b)"""
        return Slp("product", (x, y), abs(a) * x.letters + abs(b) * y.letters, a, b)

    @staticmethod
    def commutator(x: "Slp", y: "Slp") -> "Slp":
        return Slp("commutator", (x, y), 2 * (x.letters + y.letters))

    def __len__(self) -> int:
        return min(self.letters, sys.maxsize)

    def nodes(self) -> dict["Slp", int]:
        """Every node of the DAG under this one, each after the nodes it
        reads (sorted by serial), mapped to how many parts of other nodes
        are that node.  The walk is iterative: a DAG runs as deep as the
        elimination or the bracket that built it."""
        readers = {self: 0}
        stack = [self]
        while stack:
            for x in stack.pop().parts:
                if x in readers:
                    readers[x] += 1
                else:
                    readers[x] = 1
                    stack.append(x)
        return {node: readers[node] for node in sorted(readers, key=_SERIAL)}

    def expand(self) -> Word:
        """The word, spelled bottom-up.  A node's word is dropped once every
        node that reads it is spelled, and CapExceededError is raised before
        any step would leave more than MAX_LETTERS letters held."""
        readers = self.nodes()
        words: dict[Slp, Word] = {}
        held = 0
        for node in readers:
            parts = [words[x] for x in node.parts]
            for x in node.parts:
                readers[x] -= 1
                if not readers[x]:
                    held -= len(words.pop(x))
            word = node._spell(parts, held)
            held += len(word)
            words[node] = word
        return words[self]

    def _spell(self, parts: list, held: int) -> Word:
        """This node's word from the words of its parts, refused before it
        is built if it would take the letters held past MAX_LETTERS.  Powers
        and inverses stream into the result, so a step holds its parts and
        its word (and free_reduce's list) only."""
        kind, a = self.kind, self.a
        if kind == "letter":
            _check_letters(1, held)
            return ((a, 1),)
        if kind == "power":
            _check_letters(abs(a) * len(parts[0]), held)
            return parts[0] * a if a > 0 else tuple(_power_letters(parts[0], a))
        if kind == "concat":
            _check_letters(sum(map(len, parts)), held)
            return tuple(chain.from_iterable(parts))
        x, y = parts
        if kind == "commutator":
            _check_letters(2 * (len(x) + len(y)), held)
            return tuple(chain(_inverted(x), _inverted(y), x, y))
        _check_letters(abs(a) * len(x) + abs(self.b) * len(y), held)
        return free_reduce(chain(_power_letters(x, a), _power_letters(y, self.b)))


_SERIALS = count()
_SERIAL = attrgetter("serial")


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
