"""Answers the benchmark checks outputs against, computed without nildist.

Nothing here imports the package under test.  Elements of the free
nilpotent group F(m, c) are truncated noncommutative polynomials stored as
degree-graded layers (a list of dicts, one per degree), words are parsed by
a parser of our own, powers use the binomial series
g^e = sum_k C(e, k) (g - 1)^k, which stops at k = c, and the class-2 rank-2
case is cross-checked in the integer Heisenberg group.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

NAMES = "abcde"


# ------------------------------------------------------------ polynomials


class PolyGroup:
    """F(m, c) as graded truncated polynomials; generator i maps to 1 + x_i."""

    def __init__(self, m: int, c: int, killed=()):
        self.m = m
        self.c = c
        self.killed = frozenset(killed)

    def one(self):
        return [{(): 1}] + [{} for _ in range(self.c)]

    def gen(self, i: int):
        g = self.one()
        if i not in self.killed:
            g[1] = {(i,): 1}
        return g

    def mul(self, f, g):
        c = self.c
        out = [{} for _ in range(c + 1)]
        for d1, layer1 in enumerate(f):
            if not layer1:
                continue
            for d2 in range(c - d1 + 1):
                layer2 = g[d2]
                if not layer2:
                    continue
                target = out[d1 + d2]
                for m1, a in layer1.items():
                    for m2, b in layer2.items():
                        key = m1 + m2
                        target[key] = target.get(key, 0) + a * b
        return [{k: v for k, v in layer.items() if v} for layer in out]

    def pow(self, g, e: int):
        # (1 + u)^e = sum_k C(e, k) u^k for every integer e; u^(c+1) = 0
        u = [{}] + [dict(layer) for layer in g[1:]]
        out = self.one()
        term = self.one()
        for k in range(1, self.c + 1):
            term = self.mul(term, u)
            if not any(term):
                break
            coeff = _binomial(e, k)
            if coeff:
                for d, layer in enumerate(term):
                    target = out[d]
                    for mono, v in layer.items():
                        target[mono] = target.get(mono, 0) + coeff * v
        return [{k: v for k, v in layer.items() if v} for layer in out]

    def inv(self, g):
        return self.pow(g, -1)

    @staticmethod
    def is_one(g) -> bool:
        return not any(g[1:])

    @staticmethod
    def weight(g):
        for d, layer in enumerate(g):
            if d and layer:
                return d
        return None

    @staticmethod
    def flat(g) -> dict:
        out = {}
        for layer in g:
            out.update(layer)
        return out


def _binomial(e: int, k: int) -> int:
    if e >= 0:
        return comb(e, k)
    # C(-n, k) = (-1)^k C(n + k - 1, k)
    return (-1) ** k * comb(-e + k - 1, k)


# --------------------------------------------------------------- Heisenberg


class HeisenbergGroup:
    """F(2, 2) as integer triples: (x, y, z)(x', y', z') = (x+x', y+y', z+z'+xy')."""

    def one(self):
        return (0, 0, 0)

    def gen(self, i: int):
        return ((1, 0, 0), (0, 1, 0))[i]

    def mul(self, s, t):
        return (s[0] + t[0], s[1] + t[1], s[2] + t[2] + s[0] * t[1])

    def inv(self, s):
        return (-s[0], -s[1], s[0] * s[1] - s[2])

    def pow(self, s, e: int):
        if e < 0:
            s, e = self.inv(s), -e
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, s)
            s = self.mul(s, s)
            e >>= 1
        return out


def heisenberg_delta(word: str, radius: int) -> list[list]:
    """Delta(n) rows for the cyclic subgroup generated by a commutator word
    of F(2, 2), from a breadth-first ball in the Heisenberg group."""
    group = HeisenbergGroup()
    x, y, z0 = evaluate(word, group, 2)
    if x or y or not z0:
        raise ValueError(f"{word!r} does not generate a central cyclic subgroup")
    steps = [group.gen(0), group.gen(1), group.inv(group.gen(0)), group.inv(group.gen(1))]
    lengths = {group.one(): 0}
    frontier = [group.one()]
    for layer in range(1, radius + 1):
        new = []
        for s in frontier:
            for t in steps:
                u = group.mul(s, t)
                if u not in lengths:
                    lengths[u] = layer
                    new.append(u)
        frontier = new
    rows = []
    delta = 0
    for n in range(1, radius + 1):
        for (x, y, z), flen in lengths.items():
            if flen == n and not x and not y and z % z0 == 0:
                delta = max(delta, abs(z // z0))
        rows.append([n, delta, True])
    return rows


# ------------------------------------------------------------------- words

_TOKEN = re.compile(r"\s*(?:([A-Za-z]\d*)|(-?\d+)|(.))")


def _tokens(text: str):
    out = []
    for mo in _TOKEN.finditer(text):
        name, number, other = mo.groups()
        if name:
            out.append(("name", name))
        elif number is not None:
            out.append(("int", int(number)))
        elif other is not None:
            out.append((other, other))
    return out


def evaluate(text: str, group, m: int):
    """Value of a word expression in the given group.

    Grammar: expr := factor*, factor := atom ("^" int)?, atom := name | "1" |
    "(" expr ")" | "[" expr ("," expr)+ "]"; [u, v, w] = [u, [v, w]] and
    [g, h] = g^-1 h^-1 g h.
    """
    names = {f"x{i + 1}": i for i in range(m)}
    if m <= len(NAMES):
        names.update({NAMES[i]: i for i in range(m)})
    tokens = _tokens(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None)

    def take(kind=None):
        nonlocal pos
        token = peek()
        if kind is not None and token[0] != kind:
            raise ValueError(f"expected {kind!r} in {text!r}, got {token!r}")
        pos += 1
        return token

    def expr():
        value = group.one()
        while True:
            kind, val = peek()
            if kind not in ("name", "(", "[") and not (kind == "int" and val == 1):
                return value
            value = group.mul(value, factor())

    def factor():
        value = atom()
        if peek()[0] == "^":
            take("^")
            value = group.pow(value, take("int")[1])
        return value

    def atom():
        kind, val = take()
        if kind == "int" and val == 1:
            return group.one()
        if kind == "name":
            return group.gen(names[val])
        if kind == "(":
            value = expr()
            take(")")
            return value
        if kind == "[":
            parts = [expr()]
            while peek()[0] == ",":
                take(",")
                parts.append(expr())
            take("]")
            value = parts[-1]
            for part in reversed(parts[:-1]):
                value = commutator(group, part, value)
            return value
        raise ValueError(f"unexpected {val!r} in {text!r}")

    value = expr()
    if peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")
    return value


def commutator(group, g, h):
    return group.mul(group.mul(group.inv(g), group.inv(h)), group.mul(g, h))


def exponent_sums(text: str, m: int) -> list[int]:
    g = evaluate(text, PolyGroup(m, 1), m)
    return [g[1].get((i,), 0) for i in range(m)]


# ---------------------------------------------------------- linear algebra


def rank(rows) -> int:
    a = [[Fraction(v) for v in row] for row in rows]
    r = 0
    width = len(a[0]) if a else 0
    for col in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][col] / a[r][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def completion(vectors, m: int) -> list[int]:
    """Generators, smallest index first, that complete the abelianized
    images to a rank-m family: the ones the retraction kills."""
    k = rank(vectors) if vectors else 0
    killed: list[int] = []
    for j in range(m):
        if k + len(killed) == m:
            break
        units = [[1 if t == i else 0 for t in range(m)] for i in killed + [j]]
        if rank(list(vectors) + units) == k + len(units):
            killed.append(j)
    return killed


def hirsch_length(m: int, c: int) -> int:
    """Sum of the Witt numbers W(m, k), k <= c, by Moebius inversion."""

    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    total = 0
    for k in range(1, c + 1):
        total += sum(mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
    return total


# ------------------------------------------------------------------ checks


def check_measure(output: str, expected_rows) -> str | None:
    """None when the CSV table equals the expected rows, else the reason."""
    lines = output.strip().splitlines()
    if not lines or lines[0] != "n,delta,exact":
        return "missing CSV header"
    rows = []
    for line in lines[1:]:
        n, delta, exact = line.split(",")
        rows.append([int(n), int(delta), exact == "true"])
    if rows != [list(r) for r in expected_rows]:
        return f"table {rows} != expected {expected_rows}"
    return None


def check_element(output: str, m: int, c: int, expected, basis) -> str | None:
    """Check nf/mul/comm/coords output against the expected element.

    The coordinates, read against the printed Hall basis, must multiply out
    to the expected element; a printed normal form must evaluate to it too.
    """
    group = PolyGroup(m, c)
    target = group.flat(expected)
    match = re.search(r"\(([-\d, ]*)\)", output)
    if match is None:
        return "no coordinates in output"
    coords = [int(v) for v in match.group(1).split(",")] if match.group(1).strip() else []
    if len(coords) != len(basis):
        return f"{len(coords)} coordinates for a basis of {len(basis)}"
    value = group.one()
    for text, e in zip(basis, coords):
        if e:
            value = group.mul(value, group.pow(evaluate(text, group, m), e))
    if group.flat(value) != target:
        return "coordinates do not multiply out to the element"
    if output.startswith("normal form: "):
        nf = output.splitlines()[0][len("normal form: "):]
        if group.flat(evaluate(nf, group, m)) != target:
            return f"normal form {nf!r} is a different element"
    return None


def expected_element(op, m: int, c: int):
    group = PolyGroup(m, c)
    words = [evaluate(text, group, m) for text in op["words"]]
    if op["kind"] == "mul":
        return group.mul(words[0], words[1])
    if op["kind"] == "comm":
        return commutator(group, words[0], words[1])
    return words[0]


def check_decide(output: str, m: int, c: int, words, expect=None) -> str | None:
    """Check an analyze report against theorems and its own certificate.

    Images independent in the abelianization: undistorted, and H is free
    nilpotent of rank k and class c.  Every image zero: distorted (trivial
    when every generator is).  Otherwise the certificate must hold: equal
    Hirsch lengths for undistorted; for distorted, a nontrivial witness of
    the stated weight that the retraction kills.
    """
    try:
        report = json.loads(output)
    except json.JSONDecodeError:
        return "output is not JSON"
    group = PolyGroup(m, c)
    values = [evaluate(w, group, m) for w in words]
    vectors = [[g[1].get((i,), 0) for i in range(m)] for g in values]
    k = rank(vectors)
    hirsch = report["hirsch"]
    problems = []
    if hirsch["F"] != hirsch_length(m, c):
        problems.append(f"hirsch F {hirsch['F']}")
    if all(group.is_one(g) for g in values):
        if report["verdict"] != "trivial":
            problems.append(f"verdict {report['verdict']} for the trivial subgroup")
        return "; ".join(problems) or None
    if report["k"] != k:
        problems.append(f"k {report['k']} != {k}")
    if report["finite_index"] != (hirsch["H"] == hirsch["F"]):
        problems.append("finite_index disagrees with the Hirsch lengths")
    if k == len(words):
        if report["verdict"] != "undistorted":
            problems.append(f"verdict {report['verdict']} for independent images")
        if hirsch["H"] != hirsch_length(k, c):
            problems.append(f"hirsch H {hirsch['H']} != {hirsch_length(k, c)}")
    if k == 0 and report["verdict"] != "distorted":
        problems.append(f"verdict {report['verdict']} inside the derived subgroup")
    killed = completion(vectors, m)
    if report["verdict"] == "undistorted":
        if hirsch["H"] != hirsch["rH"]:
            problems.append("undistorted with H != rH")
        names = [NAMES[i] for i in killed]
        if report["retract"] is None or report["retract"]["killed"] != names:
            problems.append(f"retract {report['retract']} does not kill {names}")
    elif report["verdict"] == "distorted":
        if k and hirsch["H"] == hirsch["rH"]:
            problems.append("distorted with H == rH")
        witness = report["kernel_witness"]
        if witness is None:
            problems.append("distorted without a kernel witness")
        else:
            g = evaluate(witness["word"], group, m)
            if group.is_one(g):
                problems.append("witness is trivial")
            elif group.weight(g) != witness["weight"]:
                problems.append(f"witness weight {witness['weight']} != {group.weight(g)}")
            if k == 0:
                if witness["weight"] < 2:
                    problems.append("witness outside the derived subgroup")
            elif not group.is_one(evaluate(witness["word"], PolyGroup(m, c, killed), m)):
                problems.append("witness survives the retraction")
    else:
        problems.append(f"verdict {report['verdict']}")
    for key, value in (expect or {}).items():
        if report.get(key) != value:
            problems.append(f"{key} {report.get(key)!r} != {value!r}")
    return "; ".join(problems) or None
