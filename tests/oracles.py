"""Independent oracles used by the test suite.

Everything here is deliberately written against different representations
than the package uses: polynomial arithmetic on graded layers of tuple-keyed
monomials instead of one flat dictionary on integer keys (read and written
here from the key layout alone), the integer Heisenberg group as coordinate
triples, necklace counting by rotation instead of the Mobius formula, the
Witt numbers by the Mobius sum over every d <= k with Mobius read off its
defining recursion instead of the divisor pairs and trial division,
fraction-free elimination instead of Hermite reduction, the retraction and
the abelianization on letters instead of polynomials, normality by two
conjugates per letter instead of one commutator, the Mal'cev peel by
products at every weight instead of subtraction past half the class, a
Cayley-graph search that multiplies every frontier element by every step
instead of skipping the steps back to its parents, and the undistortedness
decision by two eliminations (H in F, r(H) in D) on an eliminator that
commutes every queued pair, with a witness scanned from every relation of
r(H), instead of one elimination along the pullback series that skips the
pairs of displaced entries, and word arithmetic that builds letter tuples
part by part (and substitutes them for letters) instead of straight-line
programs spelled in one stream.  Agreement between these and the package is
the point of the tests that import them.
"""

from fractions import Fraction
from itertools import groupby
from itertools import product as cartesian

from nildist.errors import CapExceededError, InternalInconsistencyError
from nildist.hall import hall_basis, to_coordinates
from nildist.magnus import commutator, embed, identity, inverse, multiply, power
from nildist.presentation import Presentation
from nildist.subgroups import (
    DEFAULT_MAX_EVENTS,
    SubgroupStandardBasis,
    _Eliminator,
    _Entry,
    _lead,
)
from nildist.words import Slp, free_reduce


# ----------------------------------------------------------- letter words

# Word arithmetic on letter tuples: the reference spellings that
# Slp.expand streams, and the substitution the eliminator's programs make
# unnecessary.

def invert_word(word):
    return tuple((i, -s) for i, s in reversed(word))


def word_power(word, n):
    base = word if n >= 0 else invert_word(word)
    return base * abs(n)


def commutator_word(u, v):
    return invert_word(u) + invert_word(v) + u + v


def substitute(word, replacements):
    """Map letter (j, s) to replacements[j] (inverted when s < 0)."""
    out = []
    for index, sign in word:
        piece = replacements[index]
        out.extend(piece if sign > 0 else invert_word(piece))
    return tuple(out)


def word_slp(word):
    """A letter tuple as the straight-line program that spells it: one
    power of a letter node per run of equal letters."""
    return Slp.concat(
        tuple(Slp.power(Slp.letter(i), s * len(list(run))) for (i, s), run in groupby(word))
    )


# ------------------------------------------------------------ monomial keys

# The package keys a monomial by one int.  These read and write that layout
# from its definition alone, through binary strings: a leading 1 bit, then
# one digit of max(1, (m - 1).bit_length()) bits per letter, first letter
# first.  Every comparison of GroupElement.terms with the tuple-keyed
# oracles below goes through them.

def key_bits(m):
    return max(1, (m - 1).bit_length())


def encode_monomial(mono, m):
    bits = key_bits(m)
    return int("1" + "".join(format(i, f"0{bits}b") for i in mono), 2)


def decode_monomial(key, m):
    bits, body = key_bits(m), bin(key)[3:]
    assert bin(key).startswith("0b1") and len(body) % bits == 0, key
    return tuple(int(body[j:j + bits], 2) for j in range(0, len(body), bits))


def encode_terms(poly, m):
    return {encode_monomial(mono, m): v for mono, v in poly.items()}


def decode_terms(terms, m):
    return {decode_monomial(key, m): v for key, v in terms.items()}


def tuple_terms(g):
    """g's terms as a monomial-tuple -> coefficient dict."""
    return decode_terms(g.terms, g.presentation.m)


def homogeneous(g, degree):
    """The degree-d part of g's image, keyed by monomial tuples."""
    return {mono: v for mono, v in tuple_terms(g).items() if len(mono) == degree}


# ---------------------------------------------------------------- polynomials

def _graded_one(c):
    return [{(): 1}] + [{} for _ in range(c)]


def _graded_mul(f, g, c):
    out = [{} for _ in range(c + 1)]
    for d1, layer1 in enumerate(f):
        if not layer1:
            continue
        for d2, layer2 in enumerate(g):
            if d1 + d2 > c or not layer2:
                continue
            target = out[d1 + d2]
            for m1, a in layer1.items():
                for m2, b in layer2.items():
                    key = m1 + m2
                    target[key] = target.get(key, 0) + a * b
    return [{k: v for k, v in layer.items() if v} for layer in out]


def _graded(flat, c):
    layers = [{} for _ in range(c + 1)]
    for mono, v in flat.items():
        layers[len(mono)][mono] = v
    return layers


def _flat(layers):
    flat = {}
    for layer in layers:
        flat.update(layer)
    return flat


def _graded_embed(word, m, c):
    acc = _graded_one(c)
    for index, sign in word:
        assert 0 <= index < m
        if sign > 0:
            letter = _graded_one(c)
            letter[1] = {(index,): 1}
            for d in range(2, c + 1):
                letter[d] = {}
        else:
            letter = [{(index,) * d: (-1) ** d} for d in range(c + 1)]
        acc = _graded_mul(acc, letter, c)
    return acc


def naive_embed(word, m, c):
    """Letter-by-letter expansion into degree-graded layers; returns a flat
    monomial -> coefficient dict for comparison with tuple_terms."""
    return _flat(_graded_embed(word, m, c))


def graded_product(f, g, c):
    """Truncated product of two flat polynomials, computed layer by layer."""
    return _flat(_graded_mul(_graded(f, c), _graded(g, c), c))


def graded_power(word, n, m, c):
    """Image of word^n by square-and-multiply on graded layers, starting from
    the letter-by-letter image of the word (of its inverse when n < 0)."""
    if n < 0:
        word = tuple((i, -s) for i, s in reversed(word))
        n = -n
    base = _graded_embed(word, m, c)
    acc = _graded_one(c)
    while n:
        if n & 1:
            acc = _graded_mul(acc, base, c)
        n >>= 1
        base = _graded_mul(base, base, c)
    return _flat(acc)


# ---------------------------------------------------------------- Heisenberg

# The free class-2 group on two generators is the integer Heisenberg group;
# a triple (x, y, z) stands for the unitriangular matrix with x, y above the
# diagonal and z in the corner.

HEIS_A = (1, 0, 0)
HEIS_B = (0, 1, 0)


def heis_mul(s, t):
    return (s[0] + t[0], s[1] + t[1], s[2] + t[2] + s[0] * t[1])


def heis_inv(s):
    return (-s[0], -s[1], s[0] * s[1] - s[2])


def heis_eval(word):
    t = (0, 0, 0)
    for index, sign in word:
        g = (HEIS_A, HEIS_B)[index]
        if sign < 0:
            g = heis_inv(g)
        t = heis_mul(t, g)
    return t


# ------------------------------------------------------------------ counting

def lyndon_count(m, k):
    """Number of aperiodic necklaces of length k over m colors, counted by
    picking the least rotation of every aperiodic string."""
    count = 0
    for t in cartesian(range(m), repeat=k):
        rotations = {t[i:] + t[:i] for i in range(k)}
        if len(rotations) == k and min(rotations) == t:
            count += 1
    return count


def _mobius_by_recursion(n, table={1: 1}):
    """mu(n) from sum over d | n of mu(d) = 0 for n > 1."""
    if n not in table:
        table[n] = -sum(_mobius_by_recursion(d) for d in range(1, n) if n % d == 0)
    return table[n]


def witt_every_d(m, k):
    """The Witt number W(m, k), testing every d from 1 to k as a divisor."""
    total = 0
    for d in range(1, k + 1):
        if k % d == 0:
            total += _mobius_by_recursion(d) * m ** (k // d)
    return total // k


# ------------------------------------------------------------ linear algebra

def bareiss_rank(rows):
    """Rank by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    prev = 1
    r = 0
    for col in range(m):
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n):
            for j in range(col + 1, m):
                a[i][j] = (a[i][j] * a[r][col] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        r += 1
    return r


def greedy_completion(vectors, m):
    """The unit vectors, smallest index first, that each raise the rank of
    vectors and the units taken before: the completion letters."""
    taken = []
    for j in range(m):
        unit = [int(i == j) for i in range(m)]
        if bareiss_rank([*vectors, *taken, unit]) > bareiss_rank([*vectors, *taken]):
            taken.append(unit)
    return tuple(unit.index(1) for unit in taken)


def matmul(a, b):
    """Product of two matrices given as sequences of rows, as a list of lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def fraction_det(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] * inv
            if factor:
                for j in range(col, n):
                    a[i][j] -= factor * a[col][j]
    return det


# ----------------------------------------------------------------- searching

def word_ball(presentation, gens, radius, max_elements=None):
    """Ball over the given words and their inverses, keyed by group element,
    in discovery order: a plain breadth-first search that multiplies every
    frontier element by every step.  Past max_elements elements it raises
    the CapExceededError the package raises."""
    steps = []
    for word in gens:
        g = embed(tuple(word), presentation)
        steps += [g, inverse(g)]
    lengths = {identity(presentation): 0}
    frontier = [identity(presentation)]
    for layer in range(1, radius + 1):
        new = []
        for g in frontier:
            for step in steps:
                h = multiply(g, step)
                if h not in lengths:
                    if max_elements is not None and len(lengths) >= max_elements:
                        raise CapExceededError(
                            f"ball exceeded {max_elements} elements at radius {layer}"
                        )
                    lengths[h] = layer
                    new.append(h)
        frontier = new
    return lengths


def element_ball(presentation, radius):
    """Ambient ball keyed by group elements themselves (no coordinates)."""
    return word_ball(presentation, [((i, 1),) for i in range(presentation.m)], radius)


def closure_products(gen_elements, max_factors):
    """Every product of at most max_factors generators and inverses."""
    factors = []
    for g in gen_elements:
        factors.append(g)
        factors.append(inverse(g))
    out = {identity(gen_elements[0].presentation)}
    frontier = set(out)
    for _ in range(max_factors):
        new = set()
        for g in frontier:
            for f in factors:
                h = multiply(g, f)
                if h not in out:
                    new.add(h)
        out |= new
        frontier = new
    return out


# ---------------------------------------------------------------- coordinates

def product_peel(g):
    """Mal'cev coordinates by left-multiplying the residual with b_i^-e_i at
    every weight, the abelian top of the series included."""
    basis = hall_basis(g.presentation)
    residual = g
    coords = []
    for w in range(1, g.presentation.c + 1):
        block = basis.block(w)
        part = homogeneous(residual, w)
        if not part:
            coords.extend((0,) * len(block))
            continue
        # the solver's rows are the degree-w monomials in lexicographic order
        monos = cartesian(range(g.presentation.m), repeat=w)
        vector = [part.get(mono, 0) for mono in monos]
        exponents = basis._solvers[w].solve(vector)
        if exponents is None:
            raise InternalInconsistencyError(
                f"degree-{w} part is not a combination of basic commutators"
            )
        coords.extend(exponents)
        for i, e in zip(block, exponents):
            if e:
                residual = multiply(power(basis.element(i), -e), residual)
    if not residual.is_identity():
        raise InternalInconsistencyError("nonzero residual after peeling all weights")
    return tuple(coords)


def entry_letters(presentation):
    """The letters each Hall entry holds, read off its brackets."""
    letters = []
    for entry in hall_basis(presentation).entries:
        if entry.gen is not None:
            letters.append(frozenset((entry.gen,)))
        else:
            letters.append(letters[entry.left] | letters[entry.right])
    return letters


def spread_coordinates(coords, presentation, kept):
    """The coordinates of an element of D, the subgroup the kept letters
    generate, given on D's own Hall basis, placed at the entries of F's
    Hall basis that hold only kept letters, in F's order; zero elsewhere."""
    letters = entry_letters(presentation)
    slots = [i for i, held in enumerate(letters) if held <= set(kept)]
    if len(slots) != len(coords):
        raise InternalInconsistencyError("D's Hall basis is not F's kept entries")
    spread = [0] * presentation.hirsch_length
    for i, e in zip(slots, coords):
        spread[i] = e
    return tuple(spread)


# ---------------------------------------------------------------- membership

def greedy_member(basis, g):
    """Membership by greedy pivot reduction on full coordinate vectors: peel
    every weight, reduce the first nonzero coordinate by the basis entry with
    that pivot, and start over."""
    coords = to_coordinates(g)
    while True:
        j = next((i for i, v in enumerate(coords) if v), None)
        if j is None:
            return True
        entry = basis.slot(j)
        if entry is None:
            return False
        a = entry.coords[j]
        if coords[j] % a:
            return False
        g = multiply(power(entry.element, -(coords[j] // a)), g)
        coords = to_coordinates(g)


def conjugation_normal(basis, gen_elements, presentation):
    """Normality by both conjugates a g a^-1 and a^-1 g a of every generator
    g by every ambient letter a, tested with greedy_member."""
    for g in gen_elements:
        for i in range(presentation.m):
            for sign in (1, -1):
                a = embed(((i, sign),), presentation)
                if not greedy_member(basis, multiply(multiply(a, g), inverse(a))):
                    return False
    return True


# -------------------------------------------------------------- letter level

def exponent_vector(word, m):
    """Abelianized image of a word: the exponent sum of each generator."""
    vec = [0] * m
    for index, sign in word:
        vec[index] += sign
    return vec


def retract_word(kept, word):
    """The retraction on letters: killed letters dropped, the kept letters
    (ambient indices, ascending) renumbered 0, 1, ... as the generators of
    D's own presentation."""
    renumber = {amb: i for i, amb in enumerate(kept)}
    return tuple((renumber[i], sign) for i, sign in word if i in renumber)


# ------------------------------------------------------------------ deciding

class _EveryPairEliminator(_Eliminator):
    """The package's eliminator, but every queued pair is commuted, also
    when one of its entries has since been displaced from its slot."""

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


def every_pair_basis(elements, presentation, max_events=DEFAULT_MAX_EVENTS):
    """Standard basis of the subgroup that the embedded elements generate,
    along the ambient series, from the eliminator that commutes every queued
    pair; preimage letter i stands for elements[i]."""
    eliminator = _EveryPairEliminator(presentation, max_events, _lead)
    for i, g in enumerate(elements):
        eliminator.queue.append((g, Slp.letter(i)))
    eliminator.run()
    return SubgroupStandardBasis(eliminator)


def two_elimination_decision(gens, presentation):
    """The decision's invariants by eliminating H in F and r(H) in D apart,
    as a dict: verdict, k, H, rH, finite_index, normal (by conjugates),
    cyclic_exponent, and the weight of the lightest (weight, then length)
    nontrivial element of H that a relation of r(H) spells, checked to lie
    in H and to die under r; at k = 0, of the first nontrivial generator.
    The kept letters are those outside the greedy completion of the
    generators' exponent vectors, and r(H) lives in D's own presentation,
    on the kept letters renumbered."""
    gens = [tuple(w) for w in gens]
    elements = [embed(w, presentation) for w in gens]
    if all(g.is_identity() for g in elements):
        return {"verdict": "trivial", "k": 0, "H": 0, "rH": 0, "finite_index": False,
                "normal": True, "cyclic_exponent": None, "witness_weight": None}
    m = presentation.m
    killed = greedy_completion([exponent_vector(w, m) for w in gens], m)
    kept = tuple(i for i in range(m) if i not in killed)
    basis_H = every_pair_basis(elements, presentation)
    hirsch_H = len(basis_H)
    hirsch_rH, witness = 0, None
    if not kept:
        witness = next(g.weight() for g in elements if not g.is_identity())
    else:
        names = tuple(presentation.names[i] for i in kept)
        D = Presentation(len(kept), presentation.c, names)

        def retract(word):
            return embed(retract_word(kept, word), D)

        basis_D = every_pair_basis([retract(w) for w in gens], D)
        hirsch_rH = len(basis_D)
        candidates = []
        for relation in basis_D.relations if hirsch_H != hirsch_rH else ():
            ambient = free_reduce(substitute(relation.expand(), gens))
            g = embed(ambient, presentation)
            if not g.is_identity():
                candidates.append(((g.weight(), len(ambient)), g))
        if candidates:
            (witness, _), g = min(candidates, key=lambda c: c[0])
            if not greedy_member(basis_H, g) or not retract(ambient).is_identity():
                raise InternalInconsistencyError("the scanned witness is no kernel witness")
    return {
        "verdict": "undistorted" if kept and hirsch_H == hirsch_rH else "distorted",
        "k": len(kept),
        "H": hirsch_H,
        "rH": hirsch_rH,
        "finite_index": hirsch_H == presentation.hirsch_length,
        "normal": conjugation_normal(basis_H, elements, presentation),
        "cyclic_exponent": basis_H.entries[0].element.weight() if hirsch_H == 1 else None,
        "witness_weight": witness,
    }


# ------------------------------------------------------------- random inputs

def random_word(rng, m, max_len, min_len=0):
    n = rng.randint(min_len, max_len)
    return tuple((rng.randrange(m), rng.choice((1, -1))) for _ in range(n))
