"""Seeded inputs of the benchmark's workloads.

A workload is a list of ops; each op is one `nildist` command line, run
in-process, plus what the checker needs to know about it.  The same seed
gives the same ops.  Draws are stratified (a fixed count per group and
class) so that every seed asks for the same amount of each kind of work and
only the words change.

Why these workloads:

* ball-bfs: `measure` tables.  Many tiny low-class polynomials go through
  the ball BFS, `to_coordinates` and the member filter; elimination is close
  to zero.  F(2,2) [a,b] is cyclic, so the subgroup BFS is bypassed;
  F(2,3) a [a,b] runs the subgroup BFS; F(3,2) [a,b] c has rank 3, so 6
  steps per element.
* decide: `analyze`.  Subgroup elimination does almost all the work and
  there is no ball.  It also holds the known failing input of the
  preimage-word blow-up, which must show as a failed op.
* nf-deep: `nf`, `mul`, `comm` and `coords` on long words near the Hirsch
  cap: the same polynomial code as ball-bfs, but few huge polynomials in
  place of millions of small ones.  Word expansion shows here too.
"""

from __future__ import annotations

import random

from oracle import NAMES, exponent_sums, rank

WORKLOADS = ("ball-bfs", "decide", "nf-deep")

# (m, c, radius, words, expected rows: "heisenberg" or a file name).  Each
# table takes 1-2 s, so a run holds several passes to take medians over.
BALL_TABLES = (
    (2, 2, 10, ("[a,b]",), "heisenberg"),
    (2, 3, 6, ("a", "[a,b]"), "ball_f23_r6.json"),
    (3, 2, 5, ("[a,b]", "c"), "ball_f32_r5.json"),
)

# Seeded draws stay below class 5 and at two unconstrained generators: above
# that, one draw takes 0.1-8 s or ends in MemoryError, at a rate that varies
# by seed, so no seed-to-seed comparison would hold.  Class 5-6 elimination
# and the MemoryError are measured by the fixed catalog below instead.
DECIDE_GROUPS = ((2, 3), (2, 4), (3, 2), (3, 3))
DECIDE_CLASSES = (("independent", (1, 2)), ("derived", (1, 2, 3)), ("free", (1, 2)))
DECIDE_PER_CELL = 16  # ops per (group, class, generator count)

# Fixed analyze inputs: the four decision-catalog cases of the acceptance
# suite, a slow class-6 input, and the input whose preimage words blow up
# (it ends in MemoryError under the worker's memory ceiling).
DECIDE_CATALOG = (
    (2, 2, ("[a,b]",), {"verdict": "distorted", "cyclic_exponent": 2}),
    (2, 2, ("a^2[a,b]^3",), {"verdict": "undistorted"}),
    (2, 2, ("a^2", "b", "[a,b]"), {"verdict": "undistorted", "finite_index": True}),
    (2, 2, ("a", "[a,b]"), {"verdict": "distorted", "normal": True}),
    (2, 6, ("a^2 b", "[a,b]^3 b^2"), {}),
    (3, 3, ("a^2b[a,c]", "b^3c^-1", "[a,b,c]a"), {}),
)

# (m, c, ops per kind); F(2,7) ops take about 0.3 s, the others 30 ms.  At
# least 100 ops per pass leave ten op times above the 90th percentile.
NF_GROUPS = ((2, 7, 4), (5, 3, 11), (3, 4, 11))
NF_KINDS = ("nf", "mul", "comm", "coords")

# Inside the parser's exponent cap, but the expanded word has 2 * 10^10
# letters: a MemoryError at word expansion.
NESTED_POWER = (2, 7, "((a b)^100000)^100000")


def _letter(rng, m, max_exp=1):
    name = NAMES[rng.randrange(m)]
    e = rng.choice([v for v in range(-max_exp, max_exp + 1) if v])
    return name if e == 1 else f"{name}^{e}"


def _short(rng, m, lo, hi):
    return " ".join(_letter(rng, m) for _ in range(rng.randint(lo, hi)))


def _decide_factor(rng, m, derived):
    if derived or rng.random() < 0.3:
        u, v = _short(rng, m, 1, 2), _short(rng, m, 1, 2)
        e = rng.choice((1, 1, -1, 2))
        return f"[{u},{v}]" if e == 1 else f"[{u},{v}]^{e}"
    return _letter(rng, m, 2)


def _decide_word(rng, m, derived=False):
    count = rng.randint(1, 2)
    return " ".join(_decide_factor(rng, m, derived) for _ in range(count))


def _decide_gens(rng, m, cls, n):
    if cls == "independent":
        while True:
            gens = [_decide_word(rng, m) for _ in range(n)]
            if rank([exponent_sums(w, m) for w in gens]) == n:
                return gens
    return [_decide_word(rng, m, derived=cls == "derived") for _ in range(n)]


def _chain(rng, m, n):
    """n letters, each on another generator than the one before, so the
    word never cancels and its powers stay dense."""
    letters, last = [], None
    for _ in range(n):
        i = rng.choice([j for j in range(m) if j != last])
        letters.append(NAMES[i] if rng.random() < 0.5 else f"{NAMES[i]}^-1")
        last = i
    return " ".join(letters)


def _nf_word(rng, m):
    # one shape and length (190 letters) for every word, so ops of one cell
    # cost about the same: two powers of 3-letter words around a power of a
    # nested commutator; only the letters and the signs are drawn
    u, x = _chain(rng, m, 3), _chain(rng, m, 3)
    v, w, y = (_chain(rng, m, 2) for _ in range(3))
    q, e, r = (rng.choice((-1, 1)) * k for k in (25, 2, 25))
    return f"({u})^{q} [{v},{w},{y}]^{e} ({x})^{r}"


def _argv(kind, m, c, words, extra=()):
    return [kind, "-m", str(m), "-c", str(c), *extra, *words]


def build(workload: str, seed: int) -> dict:
    """Ops and presentations for one workload; pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "ball-bfs":
        for m, c, radius, words, expected in rng.sample(BALL_TABLES, len(BALL_TABLES)):
            ops.append({
                "kind": "measure", "m": m, "c": c, "words": list(words),
                "radius": radius, "expected": expected,
                "argv": _argv("measure", m, c, words, ("--radius", str(radius))),
            })
    elif workload == "decide":
        for m, c in DECIDE_GROUPS:
            for cls, counts in DECIDE_CLASSES:
                for n in counts:
                    for _ in range(DECIDE_PER_CELL):
                        words = _decide_gens(rng, m, cls, n)
                        ops.append({"kind": "analyze", "m": m, "c": c, "words": words,
                                    "class": cls, "argv": _argv("analyze", m, c, words)})
        for m, c, words, expect in DECIDE_CATALOG:
            ops.append({"kind": "analyze", "m": m, "c": c, "words": list(words),
                        "class": "catalog", "expect": expect,
                        "argv": _argv("analyze", m, c, words)})
        rng.shuffle(ops)
    elif workload == "nf-deep":
        for m, c, count in NF_GROUPS:
            for kind in NF_KINDS:
                for _ in range(count):
                    n = 2 if kind in ("mul", "comm") else 1
                    words = [_nf_word(rng, m) for _ in range(n)]
                    ops.append({"kind": kind, "m": m, "c": c, "words": words,
                                "argv": _argv(kind, m, c, words)})
        m, c, word = NESTED_POWER
        ops.append({"kind": "nf", "m": m, "c": c, "words": [word],
                    "argv": _argv("nf", m, c, [word])})
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for i, op in enumerate(ops):
        op["id"] = i
    presentations = sorted({(op["m"], op["c"]) for op in ops})
    return {"workload": workload, "seed": seed, "ops": ops,
            "presentations": [list(p) for p in presentations]}
