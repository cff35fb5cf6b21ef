"""Write the expected Delta(n) tables under perfbench/expected/.

Usage (from the root of the repository): python3 perfbench/make_expected.py

Each table comes from nildist's measure_distortion and is kept only when an
independent computation agrees: the ambient ball from tests/oracles.py's
element_ball (keyed by elements, not coordinates) and subgroup lengths from
a breadth-first search over the subgroup generators, whose images come from
tests/oracles.py's naive_embed.  Run it once after changing a table; the
benchmark itself only reads the files.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from nildist import Presentation, induced_basis, measure_distortion, member, parse_word  # noqa: E402
from nildist.magnus import GroupElement, inverse, multiply  # noqa: E402
from oracles import element_ball, naive_embed  # noqa: E402

from workloads import BALL_TABLES  # noqa: E402


def subgroup_lengths(p, gens, targets, cap):
    """Lengths over gens of the targets found within cap layers."""
    steps = []
    for word in gens:
        g = GroupElement(p, naive_embed(word, p.m, p.c))
        steps += [g, inverse(g)]
    start = GroupElement(p, {(): 1})
    lengths = {start: 0}
    frontier = [start]
    found = {start} & targets
    for layer in range(1, cap + 1):
        if found == targets:
            break
        new = []
        for g in frontier:
            for s in steps:
                h = multiply(g, s)
                if h not in lengths:
                    lengths[h] = layer
                    new.append(h)
                    if h in targets:
                        found.add(h)
        frontier = new
    return {g: lengths[g] for g in found}


def main():
    for m, c, radius, words, expected in BALL_TABLES:
        if expected == "heisenberg":
            continue
        p = Presentation(m, c)
        gens = [parse_word(w, p) for w in words]
        table = measure_distortion(gens, p, radius)
        rows = [[r.n, r.delta, r.exact] for r in table.rows]

        ball = element_ball(p, radius)
        basis = induced_basis(gens, p)
        members = {g for g in ball if member(basis, g)}
        hlen = subgroup_lengths(p, gens, members, 4 * radius + 4)
        if set(hlen) != members:
            raise SystemExit(f"{words}: {len(members) - len(hlen)} members not reached")
        oracle_rows = []
        for n in range(1, radius + 1):
            delta = max((hlen[g] for g in members if ball[g] <= n), default=0)
            oracle_rows.append([n, delta, True])
        if oracle_rows != rows:
            raise SystemExit(f"{words}: nildist {rows} != oracle {oracle_rows}")
        path = os.path.join(HERE, "expected", expected)
        with open(path, "w") as fh:
            json.dump({"m": m, "c": c, "radius": radius, "words": list(words),
                       "ball_elements": len(ball), "members": len(members),
                       "rows": rows}, fh)
            fh.write("\n")
        print(f"{path}: {len(ball)} ball elements, {len(members)} members, agree")


if __name__ == "__main__":
    main()
