#!/usr/bin/env python3
"""Generate the shipped 13-point permutation representation of PSL(3, 3).

SL(3, 3) is generated by a transvection and a signed cycle; its center is
trivial, so the action on the 13 projective points of F_3^3 is faithful
with image PSL(3, 3) of order 5616.  Points are numbered by lexicographic
order of their canonical vectors (first nonzero coordinate scaled to 1).

Run from the repository root:  python3 tools/make_psl33.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallmark.perms import PermutationGroup  # noqa: E402

P = 3
DIM = 3
ORDER = 5616


def matvec(a, x):
    return tuple(sum(a[i][k] * x[k] for k in range(DIM)) % P for i in range(DIM))


def canon(x):
    for c in x:
        if c:
            inv = pow(c, P - 2, P)
            return tuple(t * inv % P for t in x)
    return None


def main():
    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    points = sorted(
        {
            canon((a, b, c))
            for a in range(P)
            for b in range(P)
            for c in range(P)
            if (a, b, c) != (0, 0, 0)
        }
    )
    if len(points) != 13:
        raise SystemExit("expected 13 projective points, got %d" % len(points))
    number = {pt: i for i, pt in enumerate(points)}
    perms = [
        tuple(number[canon(matvec(m, pt))] for pt in points)
        for m in (transvection, cycle)
    ]
    group = PermutationGroup(13, perms)
    if group.order != ORDER:
        raise SystemExit("built group has order %d, expected %d" % (group.order, ORDER))
    doc = {
        "name": "psl3_3",
        "degree": 13,
        "generators": [[i + 1 for i in p] for p in perms],
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "src", "hallmark", "data", "groups", "psl3_3.json"
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    print("wrote %s (order %d on 13 points)" % (out, ORDER))


if __name__ == "__main__":
    main()
