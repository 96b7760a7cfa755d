#!/usr/bin/env python3
"""Generate the shipped 266-point permutation representation of J1.

Construction: the two 7x7 matrices over F_11 below generate the group.
A subgroup of order 660 is located by a deterministic word search (an
order-2 and an order-3 element whose product has order 11 and whose
closure has 660 elements); the permutation action on its 266 cosets is
the minimal faithful action.  The output lists that action's generator
images together with the expected order, and the script refuses to write
anything if the rebuilt permutation group does not have order 175560.

Run from the repository root:  python3 tools/make_j1.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallmark.perms import PermutationGroup  # noqa: E402

P = 11
DIM = 7
ORDER = 175560
INDEX = 266
STAB_ORDER = 660


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(DIM)) % P for j in range(DIM))
        for i in range(DIM)
    )


def mat_order(a, cap=25):
    m = a
    for k in range(1, cap + 1):
        if m == IDENT:
            return k
        m = matmul(m, a)
    return None


def encode(m):
    return bytes(x for row in m for x in row)


def generators():
    y = tuple(
        tuple(1 if j == (i + 1) % DIM else 0 for j in range(DIM)) for i in range(DIM)
    )
    u = [-1, -1, -3, -1, -3, -3, 2]
    v = [1, 3, 3, -2, 1, 1, 3]

    def shift(row, k):
        return row[k:] + row[:k]

    rows = [shift(u, 5), shift(v, 3), u, shift(u, 1), shift(u, 2), v, shift(v, 1)]
    z = tuple(tuple(x % P for x in row) for row in rows)
    return y, z


IDENT = tuple(tuple(1 if i == j else 0 for j in range(DIM)) for i in range(DIM))


def words_in_length_order(gens, count):
    """First `count` distinct non-identity elements reachable by short words."""
    seen = {IDENT}
    out = []
    frontier = [IDENT]
    while frontier and len(out) < count:
        nxt = []
        for m in frontier:
            for g in gens:
                w = matmul(m, g)
                if w not in seen:
                    seen.add(w)
                    out.append(w)
                    nxt.append(w)
                    if len(out) >= count:
                        return out
        frontier = nxt
    return out


def closure(gens, cap):
    elems = {IDENT}
    frontier = [IDENT]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                w = matmul(m, g)
                if w not in elems:
                    elems.add(w)
                    nxt.append(w)
                    if len(elems) > cap:
                        return None
        frontier = nxt
    return elems


def find_stabilizer(y, z):
    """Subgroup of order 660 containing t = yz^2 (an order-11 element).

    For an involution x, the closure of {x, t} has order 22, 660, or the
    whole group, so scanning involutions with a capped closure finds the
    index-266 subgroup quickly.
    """
    t = matmul(y, matmul(z, z))
    if mat_order(t) != 11:
        raise SystemExit("expected yz^2 to have order 11")
    pool = words_in_length_order((y, z), 300)
    involutions = []
    seen = set()
    for w in pool:
        o = mat_order(w, cap=40)
        if o is None or o % 2:
            continue
        x = w
        for _ in range(o // 2 - 1):
            x = matmul(x, w)
        if x not in seen:
            seen.add(x)
            involutions.append(x)
    for x in sorted(involutions, key=encode):
        sub = closure((x, t), STAB_ORDER + 40)
        if sub is not None and len(sub) == STAB_ORDER:
            return sub
    raise SystemExit("no subgroup of order %d found" % STAB_ORDER)


def coset_table(y, z, stab):
    stab = sorted(stab, key=encode)

    def canonical(g):
        return min(encode(matmul(h, g)) for h in stab)

    start = canonical(IDENT)
    index_of = {start: None}
    reps = {start: IDENT}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            rep = reps[key]
            for g in (y, z):
                w = matmul(rep, g)
                k = canonical(w)
                if k not in index_of:
                    index_of[k] = None
                    reps[k] = w
                    nxt.append(k)
        frontier = nxt
    keys = sorted(index_of)
    if len(keys) != INDEX:
        raise SystemExit("coset space has %d points, expected %d" % (len(keys), INDEX))
    number = {k: i for i, k in enumerate(keys)}
    perms = []
    for g in (y, z):
        images = [0] * INDEX
        for k in keys:
            images[number[k]] = number[canonical(matmul(reps[k], g))]
        perms.append(tuple(images))
    return perms


def main():
    y, z = generators()
    stab = find_stabilizer(y, z)
    perms = coset_table(y, z, stab)
    group = PermutationGroup(INDEX, perms)
    if group.order != ORDER:
        raise SystemExit("rebuilt group has order %d, expected %d" % (group.order, ORDER))
    doc = {
        "name": "j1",
        "degree": INDEX,
        "generators": [[i + 1 for i in p] for p in perms],
    }
    out = os.path.join(
        os.path.dirname(__file__), "..", "src", "hallmark", "data", "groups", "j1.json"
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    print("wrote %s (order %d on %d points)" % (out, group.order, INDEX))


if __name__ == "__main__":
    main()
