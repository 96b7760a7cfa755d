"""Pure-Python enumeration kernels.

A row is a permutation's image tuple, the same tuple that
`Permutation.images` and the stabilizer chain hold, so `pack` and
`unpack` only make sure of a tuple.  The conjugacy partition and the
centralizer and normalizer scans walk a group's full element list, which
perms builds from the stabilizer chain with `compose`; `close_group`
closes only generator lists that have no chain (the Sylow climb,
nilpotent_hall and the Hall search).  `conjugacy_partition` needs its
rows to be the sorted elements of a group: it keys each row by its
images of the points 0..L-1, with L read off rows[1], and gives the ids
a search over whole rows would give.  The compiled kernel in _kernel_cy
offers the same functions on its own row encoding; both agree after
`unpack`, and rows of equal degree sort the same way in both.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

BACKEND = "pure"


def pack(images) -> tuple:
    return tuple(images)


unpack = pack


def identity_row(degree: int) -> tuple:
    return tuple(range(degree))


def compose(a: tuple, b: tuple) -> tuple:
    """Row of `apply a, then b`."""
    if len(a) < 2:  # itemgetter of one index returns a bare item, of none fails
        return b
    return itemgetter(*a)(b)


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def order_of(a: tuple) -> int:
    seen = bytearray(len(a))
    result = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = 1
            p = a[p]
            length += 1
        result = lcm(result, length)
    return result


def close_group(gens, degree: int, cap: int):
    """Sorted closure of the generators, or None if it would exceed cap."""
    e = identity_row(degree)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def conjugacy_partition(rows, gens) -> list:
    """Class id per row; ids are numbered by least member.

    The rows must be the sorted elements of a group, so rows[0] is the
    identity and rows[1] the least other element.  If rows[1] first moves
    point b, no element but the identity fixes 0..b (it would sort below
    rows[1]), so 0..b is a base: each row is determined by its first
    L = b + 1 images, and no shorter prefix tells rows[1] from the
    identity.  The row of g^-1 x g has the prefix g[x[g^-1[i]]] for i < L,
    read with two itemgetters and no full compose.  Only the key changes:
    the search and its visiting order are those of a search over whole
    rows, so the ids are too.
    """
    if len(rows) < 2:  # one class; a trivial group has no rows[1] to read L from
        return [0] * len(rows)
    # at least 2: itemgetter of one index returns a bare item, not a tuple
    L = max(2, next(i for i, v in enumerate(rows[1]) if v != i) + 1)
    idx = {r[:L]: i for i, r in enumerate(rows)}
    steps = [(g, itemgetter(*inverse(g)[:L])) for g in gens]
    cid = [-1] * len(rows)
    c = 0
    for i in range(len(rows)):
        if cid[i] >= 0:
            continue
        cid[i] = c
        stack = [rows[i]]
        while stack:
            x = stack.pop()
            for g, pick in steps:
                j = idx[itemgetter(*pick(x))(g)]
                if cid[j] < 0:
                    cid[j] = c
                    stack.append(rows[j])
        c += 1
    return cid


def centralizer_filter(rows, xs) -> list:
    """Rows commuting with every row in xs.

    r commutes with x0 = xs[0] only if x0[r[i]] == r[x0[i]] at every point
    i, so one point that x0 moves is tested first, and only rows that pass
    are composed in full.  An x0 that fixes every point gets no test.
    """
    moved = [i for i, v in enumerate(xs[0]) if v != i] if xs else []
    if moved:
        x0, i = xs[0], moved[0]
        j = x0[i]
        rows = [r for r in rows if x0[r[i]] == r[j]]
    out = []
    for r in rows:
        for x in xs:
            if compose(r, x) != compose(x, r):
                break
        else:
            out.append(r)
    return out


def normalizer_filter(rows, sub_gens, sub_set) -> list:
    """Rows g with s^g in sub_set for every generator s.

    A cheap test rejects most rows before g is inverted: for the point x0
    with the fewest images over sub_set and the first generator s, the
    image (s^g)[x0] = g[s[g.index(x0)]] must be one of those images.
    """
    if not sub_gens:
        return list(rows)
    cols = [set(col) for col in zip(*sub_set)]
    x0 = min(range(len(cols)), key=lambda x: len(cols[x]))
    images = cols[x0]
    s0 = sub_gens[0]
    out = []
    for g in rows:
        if g[s0[g.index(x0)]] not in images:
            continue
        gi = inverse(g)
        for s in sub_gens:
            if compose(compose(gi, s), g) not in sub_set:
                break
        else:
            out.append(g)
    return out


def coset_min(n_rows, g: tuple) -> tuple:
    """Lexicographically least element of the coset N*g."""
    best = None
    for n in n_rows:
        c = compose(n, g)
        if best is None or c < best:
            best = c
    return best
