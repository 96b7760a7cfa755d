"""Independent brute-force oracles.

Everything here recomputes group-theoretic facts from first principles
with plain tuples, dicts, and sets, sharing no arithmetic with the
package.  Slow on purpose; use only at desk scale.
"""

from itertools import combinations, combinations_with_replacement, product


def compose(a, b):
    """Image tuple of `apply a, then b`."""
    return tuple(b[a[i]] for i in range(len(a)))


def inverse(a):
    out = [0] * len(a)
    for i, image in enumerate(a):
        out[image] = i
    return tuple(out)


def identity(degree):
    return tuple(range(degree))


def element_order(a):
    n = 1
    cur = a
    ident = identity(len(a))
    while cur != ident:
        cur = compose(cur, a)
        n += 1
    return n


def close(gens, degree):
    """All products of the generators, as a set of image tuples."""
    ident = identity(degree)
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_generators(rows, degree):
    """Generators picked from sorted rows: each row outside the closure of
    those picked so far, until the closure has as many elements as rows."""
    picked = []
    closure = {identity(degree)}
    for row in rows:
        if len(closure) >= len(rows):
            break
        if row not in closure:
            picked.append(row)
            closure = close(picked, degree)
    return picked


def conjugacy_classes(elements):
    """Partition a group (set of image tuples) into conjugacy classes."""
    elements = set(elements)
    remaining = set(elements)
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {compose(compose(inverse(g), x), g) for g in elements}
        classes.append(orbit)
        remaining -= orbit
    return classes


def centralizer(elements, x):
    x = tuple(x)
    return {g for g in elements if compose(g, x) == compose(x, g)}


def is_abelian(elements):
    elements = list(elements)
    return all(
        compose(a, b) == compose(b, a) for a, b in combinations(elements, 2)
    )


def two_generated_subgroup_orders(elements, degree):
    """Orders of all subgroups generated by at most two elements.

    Complete for subgroup orders whose groups are all 2-generated,
    which covers every order p, p^2, pq, and p^2*q; callers must not
    conclude absence for orders outside that range.
    """
    elements = sorted(elements)
    orders = {1}
    singles = {}
    for a in elements:
        sub = frozenset(close([a], degree))
        singles[a] = sub
        orders.add(len(sub))
    for a, b in combinations(elements, 2):
        if b in singles[a]:
            continue
        orders.add(len(close([a, b], degree)))
    return orders


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def sylow_climb(elements, p):
    """The Sylow p-subgroup that the deterministic normalizer climb reaches.

    The reference for the package's climb: start from the least element
    of greatest p-power order, then adjoin the least p-element outside the
    current subgroup that normalizes it, until the order is the p-part of
    the group order.  A p-element here is one whose order divides that
    p-part, found by raising to p-th powers.
    """
    elements = sorted(elements)
    degree = len(elements[0])
    ident = identity(degree)
    target = p_part(len(elements), p)

    def p_order(x):
        order, y = 1, x
        while y != ident:
            if order == target:
                return 0
            z = y
            for _ in range(p - 1):
                z = compose(z, y)
            order, y = order * p, z
        return order

    orders = {x: o for x in elements for o in [p_order(x)] if o > 1}
    if not orders:
        return {ident}
    top = max(orders.values())
    gens = [min(x for x, o in orders.items() if o == top)]
    current = close(gens, degree)
    while len(current) < target:
        gens.append(min(
            x for x in orders
            if x not in current
            and all(compose(compose(inverse(x), s), x) in current for s in gens)
        ))
        current = close(gens, degree)
    return current


def osima_blocks(table, p):
    """The p-blocks of a character table by Osima's criterion.

    chi and psi are linked when the sum over the p-regular classes K of
    |K| * chi(g_K) * conj(psi(g_K)) is not zero; the blocks are the
    connected components of that relation (Navarro, Characters and Blocks
    of Finite Groups, ch. 3).  The sums are exact cyclotomic values (the
    table's own Cyc arithmetic, the one thing shared with the package):
    no central character is formed and nothing is reduced mod p.  Blocks
    are listed by least member, each in increasing order.
    """
    regular = [k for k, c in enumerate(table.classes) if c.element_order % p]
    rows = table.rows
    count = len(rows)
    owner = list(range(count))

    def root(i):
        while owner[i] != i:
            i = owner[i]
        return i

    for i, j in combinations(range(count), 2):
        total = sum(rows[i][k] * rows[j][k].conjugate() * table.classes[k].size for k in regular)
        if not total.is_zero():
            owner[max(root(i), root(j))] = min(root(i), root(j))
    blocks = {}
    for i in range(count):
        blocks.setdefault(root(i), []).append(i)
    return [blocks[r] for r in sorted(blocks)]


def poly_mul_mod(a, b, f, p):
    """a * b mod the monic f over F_p, on little-endian coefficient tuples
    of length deg f: a schoolbook product, then long division."""
    e = len(f) - 1
    prod = [0] * (2 * e)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, e - 1, -1):
        c = prod[top]
        for j, fc in enumerate(f):
            prod[top - e + j] = (prod[top - e + j] - c * fc) % p
    return tuple(prod[:e])


def is_irreducible(f, p):
    """Whether the monic f is irreducible over F_p, by brute force:
    F_p[x]/f has no two nonzero residues whose product is zero.  A unit
    multiple of a zero divisor is one too, so both are taken monic."""
    e = len(f) - 1
    zero = (0,) * e
    monic = [a for a in product(range(p), repeat=e) if a != zero and [c for c in a if c][-1] == 1]
    return all(
        poly_mul_mod(a, b, f, p) != zero for a, b in combinations_with_replacement(monic, 2)
    )
