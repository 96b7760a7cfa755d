"""Independent brute-force oracles.

Everything here recomputes group-theoretic facts from first principles
with plain tuples, dicts, and sets, sharing no arithmetic with the
package.  Cyclotomic integers are integer polynomials (PolyCyc), read in
Z[zeta_N] by division by the N-th cyclotomic polynomial.  Slow on
purpose; use only at desk scale.
"""

from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm


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
    of Finite Groups, ch. 3).  No central character is formed and nothing
    is reduced mod p.  The sums are exact and in PolyCyc: each column's
    term is taken at the lcm of its two values' root orders, and the
    terms are added up per root order.  Cyclotomic fields of pairwise
    coprime conductors are linearly disjoint over Q, so when the orders
    other than 1 are pairwise coprime, as in every shipped table (the
    assertion checks it), a sum is zero exactly when each order's part is
    a rational integer and these integers cancel.  Each part is reduced
    in a field of degree at most 30, where psl2_31's sums taken whole
    would lie in Q(zeta_7440), of degree 1920.  Blocks are listed by
    least member, each in increasing order.
    """
    regular = [k for k, c in enumerate(table.classes) if c.element_order % p]
    rows = table.rows
    count = len(rows)
    owner = list(range(count))

    def root(i):
        while owner[i] != i:
            i = owner[i]
        return i

    def linked(i, j):
        parts = {}
        for k in regular:
            x, y = rows[i][k], rows[j][k]
            n = lcm(x.n, y.n)
            term = from_cyc(x, n) * from_cyc(y, n, -1) * table.classes[k].size
            parts[n] = parts[n] + term if n in parts else term
        orders = [n for n in parts if n > 1]
        assert all(gcd(a, b) == 1 for a, b in combinations(orders, 2)), orders
        constant = 0
        for part in parts.values():
            reduced = part.reduced()
            if any(reduced[1:]):
                return True
            constant += reduced[0]
        return constant != 0

    for i, j in combinations(range(count), 2):
        if linked(i, j):
            owner[max(root(i), root(j))] = min(root(i), root(j))
    blocks = {}
    for i in range(count):
        blocks.setdefault(root(i), []).append(i)
    return [blocks[r] for r in sorted(blocks)]


# -- cyclotomic integers as polynomials ---------------------------------------

_CYCLO_CACHE = {}


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod_exact(a, b):
    """Divide integer polynomials; b must be monic."""
    a = poly_trim(list(a))
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coeff = a[-1]
        q[shift] = coeff
        for i, x in enumerate(b):
            a[i + shift] -= coeff * x
        poly_trim(a)
    return q, a


def cyclotomic_poly(n):
    """Phi_n, low degree first: X^n - 1 divided by every Phi_d, d | n, d < n."""
    if n not in _CYCLO_CACHE:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly, rem = poly_divmod_exact(poly, cyclotomic_poly(d))
                assert not rem
        _CYCLO_CACHE[n] = poly
    return _CYCLO_CACHE[n]


def poly_reduce(a, n):
    """a mod Phi_n, low degree first, padded to deg Phi_n coefficients."""
    _, rem = poly_divmod_exact(a, cyclotomic_poly(n))
    return rem + [0] * (len(cyclotomic_poly(n)) - 1 - len(rem))


class PolyCyc:
    """An element of Z[zeta_N] as an integer polynomial in X = zeta_N.

    The polynomial is kept mod X^N - 1 as {exponent: coefficient}, which
    stays sparse at any N; only the zero test, by division by Phi_N, writes
    it out densely.
    """

    def __init__(self, n, terms=()):
        """sum of c * X^e over the (e, c) pairs of terms, mod X^n - 1."""
        self.n = n
        out = {}
        for e, c in terms:
            out[e % n] = out.get(e % n, 0) + c
        self.terms = {e: c for e, c in out.items() if c}

    def __add__(self, other):
        assert self.n == other.n
        return PolyCyc(self.n, [*self.terms.items(), *other.terms.items()])

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyCyc(self.n, [(e, c * other) for e, c in self.terms.items()])
        assert self.n == other.n
        return PolyCyc(self.n, [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ])

    def substitute(self, m, k):
        """f(X^k) mod X^m - 1.  For k = m / n it is the same value of
        Z[zeta_m]; for m = n and k = -1 its complex conjugate; for k a unit
        mod n its image under zeta_n -> zeta_n^k."""
        return PolyCyc(m, [(e * k, c) for e, c in self.terms.items()])

    def reduced(self):
        """The remainder mod Phi_n: its deg Phi_n coefficients, low first."""
        dense = [0] * self.n
        for e, c in self.terms.items():
            dense[e] = c
        return poly_reduce(dense, self.n)

    def is_zero(self):
        return not any(self.reduced())

    def equals(self, other):
        return (self + other * -1).is_zero()


def from_cyc(value, n, k=1):
    """A package value of root order dividing n as a PolyCyc of Z[zeta_n],
    with zeta -> zeta^k applied (k = -1: its complex conjugate).  Only the
    value's exponents and coefficients are read."""
    return PolyCyc(value.n, value.coeffs.items()).substitute(n, k * (n // value.n))


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
