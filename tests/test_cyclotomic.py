"""Exact cyclotomic arithmetic against a polynomial-division oracle.

The oracle represents elements of Z[zeta_N] as integer polynomials and
decides equality by reduction modulo the N-th cyclotomic polynomial,
which it computes itself by dividing X^N - 1 by the lower-order factors.
No code is shared with the package's tensor-basis canonical form.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark.config import CYCLOTOMIC_FORM_CAP
from hallmark.cyclotomic import Cyc, inner
from hallmark.errors import CapacityError, PreconditionError

# -- oracle ----------------------------------------------------------------

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
    if n not in _CYCLO_CACHE:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly, rem = poly_divmod_exact(poly, cyclotomic_poly(d))
                assert not rem
        _CYCLO_CACHE[n] = poly
    return _CYCLO_CACHE[n]


def poly_reduce(a, n):
    _, rem = poly_divmod_exact(a, cyclotomic_poly(n))
    return rem + [0] * (len(cyclotomic_poly(n)) - 1 - len(rem))


class PolyCyc:
    """zeta_N expressions as integer polynomials in X = zeta_N."""

    def __init__(self, n, coeffs):
        self.n = n
        self.coeffs = poly_trim(list(coeffs))

    @classmethod
    def root_power(cls, n, e, c=1):
        out = [0] * (e % n + 1)
        out[e % n] = c
        return cls(n, out)

    def __add__(self, other):
        out = [0] * max(len(self.coeffs), len(other.coeffs))
        for i, x in enumerate(self.coeffs):
            out[i] += x
        for i, x in enumerate(other.coeffs):
            out[i] += x
        return PolyCyc(self.n, out)

    def __mul__(self, other):
        prod = poly_mul(self.coeffs, other.coeffs)
        # fold X^k back below degree n first, so reduction mod the
        # cyclotomic factor works on bounded inputs
        folded = [0] * self.n
        for i, x in enumerate(prod):
            folded[i % self.n] += x
        return PolyCyc(self.n, folded)

    def is_zero(self):
        return not any(poly_reduce(self.coeffs, self.n))

    def equals(self, other):
        return (self + PolyCyc(other.n, [-c for c in other.coeffs])).is_zero()


def test_oracle_self_check():
    # spot values of the cyclotomic polynomials, low to high degree
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]
    for n in (5, 8, 9, 10, 15):
        parts = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                parts = poly_mul(parts, cyclotomic_poly(d))
        assert parts == [-1] + [0] * (n - 1) + [1]


# -- strategies --------------------------------------------------------------

conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15])


def term_lists(n):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.integers(min_value=-4, max_value=4)),
        min_size=0,
        max_size=4,
    )


def build_pair(n, parts):
    """Evaluate (L1 * L2) + L3 under both arithmetics."""

    def as_cyc(terms):
        out = Cyc.zero(n)
        for e, c in terms:
            out = out + c * Cyc.root(n, e)
        return out

    def as_poly(terms):
        out = PolyCyc(n, [])
        for e, c in terms:
            out = out + PolyCyc.root_power(n, e, c)
        return out

    cyc = as_cyc(parts[0]) * as_cyc(parts[1]) + as_cyc(parts[2])
    poly = as_poly(parts[0]) * as_poly(parts[1]) + as_poly(parts[2])
    return cyc, poly


@st.composite
def expressions(draw, count=1):
    n = draw(conductors)
    pairs = [build_pair(n, [draw(term_lists(n)) for _ in range(3)])
             for _ in range(count)]
    return (n, *pairs)


class TestAgainstPolynomialOracle:
    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_zero_detection_agrees(self, bundle):
        n, (cyc, poly) = bundle
        assert cyc.is_zero() == poly.is_zero()

    @given(expressions(count=2))
    @settings(max_examples=200, deadline=None)
    def test_equality_agrees(self, bundle):
        n, (cyc1, poly1), (cyc2, poly2) = bundle
        assert (cyc1 == cyc2) == poly1.equals(poly2)

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_rational_detection_agrees(self, bundle):
        n, (cyc, poly) = bundle
        reduced = poly_reduce(poly.coeffs, n)
        if any(reduced[1:]):
            assert cyc.as_integer() is None
            assert not cyc.is_rational_integer()
        else:
            constant = reduced[0] if reduced else 0
            assert cyc.as_integer() == constant
            assert cyc.is_rational_integer()


class TestRingLaws:
    @given(expressions(count=3))
    @settings(max_examples=150, deadline=None)
    def test_ring_identities(self, bundle):
        n, (x, _), (y, _), (z, _) = bundle
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + 0 == x
        assert x * 1 == x
        assert x - x == 0

    @given(expressions(count=2))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_is_an_involutive_hom(self, bundle):
        n, (x, _), (y, _) = bundle
        assert x.conjugate().conjugate() == x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(expressions(count=2), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_galois_is_a_ring_hom(self, bundle, k):
        n, (x, _), (y, _) = bundle
        if gcd(k, x.n) != 1:
            with pytest.raises(PreconditionError):
                x.galois(k)
            return
        assert (x + y).galois(k) == x.galois(k) + y.galois(k)
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
        assert x.galois(1) == x
        # conjugation is the k = -1 automorphism
        assert x.galois(x.n - 1 if x.n > 1 else 1) == x.conjugate()

    @given(conductors, st.integers(0, 20), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_galois_permutes_roots(self, n, e, k):
        if gcd(k, n) != 1:
            return
        assert Cyc.root(n, e).galois(k) == Cyc.root(n, e * k)


class TestKnownIdentities:
    def test_full_orbit_sums_vanish(self):
        for p in (2, 3, 5, 7, 11):
            total = sum((Cyc.root(p, e) for e in range(p)), Cyc.zero(p))
            assert total.is_zero()

    def test_root_order(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            power = Cyc.integer(1)
            for _ in range(n):
                power = power * Cyc.root(n)
            assert power == 1

    def test_cross_conductor_identities(self):
        assert Cyc.root(2) == -1
        assert Cyc.root(4) + Cyc.root(4, 3) == 0
        assert Cyc.root(6) == 1 + Cyc.root(3)
        assert Cyc.root(8) * Cyc.root(8, 7) == 1
        assert Cyc.root(3) * Cyc.root(4) == Cyc.root(12, 7)

    def test_quadratic_periods_of_fifth_roots(self):
        # eta1, eta2 are the roots of x^2 + x - 1, so both symmetric
        # functions are rational integers while the periods are not
        eta1 = Cyc.root(5) + Cyc.root(5, 4)
        eta2 = Cyc.root(5, 2) + Cyc.root(5, 3)
        assert eta1 + eta2 == -1
        assert eta1 * eta2 == -1
        assert eta1.as_integer() is None
        assert eta1.galois(2) == eta2

    def test_canonical_is_empty_only_for_zero(self):
        assert Cyc.zero(12).canonical() == {}
        assert Cyc.root(12, 5).canonical() != {}
        orbit = sum((Cyc.root(9, 3 * e) for e in range(3)), Cyc.zero(9))
        assert orbit.canonical() == {}

    def test_hash_respects_equality(self):
        assert hash(Cyc.root(6)) == hash(1 + Cyc.root(6, 2))
        assert len({Cyc.root(8, e) for e in range(16)}) == 8


# conductors of the inner-product property: primes, prime powers and a
# product of two primes, so that the columns of one sum mix conductors
inner_conductors = st.sampled_from([1, 3, 4, 5, 8, 15, 16, 31])


@st.composite
def sparse_values(draw):
    n = draw(inner_conductors)
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                 st.integers(min_value=-3, max_value=3), max_size=4))
    return Cyc(n, terms)


class TestInner:
    @given(st.lists(st.tuples(sparse_values(), sparse_values(),
                              st.integers(min_value=-5, max_value=60)),
                    min_size=1, max_size=6))
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_matches_the_sum_of_products(self, columns):
        xs, ys, ws = zip(*columns)
        got = inner(xs, ys, ws)
        want = sum(x * y.conjugate() * w for x, y, w in columns)
        assert got.n == want.n
        assert got.canonical() == want.canonical()


class TestFormCap:
    def test_a_form_of_cap_size_is_built(self):
        # 65537 is prime and zeta^65536 is minus the sum of the other 65536
        # roots, one coordinate each: exactly the cap
        r = 65537
        canon = Cyc.root(r, r - 1).canonical()
        assert len(canon) == CYCLOTOMIC_FORM_CAP
        assert set(canon.values()) == {-1}

    def test_a_product_of_cap_size_is_made(self):
        # 256 x 256 term products is exactly the cap
        a = Cyc(65537, {e: 1 for e in range(256)})
        b = Cyc(65537, {256 * e: 1 for e in range(256)})
        assert (a * b).coeffs == {e: 1 for e in range(65536)}

    def test_a_larger_product_is_refused_before_it_is_made(self):
        a = Cyc(65537, {e: 1 for e in range(256)})
        b = Cyc(65537, {256 * e: 1 for e in range(257)})
        with pytest.raises(CapacityError) as info:
            a * b
        assert (info.value.cap_name, info.value.cap_value) == (
            "cyclotomic_form", CYCLOTOMIC_FORM_CAP
        )

    def test_a_larger_term_product_in_an_inner_product_is_refused_as_in_a_product(self):
        # the second column is the refused product above; the first puts the
        # whole sum in Q(zeta_(12 * 65537)), but the error names the column's field
        a = Cyc(65537, {e: 1 for e in range(256)})
        b = Cyc(65537, {(-256 * e) % 65537: 1 for e in range(257)})
        with pytest.raises(CapacityError) as product:
            a * b.conjugate()
        with pytest.raises(CapacityError) as summed:
            inner([Cyc.root(3), a], [Cyc.root(4), b], [1, 1])
        assert str(summed.value) == str(product.value)
        assert "Q(zeta_65537)" in str(summed.value)
        assert (summed.value.cap_name, summed.value.cap_value) == (
            product.value.cap_name, product.value.cap_value
        ) == ("cyclotomic_form", CYCLOTOMIC_FORM_CAP)

    def test_a_larger_form_is_refused_before_it_is_built(self):
        # 65539 is the next prime; the same rewrite would hold 65538 coordinates
        r = 65539
        with pytest.raises(CapacityError) as info:
            Cyc.root(r, r - 1).canonical()
        assert (info.value.cap_name, info.value.cap_value) == (
            "cyclotomic_form", CYCLOTOMIC_FORM_CAP
        )
