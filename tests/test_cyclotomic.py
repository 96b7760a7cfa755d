"""Exact cyclotomic values against a polynomial-division oracle.

The oracle (PolyCyc in tests/oracles.py) represents elements of Z[zeta_N]
as integer polynomials and decides equality by reduction modulo the N-th
cyclotomic polynomial, which it computes itself by dividing X^N - 1 by
the lower-order factors.  No code is shared with the package's
tensor-basis canonical form: expressions are built in the oracle, and
the package sees only their coefficient dicts.
"""

from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark.config import CYCLOTOMIC_FORM_CAP
from hallmark.cyclotomic import Cyc, inner
from hallmark.errors import CapacityError

from oracles import PolyCyc, cyclotomic_poly, from_cyc, poly_mul


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


def expression(n, parts):
    """(L1 * L2) + L3 in the oracle."""
    first, second, third = (PolyCyc(n, terms) for terms in parts)
    return first * second + third


@st.composite
def expressions(draw, count=1):
    n = draw(conductors)
    return (n, *[expression(n, [draw(term_lists(n)) for _ in range(3)]) for _ in range(count)])


def as_cyc(poly):
    return Cyc(poly.n, poly.terms)


def difference(x, y):
    """x - y as one value, through inner's lift to a common conductor."""
    one = Cyc.integer(1)
    return inner([x, y], [one, one], [1, -1])


class TestAgainstPolynomialOracle:
    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_zero_detection_agrees(self, bundle):
        n, poly = bundle
        assert (as_cyc(poly).canonical() == {}) == poly.is_zero()

    @given(expressions(count=2))
    @settings(max_examples=200, deadline=None)
    def test_equality_agrees(self, bundle):
        n, poly1, poly2 = bundle
        assert (as_cyc(poly1).canonical() == as_cyc(poly2).canonical()) == poly1.equals(poly2)

    @given(expressions())
    @settings(max_examples=200, deadline=None)
    def test_rational_detection_agrees(self, bundle):
        n, poly = bundle
        reduced = poly.reduced()
        if any(reduced[1:]):
            assert as_cyc(poly).as_integer() is None
        else:
            assert as_cyc(poly).as_integer() == reduced[0]


class TestKnownIdentities:
    def test_full_orbit_sums_vanish(self):
        for p in (2, 3, 5, 7, 11):
            assert Cyc(p, {e: 1 for e in range(p)}).canonical() == {}

    def test_root_order(self):
        # zeta_n^k is the integer 1 exactly when n divides k
        for n in (1, 2, 3, 4, 6, 8, 12):
            for k in range(2 * n + 1):
                assert (Cyc(n, {k: 1}).as_integer() == 1) == (k % n == 0)

    def test_cross_conductor_identities(self):
        # inner lifts the values of a sum to the lcm of their root orders
        assert Cyc(2, {1: 1}).as_integer() == -1
        assert difference(Cyc(4, {1: 1}), Cyc(4, {3: -1})).canonical() == {}
        assert difference(Cyc(6, {1: 1}), Cyc(3, {0: 1, 1: 1})).canonical() == {}
        assert inner([Cyc(8, {1: 1})], [Cyc(8, {1: 1})], [1]).as_integer() == 1
        # zeta_3 * zeta_4, as zeta_3 * conj(zeta_4^3)
        product = inner([Cyc(3, {1: 1})], [Cyc(4, {3: 1})], [1])
        assert product.n == 12
        assert product.canonical() == Cyc(12, {7: 1}).canonical()

    def test_quadratic_periods_of_fifth_roots(self):
        # eta1, eta2 are the roots of x^2 + x - 1, so both symmetric
        # functions are rational integers while the periods are not;
        # eta2 is real, so inner([eta1], [eta2]) is their product
        eta1 = Cyc(5, {1: 1, 4: 1})
        eta2 = Cyc(5, {2: 1, 3: 1})
        assert Cyc(5, {1: 1, 2: 1, 3: 1, 4: 1}).as_integer() == -1
        assert inner([eta1], [eta2], [1]).as_integer() == -1
        assert eta1.as_integer() is None

    def test_canonical_is_empty_only_for_zero(self):
        assert Cyc(12, {}).canonical() == {}
        assert Cyc(12, {5: 1}).canonical() != {}
        assert Cyc(9, {0: 1, 3: 1, 6: 1}).canonical() == {}


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
        n = lcm(*(v.n for v in xs + ys))
        want = PolyCyc(n)
        for x, y, w in columns:
            want = want + from_cyc(x, n) * from_cyc(y, n, -1) * w
        assert got.n == n
        assert got.canonical() == as_cyc(want).canonical()


# 65537 is prime; a column of A by B makes 256 by 256 term products,
# exactly the cap, and one of A by B_LONG makes 256 by 257
A = Cyc(65537, {e: 1 for e in range(256)})
B = Cyc(65537, {(-256 * e) % 65537: 1 for e in range(256)})
B_LONG = Cyc(65537, {(-256 * e) % 65537: 1 for e in range(257)})


class TestFormCap:

    def test_a_form_of_cap_size_is_built(self):
        # zeta^65536 is minus the sum of the other 65536 roots, one
        # coordinate each: exactly the cap
        canon = Cyc(65537, {65536: 1}).canonical()
        assert len(canon) == CYCLOTOMIC_FORM_CAP
        assert set(canon.values()) == {-1}

    def test_a_product_of_cap_size_is_made(self):
        assert inner([A], [B], [1]).coeffs == {e: 1 for e in range(65536)}

    def test_a_larger_product_is_refused_before_it_is_made(self):
        with pytest.raises(CapacityError) as info:
            inner([A], [B_LONG], [1])
        assert str(info.value) == (
            "a product of 256 by 257 terms in Q(zeta_65537) makes more than 65536 term "
            "products, the cyclotomic form cap"
        )
        assert (info.value.cap_name, info.value.cap_value) == (
            "cyclotomic_form", CYCLOTOMIC_FORM_CAP
        )

    def test_a_larger_term_product_in_an_inner_product_is_refused_as_in_a_product(self):
        # the second column is the refused product above; the first puts the
        # whole sum in Q(zeta_(12 * 65537)), but the error names the column's field
        with pytest.raises(CapacityError) as product:
            inner([A], [B_LONG], [1])
        with pytest.raises(CapacityError) as summed:
            inner([Cyc(3, {1: 1}), A], [Cyc(4, {1: 1}), B_LONG], [1, 1])
        assert str(summed.value) == str(product.value)
        assert (summed.value.cap_name, summed.value.cap_value) == (
            "cyclotomic_form", CYCLOTOMIC_FORM_CAP
        )

    def test_a_larger_form_is_refused_before_it_is_built(self):
        # 65539 is the next prime; the same rewrite would hold 65538 coordinates
        r = 65539
        with pytest.raises(CapacityError) as info:
            Cyc(r, {r - 1: 1}).canonical()
        assert (info.value.cap_name, info.value.cap_value) == (
            "cyclotomic_form", CYCLOTOMIC_FORM_CAP
        )
