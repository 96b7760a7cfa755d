"""Reduction of cyclotomic integers mod p, and multiplicative orders mod n.

CycReducer is checked against the ring-map axioms it exists to satisfy,
with products and sums of images taken back in Q(zeta_m), and against
the separability of x^m - 1 mod p.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark.arith import multiplicative_order
from hallmark.cyclotomic import Cyc
from hallmark.errors import PreconditionError
from hallmark.modp import CycReducer

from test_cyclotomic import cyclotomic_poly, term_lists


_REDUCERS = {}


def reducer(n, p):
    if (n, p) not in _REDUCERS:
        _REDUCERS[n, p] = CycReducer(n, p)
    return _REDUCERS[n, p]


def divisors_of(n):
    return st.sampled_from([d for d in range(1, n + 1) if n % d == 0])


@st.composite
def reduction_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]))
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def value(conductor):
        out = Cyc.zero(conductor)
        for e, c in draw(term_lists(conductor)):
            out = out + c * Cyc.root(conductor, e)
        return out

    return n, p, value(n), value(draw(divisors_of(n)))


def representative(image, m):
    """The value of Q(zeta_m) whose coordinates are the image's."""
    return Cyc(m, dict(image))


class TestCycReducer:
    @given(reduction_cases())
    @settings(max_examples=150, deadline=None)
    def test_is_a_ring_map(self, case):
        # the reducer at conductor m sends zeta_m^e to itself, so it reduces
        # the representatives' sum and product in Z[zeta_m]/p
        n, p, a, b = case
        red = reducer(n, p)
        inner = reducer(red.m, p)
        ra, rb = representative(red.reduce(a), red.m), representative(red.reduce(b), red.m)
        assert red.reduce(a + b) == inner.reduce(ra + rb)
        assert red.reduce(a * b) == inner.reduce(ra * rb)

    @given(reduction_cases(), st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_integers_and_scalars(self, case, k):
        n, p, a, _ = case
        red = reducer(n, p)
        inner = reducer(red.m, p)
        assert red.reduce(k) == (((0, k % p),) if k % p else ())
        assert red.reduce(k) == red.reduce(Cyc.integer(k, n))
        assert red.reduce(k + a) == inner.reduce(k + representative(red.reduce(a), red.m))
        assert red.reduce(k * a) == inner.reduce(k * representative(red.reduce(a), red.m))
        assert red.reduce(a - a) == ()

    def test_p_power_part_collapses(self):
        # reduction mod p factors through zeta^(p-part) -> 1
        assert reducer(12, 2).reduce(Cyc.root(4)) == reducer(12, 2).reduce(1)
        assert reducer(12, 3).reduce(Cyc.root(3)) == reducer(12, 3).reduce(1)
        assert reducer(12, 2).reduce(Cyc.root(12)) == reducer(12, 2).reduce(
            Cyc.root(12, 1 + 4 * 3)
        )

    def test_image_of_root_has_full_prime_to_p_order(self):
        # zeta_n^k reduces to 1 exactly when the p'-part m of n divides k
        for n, p, m in [(5, 2, 5), (8, 7, 8), (12, 5, 12), (7, 3, 7), (6, 5, 6),
                        (12, 2, 3), (6, 3, 2)]:
            red = reducer(n, p)
            assert red.m == m
            one = red.reduce(1)
            for k in range(1, 2 * n + 1):
                assert (red.reduce(Cyc.root(n, k)) == one) == (k % m == 0)

    def test_root_image_is_a_cyclotomic_root(self):
        # the image of zeta_m is a root of Phi_m in Z[zeta_m]/p, and x^m - 1
        # has no repeated root mod p, so zeta_m^k and 1 stay apart for
        # 0 < k < m, and so do any two of the m roots
        for n, p, m in [(2, 3, 2), (6, 3, 2), (8, 7, 8), (15, 2, 15), (12, 5, 12),
                        (7440, 3, 2480), (211, 2, 211)]:
            red = reducer(n, p)
            assert red.m == m
            images = [red.reduce(Cyc.root(m, k)) for k in range(m)]
            if m <= 15:
                phi = sum(
                    (c * Cyc.root(m, i) for i, c in enumerate(cyclotomic_poly(m))),
                    Cyc.zero(m),
                )
                assert red.reduce(phi) == ()
            one = red.reduce(1)
            assert images[0] == one
            assert all(image != one for image in images[1:])
            assert len(set(images)) == m
            assert red.reduce(Cyc.root(m, m)) == one

    def test_equal_values_reduce_equally(self):
        red = reducer(6, 5)
        assert red.reduce(Cyc.root(6)) == red.reduce(1 + Cyc.root(3))
        orbit = sum((Cyc.root(7, e) for e in range(7)), Cyc.zero(7))
        assert CycReducer(7, 2).reduce(orbit) == ()

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            CycReducer(0, 3)
        # unchecked, p = 1 never leaves the p-part loop, p = 0 divides by
        # zero, and p = 4 builds arithmetic over Z/4, which is no field
        for n, p in [(6, 1), (6, 0), (12, 4)]:
            with pytest.raises(PreconditionError):
                CycReducer(n, p)
        with pytest.raises(PreconditionError):
            reducer(6, 5).reduce(Cyc.root(4))
        with pytest.raises(PreconditionError):
            reducer(6, 5).reduce("zeta")


class TestMultiplicativeOrder:
    @given(st.integers(1, 60), st.integers(-120, 120))
    @settings(max_examples=200, deadline=None)
    def test_defining_property(self, n, a):
        if n > 1 and gcd(a, n) != 1:
            with pytest.raises(PreconditionError):
                multiplicative_order(a, n)
            return
        order = multiplicative_order(a, n)
        assert pow(a, order, n) % n == 1 % n
        assert all(pow(a, j, n) != 1 for j in range(1, order)) or n == 1

    def test_rejects_bad_modulus(self):
        with pytest.raises(PreconditionError):
            multiplicative_order(2, 0)
