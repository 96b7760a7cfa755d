"""Reduction of cyclotomic integers mod p.

CycReducer is checked against the ring-map axioms it exists to satisfy,
with sums and products of values and of images taken in the polynomial
oracle (PolyCyc in tests/oracles.py), and against the separability of
x^m - 1 mod p.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark.cyclotomic import Cyc
from hallmark.modp import CycReducer

from oracles import PolyCyc, cyclotomic_poly
from test_cyclotomic import as_cyc, term_lists


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
        return PolyCyc(conductor, draw(term_lists(conductor)))

    return n, p, value(n), value(draw(divisors_of(n)))


def image(red, value):
    """The image of a PolyCyc under red, as a PolyCyc of Q(zeta_m)."""
    return PolyCyc(red.m, red.reduce(as_cyc(value)))


class TestCycReducer:
    @given(reduction_cases())
    @settings(max_examples=150, deadline=None)
    def test_is_a_ring_map(self, case):
        # the reducer at conductor m sends zeta_m^e to itself, so it reduces
        # the images' sum and product in Z[zeta_m]/p; b's conductor divides
        # n, and reduce reads it there, while the oracle lifts it to n
        n, p, a, b = case
        red = reducer(n, p)
        inner = reducer(red.m, p)
        ra, rb = image(red, a), image(red, b)
        b = b.substitute(n, n // b.n)
        assert red.reduce(as_cyc(a + b)) == inner.reduce(as_cyc(ra + rb))
        assert red.reduce(as_cyc(a * b)) == inner.reduce(as_cyc(ra * rb))

    @given(reduction_cases(), st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_integers_and_scalars(self, case, k):
        n, p, a, _ = case
        red = reducer(n, p)
        inner = reducer(red.m, p)
        assert red.reduce(Cyc.integer(k)) == (((0, k % p),) if k % p else ())
        assert red.reduce(Cyc.integer(k)) == red.reduce(Cyc(n, {0: k}))
        ra = image(red, a)
        assert red.reduce(as_cyc(a + PolyCyc(n, [(0, k)]))) == inner.reduce(
            as_cyc(ra + PolyCyc(red.m, [(0, k)]))
        )
        assert red.reduce(as_cyc(a * k)) == inner.reduce(as_cyc(ra * k))
        assert red.reduce(as_cyc(a + a * -1)) == ()

    def test_p_power_part_collapses(self):
        # reduction mod p factors through zeta^(p-part) -> 1
        one = Cyc.integer(1)
        assert reducer(12, 2).reduce(Cyc(4, {1: 1})) == reducer(12, 2).reduce(one)
        assert reducer(12, 3).reduce(Cyc(3, {1: 1})) == reducer(12, 3).reduce(one)
        # zeta_12 * zeta_4 = zeta_12^4
        assert reducer(12, 2).reduce(Cyc(12, {1: 1})) == reducer(12, 2).reduce(Cyc(12, {4: 1}))

    def test_image_of_root_has_full_prime_to_p_order(self):
        # zeta_n^k reduces to 1 exactly when the p'-part m of n divides k
        for n, p, m in [(5, 2, 5), (8, 7, 8), (12, 5, 12), (7, 3, 7), (6, 5, 6),
                        (12, 2, 3), (6, 3, 2)]:
            red = reducer(n, p)
            assert red.m == m
            one = red.reduce(Cyc.integer(1))
            for k in range(1, 2 * n + 1):
                assert (red.reduce(Cyc(n, {k: 1})) == one) == (k % m == 0)

    def test_root_image_is_a_cyclotomic_root(self):
        # the image of zeta_m is a root of Phi_m in Z[zeta_m]/p, and x^m - 1
        # has no repeated root mod p, so zeta_m^k and 1 stay apart for
        # 0 < k < m, and so do any two of the m roots
        for n, p, m in [(2, 3, 2), (6, 3, 2), (8, 7, 8), (15, 2, 15), (12, 5, 12),
                        (7440, 3, 2480), (211, 2, 211)]:
            red = reducer(n, p)
            assert red.m == m
            images = [red.reduce(Cyc(m, {k: 1})) for k in range(m)]
            if m <= 15:
                phi = Cyc(m, dict(enumerate(cyclotomic_poly(m))))
                assert red.reduce(phi) == ()
            one = red.reduce(Cyc.integer(1))
            assert images[0] == one
            assert all(image != one for image in images[1:])
            assert len(set(images)) == m
            assert red.reduce(Cyc(m, {m: 1})) == one

    def test_equal_values_reduce_equally(self):
        red = reducer(6, 5)
        assert red.reduce(Cyc(6, {1: 1})) == red.reduce(Cyc(3, {0: 1, 1: 1}))
        orbit = Cyc(7, {e: 1 for e in range(7)})
        assert CycReducer(7, 2).reduce(orbit) == ()
