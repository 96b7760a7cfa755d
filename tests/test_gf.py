"""Finite fields F_{p^e} encoded as integers.

The modulus, the arithmetic and the generator of every field of order at
most 256 are checked against the schoolbook polynomial arithmetic and the
brute-force irreducibility test of tests/oracles.py; the frozen values
below were worked by hand.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hallmark import gf
from hallmark.arith import prime_power
from hallmark.config import DEGREE_CAP
from hallmark.errors import CapacityError, PreconditionError
from hallmark.gf import IntField, least_irreducible

PRIME_POWERS = [q for q in range(2, 257) if prime_power(q)]


def digits(a, p, e):
    """The e base-p digits of a, constant term first: a's coordinates."""
    return tuple(a // p**i % p for i in range(e))


def number(cs, p):
    return sum(c * p**i for i, c in enumerate(cs))


def pairs(q):
    """Every pair up to q = 32; above that a fixed sample."""
    if q <= 32:
        return [(a, b) for a in range(q) for b in range(q)]
    rng = random.Random(q)
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_modulus_is_the_least_irreducible(q):
    p, e = prime_power(q)
    f = least_irreducible(p, e)
    assert IntField(p, e).modulus == f
    assert len(f) == e + 1 and f[-1] == 1
    assert oracles.is_irreducible(f, p)
    # every monic candidate of smaller base-p value is reducible
    for k in range(number(f[:-1], p)):
        assert not oracles.is_irreducible(digits(k, p, e) + (1,), p)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_arithmetic_matches_the_oracle(q):
    p, e = prime_power(q)
    field = IntField(p, e)
    f = field.modulus
    one = digits(1, p, e)
    for a, b in pairs(q):
        da, db = digits(a, p, e), digits(b, p, e)
        assert field.mul(a, b) == number(oracles.poly_mul_mod(da, db, f, p), p)
        assert field.add(a, b) == number([(x + y) % p for x, y in zip(da, db)], p)
        assert field.neg(a) == number([-x % p for x in da], p)
        if a:
            assert oracles.poly_mul_mod(da, digits(field.inv(a), p, e), f, p) == one


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_generator_is_the_least_element_of_order_q_minus_1(q):
    p, e = prime_power(q)
    field = IntField(p, e)
    one = digits(1, p, e)

    def order(a):
        da = digits(a, p, e)
        cur, n = da, 1
        while cur != one:
            cur, n = oracles.poly_mul_mod(cur, da, field.modulus, p), n + 1
        return n

    g = field.multiplicative_generator()
    assert order(g) == q - 1
    assert all(order(a) < q - 1 for a in range(1, g))


class TestFieldBasics:
    def test_least_irreducible_is_deterministic(self):
        assert least_irreducible(2, 1) == (0, 1)
        assert least_irreducible(2, 2) == (1, 1, 1)
        assert least_irreducible(3, 2) == (1, 0, 1)

    def test_f4_arithmetic(self):
        field = IntField(2, 2)
        t = 2
        assert field.mul(t, t) == 3  # t^2 = t + 1
        assert field.inv(t) == 3
        assert field.pow(t, 3) == 1
        with pytest.raises(PreconditionError):
            field.inv(0)

    @given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
    @settings(max_examples=150, deadline=None)
    def test_f25_field_laws(self, a, b, c):
        field = IntField(5, 2)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
        assert field.frobenius(field.frobenius(a)) == a

    def test_int_field_encoding(self):
        field = IntField(2, 2)
        assert field.mul(2, 2) == 3  # t^2 = t + 1 under the digit encoding
        assert field.multiplicative_generator() == 2
        assert IntField(5, 1).mul(3, 4) == 2

    def test_f2_generator_is_one(self):
        assert IntField(2, 1).multiplicative_generator() == 1

    def test_above_the_degree_cap(self, monkeypatch):
        # 2^11 elements: refused before any table is built
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(gf, "_digits", no_table)
        monkeypatch.setattr(gf, "_axpy", no_table)
        with pytest.raises(CapacityError) as info:
            IntField(2, 11)
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    def test_input_validation(self):
        for p, e in [(4, 1), (1, 2), (3, 0)]:
            with pytest.raises(PreconditionError):
                IntField(p, e)
