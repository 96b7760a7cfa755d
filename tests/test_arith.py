"""Integer helpers: prime factors under the factor cap, p-parts, orders."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark.arith import (
    is_power_of,
    is_prime,
    multiplicative_order,
    order_dividing,
    p_part,
    pi_part,
    prime_factors,
    prime_power,
    require_prime,
)
from hallmark.config import FACTOR_CAP
from hallmark.errors import CapacityError, PreconditionError

positive = st.integers(min_value=1, max_value=10 ** 9)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


class TestIntegerHelpers:
    @given(positive)
    def test_prime_factors_are_prime_divisors(self, n):
        factors = prime_factors(n)
        assert list(factors) == sorted(set(factors))
        rest = n
        for p in factors:
            assert n % p == 0
            assert all(p % d for d in range(2, min(p, 1000)))
            while rest % p == 0:
                rest //= p
        assert rest == 1

    @given(positive, small_primes)
    def test_p_part_splits_n(self, n, p):
        a, b = p_part(n, p), n // p_part(n, p)
        assert a * b == n
        assert b % p != 0
        assert is_power_of(a, p) or a == 1

    @given(positive, st.sets(small_primes, min_size=1, max_size=3))
    def test_pi_part_splits_n(self, n, pi):
        pi = sorted(pi)
        a, b = pi_part(n, pi), n // pi_part(n, pi)
        assert a * b == n
        assert all(b % p for p in pi)
        assert set(prime_factors(a)) <= set(pi)

    def test_is_power_of(self):
        assert is_power_of(8, 2)
        assert is_power_of(3, 3)
        assert is_power_of(1, 2)  # p^0
        assert not is_power_of(12, 2)
        assert not is_power_of(0, 2)


class TestPrimes:
    def test_is_prime_matches_a_sieve(self):
        limit = 10 ** 4
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, 100):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(range(i * i, limit, i))
        assert [n for n in range(limit) if is_prime(n)] == [
            n for n in range(limit) if sieve[n]
        ]

    @pytest.mark.parametrize("bad", [True, 4, 1, "3"])
    def test_require_prime_rejects(self, bad):
        with pytest.raises(PreconditionError, match="^s must be a prime"):
            require_prime(bad, "s")

    def test_require_prime_accepts(self):
        require_prime(2)
        require_prime(65537, "q")

    @pytest.mark.parametrize(
        "n, want",
        [(1, None), (2, (2, 1)), (8, (2, 3)), (12, None), (31, (31, 1)),
         (32, (2, 5)), (36, None)],
    )
    def test_prime_power(self, n, want):
        assert prime_power(n) == want


class TestFactorCap:
    def test_cap_stops_a_large_prime(self):
        with pytest.raises(CapacityError) as info:
            prime_factors(2 ** 61 - 1)
        assert info.value.cap_name == "factor"
        assert info.value.cap_value == FACTOR_CAP
        with pytest.raises(CapacityError):
            is_prime(2 ** 61 - 1)

    def test_cap_fires_only_when_needed(self):
        # the smaller factor lies below the cap; the cofactor left then
        # needs no divisor above sqrt(2**31)
        assert prime_factors((2 ** 19 - 1) * (2 ** 31 - 1)) == (2 ** 19 - 1, 2 ** 31 - 1)
        assert prime_factors(10 ** 9 + 7) == (10 ** 9 + 7,)

    def test_order_of_a_large_unit_needs_no_loop_to_the_order(self):
        # 2 has order (n - 1) / 2, about 5.5e11, modulo this prime near 2**40
        n = 1099511627689
        order = multiplicative_order(2, n)
        assert order == (n - 1) // 2
        assert pow(2, order, n) == 1
        assert all(pow(2, order // ell, n) != 1 for ell in prime_factors(order))

    def test_order_dividing_a_known_bound(self):
        # modulo a prime n the order divides n - 1, and n is not factored
        n = 1099511627689
        assert order_dividing(2, n, n - 1) == multiplicative_order(2, n) == (n - 1) // 2
        assert order_dividing(3, 7, 6) == 6
        assert order_dividing(2, 7, 6) == 3
        assert order_dividing(1, 7, 6) == 1


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
