"""Integer arithmetic: prime factors, p-parts and multiplicative orders.

Every factoring and primality question in the package goes through
prime_factors, whose trial division tries no divisor above
config.FACTOR_CAP: when what is left of n after dividing out the primes
up to the cap is at least (FACTOR_CAP + 1)**2, it raises CapacityError
instead of running on.  Group orders stay far below that, since their
prime factors are at most the degree.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

from .config import FACTOR_CAP
from .errors import CapacityError, PreconditionError


def prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime divisors of n in increasing order."""
    if n < 1:
        raise PreconditionError("prime_factors needs n >= 1, got %d" % n)
    out = []
    rest = n
    d = 2
    while d * d <= rest:
        if d > FACTOR_CAP:
            raise CapacityError(
                "factoring %d needs trial divisors above the factor cap %d" % (n, FACTOR_CAP),
                cap_name="factor",
                cap_value=FACTOR_CAP,
            )
        if rest % d == 0:
            out.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        out.append(rest)
    return tuple(out)


def is_int(value) -> bool:
    """Whether value is an int and not a bool, as every input check reads it."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)


def require_prime(p, role: str = "p") -> None:
    """Raise PreconditionError unless p is an int (not a bool) and prime."""
    if not is_int(p) or not is_prime(p):
        raise PreconditionError("%s must be a prime, got %r" % (role, p))


def check_pi(order: int, pi: Sequence[int]) -> Tuple[int, ...]:
    """The primes of pi that divide order, in increasing order.  Every
    entry must be a prime (require_prime) and none may repeat."""
    seen = []
    for p in pi:
        require_prime(p)
        if p in seen:
            raise PreconditionError("prime set repeats %d" % p)
        seen.append(p)
    return tuple(sorted(p for p in seen if order % p == 0))


def prime_power(n: int) -> Optional[Tuple[int, int]]:
    """(p, e) with n = p^e and e >= 1, or None."""
    primes = prime_factors(n) if n >= 2 else ()
    if len(primes) != 1:
        return None
    p = primes[0]
    e = 0
    while n > 1:
        n //= p
        e += 1
    return (p, e)


def require_prime_power(q) -> None:
    """Raise PreconditionError unless q is an int (not a bool) and a prime
    power."""
    if not is_int(q) or prime_power(q) is None:
        raise PreconditionError("q must be a prime power >= 2, got %r" % (q,))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def pi_part(n: int, pi: Sequence[int]) -> int:
    out = 1
    for p in pi:
        out *= p_part(n, p)
    return out


def is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; n = 1 gives 1.  The order divides phi(n)."""
    if n < 1 or (n > 1 and gcd(a, n) != 1):
        raise PreconditionError("multiplicative order needs a unit modulo n")
    phi = n
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
    return order_dividing(a, n, phi)


def order_dividing(a: int, n: int, bound: int) -> int:
    """Order of the unit a modulo n, given that it divides bound.

    The primes of bound are divided out while a still has order dividing
    the quotient.  For a prime n, bound = n - 1 needs no factoring of n.
    """
    order = bound
    for ell in prime_factors(bound):
        while order % ell == 0 and pow(a, order // ell, n) == 1:
            order //= ell
    return order
