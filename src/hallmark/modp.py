"""Reduction of cyclotomic integers modulo a prime.

For a conductor N and a prime p, write N = p^a * m with p not dividing
m.  Any ring map from Z[zeta_N] onto a field of characteristic p kills
zeta's p-power part and sends zeta_N to a root of the m-th cyclotomic
polynomial mod p, which lives in F_{p^d} for d the order of p mod m.
CycReducer realizes one such map concretely: the field is
F_p[t]/(least_irreducible(p, d)), and zeta_N^e |-> u^(e mod m), where u
is the first element of exact order m in _root_of_order's base-p scan
of that field.  This pins the same map on every run, so reduced values
are comparable across calls and across processes.  Which root u is
chosen does not matter for block partitions: the maps for different
roots differ by a Galois automorphism, and p-blocks are Galois-stable.
"""

from __future__ import annotations

from .arith import divisors, multiplicative_order, prime_factors, require_prime
from .config import FIELD_DEGREE_CAP
from .cyclotomic import Cyc
from .errors import CapacityError, PreconditionError
from .gf import FField, add, divmod_poly, least_irreducible, mul, trim

__all__ = ["CycReducer", "cyclotomic_mod"]


def _mobius(n: int) -> int:
    primes = prime_factors(n)
    if any(n % (r * r) == 0 for r in primes):
        return 0
    return (-1) ** len(primes)


def cyclotomic_mod(m: int, p: int) -> tuple:
    """The m-th cyclotomic polynomial with coefficients reduced mod p."""
    if m < 1:
        raise PreconditionError("cyclotomic index must be positive")
    num, den = (1,), (1,)
    for d in divisors(m):
        mu = _mobius(m // d)
        if mu == 0:
            continue
        binom = tuple([p - 1] + [0] * (d - 1) + [1])  # x^d - 1
        if mu == 1:
            num = mul(num, binom, p)
        else:
            den = mul(den, binom, p)
    quo, rem = divmod_poly(num, den, p)
    if rem:
        raise PreconditionError("cyclotomic polynomial division left a remainder")
    return quo


def _root_of_order(field: FField, m: int) -> tuple:
    """Element of multiplicative order exactly m, by deterministic scan.

    Candidates a are taken in the base-p integer encoding of their
    coefficients; a^((order-1)/m) lands in the order-m subgroup, and only
    the prime factors of m are needed to certify the exact order, so the
    group order itself is never factored.
    """
    cofactor = (field.order - 1) // m
    prime_divs = prime_factors(m)
    for code in range(2, field.order):
        digits, rest = [], code
        while rest:
            digits.append(rest % field.p)
            rest //= field.p
        b = field.pow(tuple(digits), cofactor)
        if b != (1,) and all(field.pow(b, m // ell) != (1,) for ell in prime_divs):
            return b
    raise PreconditionError("no element of the requested order")  # m = 1 has no witness


class CycReducer:
    """Ring map Z[zeta_N] -> F_{p^d} fixed by the conductor and the prime.

    The modulus is least_irreducible(p, d) for d the order of p mod m (a
    CapacityError when d exceeds config.FIELD_DEGREE_CAP), and zeta_m goes
    to the first element of exact order m in _root_of_order's scan (to 1
    when m = 1).  reduce() accepts plain ints and Cyc values
    whose conductor divides N; images are little-endian coefficient tuples
    in F_p[t]/(modulus), so they hash and compare directly.  Powers of the
    root are computed when a value first asks for them, so m does not
    bound the work.
    """

    __slots__ = ("conductor", "p", "m", "field", "modulus", "_root", "_powers")

    def __init__(self, conductor: int, p: int):
        if conductor < 1:
            raise PreconditionError("conductor must be positive")
        require_prime(p)
        self.conductor = conductor
        self.p = p
        m = conductor
        while m % p == 0:
            m //= p
        self.m = m
        degree = multiplicative_order(p, m)
        if degree > FIELD_DEGREE_CAP:
            raise CapacityError(
                "roots of unity of order %d mod %d need a field of degree %d, above the "
                "field degree cap %d" % (m, p, degree, FIELD_DEGREE_CAP),
                cap_name="field_degree",
                cap_value=FIELD_DEGREE_CAP,
            )
        self.modulus = least_irreducible(p, degree)
        self.field = FField(p, self.modulus)
        self._root = (1,) if m == 1 else _root_of_order(self.field, m)
        self._powers: dict = {}

    def _power(self, k: int) -> tuple:
        u = self._powers.get(k)
        if u is None:
            u = self._powers[k] = self.field.pow(self._root, k)
        return u

    def reduce(self, value) -> tuple:
        if isinstance(value, int):
            return trim((value % self.p,))
        if not isinstance(value, Cyc):
            raise PreconditionError("reduce expects an int or a Cyc value")
        if self.conductor % value.n != 0:
            raise PreconditionError(
                "value conductor %d does not divide %d" % (value.n, self.conductor)
            )
        stride = self.conductor // value.n
        out = ()
        for e, c in sorted(value.canonical().items()):
            term = tuple(c * x % self.p for x in self._power(e * stride % self.m))
            out = add(out, trim(term), self.p)
        return out
