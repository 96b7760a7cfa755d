"""The finite fields F_{p^e} of at most DEGREE_CAP elements, as tables.

Elements are integers in [0, p^e) whose base-p digits are the
coordinates in the power basis of the least monic irreducible of degree
e (constant term = least significant digit).  Sums work on the digits;
products, inverses and powers are exp/log table lookups.
"""

from __future__ import annotations

from .arith import require_prime
from .config import DEGREE_CAP
from .errors import CapacityError, PreconditionError


def _digits(a: int, p: int, n: int) -> tuple:
    """The n base-p digits of a, least significant first."""
    out = []
    for _ in range(n):
        a, c = divmod(a, p)
        out.append(c)
    return tuple(out)


def _axpy(a: int, c: int, b: int, p: int) -> int:
    """a + c*b digit by digit, for a scalar c in F_p."""
    out, place = 0, 1
    while a or b:
        out += (a % p + c * (b % p)) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def least_irreducible(p: int, e: int) -> tuple:
    """The first monic irreducible of degree e over F_p, little-endian.

    Candidates x**e + c are ordered by the base-p value of the lower
    coefficients (c_0 + c_1 p + ...), so the result is a fixed,
    implementation-independent polynomial.  A candidate is irreducible
    when it is no product of two monics of lower degree.
    """
    require_prime(p)
    if not isinstance(e, int) or e < 1:
        raise PreconditionError("irreducible degree must be positive, got %r" % (e,))
    if p**e > DEGREE_CAP:
        raise CapacityError(
            "F_{%d^%d} has more than %d elements" % (p, e, DEGREE_CAP),
            cap_name="degree",
            cap_value=DEGREE_CAP,
        )
    reducible = set()
    for d in range(1, e // 2 + 1):
        for i in range(p**d):
            g = _digits(i, p, d) + (1,)
            for j in range(p ** (e - d)):
                h = _digits(j, p, e - d) + (1,)
                prod = [0] * (e + 1)
                for s, x in enumerate(g):
                    for t, y in enumerate(h):
                        prod[s + t] = (prod[s + t] + x * y) % p
                reducible.add(tuple(prod))
    return next(
        f for f in (_digits(k, p, e) + (1,) for k in range(p**e)) if f not in reducible
    )


class IntField:
    """F_{p^e} with elements encoded as integers in [0, p^e).

    Element 0 is zero, 1 is one, and p encodes x itself (for e > 1), so
    point numberings built on this encoding are reproducible.  Fields of
    more than DEGREE_CAP elements are refused before any table is built.
    """

    __slots__ = ("p", "order", "modulus", "_exp", "_log")

    def __init__(self, p: int, e: int):
        self.modulus = least_irreducible(p, e)
        self.p = p
        self.order = q = p**e
        # x * a: shift the digits up one place, and fold the top digit back
        # in through x^e = -(c_0 + c_1 x + ... + c_{e-1} x^(e-1))
        top = q // p
        fold = sum((-c) % p * p**i for i, c in enumerate(self.modulus[:-1]))
        times_x = [_axpy(a % top * p, a // top, fold, p) for a in range(q)]
        # the powers of the least element of order q - 1, each by a Horner
        # product with the times-x table; F_{p^e}^* is cyclic, so one exists
        for g in range(1, q):
            digits = _digits(g, p, e)[::-1]
            exp, cur = [1], g
            while cur != 1:
                exp.append(cur)
                acc = 0
                for c in digits:
                    acc = _axpy(times_x[acc], c, cur, p)
                cur = acc
            if len(exp) == q - 1:
                break
        self._exp = exp
        self._log = [0] * q
        for k, a in enumerate(exp):
            self._log[a] = k

    def add(self, a: int, b: int) -> int:
        return _axpy(a, 1, b, self.p)

    def neg(self, a: int) -> int:
        return _axpy(0, self.p - 1, a, self.p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise PreconditionError("inverse of zero field element")
        return self._exp[-self._log[a] % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return self._exp[self._log[a] * k % (self.order - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def multiplicative_generator(self) -> int:
        """Least element generating the multiplicative group."""
        return self._exp[1 % (self.order - 1)]
