"""Dense univariate polynomial arithmetic over prime fields.

Polynomials are trimmed tuples of ints in [0, p), little-endian: entry i
is the coefficient of x**i, and the zero polynomial is the empty tuple.
Multiplication packs coefficients into one big integer (64 bits apiece)
so Python's long multiplication does the convolution; this keeps the
worst inputs used here (degree a few thousand, p below 2**16) fast
without pulling in an external library.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .arith import prime_factors
from .errors import PreconditionError

_WORD = 8  # bytes per packed coefficient
if array("Q").itemsize != _WORD:
    raise ImportError("packed arithmetic needs 8-byte array('Q') items")
# array("Q") uses native byte order; packed integers are little-endian
_BIG_ENDIAN = sys.byteorder == "big"


def trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a: tuple, b: tuple, p: int) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append((x - y) % p)
    return trim(out)


def mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    # A convolution coefficient is at most min(len) * (p-1)^2; keep it
    # below one 64-bit word so packed digits never carry.
    if min(len(a), len(b)) * (p - 1) * (p - 1) >= 1 << (8 * _WORD):
        raise PreconditionError("polynomial product too large for packed multiply")
    return _unpack(_pack(a) * _pack(b), len(a) + len(b) - 1, p)


def _pack(cs) -> int:
    """Coefficients in [0, 2**64) as one integer, 64 bits apiece, constant term lowest."""
    words = array("Q", cs)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(x: int, n: int, p: int) -> tuple:
    """The n packed words of x, each reduced mod p, as a trimmed polynomial."""
    words = array("Q", x.to_bytes(n * _WORD, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return trim([w % p for w in words])


def reduction_rows(f: tuple, p: int) -> list:
    """Packed rows x^(deg+i) mod f, enough to reduce any product of two
    residues; f must be monic."""
    deg = len(f) - 1
    if deg * (p - 1) * (p - 1) + p >= 1 << (8 * _WORD):
        raise PreconditionError("modulus too large for packed reduction")
    base = [(-c) % p for c in f[:-1]]
    rows = []
    cur = list(base)
    for _ in range(max(deg - 1, 0)):
        rows.append(_pack(cur))
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            for j in range(deg):
                cur[j] = (cur[j] + top * base[j]) % p
    return rows


def mul_mod(a: tuple, b: tuple, f: tuple, p: int, rows: list) -> tuple:
    """a*b mod f using rows from reduction_rows(f, p)."""
    deg = len(f) - 1
    prod = mul(a, b, p)
    if len(prod) <= deg:
        return prod
    # no word of the sum reaches 2**64 (see the guard in reduction_rows),
    # so the packed addition never carries between coefficients
    acc = _pack(prod[:deg])
    for i in range(deg, len(prod)):
        if prod[i]:
            acc += prod[i] * rows[i - deg]
    return _unpack(acc, deg, p)


def divmod_poly(a: tuple, b: tuple, p: int) -> tuple:
    """Quotient and remainder of a by b."""
    if not b:
        raise PreconditionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c * inv_lead % p
        quo[i - db] = q
        for j, bc in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - q * bc) % p
    return trim(quo), trim(rem)


def mod_poly(a: tuple, b: tuple, p: int) -> tuple:
    return divmod_poly(a, b, p)[1]


def monic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def gcd_poly(a: tuple, b: tuple, p: int) -> tuple:
    while b:
        a, b = b, mod_poly(a, b, p)
    return monic(a, p)


def is_irreducible(f: tuple, p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p."""
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise PreconditionError("irreducibility test requires a monic polynomial")
    if n == 1:
        return True
    field = FField(p, f)
    x = (0, 1)
    if field.pow(x, p**n) != x:
        return False
    for ell in prime_factors(n):
        h = sub(field.pow(x, p ** (n // ell)), x, p)
        if gcd_poly(h, f, p) != (1,):
            return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(p: int, d: int) -> tuple:
    """The first monic irreducible of degree d over F_p.

    Candidates x**d + c are ordered by the base-p value of the lower
    coefficient word (c_0 + c_1 p + ...), so the result is a fixed,
    implementation-independent polynomial.
    """
    if d < 1:
        raise PreconditionError("irreducible degree must be positive")
    if d == 1:
        return (0, 1)
    for k in range(p**d):
        low, rest = [], k
        for _ in range(d):
            low.append(rest % p)
            rest //= p
        f = tuple(low) + (1,)
        if is_irreducible(f, p):
            return f
    raise PreconditionError("no irreducible polynomial found")  # unreachable


class IntField:
    """F_{p^e} with elements encoded as integers in [0, p^e).

    The encoding reads an element's coordinates in the power basis of the
    first irreducible of degree e as base-p digits (constant term = least
    significant).  Element 0 is zero, 1 is one, and p encodes x itself, so
    point numberings built on this encoding are reproducible.  Products,
    powers and inverses are those of the FField on the same modulus.
    """

    __slots__ = ("p", "order", "modulus", "_field")

    def __init__(self, p: int, e: int):
        self.p = p
        self.order = p**e
        self.modulus = least_irreducible(p, e) if e > 1 else (0, 1)
        self._field = FField(p, self.modulus)

    def _dec(self, a: int) -> tuple:
        digits = []
        while a:
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def _enc(self, cs: tuple) -> int:
        out = 0
        for c in reversed(cs):
            out = out * self.p + c
        return out

    def add(self, a: int, b: int) -> int:
        return self._enc(add(self._dec(a), self._dec(b), self.p))

    def neg(self, a: int) -> int:
        return self._enc(tuple(-c % self.p for c in self._dec(a)))

    def mul(self, a: int, b: int) -> int:
        return self._enc(self._field.mul(self._dec(a), self._dec(b)))

    def inv(self, a: int) -> int:
        return self._enc(self._field.inv(self._dec(a)))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 0 if k else 1
        return self._enc(self._field.pow(self._dec(a), k % (self.order - 1)))

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def multiplicative_generator(self) -> int:
        """Least element generating the multiplicative group."""
        n = self.order - 1
        prime_divs = prime_factors(n)
        for a in range(2, self.order):
            if all(self.pow(a, n // ell) != 1 for ell in prime_divs):
                return a
        raise PreconditionError("no multiplicative generator found")  # unreachable


class FField:
    """Arithmetic in F_p[x]/(modulus), elements as reduced polynomials."""

    __slots__ = ("p", "modulus", "degree", "_rows")

    def __init__(self, p: int, modulus: tuple):
        self.p = p
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self._rows = reduction_rows(modulus, p)

    @property
    def order(self) -> int:
        return self.p**self.degree

    def mul(self, a: tuple, b: tuple) -> tuple:
        return mul_mod(a, b, self.modulus, self.p, self._rows)

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            raise PreconditionError("negative exponent in field power")
        result = (1,)
        base = mod_poly(a, self.modulus, self.p)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: tuple) -> tuple:
        if not a:
            raise PreconditionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def element_order(self, a: tuple, bound: int) -> int:
        """Multiplicative order of a, given it divides bound."""
        if self.pow(a, bound) != (1,):
            raise PreconditionError("element order does not divide the stated bound")
        order = bound
        for ell in prime_factors(bound):
            while order % ell == 0 and self.pow(a, order // ell) == (1,):
                order //= ell
        return order
