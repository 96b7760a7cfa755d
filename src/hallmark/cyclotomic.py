"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are sparse integer combinations of powers of a primitive n-th
root of unity, stored as {exponent: coefficient}.  Equality and zero
tests go through a canonical form built on the tensor basis: write
n = q1 * ... * qk as prime powers, represent zeta_n via the product of
prime-power roots (CRT), and reduce each prime-power factor q = r^a to
the basis {zeta_q^j : j mod r^(a-1) * r not in the top layer}, using
the relation sum_{i<r} zeta_r^i = 0.  The canonical form is the unique
representation with no coefficient on the dropped exponents, so two
values are equal exactly when their canonical dicts match.

Character-table arithmetic only needs addition, multiplication,
conjugation, rational checks, and exactness, all provided here without
any floating point.  `inner` gives the weighted inner product
sum w * x * conj(y) of two rows of values as one value: it lifts each
value once to the rows' common conductor and adds every term product
into one dict, where a chain of Cyc operations would make a new value
for each product, conjugate and partial sum.  A product of two values
in Cyc.__mul__, and each column's term products in `inner`, are refused
before the first is made when there would be more than
config.CYCLOTOMIC_FORM_CAP of them; `_check_product` holds that rule.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Sequence, Tuple

from .arith import prime_factors
from .config import CYCLOTOMIC_FORM_CAP
from .errors import CapacityError, PreconditionError


class Cyc:
    """An element of Q(zeta_n) with integer coordinates.

    Values are immutable; arithmetic normalizes lazily (dicts stay
    sparse) and canonicalizes only for equality, hashing, and queries.
    """

    __slots__ = ("n", "coeffs", "_canon")

    def __init__(self, n: int, coeffs: Dict[int, int]):
        if n < 1:
            raise PreconditionError("root order must be positive, got %d" % n)
        self.n = n
        self.coeffs = {e % n: c for e, c in coeffs.items() if c}
        self._canon = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int = 1) -> "Cyc":
        return cls(n, {})

    @classmethod
    def integer(cls, value: int, n: int = 1) -> "Cyc":
        return cls(n, {0: value})

    @classmethod
    def root(cls, n: int, power: int = 1) -> "Cyc":
        return cls(n, {power % n: 1})

    # -- ring operations ---------------------------------------------------

    def _lift(self, m: int) -> "Cyc":
        """Rewrite in Q(zeta_m) for n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise PreconditionError("cannot lift from order %d to %d" % (self.n, m))
        k = m // self.n
        return Cyc(m, {e * k: c for e, c in self.coeffs.items()})

    def _common(self, other: "Cyc") -> Tuple["Cyc", "Cyc"]:
        m = self.n * other.n // gcd(self.n, other.n)
        return self._lift(m), other._lift(m)

    def __add__(self, other) -> "Cyc":
        other = _coerce(other)
        a, b = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Cyc(a.n, out)

    def __radd__(self, other) -> "Cyc":
        return self.__add__(other)

    def __neg__(self) -> "Cyc":
        return Cyc(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Cyc":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Cyc":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyc":
        other = _coerce(other)
        a, b = self._common(other)
        n = a.n
        _check_product(a, b)
        out: Dict[int, int] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                out[e] = out.get(e, 0) + c1 * c2
        return Cyc(n, out)

    def __rmul__(self, other) -> "Cyc":
        return self.__mul__(other)

    def conjugate(self) -> "Cyc":
        return Cyc(self.n, {(-e) % self.n: c for e, c in self.coeffs.items()})

    def galois(self, k: int) -> "Cyc":
        """Apply zeta -> zeta^k; k must be a unit mod n."""
        if gcd(k, self.n) != 1:
            raise PreconditionError("galois exponent %d not a unit mod %d" % (k, self.n))
        return Cyc(self.n, {(e * k) % self.n: c for e, c in self.coeffs.items()})

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> Dict[int, int]:
        """Coordinates on the tensor basis; {} exactly for zero."""
        if self._canon is None:
            self._canon = _canonicalize(self.n, self.coeffs)
        return self._canon

    def is_zero(self) -> bool:
        return not self.canonical()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Cyc, int)):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self) -> int:
        canon = self.canonical()
        return hash((self.n, tuple(sorted(canon.items()))))

    def as_integer(self):
        """The integer this value equals, or None."""
        diffbase = self.canonical()
        if not diffbase:
            return 0
        if set(diffbase) == {0}:
            return diffbase[0]
        return None

    def is_rational_integer(self) -> bool:
        return self.as_integer() is not None

    def __repr__(self) -> str:
        canon = self.canonical()
        if not canon:
            return "Cyc(0)"
        terms = []
        for e in sorted(canon):
            c = canon[e]
            if e == 0:
                terms.append(str(c))
            else:
                terms.append("%d*z%d^%d" % (c, self.n, e))
        return "Cyc(%s)" % " + ".join(terms)


def _coerce(value) -> Cyc:
    if isinstance(value, Cyc):
        return value
    if isinstance(value, int):
        return Cyc.integer(value)
    raise PreconditionError("cannot mix cyclotomic values with %r" % (value,))


def _check_product(a: Cyc, b: Cyc) -> None:
    """Refuse a product of a by b that makes more than CYCLOTOMIC_FORM_CAP
    term products, before the first is made."""
    if len(a.coeffs) * len(b.coeffs) > CYCLOTOMIC_FORM_CAP:
        raise CapacityError(
            "a product of %d by %d terms in Q(zeta_%d) makes more than %d term "
            "products, the cyclotomic form cap"
            % (len(a.coeffs), len(b.coeffs), lcm(a.n, b.n), CYCLOTOMIC_FORM_CAP),
            cap_name="cyclotomic_form",
            cap_value=CYCLOTOMIC_FORM_CAP,
        )


def inner(xs: Sequence[Cyc], ys: Sequence[Cyc], weights: Sequence[int]) -> Cyc:
    """sum of w * x * conj(y) over the columns (x, y, w), as one value.

    Each value's exponents are lifted once to the lcm n of all the root
    orders, and every term product goes into one {exponent: coefficient}
    dict mod n.  Each column's term products are refused, as in
    Cyc.__mul__, before the first is made.
    """
    n = lcm(*(v.n for v in xs), *(v.n for v in ys))
    out: Dict[int, int] = {}
    for x, y, w in zip(xs, ys, weights):
        _check_product(x, y)
        kx, ky = n // x.n, n // y.n
        ys_lifted = [(e * ky, c) for e, c in y.coeffs.items()]
        for e1, c1 in x.coeffs.items():
            e1 *= kx
            c1 *= w
            for e2, c2 in ys_lifted:
                e = (e1 - e2) % n
                out[e] = out.get(e, 0) + c1 * c2
    return Cyc(n, out)


def _canonicalize(n: int, coeffs: Dict[int, int]) -> Dict[int, int]:
    """Reduce to the tensor basis over the prime-power factors of n.

    Each exponent e mod n splits by CRT into residues mod each prime
    power q = r^a dividing n.  The factor-q component of zeta_n^e is
    zeta_q^(e mod q); writing e mod q = d * (q/r) + s with 0 <= s < q/r,
    a term with top digit d = r-1 is eliminated via
    1 + zeta_r + ... + zeta_r^(r-1) = 0: it equals minus the sum over
    the other r-1 digits, reached by adding multiples of n/r.  These
    replacements never disturb the other factors' digits (the stride is
    a multiple of every other prime power) and never re-enter this
    factor's dropped layer, so one pass per factor leaves coordinates
    whose factor residues all avoid the dropped layer, which is a basis
    of Q(zeta_n).  Before each rewrite the form's size is checked
    against config.CYCLOTOMIC_FORM_CAP.
    """
    factors = []
    m = n
    for r in prime_factors(n):
        q = 1
        while m % r == 0:
            m //= r
            q *= r
        factors.append((r, q))
    work = {e: c for e, c in coeffs.items() if c}
    for r, q in factors:
        stride, top = n // r, q // r
        for e in list(work):
            c = work[e]
            if not c or (e % q) // top != r - 1:
                continue
            if len(work) + r - 2 > CYCLOTOMIC_FORM_CAP:
                raise CapacityError(
                    "a value in Q(zeta_%d) needs a canonical form of more than %d "
                    "coordinates, the cyclotomic form cap" % (n, CYCLOTOMIC_FORM_CAP),
                    cap_name="cyclotomic_form",
                    cap_value=CYCLOTOMIC_FORM_CAP,
                )
            del work[e]
            for k in range(1, r):
                e2 = (e + k * stride) % n
                work[e2] = work.get(e2, 0) - c
        work = {e: c for e, c in work.items() if c}
    return work
