"""Exact values in cyclotomic fields Q(zeta_n), as a character table check
uses them.

Elements are sparse integer combinations of powers of a primitive n-th
root of unity, stored as {exponent: coefficient}.  Zero and rationality
tests go through a canonical form built on the tensor basis: write
n = q1 * ... * qk as prime powers, represent zeta_n via the product of
prime-power roots (CRT), and reduce each prime-power factor q = r^a to
the basis {zeta_q^j : j mod r^(a-1) * r not in the top layer}, using
the relation sum_{i<r} zeta_r^i = 0.  The canonical form is the unique
representation with no coefficient on the dropped exponents, so a value
is zero exactly when its canonical dict is empty, and an integer c
exactly when that dict is {0: c} (or empty, for c = 0).

A table check needs nothing else from the field but `inner`, the
weighted inner product sum w * x * conj(y) of two rows of values as one
value: it lifts each value once to the rows' common conductor and adds
every term product into one dict.  There is no floating point.  Each
column's term products are refused before the first is made when there
would be more than config.CYCLOTOMIC_FORM_CAP of them, and a canonical
form of more coordinates than that is refused before it is built.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Dict, Sequence, Tuple

from .arith import prime_factors
from .config import CYCLOTOMIC_FORM_CAP
from .errors import CapacityError


class Cyc:
    """An element of Q(zeta_n) with integer coordinates.

    Values are immutable; the canonical form is built on the first query
    and kept.
    """

    __slots__ = ("n", "coeffs", "_canon")

    def __init__(self, n: int, coeffs: Dict[int, int]):
        self.n = n
        self.coeffs = {e % n: c for e, c in coeffs.items() if c}
        self._canon = None

    @classmethod
    def integer(cls, value: int) -> "Cyc":
        return cls(1, {0: value})

    def canonical(self) -> Dict[int, int]:
        """Coordinates on the tensor basis; {} exactly for zero."""
        if self._canon is None:
            self._canon = _canonicalize(self.n, self.coeffs)
        return self._canon

    def as_integer(self):
        """The integer this value equals, or None."""
        canon = self.canonical()
        return canon.get(0, 0) if canon.keys() <= {0} else None


def inner(xs: Sequence[Cyc], ys: Sequence[Cyc], weights: Sequence[int]) -> Cyc:
    """sum of w * x * conj(y) over the columns (x, y, w), as one value.

    Each value's exponents are lifted once to the lcm n of all the root
    orders, and every term product goes into one {exponent: coefficient}
    dict mod n.  A column of x by y is refused before its first term
    product when it would make more than CYCLOTOMIC_FORM_CAP of them.
    """
    n = lcm(*(v.n for v in xs), *(v.n for v in ys))
    out: Dict[int, int] = {}
    for x, y, w in zip(xs, ys, weights):
        if len(x.coeffs) * len(y.coeffs) > CYCLOTOMIC_FORM_CAP:
            raise CapacityError(
                "a product of %d by %d terms in Q(zeta_%d) makes more than %d term "
                "products, the cyclotomic form cap"
                % (len(x.coeffs), len(y.coeffs), lcm(x.n, y.n), CYCLOTOMIC_FORM_CAP),
                cap_name="cyclotomic_form",
                cap_value=CYCLOTOMIC_FORM_CAP,
            )
        kx, ky = n // x.n, n // y.n
        ys_lifted = [(e * ky, c) for e, c in y.coeffs.items()]
        for e1, c1 in x.coeffs.items():
            e1 *= kx
            c1 *= w
            for e2, c2 in ys_lifted:
                e = (e1 - e2) % n
                out[e] = out.get(e, 0) + c1 * c2
    return Cyc(n, out)


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> Tuple[Tuple[int, int], ...]:
    """The pairs (r, q) of n's primes r and the full powers q = r^a dividing n."""
    factors = []
    for r in prime_factors(n):
        q = r
        while n % (q * r) == 0:
            q *= r
        factors.append((r, q))
    return tuple(factors)


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
    against config.CYCLOTOMIC_FORM_CAP.  The factors of each n are found
    once per process.
    """
    work = {e: c for e, c in coeffs.items() if c}
    for r, q in _prime_powers(n):
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
