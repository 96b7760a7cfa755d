"""Reduction of cyclotomic integers modulo a prime.

For a conductor N and a prime p, write N = p^a * m with p not dividing
m.  CycReducer realizes the ring map Z[zeta_N] -> Z[zeta_m]/p that sends
zeta_N to zeta_m: it is well defined because Phi_N is congruent to
Phi_m^phi(p^a) mod p, so the p-power part of zeta_N collapses to 1.
Images are read on cyclotomic's tensor basis, which is a Z-basis of
Z[zeta_m] (each dropped root is minus a sum of kept ones), so two values
agree in Z[zeta_m]/p exactly when their coordinates agree mod p.  No
field is built and nothing is searched for.

Z[zeta_m]/p is a product of copies of F_{p^d}, d the order of p mod m,
so equality there is equality under every ring map onto a field of
characteristic p.  Any two such maps differ by a Galois automorphism and
p-blocks are Galois-stable, so block partitions read from one map, or
from all of them at once as here, are the same.
"""

from __future__ import annotations

from .cyclotomic import Cyc

__all__ = ["CycReducer"]


class CycReducer:
    """Ring map Z[zeta_N] -> Z[zeta_m]/p fixed by the conductor N and the
    prime p, which the caller has checked.

    reduce() takes a Cyc value whose conductor divides N; an image is the
    sorted tuple of (exponent, coefficient mod p) pairs of its nonzero
    tensor-basis coordinates in Q(zeta_m), so images hash and compare
    directly and zero maps to ().
    """

    __slots__ = ("conductor", "p", "m")

    def __init__(self, conductor: int, p: int):
        self.conductor = conductor
        self.p = p
        m = conductor
        while m % p == 0:
            m //= p
        self.m = m

    def reduce(self, value: Cyc) -> tuple:
        stride, m, p = self.conductor // value.n, self.m, self.p
        image: dict = {}
        for e, c in value.coeffs.items():
            k = e * stride % m
            image[k] = image.get(k, 0) + c
        canon = Cyc(m, image).canonical()
        return tuple((e, c % p) for e, c in sorted(canon.items()) if c % p)
