"""Runtime caps.

Every bound that stops a computation from running away lives here, one
per bound, as a module constant, and is checked once, where its quantity
is made: a layer that makes a bounded quantity through another relies on
that layer's check.  The element cap is the only one a caller passes: an
int, the `caps` argument of the library's entry points.  Every layer
hands it on unchanged, and a missing one (None) is resolved only where
it is read, by default_caps(): the HALLMARK_CAP_ELEMENTS environment
variable, which must then be a positive integer, or ELEMENT_CAP when
that is unset.  The CLI always passes default_caps(), and no CLI option
raises it.
"""

from __future__ import annotations

import os

from .errors import MalformedInputError

# No group of more than this many elements is enumerated (the default of
# the element cap; see default_caps).
ELEMENT_CAP = 5_000_000

# Permutations above this degree are rejected at construction; so are
# groups and coset actions that would act on more points.
DEGREE_CAP = 1024

# Trial division (arith.prime_factors) tries no divisor above this.
FACTOR_CAP = 2**20

# A canonical form in Q(zeta_n) (cyclotomic._canonicalize) holds at most
# this many coordinates; each rewrite of a term is checked before it is
# made.  One term of a prime conductor r becomes r - 1 terms, and these
# multiply across n's prime factors, so without the cap a 30-byte table
# value can ask for gigabytes.  The cap admits every full form of
# Q(zeta_n) with phi(n) <= 2^16, such as all prime conductors up to
# 65537, and filling it takes about 0.03 s; values of the shipped tables
# need at most 16 coordinates.  One column of an inner product of two
# rows (cyclotomic.inner) makes at most this many term products, checked
# before the first.
CYCLOTOMIC_FORM_CAP = 2**16

# lieorders checks no classical group of rank above this (a grid's
# max_rank, lie-verify's n).  At the cap, a grid of the shipped shape (six
# families, four q, ten primes) takes about 0.1 s; its cost grows about as
# max_rank^2.
RANK_CAP = 32

# lieorders checks no classical group whose order has more than this many
# bits, read as dim(G) * log2(q) before any order is multiplied out.  Each
# report integer is at most the order or q, so it stays below the 4,300
# digits up to which Python prints an int.  The cap admits Sp_64(19), 8,836 bits, the
# largest group the tests build; near it a lie-verify point takes 0.05 s.
ORDER_BITS_CAP = 10_000

# A stabilizer chain makes at most this many Schreier-generator sifts over
# its group's life (its build and every normal-closure extension).  J1's
# chain needs 369 and no group of a suite run more than 114; S_40 from two
# generators needs 15,656 (0.4 s).  Reaching the cap takes about 1.6 s at
# degree 200 and 9.4 s at degree 1000.
SIFT_CAP = 20_000

# The anchored Hall search (subgroups._anchored_search) charges its
# candidates at most HALL_CANDIDATE_CAP elements in all.  A candidate is
# charged the elements its closure adds; one that element orders refute at
# the last prime is charged as an overflowing closure without being closed.
# The search's Sylow lists need no cap of their own: n_p Sylow p-subgroups
# of order |P| give n_p * |P| = |G| * |P| / |N_G(P)| <= |G|, and the rows of
# G are read under the element cap before any list is made.  Over the
# catalog the largest search, a8 with pi = {2, 5, 7}, is charged 731,472
# elements.
HALL_CANDIDATE_CAP = 5_000_000


def default_caps() -> int:
    """The element cap: HALLMARK_CAP_ELEMENTS if set, else ELEMENT_CAP."""
    raw = os.environ.get("HALLMARK_CAP_ELEMENTS")
    if not raw:
        return ELEMENT_CAP
    try:
        elements = int(raw)
    except ValueError:
        elements = 0
    if elements < 1:
        raise MalformedInputError(
            "HALLMARK_CAP_ELEMENTS must be a positive integer, got %r" % raw
        )
    return elements
