"""Three-valued results for criteria and theorem checks.

A Verdict either holds, fails, or is undetermined (some input the
criterion needs was unavailable, typically blocked by a capacity cap).
Failing verdicts carry enough detail to point at the offending class or
prime, and witnesses are JSON-safe for the CLI report.

The paper's criteria that read a table alone live here too.  A table is
anything whose `classes` is a sequence of ClassRecord, the one class
record both classdata.ClassTable and chartab.parse_table build; the
size criteria read a record's index, size and element order, and find
the p-element classes through `p_element_classes`.  `blocks_criterion`
is theorem C's principal-block rule.  `criteria` pairs them with the
group-side searches, and `chartab` runs them on a character table
without importing any permutation-group module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .arith import is_power_of, require_prime


class Verdict:
    __slots__ = ("holds", "detail", "witnesses")

    def __init__(self, holds: Optional[bool], detail: str, witnesses: Optional[dict] = None):
        self.holds = holds
        self.detail = detail
        self.witnesses = witnesses or {}

    @classmethod
    def yes(cls, detail: str, **witnesses) -> "Verdict":
        return cls(True, detail, witnesses)

    @classmethod
    def no(cls, detail: str, **witnesses) -> "Verdict":
        return cls(False, detail, witnesses)

    @classmethod
    def undetermined(cls, detail: str, **witnesses) -> "Verdict":
        return cls(None, detail, witnesses)

    @property
    def is_undetermined(self) -> bool:
        return self.holds is None

    @property
    def word(self) -> str:
        """The verdict as reports print it: holds, fails or undetermined."""
        return "undetermined" if self.holds is None else ("holds" if self.holds else "fails")

    def to_json(self) -> dict:
        out = {"verdict": self.word, "detail": self.detail}
        if self.witnesses:
            out["witnesses"] = self.witnesses
        return out

    def __repr__(self) -> str:
        return "Verdict(%s: %s)" % (self.word, self.detail)


def agreement(lhs: Verdict, rhs: Verdict) -> Optional[bool]:
    """Whether two sides of a biconditional agree; None if either is open."""
    if lhs.holds is None or rhs.holds is None:
        return None
    return lhs.holds == rhs.holds


class ClassRecord:
    """One conjugacy class: its index in its table, its size, the order
    of its elements, and a representative as an image tuple (None when
    the class comes from a character table, which names no element)."""

    __slots__ = ("index", "size", "element_order", "rep")

    def __init__(self, index: int, size: int, element_order: int, rep: Optional[tuple] = None):
        self.index = index
        self.size = size
        self.element_order = element_order
        self.rep = rep


def p_element_classes(table, p: int) -> tuple:
    """The table's classes of nontrivial elements whose order is a power
    of p, in table order."""
    require_prime(p)
    return tuple(
        c for c in table.classes if c.element_order > 1 and is_power_of(c.element_order, p)
    )


def _divisible(ci, p: int) -> Verdict:
    """The failing verdict of a size criterion: class ci has size
    divisible by p."""
    return Verdict.no(
        "class %d (order %d, size %d) has size divisible by %d"
        % (ci.index, ci.element_order, ci.size, p),
        class_index=ci.index,
        element_order=ci.element_order,
        size=ci.size,
        prime=p,
    )


def sizes_coprime_criterion(table, q: int, p: int) -> Verdict:
    """Every nontrivial q-element has class size coprime to p."""
    for ci in p_element_classes(table, q):
        if ci.size % p == 0:
            return _divisible(ci, p)
    return Verdict.yes(
        "all %d-element class sizes are coprime to %d" % (q, p), primes=[q, p]
    )


def pair_criterion(table, p: int, q: int) -> Verdict:
    """Both directions of the class-size condition for the pair {p, q}."""
    first = sizes_coprime_criterion(table, q, p)
    if first.holds is False:
        return first
    second = sizes_coprime_criterion(table, p, q)
    if second.holds is False:
        return second
    return Verdict.yes(
        "class sizes of %d- and %d-elements are coprime to the other prime" % (p, q),
        primes=[p, q],
    )


def pairwise_criterion(table, pi: Sequence[int]) -> Verdict:
    """The pair condition for every two primes in pi."""
    for p, q in combinations(sorted(pi), 2):
        v = pair_criterion(table, p, q)
        if v.holds is False:
            return v
    return Verdict.yes("pair condition holds for all of %s" % (sorted(pi),))


def pi_prime_sizes_criterion(table, pi: Sequence[int]) -> Verdict:
    """Every p-element for p in pi has class size coprime to all of pi."""
    primes = sorted(pi)
    for p in primes:
        for ci in p_element_classes(table, p):
            for q in primes:
                if ci.size % q == 0:
                    return _divisible(ci, q)
    return Verdict.yes("all pi-element class sizes are pi-prime for %s" % (primes,))


def blocks_criterion(
    order: int, primes: Sequence[int], principal_block_clear
) -> Optional[Verdict]:
    """The block condition of theorem C, for the primes 3 and 5 of pi that
    divide the order: the first principal-block verdict that does not
    hold, undetermined when no character table is wired
    (principal_block_clear is None), else None."""
    for p in primes:
        if p in (3, 5) and order % p == 0:
            if principal_block_clear is None:
                return Verdict.undetermined(
                    "principal %d-block degrees unknown (no character table)" % p
                )
            verdict = principal_block_clear(p)
            if verdict.holds is not True:
                return verdict
    return None
