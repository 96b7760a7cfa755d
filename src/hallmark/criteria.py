"""The checks pairing the class-size criteria with subgroup facts.

Each check evaluates two independent sides.  The criterion side reads
nothing but a ClassTable (class sizes and element orders), through the
size criteria of `verdicts`, which take no group; the witness side
searches the group itself for commuting Sylow pairs, nilpotent or
abelian Hall subgroups, normalizing pairs, or cores.  A check reports
both verdicts and whether they agree; a capacity cap on either side
degrades the answer to undetermined instead of guessing.

A capped side runs through one guard, `_capped`, and a criterion side
reads its class table through `_on_table`, which guards the table but not
the criterion; t4.2 keeps its own handler, since one verdict covers both
of its sides.  All three build the verdict with `_unavailable`, which
names the cap in its witnesses.  `_pair_verdict` and `_hall_verdict`
build the Sylow-pair and Hall verdicts.  `_theorem` is the one place
that refuses a theorem name outside `THEOREMS`, and `check_one` the one
place that checks a theorem's prime count against it.  Theorem C's
principal-block rule, `blocks_criterion`, lives in `verdicts` with the
size criteria, so `chartab.table_criterion_c` runs the same rule without
importing this module or any permutation-group code.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import subgroups
from .arith import p_part, prime_factors
from .classdata import ClassTable, class_table
from .errors import CapacityError, PreconditionError
from .perms import PermutationGroup
from .verdicts import (
    Verdict,
    agreement,
    blocks_criterion,
    pair_criterion,
    pairwise_criterion,
    pi_prime_sizes_criterion,
    sizes_coprime_criterion,
)


class TheoremCheck:
    """One group, one statement, two independently computed sides."""

    __slots__ = ("theorem", "params", "lhs", "rhs", "agree", "note")

    def __init__(self, theorem: str, params: dict, lhs: Verdict, rhs: Verdict, note: str = ""):
        self.theorem = theorem
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.agree = agreement(lhs, rhs)
        self.note = note

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "params": self.params,
            "criterion": self.lhs.to_json(),
            "witness": self.rhs.to_json(),
            "agree": self.agree,
        }
        if self.note:
            out["note"] = self.note
        return out

    def __repr__(self) -> str:
        return "TheoremCheck(%s %s agree=%s)" % (self.theorem, self.params, self.agree)


def sub_witness(sub) -> dict:
    """A subgroup as report data: its order and generators in cycle notation."""
    return {
        "order": sub.order,
        "generators": [g.cycle_string() for g in sub.generators],
    }


def _unavailable(what: str, exc: CapacityError) -> Verdict:
    """Undetermined "<what> unavailable: <cap>", with the cap's name and
    value as witnesses."""
    return Verdict.undetermined(
        "%s unavailable: %s" % (what, exc), cap_name=exc.cap_name, cap_value=exc.cap_value
    )


def _capped(what: str, side: Callable[[], Verdict]) -> Verdict:
    """side(), or undetermined naming what when a capacity cap stops it."""
    try:
        return side()
    except CapacityError as exc:
        return _unavailable(what, exc)


def _on_table(
    group: PermutationGroup, caps: Optional[int], criterion: Callable[[ClassTable], Verdict]
) -> Verdict:
    """criterion on the group's class table, undetermined when a cap stops
    the table.  A cap the criterion itself hits (the factor cap on a huge
    prime) is bad input, not an open side, and propagates."""
    try:
        table = class_table(group, caps)
    except CapacityError as exc:
        return _unavailable("class table", exc)
    return criterion(table)


def _pair_verdict(pair: Optional[tuple], yes: str, no: str) -> Verdict:
    """A Sylow-pair search result: yes with the pair as witnesses, or no."""
    if pair is None:
        return Verdict.no(no)
    return Verdict.yes(yes, p_sylow=sub_witness(pair[0]), q_sylow=sub_witness(pair[1]))


def _normalizing_pair(group: PermutationGroup, p: int, q: int, caps: Optional[int]) -> Verdict:
    return _pair_verdict(
        subgroups.exists_normalizing_sylow_pair(group, p, q, caps),
        "a Sylow %d-subgroup normalizes a Sylow %d-subgroup" % (p, q),
        "no Sylow %d-subgroup normalizes a Sylow %d-subgroup" % (p, q),
    )


def _hall_verdict(
    group: PermutationGroup, primes: List[int], caps: Optional[int], abelian: bool
) -> Verdict:
    """A nilpotent Hall pi-subgroup exists (and, if abelian, is abelian)."""
    hall = subgroups.nilpotent_hall(group, primes, caps)
    if hall is None:
        return Verdict.no("no nilpotent Hall %s-subgroup exists" % (primes,))
    if abelian and not subgroups.is_abelian(hall):
        return Verdict.no("Hall subgroup of order %d exists but is not abelian" % hall.order)
    return Verdict.yes(
        "%s Hall subgroup of order %d" % ("abelian" if abelian else "nilpotent", hall.order),
        hall=sub_witness(hall),
    )


def check_theorem_a(
    group: PermutationGroup, p: int, q: int, caps: Optional[int] = None
) -> TheoremCheck:
    """Commuting Sylow p/q pair iff the pair class-size condition holds."""
    lhs = _on_table(group, caps, lambda table: pair_criterion(table, p, q))
    rhs = _capped("pair search", lambda: _pair_verdict(
        subgroups.exists_commuting_sylow_pair(group, p, q, caps),
        "Sylow %d- and %d-subgroups commute elementwise" % (p, q),
        "no commuting Sylow %d/%d pair exists" % (p, q),
    ))
    return TheoremCheck("A", {"p": p, "q": q}, lhs, rhs)


def check_theorem_b(
    group: PermutationGroup, pi: Sequence[int], caps: Optional[int] = None
) -> TheoremCheck:
    """Nilpotent Hall pi-subgroup iff the pairwise class-size condition."""
    primes = sorted(pi)
    lhs = _on_table(group, caps, lambda table: pairwise_criterion(table, primes))
    rhs = _capped("Hall search", lambda: _hall_verdict(group, primes, caps, abelian=False))
    return TheoremCheck("B", {"pi": primes}, lhs, rhs)


def check_theorem_c(
    group: PermutationGroup,
    pi: Sequence[int],
    caps: Optional[int] = None,
    principal_block_clear=None,
) -> TheoremCheck:
    """Abelian Hall pi-subgroup iff pi-prime sizes plus the block condition.

    The block side applies to primes in pi that are 3 or 5: no character
    degree in the principal p-block may be divisible by p.  It needs a
    character table; `principal_block_clear` is a callable p -> Verdict
    supplied by the table layer, or None when no table is available, in
    which case groups where the condition matters come out undetermined.
    """
    primes = sorted(pi)
    lhs = _on_table(group, caps, lambda table: pi_prime_sizes_criterion(table, primes))
    if lhs.holds:
        lhs = blocks_criterion(group.order, primes, principal_block_clear) or lhs
    rhs = _capped("Hall search", lambda: _hall_verdict(group, primes, caps, abelian=True))
    return TheoremCheck("C", {"pi": primes}, lhs, rhs)


def check_sylow_normalization(
    group: PermutationGroup, p: int, q: int, caps: Optional[int] = None
) -> TheoremCheck:
    """One-sided: coprime q-element sizes plus p- or q-solvability force
    a Sylow p-subgroup normalizing a Sylow q-subgroup."""
    sized = _on_table(group, caps, lambda table: sizes_coprime_criterion(table, q, p))
    premise = sized
    if sized.holds:
        premise = _capped("solvability test", lambda: (
            sized
            if subgroups.is_p_solvable(group, p, caps) or subgroups.is_p_solvable(group, q, caps)
            else Verdict.no("group is neither %d- nor %d-solvable" % (p, q), primes=[p, q])
        ))
    conclusion = _capped("normalizing pair search", lambda: _normalizing_pair(group, p, q, caps))
    return _implication_check("t4.1", {"p": p, "q": q}, premise, conclusion)


def _implication_check(name: str, params: dict, premise: Verdict, conclusion: Verdict) -> TheoremCheck:
    """Package premise => conclusion; vacuous premises agree by convention."""
    check = TheoremCheck(name, params, premise, conclusion, note="one-sided implication")
    if premise.holds is False:
        check.agree = True
    elif premise.holds is None or conclusion.holds is None:
        check.agree = None
    else:
        check.agree = bool(conclusion.holds)
    return check


def check_core_characterization(
    group: PermutationGroup, p: int, q: int, caps: Optional[int] = None
) -> TheoremCheck:
    """For p-solvable groups: a Sylow p-subgroup normalizes some Sylow
    q-subgroup iff the quotient by the p'-core has order prime to q."""
    params = {"p": p, "q": q}
    try:
        if not subgroups.is_p_solvable(group, p, caps):
            lhs = Verdict.undetermined("group is not %d-solvable; statement does not apply" % p)
            rhs = Verdict.undetermined("not evaluated")
            return TheoremCheck("t4.2", params, lhs, rhs, note="precondition failed")
        core = subgroups.op_prime_core(group, p, caps)
        quotient_order = group.order // core.order
        orders = {"core_order": core.order, "quotient_order": quotient_order}
        if p_part(quotient_order, q) == 1:
            rhs = Verdict.yes("order of group over its %d'-core is prime to %d" % (p, q), **orders)
        else:
            rhs = Verdict.no("quotient by the %d'-core has order divisible by %d" % (p, q), **orders)
        lhs = _normalizing_pair(group, p, q, caps)
    except CapacityError as exc:
        lhs = rhs = _unavailable("core characterization", exc)
    return TheoremCheck("t4.2", params, lhs, rhs)


def check_odd_sizes_solvability(
    group: PermutationGroup, q: int, caps: Optional[int] = None
) -> TheoremCheck:
    """Odd q (q odd prime): all q-element class sizes odd forces
    q-solvability, and then a Sylow 2-subgroup normalizes a Sylow
    q-subgroup."""
    if q == 2:
        raise PreconditionError("q must be an odd prime")
    premise = _on_table(group, caps, lambda table: sizes_coprime_criterion(table, q, 2))
    conclusion = _capped("solvability check", lambda: (
        Verdict.no("group is not %d-solvable" % q)
        if not subgroups.is_p_solvable(group, q, caps)
        else _pair_verdict(
            subgroups.exists_normalizing_sylow_pair(group, 2, q, caps),
            "%d-solvable and a Sylow 2-subgroup normalizes a Sylow %d-subgroup" % (q, q),
            "%d-solvable but no Sylow 2-subgroup normalizes a Sylow %d-subgroup" % (q, q),
        )
    ))
    return _implication_check("t4.3", {"q": q}, premise, conclusion)


def default_prime_sets(order: int) -> List[Tuple[int, ...]]:
    """Prime sets exercised by default: all pairs, odd primes, all primes."""
    primes = prime_factors(order)
    out: List[Tuple[int, ...]] = [tuple(c) for c in combinations(primes, 2)]
    odd = tuple(p for p in primes if p != 2)
    if len(odd) > 2:
        out.append(odd)
    if len(primes) > 2 and primes not in out:
        out.append(primes)
    return out


def _pairs(order: int) -> List[Tuple[int, ...]]:
    return list(combinations(prime_factors(order), 2))


def _ordered_pairs(order: int) -> List[Tuple[int, ...]]:
    primes = prime_factors(order)
    return [(p, q) for p in primes for q in primes if p != q]


def _odd_primes(order: int) -> List[Tuple[int, ...]]:
    return [(q,) for q in prime_factors(order) if q != 2]


class Theorem(NamedTuple):
    # Name of the check function in this module.  It is looked up when a
    # check runs, so a wrapper installed on the module attribute is called.
    check: str
    # Primes one check takes, with the same in words; None for a prime set.
    arity: Optional[int]
    takes: str
    # |G| -> the prime tuples check_group runs by default
    defaults: Callable[[int], List[Tuple[int, ...]]]


THEOREMS = {
    "A": Theorem("check_theorem_a", 2, "exactly two primes", _pairs),
    "B": Theorem("check_theorem_b", None, "a set of primes", default_prime_sets),
    "C": Theorem("check_theorem_c", None, "a set of primes", default_prime_sets),
    "t4.1": Theorem("check_sylow_normalization", 2, "exactly two primes", _ordered_pairs),
    "t4.2": Theorem("check_core_characterization", 2, "exactly two primes", _ordered_pairs),
    "t4.3": Theorem("check_odd_sizes_solvability", 1, "one odd prime", _odd_primes),
}


def _theorem(theorem: str) -> Theorem:
    """THEOREMS[theorem]; any other name is refused."""
    if theorem not in THEOREMS:
        raise PreconditionError("unknown theorem %r" % (theorem,))
    return THEOREMS[theorem]


def check_one(
    group: PermutationGroup,
    theorem: str,
    primes: Sequence[int],
    caps: Optional[int] = None,
    principal_block_clear=None,
) -> TheoremCheck:
    """One check of theorem on primes: a pair, one odd prime, or a prime
    set, as THEOREMS[theorem].arity says, and any other count is refused.
    Only theorem C reads the principal-block hook."""
    entry = _theorem(theorem)
    check = globals()[entry.check]
    if entry.arity is not None and len(primes) != entry.arity:
        raise PreconditionError(
            "theorem %s takes %s, got %s" % (theorem, entry.takes, list(primes))
        )
    args = (primes,) if entry.arity is None else tuple(primes)
    if theorem == "C":
        return check(group, *args, caps=caps, principal_block_clear=principal_block_clear)
    return check(group, *args, caps=caps)


def check_group(
    group: PermutationGroup,
    theorem: str,
    caps: Optional[int] = None,
    principal_block_clear=None,
) -> List[TheoremCheck]:
    """All default checks of one theorem for one group."""
    return [
        check_one(group, theorem, primes, caps, principal_block_clear)
        for primes in _theorem(theorem).defaults(group.order)
    ]
