"""Sylow and Hall subgroup machinery on top of exhaustive enumeration.

Everything here trades cleverness for checkability: Sylow subgroups are
grown by normalizer climbs, centralizers and normalizers are computed by
filtering the full element list, and Hall subgroups come from three
strategies whose soundness does not depend on each other.

Every subgroup here is a PermutationGroup with a stabilizer chain, made
by parent.subgroup(...) or parent.subgroup_from_rows(...), so it knows
its ambient group.  A subgroup found as a set of element rows (a
filtered centralizer or normalizer, a climbed Sylow subgroup, a Hall
subgroup) gets its generators from its chain: subgroup_from_rows adjoins
rows in order until the chain's order is the row count, sifts every row
once and keeps the rows.  kernel.close_group is the only closure loop; the
Sylow climb and the Hall search call it on generator lists they grow
themselves.

sylow() makes the only climb, once per host group and prime, and keeps
the Sylow subgroup on the host together with its normalizer and
centralizer, so every Sylow-side fact below reads the same subgroup.
The climb reads element orders from the ambient group's class table and
tests only p-elements.

chief_series() builds one chief series per group by normal closures and
keeps it on the group.  A chief factor is a power of one simple group, so
simplicity and p-solvability for every p are read from the factor
orders, and no check builds a quotient group.  The Hall strategies:

  0. pure arithmetic absence for simple groups (the group cannot act
     faithfully on the cosets of the putative subgroup);
  1. a centralizer chain that is complete for nilpotent Hall subgroups;
  2. an anchored closure search over Sylow combinations, complete but
     budgeted, so it reports "inconclusive" rather than running away.

A found Hall subgroup is returned as a witness; absence claims state
which strategy proved them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .arith import is_power_of, is_prime, p_part, pi_part, prime_factors, require_prime
from .classdata import ClassTable, class_table
from .config import Caps, default_caps
from .errors import CapacityError, PreconditionError
from .kernels import Row, kernel
from .perms import Permutation, PermutationGroup


def _gen_rows(sub) -> List[Row]:
    return [kernel.pack(p.images) for p in sub.generators]


def _p_element_orders(
    host: PermutationGroup, rows: List[Row], p: int, caps: Caps
) -> Dict[Row, int]:
    """{row: element order} for host's nontrivial p-elements, in row
    order, where rows are host's rows.  Read from a map kept per p on
    host.ambient, built from its class table; host's own when the ambient
    group is over the element cap, so no climb raises a cap error that
    host's rows do not."""
    ambient = host.ambient
    if ambient.order > caps.elements:
        ambient = host
    known = ambient.memo(
        ("p_elements", p), lambda: class_table(ambient, caps).p_element_orders(p)
    )
    if ambient is host:
        return known
    return {row: known[row] for row in rows if row in known}


def _rows(group, caps: Caps) -> List[Row]:
    if not isinstance(group, PermutationGroup):
        raise PreconditionError("expected a permutation group")
    return group.element_rows(caps.elements)


def centralizer(group, target, caps: Optional[Caps] = None) -> PermutationGroup:
    """Centralizer of a subgroup or a Permutation inside group."""
    caps = caps or default_caps()
    rows = _rows(group, caps)
    if isinstance(target, Permutation):
        xs = [kernel.pack(target.images)]
    elif isinstance(target, PermutationGroup):
        xs = _gen_rows(target)
    else:
        raise PreconditionError("centralizer target must be a Permutation or a group")
    return group.subgroup_from_rows(kernel.centralizer_filter(rows, xs))


def normalizer(group, sub: PermutationGroup, caps: Optional[Caps] = None) -> PermutationGroup:
    caps = caps or default_caps()
    rows = _rows(group, caps)
    sub_rows = sub.element_rows(caps.elements)
    kept = kernel.normalizer_filter(rows, _gen_rows(sub), set(sub_rows))
    return group.subgroup_from_rows(kept)


def _sylow_rows(
    degree: int, scope_rows: List[Row], p: int, orders: Dict[Row, int]
) -> List[Row]:
    """Rows of a Sylow p-subgroup of the group given by scope_rows.

    orders maps each nontrivial p-element of the scope to its element
    order, in row order; sylow() reads it from the ambient class table.
    Deterministic climb: start from the least element of maximal p-power
    order, then repeatedly adjoin the least p-element of the normalizer
    not yet inside; the generators are the start and each adjoined
    element.  Each step grows the p-subgroup, so the climb ends at
    the full p-part; it cannot stall below it because a proper p-subgroup
    has a strictly larger normalizer p-part.
    """
    target = p_part(len(scope_rows), p)
    if target == 1:
        return [kernel.identity_row(degree)]
    p_rows = list(orders)
    gens = [max(p_rows, key=orders.__getitem__)]
    while True:
        current = kernel.close_group(gens, degree, target)
        if current is None:
            raise PreconditionError("normalizer climb passed order %d" % target)
        if len(current) == target:
            return current
        current_set = set(current)
        outside = [row for row in p_rows if row not in current_set]
        normal = kernel.normalizer_filter(outside, gens, current_set)
        if not normal:
            raise PreconditionError(
                "normalizer climb stalled at order %d of %d" % (len(current), target)
            )
        gens.append(normal[0])


def sylow(group, p: int, caps: Optional[Caps] = None) -> PermutationGroup:
    """A Sylow p-subgroup, as a subgroup of group; one per prime and
    group, kept on the group."""
    caps = caps or default_caps()
    require_prime(p)
    rows = _rows(group, caps)

    def climb() -> PermutationGroup:
        syl = _sylow_rows(group.degree, rows, p, _p_element_orders(group, rows, p, caps))
        return group.subgroup_from_rows(syl)

    return group.memo(("sylow", p), climb)


def _sylow_and(
    kind: str, group: PermutationGroup, q: int, caps: Caps
) -> Tuple[PermutationGroup, PermutationGroup]:
    """sylow(group, q) and its "normalizer" or "centralizer" (kind), which
    is kept on group as ("sylow_" + kind, q)."""
    Q = sylow(group, q, caps)
    build = normalizer if kind == "normalizer" else centralizer
    return Q, group.memo(("sylow_" + kind, q), lambda: build(group, Q, caps))


def all_sylow(group: PermutationGroup, p: int, caps: Optional[Caps] = None) -> List[List[Row]]:
    """Generator rows of every Sylow p-subgroup, from the conjugation orbit
    of one of them: each conjugate's generators are the seed's generators
    conjugated along the orbit's search tree, and the list is in the order
    of the conjugates' sorted element rows."""
    caps = caps or default_caps()
    seed = sylow(group, p, caps)
    seed_rows = tuple(seed.element_rows(caps.elements))
    gen_rows = _gen_rows(group)
    gen_invs = [kernel.inverse(g) for g in gen_rows]
    seen = {seed_rows: _gen_rows(seed)}
    frontier = [seed_rows]
    while frontier:
        nxt = []
        for rows in frontier:
            for g, gi in zip(gen_rows, gen_invs):
                conj = tuple(sorted(kernel.compose(kernel.compose(gi, r), g) for r in rows))
                if conj not in seen:
                    if len(seen) >= caps.sylow_conjugates:
                        raise CapacityError(
                            "Sylow conjugate orbit exceeds cap",
                            cap_name="sylow_conjugates",
                            cap_value=caps.sylow_conjugates,
                        )
                    seen[conj] = [
                        kernel.compose(kernel.compose(gi, s), g) for s in seen[rows]
                    ]
                    nxt.append(conj)
        frontier = nxt
    return [seen[rows] for rows in sorted(seen)]


def sylow_count(group: PermutationGroup, p: int, caps: Optional[Caps] = None) -> int:
    """Number of Sylow p-subgroups, via the normalizer index."""
    caps = caps or default_caps()
    _, n = _sylow_and("normalizer", group, p, caps)
    return group.order // n.order


def is_abelian(sub) -> bool:
    gens = sub.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if a * b != b * a:
                return False
    return True


def is_nilpotent(sub, caps: Optional[Caps] = None) -> bool:
    """Nilpotent iff every Sylow subgroup is normal."""
    caps = caps or default_caps()
    return all(sylow_count(sub, p, caps) == 1 for p in prime_factors(sub.order))


def exists_commuting_sylow_pair(
    group: PermutationGroup, p: int, q: int, caps: Optional[Caps] = None
) -> Tuple[bool, Optional[Tuple[PermutationGroup, PermutationGroup]]]:
    """Whether some Sylow p- and q-subgroups commute elementwise.

    Checked on one fixed Sylow p-subgroup P: a commuting pair exists iff
    the centralizer of P contains a full Sylow q-subgroup of the group
    (conjugate any commuting pair so its p-half becomes P).
    """
    caps = caps or default_caps()
    require_prime(p)
    require_prime(q, "q")
    if p == q:
        raise PreconditionError("primes must be distinct, got %d twice" % p)
    P, cent = _sylow_and("centralizer", group, p, caps)
    if p_part(cent.order, q) != p_part(group.order, q):
        return False, None
    Q = sylow(cent, q, caps)
    return True, (P, Q)


def exists_normalizing_sylow_pair(
    group: PermutationGroup, p: int, q: int, caps: Optional[Caps] = None
) -> Tuple[bool, Optional[Tuple[PermutationGroup, PermutationGroup]]]:
    """Whether some Sylow p-subgroup normalizes some Sylow q-subgroup.

    Checked on one fixed Sylow q-subgroup Q: such a pair exists iff the
    normalizer of Q contains a full Sylow p-subgroup of the group.
    """
    caps = caps or default_caps()
    require_prime(p)
    require_prime(q, "q")
    if p == q:
        raise PreconditionError("primes must be distinct, got %d twice" % p)
    Q, norm = _sylow_and("normalizer", group, q, caps)
    if p_part(norm.order, p) != p_part(group.order, p):
        return False, None
    P = sylow(norm, p, caps)
    return True, (P, Q)


def chief_series(
    group: PermutationGroup, caps: Optional[Caps] = None
) -> Tuple[PermutationGroup, ...]:
    """A chief series 1 = N_0 < N_1 < ... < N_k = group, kept on the group.

    Each next term is the least-order normal closure of the term below
    and a class representative outside it; a closure that cannot beat
    the best so far (it holds the term below and the class) is skipped.
    Bound: at most (number of chief factors) x (number of classes)
    normal closures, each under SIFT_CAP, after a class table under the
    element cap, which every call checks again.
    """
    table = class_table(group, caps)
    return group.memo("chief_series", lambda: _chief_series(group, table))


def _chief_series(group: PermutationGroup, table: ClassTable) -> Tuple[PermutationGroup, ...]:
    below = group.subgroup([])
    series = [below]
    while below.order < group.order:
        best: Optional[PermutationGroup] = None
        for ci in table.classes:
            if best is not None and best.order <= below.order + ci.size:
                continue
            rep = ci.representative()
            if rep in below:
                continue
            closure = group.normal_closure(list(below.generators) + [rep])
            if best is None or closure.order < best.order:
                best = closure
        series.append(best)
        below = best
    return tuple(series)


def minimal_normal_subgroup(
    group: PermutationGroup, caps: Optional[Caps] = None
) -> Optional[PermutationGroup]:
    """A minimal normal subgroup: the chief series' first term above 1,
    or None for the trivial group."""
    series = chief_series(group, caps)
    return series[1] if len(series) > 1 else None


def is_simple(group: PermutationGroup, caps: Optional[Caps] = None) -> bool:
    """Nontrivial, and its chief series has one factor."""
    if group.order == 1:
        return False
    if is_prime(group.order):
        return True
    return not is_solvable(group) and len(chief_series(group, caps)) == 2


def derived_subgroup(group: PermutationGroup) -> PermutationGroup:
    gens = group.generators
    comms = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity:
                comms.append(c)
    if not comms:
        return group.subgroup([])
    return group.normal_closure(comms)


def is_solvable(group: PermutationGroup) -> bool:
    """Whether the derived series reaches 1; kept on the group."""
    return group.memo("solvable", lambda: _is_solvable(group))


def _is_solvable(group: PermutationGroup) -> bool:
    current = group
    order = current.order
    while order > 1:
        der = derived_subgroup(current)
        if der.order == order:
            return False
        if der.order == 1:
            return True
        current = der
        order = current.order
    return True


def is_p_solvable(group: PermutationGroup, p: int, caps: Optional[Caps] = None) -> bool:
    """Every composition factor is a p-group or a p'-group; read from the
    chief factors."""
    require_prime(p)
    order = group.order
    if order % p or is_power_of(order, p) or is_solvable(group):
        return True
    series = chief_series(group, caps)
    factors = (upper.order // lower.order for lower, upper in zip(series, series[1:]))
    return all(f % p or is_power_of(f, p) for f in factors)


def op_prime_core(
    group: PermutationGroup, p: int, caps: Optional[Caps] = None
) -> PermutationGroup:
    """O_{p'}(group): the largest normal subgroup of order coprime to p.

    Greedy absorption over class representatives of p'-order is complete:
    a representative belongs to the core exactly when the normal closure
    of it together with everything absorbed so far stays free of p.  Kept
    on the group per p and caps.
    """
    caps = caps or default_caps()
    require_prime(p)
    return group.memo(("op_prime_core", p, caps), lambda: _op_prime_core(group, p, caps))


def _op_prime_core(group: PermutationGroup, p: int, caps: Caps) -> PermutationGroup:
    table = class_table(group, caps)
    core = group.subgroup([])
    for ci in table.classes:
        if ci.element_order == 1 or ci.element_order % p == 0:
            continue
        rep = ci.representative()
        if rep in core:
            continue
        candidate = group.normal_closure(list(core.generators) + [rep])
        if candidate.order % p:
            core = candidate
    return core


class HallSearch:
    """Outcome of a Hall subgroup search."""

    __slots__ = ("status", "subgroup", "reason")

    def __init__(self, status: str, subgroup: Optional[PermutationGroup], reason: str):
        self.status = status
        self.subgroup = subgroup
        self.reason = reason

    @property
    def found(self) -> bool:
        return self.status == "found"

    def __repr__(self) -> str:
        return "HallSearch(%s: %s)" % (self.status, self.reason)


def _check_pi(group_order: int, pi: Sequence[int]) -> Tuple[int, ...]:
    seen = []
    for p in pi:
        require_prime(p)
        if p in seen:
            raise PreconditionError("prime set repeats %d" % p)
        seen.append(p)
    return tuple(sorted(p for p in seen if group_order % p == 0))


def nilpotent_hall(
    group: PermutationGroup, pi: Sequence[int], caps: Optional[Caps] = None
) -> Optional[PermutationGroup]:
    """A nilpotent Hall pi-subgroup, or None if none exists.

    Centralizer chain: take a Sylow subgroup for the first prime, pass
    to its centralizer, and continue with the next prime.  If a
    nilpotent Hall subgroup exists it is conjugate to one containing the
    chosen Sylow subgroup, so each centralizer retains full Sylow
    subgroups for the remaining primes; a stalled chain proves
    nonexistence.  Each link is sylow() of the current scope and its
    centralizer, kept on the scope's group, so a later call walks the
    same subgroups without climbing again.
    """
    caps = caps or default_caps()
    primes = _check_pi(group.order, pi)
    if not primes:
        return group.subgroup([])
    scope = group
    collected_gens: List[Row] = []
    for p in primes:
        if p_part(scope.order, p) != p_part(group.order, p):
            return None
        P, scope = _sylow_and("centralizer", scope, p, caps)
        collected_gens.extend(_gen_rows(P))
    target = pi_part(group.order, primes)
    rows = kernel.close_group(collected_gens, group.degree, target)
    if rows is None or len(rows) != target:
        raise PreconditionError("centralizer chain assembled a wrong order")
    return group.subgroup_from_rows(rows)


def hall_subgroup(
    group: PermutationGroup, pi: Sequence[int], caps: Optional[Caps] = None
) -> HallSearch:
    """Search for any Hall pi-subgroup; see the module docstring."""
    caps = caps or default_caps()
    primes = _check_pi(group.order, pi)
    order = group.order
    target = pi_part(order, primes)
    if target == 1:
        return HallSearch("found", group.subgroup([]), "trivial Hall subgroup")
    if target == order:
        return HallSearch("found", group, "the whole group is a pi-group")
    if len(primes) == 1:
        return HallSearch("found", sylow(group, primes[0], caps), "Sylow subgroup")

    nil = nilpotent_hall(group, primes, caps)
    if nil is not None:
        return HallSearch("found", nil, "centralizer chain (nilpotent)")

    if is_simple(group, caps):
        index = order // target
        if not _divides_factorial(order, index):
            return HallSearch(
                "absent",
                None,
                "a simple group of this order cannot act faithfully on %d cosets" % index,
            )

    return _anchored_search(group, primes, target, caps)


def _divides_factorial(n: int, m: int) -> bool:
    f = 1
    for k in range(2, m + 1):
        f *= k
    return f % n == 0


def _anchored_search(
    group: PermutationGroup, primes: Tuple[int, ...], target: int, caps: Caps
) -> HallSearch:
    """Closure search over Sylow choices, anchored at the scarcest prime.

    Any Hall pi-subgroup contains full Sylow subgroups for each prime in
    pi and is generated by them; conjugating it to contain the fixed
    anchor leaves the other primes' Sylow subgroups to enumerate.  Sound
    for both existence and absence; bounded by the candidate budget.
    """
    counts: Dict[int, int] = {}
    for p in primes:
        counts[p] = sylow_count(group, p, caps)
    anchor = min(primes, key=lambda p: (counts[p], p))
    others = sorted((p for p in primes if p != anchor), key=lambda p: (counts[p], p))
    try:
        lists = {p: all_sylow(group, p, caps) for p in others}
    except CapacityError as exc:
        return HallSearch("inconclusive", None, "Sylow enumeration hit a cap: %s" % exc)
    seed = sylow(group, anchor, caps)
    degree = group.degree
    budget = caps.hall_candidates

    def extend(
        gens: List[Row], rows: List[Row], remaining: Tuple[int, ...]
    ) -> Optional[List[Row]]:
        """Rows of a Hall subgroup generated by gens, whose closure is
        rows, and one Sylow subgroup per remaining prime; or None.  A
        candidate costs the elements its closure adds to rows, counting
        at most one past target."""
        nonlocal budget
        if not remaining:
            return rows if len(rows) == target else None
        p = remaining[0]
        for cand in lists[p]:
            merged = kernel.close_group(gens + cand, degree, target)
            charge = (target + 1 if merged is None else len(merged)) - len(rows)
            if charge >= budget:
                raise CapacityError(
                    "Hall search budget exhausted",
                    cap_name="hall_candidates",
                    cap_value=caps.hall_candidates,
                )
            budget -= charge
            if merged is None or target % len(merged):
                continue
            got = extend(gens + cand, merged, remaining[1:])
            if got is not None:
                return got
        return None

    try:
        result = extend(_gen_rows(seed), seed.element_rows(caps.elements), tuple(others))
    except CapacityError as exc:
        return HallSearch("inconclusive", None, str(exc))
    if result is not None:
        sub = group.subgroup_from_rows(result)
        return HallSearch("found", sub, "anchored Sylow closure search")
    return HallSearch(
        "absent",
        None,
        "no Sylow combination over the anchor closes to order %d" % target,
    )
