"""Sylow and Hall subgroup machinery on top of exhaustive enumeration.

Everything here trades cleverness for checkability: Sylow subgroups are
grown by normalizer climbs, centralizers and normalizers are computed by
filtering the full element list, and Hall subgroups come from three
strategies whose soundness does not depend on each other.

Every subgroup here is a PermutationGroup with a stabilizer chain, made
by group.subgroup(...) or group.subgroup_from_rows(...), so it holds a
weakref to its ambient group.  A subgroup found as a set of element
rows (a filtered centralizer or normalizer, a climbed Sylow subgroup, a
Hall subgroup) gets its generators from its chain: subgroup_from_rows adjoins
rows in order until the chain's order is the row count, sifts every row
once and keeps the rows.  kernel.close_group is the only closure loop; the
Sylow climb, nilpotent_hall and the Hall search call it on generator
lists they grow themselves, while a group's own element list comes from
its stabilizer chain.

sylow() makes the only climb, once per host group and prime, and keeps
the Sylow subgroup on the host together with its normalizer and
centralizer, so every Sylow-side fact below reads the same subgroup.
The climb reads element orders from the ambient group's class table, or
from the host's own once the ambient group is gone, and tests only
p-elements.

chief_series() builds one chief series per group by normal closures and
keeps it on the group.  A chief factor is a power of one simple group, so
simplicity and p-solvability for every p are read from the factor
orders, and no check builds a quotient group.  The Hall strategies:

  0. pure arithmetic absence for simple groups (the group cannot act
     faithfully on the cosets of the putative subgroup: |G| does not
     divide index!); the arithmetic is tested first, so simplicity,
     and with it the chief series, is computed only when it fails;
  1. a centralizer chain that is complete for nilpotent Hall subgroups;
  2. an anchored closure search over Sylow combinations, complete but
     budgeted, so it reports "inconclusive" rather than running away.
     It is one depth-first loop over an explicit stack, one frame per
     prime chosen so far, and returns each outcome where it is found.
     It lists every Sylow subgroup of each prime of pi by all_sylow,
     reads the Sylow counts off those lists, not off normalizers, and
     refutes what candidates it can at the last prime by two element
     orders before closing them.  The budget is its only cap: the
     lists hold at most |G| rows per prime, and G's rows are read
     under the element cap first.

A found Hall subgroup is returned as a witness; absence claims state
which strategy proved them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .arith import check_pi, is_power_of, is_prime, p_part, pi_part, prime_factors, require_prime
from .classdata import ClassTable, as_group, class_table
from .config import HALL_CANDIDATE_CAP, default_caps
from .errors import PreconditionError
from .kernels import Row, kernel
from .perms import PermutationGroup, compose, conjugate, inverse


def _p_element_orders(
    host: PermutationGroup, rows: List[Row], p: int, caps: Optional[int]
) -> Dict[Row, int]:
    """{row: element order} for host's nontrivial p-elements, in row
    order, where rows are host's rows.  Read from a map kept per p on the
    ambient group host's weakref names, built from its class table; host's
    own when host is a top-level group, when its ambient group is gone, or
    when that group is over the element cap, so no climb raises a cap
    error that host's rows do not.  Element orders do not depend on the
    table they are read from, so every case gives the same map."""
    ambient = host.ambient and host.ambient()
    if ambient is None or ambient.order > (default_caps() if caps is None else caps):
        ambient = host
    known = ambient.memo(
        ("p_elements", p), lambda: class_table(ambient, caps).p_element_orders(p)
    )
    if ambient is host:
        return known
    return {row: known[row] for row in rows if row in known}


def _rows(group, caps: Optional[int]) -> List[Row]:
    return as_group(group).element_rows(caps)


def centralizer(group, sub: PermutationGroup, caps: Optional[int] = None) -> PermutationGroup:
    """Centralizer of the subgroup sub inside group."""
    rows = _rows(group, caps)
    return group.subgroup_from_rows(kernel.centralizer_filter(rows, sub.generator_rows()))


def normalizer(group, sub: PermutationGroup, caps: Optional[int] = None) -> PermutationGroup:
    rows = _rows(group, caps)
    sub_rows = sub.element_rows(caps)
    kept = kernel.normalizer_filter(rows, sub.generator_rows(), set(sub_rows))
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


def sylow(group, p: int, caps: Optional[int] = None) -> PermutationGroup:
    """A Sylow p-subgroup, as a subgroup of group; one per prime and
    group, kept on the group."""
    require_prime(p)
    rows = _rows(group, caps)

    def climb() -> PermutationGroup:
        syl = _sylow_rows(group.degree, rows, p, _p_element_orders(group, rows, p, caps))
        return group.subgroup_from_rows(syl)

    return group.memo(("sylow", p), climb)


def _sylow_and(
    kind: str, group: PermutationGroup, q: int, caps: Optional[int]
) -> Tuple[PermutationGroup, PermutationGroup]:
    """sylow(group, q) and its "normalizer" or "centralizer" (kind), which
    is kept on group as ("sylow_" + kind, q)."""
    Q = sylow(group, q, caps)
    build = normalizer if kind == "normalizer" else centralizer
    return Q, group.memo(("sylow_" + kind, q), lambda: build(group, Q, caps))


def all_sylow(group: PermutationGroup, p: int, caps: Optional[int] = None) -> List[List[Row]]:
    """Generator rows of every Sylow p-subgroup, from the conjugation orbit
    of one of them: each conjugate's generators are the seed's generators
    conjugated along the orbit's breadth-first search tree, and the list
    is in the order of the conjugates' sorted element rows.

    A step conjugates the generators first.  When they all lie in one
    conjugate already found, that conjugate is the step's (the orders are
    equal); only a new conjugate has its element rows conjugated.  The
    conjugates holding a generator are read from an index of the
    nontrivial rows: the first conjugate holding each row, and the later
    ones for a row that several conjugates share.

    No cap of its own bounds the lists: sylow() reads the group's rows
    under the element cap first, and the n_p conjugates hold
    n_p * |P| = |G| * |P| / |N_G(P)| <= |G| rows in all."""
    seed = sylow(group, p, caps)
    found = [tuple(seed.element_rows(caps))]
    found_gens = [seed.generator_rows()]
    first = dict.fromkeys(found[0][1:], 0)
    later: Dict[Row, List[int]] = {}

    def holders(row: Row) -> set:
        """The conjugates found so far that hold row, which is nontrivial."""
        return {first[row], *later.get(row, ())} if row in first else set()

    gen_rows = group.generator_rows()
    gen_invs = [kernel.inverse(g) for g in gen_rows]
    frontier = [0]
    while frontier:
        nxt = []
        for k in frontier:
            for g, gi in zip(gen_rows, gen_invs):
                gens = [kernel.compose(kernel.compose(gi, s), g) for s in found_gens[k]]
                if not gens or set.intersection(*map(holders, gens)):
                    continue
                conj = tuple(sorted(kernel.compose(kernel.compose(gi, r), g) for r in found[k]))
                for r in conj[1:]:
                    if r in first:
                        later.setdefault(r, []).append(len(found))
                    else:
                        first[r] = len(found)
                nxt.append(len(found))
                found.append(conj)
                found_gens.append(gens)
        frontier = nxt
    return [found_gens[k] for k in sorted(range(len(found)), key=found.__getitem__)]


def is_abelian(sub) -> bool:
    gens = [g.images for g in sub.generators]
    return all(compose(a, b) == compose(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :])


def is_nilpotent(sub, caps: Optional[int] = None) -> bool:
    """Nilpotent iff every Sylow subgroup is normal: each generator of
    sylow(sub, p), conjugated by each generator of sub, lies in it.  A
    membership test is one sift through the Sylow subgroup's chain."""
    gens = [g.images for g in sub.generators]
    for p in prime_factors(sub.order):
        P = sylow(sub, p, caps)
        if not all(P.contains(conjugate(s.images, g)) for s in P.generators for g in gens):
            return False
    return True


def exists_commuting_sylow_pair(
    group: PermutationGroup, p: int, q: int, caps: Optional[int] = None
) -> Optional[Tuple[PermutationGroup, PermutationGroup]]:
    """Sylow p- and q-subgroups (P, Q) that commute elementwise, or None.

    Checked on one fixed Sylow p-subgroup P: a commuting pair exists iff
    the centralizer of P contains a full Sylow q-subgroup of the group
    (conjugate any commuting pair so its p-half becomes P).
    """
    return _sylow_pair("centralizer", group, p, q, caps)


def exists_normalizing_sylow_pair(
    group: PermutationGroup, p: int, q: int, caps: Optional[int] = None
) -> Optional[Tuple[PermutationGroup, PermutationGroup]]:
    """Sylow p- and q-subgroups (P, Q) with P normalizing Q, or None.

    Checked on one fixed Sylow q-subgroup Q: such a pair exists iff the
    normalizer of Q contains a full Sylow p-subgroup of the group.
    """
    return _sylow_pair("normalizer", group, p, q, caps)


def _sylow_pair(
    kind: str, group: PermutationGroup, p: int, q: int, caps: Optional[int]
) -> Optional[Tuple[PermutationGroup, PermutationGroup]]:
    """Both pair tests: the Sylow subgroup F of the fixed prime (p for kind
    "centralizer", q for "normalizer") and a Sylow subgroup of the other
    prime inside F's kind subgroup, returned as (P, Q), exist iff that
    kind subgroup holds a full Sylow subgroup of the group; else None."""
    require_prime(p)
    require_prime(q, "q")
    if p == q:
        raise PreconditionError("primes must be distinct, got %d twice" % p)
    fixed, other = (p, q) if kind == "centralizer" else (q, p)
    F, scope = _sylow_and(kind, group, fixed, caps)
    if p_part(scope.order, other) != p_part(group.order, other):
        return None
    O = sylow(scope, other, caps)
    return (F, O) if kind == "centralizer" else (O, F)


def chief_series(
    group: PermutationGroup, caps: Optional[int] = None
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
            if below.contains(ci.rep):
                continue
            closure = group.normal_closure(list(below.generators) + [ci.rep])
            if best is None or closure.order < best.order:
                best = closure
        series.append(best)
        below = best
    return tuple(series)


def minimal_normal_subgroup(
    group: PermutationGroup, caps: Optional[int] = None
) -> Optional[PermutationGroup]:
    """A minimal normal subgroup: the chief series' first term above 1,
    or None for the trivial group."""
    series = chief_series(group, caps)
    return series[1] if len(series) > 1 else None


def is_simple(group: PermutationGroup, caps: Optional[int] = None) -> bool:
    """Nontrivial, and its chief series has one factor."""
    if group.order == 1:
        return False
    if is_prime(group.order):
        return True
    return not is_solvable(group) and len(chief_series(group, caps)) == 2


def derived_subgroup(group: PermutationGroup) -> PermutationGroup:
    """The normal closure of the generators' commutators (a group drops
    its identity generators, so an abelian group's closure is trivial)."""
    gens = [g.images for g in group.generators]
    return group.normal_closure(
        [compose(compose(inverse(a), inverse(b)), compose(a, b))
         for i, a in enumerate(gens) for b in gens[i + 1 :]]
    )


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


def is_p_solvable(group: PermutationGroup, p: int, caps: Optional[int] = None) -> bool:
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
    group: PermutationGroup, p: int, caps: Optional[int] = None
) -> PermutationGroup:
    """O_{p'}(group): the largest normal subgroup of order coprime to p.

    Greedy absorption over class representatives of p'-order is complete:
    a representative belongs to the core exactly when the normal closure
    of it together with everything absorbed so far stays free of p.  Kept
    on the group per p, after a class table under the element cap, which
    every call checks again.
    """
    require_prime(p)
    table = class_table(group, caps)
    return group.memo(("op_prime_core", p), lambda: _op_prime_core(group, p, table))


def _op_prime_core(group: PermutationGroup, p: int, table: ClassTable) -> PermutationGroup:
    core = group.subgroup([])
    for ci in table.classes:
        if ci.element_order == 1 or ci.element_order % p == 0:
            continue
        if core.contains(ci.rep):
            continue
        candidate = group.normal_closure(list(core.generators) + [ci.rep])
        if candidate.order % p:
            core = candidate
    return core


class HallSearch:
    """Outcome of a Hall subgroup search; an inconclusive one keeps the
    cap_name and cap_value of the cap that stopped it."""

    __slots__ = ("status", "subgroup", "reason", "cap_name", "cap_value")

    def __init__(
        self,
        status: str,
        subgroup: Optional[PermutationGroup],
        reason: str,
        cap_name: Optional[str] = None,
        cap_value: Optional[int] = None,
    ):
        self.status = status
        self.subgroup = subgroup
        self.reason = reason
        self.cap_name = cap_name
        self.cap_value = cap_value

    def __repr__(self) -> str:
        return "HallSearch(%s: %s)" % (self.status, self.reason)


def nilpotent_hall(
    group: PermutationGroup, pi: Sequence[int], caps: Optional[int] = None
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
    primes = check_pi(group.order, pi)
    if not primes:
        return group.subgroup([])
    scope = group
    collected_gens: List[Row] = []
    for p in primes:
        if p_part(scope.order, p) != p_part(group.order, p):
            return None
        P, scope = _sylow_and("centralizer", scope, p, caps)
        collected_gens.extend(P.generator_rows())
    target = pi_part(group.order, primes)
    rows = kernel.close_group(collected_gens, group.degree, target)
    if rows is None or len(rows) != target:
        raise PreconditionError("centralizer chain assembled a wrong order")
    return group.subgroup_from_rows(rows)


def hall_subgroup(
    group: PermutationGroup, pi: Sequence[int], caps: Optional[int] = None
) -> HallSearch:
    """Search for any Hall pi-subgroup; see the module docstring."""
    primes = check_pi(group.order, pi)
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

    # The factorial test is cheap and passes at every index above a few,
    # so is_simple, which builds a chief series, runs only when it fails.
    index = order // target
    if not _divides_factorial(order, index) and is_simple(group, caps):
        return HallSearch(
            "absent",
            None,
            "a simple group of this order cannot act faithfully on %d cosets" % index,
        )

    return _anchored_search(group, primes, target, caps)


def _divides_factorial(n: int, m: int) -> bool:
    """Whether n divides m!, by Legendre's formula: m! holds the prime p
    sum(m // p^k, k >= 1) times."""
    for p in prime_factors(n):
        exponent = 0
        while n % p ** (exponent + 1) == 0:
            exponent += 1
        count, power = 0, p
        while power <= m and count < exponent:
            count += m // power
            power *= p
        if count < exponent:
            return False
    return True


def _orders_divide(a: Row, b: Row, n: int) -> bool:
    """Whether the orders of ab and ab^2 both divide n."""
    ab = kernel.compose(a, b)
    return n % kernel.order_of(ab) == 0 and n % kernel.order_of(kernel.compose(ab, b)) == 0


def _anchored_search(
    group: PermutationGroup, primes: Tuple[int, ...], target: int, caps: Optional[int]
) -> HallSearch:
    """Closure search over Sylow choices, anchored at the scarcest prime.

    Any Hall pi-subgroup contains full Sylow subgroups for each prime in
    pi and is generated by them; conjugating it to contain the fixed
    anchor leaves the other primes' Sylow subgroups to enumerate.  Every
    prime's conjugates are listed by all_sylow, and a list's length is the
    prime's Sylow count, so the anchor is the prime with the shortest
    list.  An element-cap error propagates from sylow().  Sound for both
    existence and absence; bounded by the candidate budget.

    Depth first over a stack: a frame holds generators, their closure
    rows and an iterator over the next prime's candidates.  A candidate
    is charged the elements its closure adds to the frame's rows,
    counting at most one past target.  At the last prime a closure holds
    a full Sylow subgroup for every prime of pi, so its order is a
    multiple of target: it is a Hall subgroup or overflows.  A candidate
    there for which ab or ab^2 (a = gens[0], b = cand[0]) has an order
    not dividing target therefore overflows, and is charged so without
    being closed.
    """
    lists = {p: all_sylow(group, p, caps) for p in primes}
    anchor = min(primes, key=lambda p: (len(lists[p]), p))
    others = sorted((p for p in primes if p != anchor), key=lambda p: (len(lists[p]), p))
    seed = sylow(group, anchor, caps)
    budget = HALL_CANDIDATE_CAP
    stack = [(seed.generator_rows(), seed.element_rows(caps), iter(lists[others[0]]))]
    while stack:
        gens, rows, cands = stack[-1]
        cand = next(cands, None)
        if cand is None:
            stack.pop()
            continue
        last = len(stack) == len(others)
        if last and not _orders_divide(gens[0], cand[0], target):
            merged = None
        else:
            merged = kernel.close_group(gens + cand, group.degree, target)
        charge = (target + 1 if merged is None else len(merged)) - len(rows)
        if charge >= budget:
            return HallSearch("inconclusive", None, "Hall search budget exhausted",
                              "hall_candidates", HALL_CANDIDATE_CAP)
        budget -= charge
        if merged is None or target % len(merged):
            continue
        if not last:
            stack.append((gens + cand, merged, iter(lists[others[len(stack)]])))
        elif len(merged) == target:
            sub = group.subgroup_from_rows(merged)
            return HallSearch("found", sub, "anchored Sylow closure search")
    return HallSearch(
        "absent",
        None,
        "no Sylow combination over the anchor closes to order %d" % target,
    )
