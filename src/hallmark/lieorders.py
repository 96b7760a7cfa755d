"""Exact arithmetic for classical-group orders and block-witness class sizes.

Everything here is unbounded-integer replay: generic orders of the classical
groups over F_q, multiplicative orders of q modulo odd primes, class sizes of
distinguished semisimple elements built from Singer-type blocks, and the
coprime-index torus chains that produce abelian Hall {r,s}-subgroups.  The
point is that each class-size expression carries an asserted divisor, and the
implication "both block witnesses have class size coprime to the other prime
=> the two multiplicative orders agree and a torus chain of index coprime to
rs exists" can be checked exactly at concrete parameters.

Family names: GL, GU, Sp, SOodd (dimension 2n+1), SOplus / SOminus
(dimension 2n, discriminant sign +/-).  Orders follow the generic formulas,
e.g. |GL_n(q)| = q^(n(n-1)/2) * prod(q^j - 1) and the SO^eps form carrying
the (q^n - eps) factor; class sizes are quotients of these, so any consistent
convention gives the same divisibility facts.

The entry points are verify_pair, one point, and run_grid, every point
of a manifest grid.  Arguments are checked once, where they enter:
verify_pair checks the family, rank, q and primes (the primes odd and
prime to q), and run_grid checks its manifest, and both refuse a group
over the order bits cap before any order is multiplied out.  Each then
computes k, the order of q (of -q for GU) modulo the prime, and hands it
to one of two witness builders, _linear (GL, GU) and _orthogonal (SO,
and Sp read as SO_2n+1), which build the one block witness of that
prime.  A builder checks only that the block fits in rank n; it factors
no number, so the grid's many witnesses cost no primality or order test
each.  A witness holds only the numbers its checks read, and its report
fields are built when a report reads them; the group orders and the
divisor products, which many witnesses share, are each computed once.
The premise of the implication is one test, _premise, which run_grid
reads before it asks _verdict for a point's verdict.  The torus chain
and the mixed torus read one torus rule, _torus and _hall_parts.
"""

import json
import os
from functools import lru_cache
from itertools import combinations
from math import comb, log2, prod

from .arith import (
    is_int,
    is_prime,
    order_dividing,
    p_part,
    prime_power,
    require_prime,
    require_prime_power,
)
from .config import ORDER_BITS_CAP, RANK_CAP
from .errors import CapacityError, MalformedInputError, PreconditionError

__all__ = [
    "FAMILIES",
    "ClassSize",
    "load_grid_manifest",
    "run_grid",
    "verify_pair",
]

FAMILIES = ("GL", "GU", "Sp", "SOodd", "SOplus", "SOminus")

GRID_SCHEMA = "hallmark-lie-grid/1"
GRID_REPORT_SCHEMA = "hallmark-lie-grid-report/1"

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _exact_div(num: int, den: int) -> int:
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("expected %d to divide %d exactly" % (den, num))
    return quo


def _tor(x: int, j: int, unitary: bool) -> int:
    # tor(j) = x^j - 1, or x^j - (-1)^j for GU
    return x ** j - (-1) ** j if unitary else x ** j - 1


@lru_cache(maxsize=4096)
def _tor_product(x: int, top: int, unitary: bool = False) -> int:
    # prod(tor(j), 1 <= j < top) over x, q or q^2 (Carter, Finite Groups of
    # Lie Type, 2.9): every group order and witness divisor is built from
    # these, and the same few are asked for again and again.
    return prod(_tor(x, j, unitary) for j in range(1, top))


def _order(family: str, n: int, q: int) -> int:
    # Generic order of the classical group of rank parameter n over F_q, on
    # checked arguments; n = 0 gives 1, the empty group of a quotient formula.
    if family in ("GL", "GU"):
        return q ** (n * (n - 1) // 2) * _tor_product(q, n + 1, family == "GU")
    return _so_order(*_form(family, n), q)


def _check_prime(p, role: str, q: int) -> None:
    # Witnesses are defined for odd primes coprime to q only.
    require_prime(p, role)
    if p == 2:
        raise PreconditionError("%s must be odd, got 2" % role)
    if q % p == 0:
        raise PreconditionError("%s = %d divides q = %d" % (role, p, q))


def _form(family: str, n: int):
    # (d, eps) of the orthogonal form a family and rank name; Sp_2n reads as
    # SO_2n+1, which has the same order.
    if family in ("Sp", "SOodd"):
        return 2 * n + 1, 0
    return 2 * n, 1 if family == "SOplus" else -1


@lru_cache(maxsize=4096)
def _so_order(d: int, eps: int, q: int) -> int:
    # Order of SO^eps_d(q), addressed by dimension: odd d ignores the sign.
    # The witness builders ask for the same few orders again and again.
    n = d // 2
    if d % 2:
        return q ** (n * n) * _tor_product(q * q, n + 1)
    if n == 0:
        return 1
    return q ** (n * (n - 1)) * (q ** n - eps) * _tor_product(q * q, n)


def _family_order_of_q(family: str, r: int, q: int) -> int:
    # The order of q (of -q for GU) modulo r, on checked arguments: the
    # unitary family tracks powers of -q, everything else powers of q.  r is
    # prime, so the order divides r - 1 and r itself is not factored again.
    return order_dividing((-q if family == "GU" else q) % r, r, r - 1)


def _block_exponent(base: int, r: int, n: int) -> int:
    # Largest m >= 0 with base * r^m <= n; caller guarantees base <= n.
    m = 0
    while base * r ** (m + 1) <= n:
        m += 1
    return m


class ClassSize:
    """One block-witness class size together with its guaranteed divisor.

    A builder sets the numbers that the checks read: the value, the
    divisor and the ambient group order.  The report fields, the family
    label and the params with the ambient group's name (Sp_2n(q),
    SO^eps_d(q), GL_n(q) or GU_n(q)), are built from `point`, the
    (family, n, q, r, k, m) the witness was built at, only when `params`
    or to_json() reads them, which run_grid never does.
    """

    __slots__ = ("case", "point", "value", "divisor", "ambient")

    def __init__(self, case, point, value, divisor, ambient):
        self.case = case
        self.point = point
        self.value = value
        self.divisor = divisor
        self.ambient = ambient

    @property
    def family(self) -> str:
        group = self.point[0]
        return "SO" if group.startswith("SO") else group

    @property
    def params(self) -> dict:
        group, n, q, r, k, m = self.point
        if group in ("GL", "GU"):
            top = k * r ** m
            # An even k for GU means GL_1(q^(2*kappa)) on 2*kappa dimensions.
            kappa = top // 2 if group == "GU" and k % 2 == 0 else top
            return {"n": n, "q": q, "r": r, "k": k, "m": m, "kappa": kappa,
                    "ambient": "%s_%d(%d)" % (group, n, q)}
        kappa = _torus(group, q, k)[0] * r ** m
        block = {"m": m, "kappa": kappa}
        if self.case.endswith("-drop"):
            block["kappa1"] = kappa // r
        if group == "Sp":
            return {"n": n, "q": q, "r": r, "k": k, **block,
                    "ambient": "Sp_%d(%d)" % (2 * n, q)}
        d, eps = _form(group, n)
        label = "SO^%s_%d(%d)" % ({1: "+", -1: "-", 0: ""}[eps], d, q)
        return {"d": d, "eps": eps, "q": q, "r": r, "k": k, "ambient": label, **block}

    @property
    def divisor_holds(self) -> bool:
        return self.value % self.divisor == 0

    @property
    def divides_ambient(self) -> bool:
        return self.ambient % self.value == 0

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "case": self.case,
            "params": self.params,
            "value": self.value,
            "divisor": self.divisor,
            "ambient": self.ambient,
            "divisor_holds": self.divisor_holds,
            "divides_ambient": self.divides_ambient,
        }


def _linear(family: str, n: int, q: int, r: int, k: int) -> ClassSize:
    """Witness of GL_n(q) or GU_n(q); k is the order of q (of -q for GU) mod r.

    The block GL_1(q^top) or GU_1(q^top) sits on top = k * r^m dimensions,
    m maximal with top <= n; its divisor is prod(tor(j), j < top) with
    tor(j) = q^j - (+-1)^j, computed once per (q, top, family kind).
    """
    if k > n:
        raise PreconditionError(
            "r = %d does not divide the group order in rank %d (k = %d > n)" % (r, n, k)
        )
    unitary = family == "GU"
    ambient = _order(family, n, q)
    m = _block_exponent(k, r, n)
    top = k * r ** m
    value = _exact_div(ambient, _tor(q, top, unitary) * _order(family, n - top, q))
    return ClassSize("block", (family, n, q, r, k, m), value,
                     _tor_product(q, top, unitary), ambient)


def _stacked(d: int, eps: int, q: int, big_k: int, a: int):
    """(class size, divisor) of `a` twisted blocks GU_1(q^K), stacked
    into GU_a(q^K) inside SO^eps_d(q)."""
    rest = _so_order(d - 2 * a * big_k, eps * (-1) ** a, q)
    value = _exact_div(_so_order(d, eps, q), _order("GU", a, q ** big_k) * rest)
    # The divisor prod(q^(2j) - 1, j < aK, K does not divide j) times
    # prod(q^(iK) + (-1)^i, i < a), as q^(2iK) - 1 = (q^(iK) - (-1)^i)(q^(iK) + (-1)^i).
    return value, _tor_product(q * q, a * big_k) // _tor_product(q ** big_k, a, True)


def _orthogonal(family: str, n: int, q: int, r: int, k: int) -> ClassSize:
    """Witness of Sp_2n(q) or SO^eps_d(q); k is the order of q mod r.

    Sp_2n(q) is read as SO_2n+1(q): the two have the same order and the
    same witnesses, and only the label and params differ.  Odd k gives the
    "split" block GL_1(q^kappa) on a plus-type 2*kappa subspace, even k the
    "twisted" block GU_1(q^kappa) on a minus-type one: kappa = K * r^m with
    K = k or k/2, and the torus is q^kappa - 1 or q^kappa + 1.  Removing a
    plus-type block keeps eps, removing a minus-type block flips it.  The
    group can be the one form with no room for that block (SO^- of
    dimension 2*kappa for split, SO^+ for twisted); its "-drop" witness
    then steps the block down by one power of r.  A one-block divisor is
    prod(q^(2j) - 1, j < size), the torus product over q^2.
    """
    d, eps = _form(family, n)
    big_k = _torus(family, q, k)[0]
    case, sign = ("split", 1) if big_k == k else ("twisted", -1)
    if big_k > n:
        what = "k" if sign == 1 else "k/2"
        raise PreconditionError(
            "%s cases need %s <= n, got %s=%d n=%d" % (case, what, what, big_k, n)
        )
    ambient = _so_order(d, eps, q)
    m = _block_exponent(big_k, r, n)
    size = big_k * r ** m
    if d == 2 * size and eps == -sign:
        case += "-drop"
        if m < 1:
            raise PreconditionError("case %r needs m >= 1, got m = 0" % (case,))
        size //= r
    if case == "twisted-drop":
        # r - 1 twisted blocks one power of r down fill the form exactly.
        value, divisor = _stacked(d, eps, q, size, r - 1)
    else:
        # One block of dimension 2 * size: split, twisted or split-drop.
        value = _exact_div(
            ambient, (q ** size - sign) * _so_order(d - 2 * size, eps * sign, q)
        )
        divisor = _tor_product(q * q, size)
    return ClassSize(case, (family, n, q, r, k, m), value, divisor, ambient)


def _torus(family: str, q: int, k: int) -> tuple:
    """(rank, order) of the cyclic torus of a prime at which q (-q for GU)
    has order k: GL_1(q^k) or GU_1(q^k) in GL and GU; in the orthogonal
    families the split GL_1(q^k) for odd k, the twisted GU_1(q^(k/2)) for
    even k.  The chain and the mixed torus both read their tori here."""
    if family in ("GL", "GU") or k % 2:
        return k, _tor(q, k, family == "GU")
    return k // 2, q ** (k // 2) + 1


def _hall_parts(order: int, torus: int, r: int, s: int) -> dict:
    """The r- and s-parts of the group order and of a torus order, and
    `match`: whether the torus order carries both, so that the torus holds
    a Hall {r, s}-subgroup."""
    r_ambient, r_torus = p_part(order, r), p_part(torus, r)
    s_ambient, s_torus = p_part(order, s), p_part(torus, s)
    return {
        "r_part_ambient": r_ambient,
        "r_part_torus": r_torus,
        "s_part_ambient": s_ambient,
        "s_part_torus": s_torus,
        "match": r_ambient == r_torus and s_ambient == s_torus,
    }


def _chain_report(family: str, n: int, q: int, ambient: int, k: int, r: int,
                  s: int) -> dict:
    """Torus chain data: copies of the torus of k and the rs-part match.

    The chain packs `copies` commuting cyclic tori of order `factor` into
    the group of order `ambient`; its index is coprime to rs exactly when
    the r- and s-parts of `ambient` are captured by the torus product,
    which is what `match` tests.  For the even-dimensional orthogonal
    groups one torus copy is traded away unless the discriminant factor
    q^n - eps happens to carry the same prime, hence the sign juggling on
    `copies`.
    """
    rank, factor = _torus(family, q, k)
    if family in ("SOplus", "SOminus"):
        copies = (n - 1) // rank
        if n % rank == 0:
            joined = 1 if k % 2 else (-1) ** (n // rank)
            if _form(family, n)[1] == joined:
                copies += 1
    else:
        copies = n // rank
    return {
        "torus_factor": factor,
        "copies": copies,
        "rank": rank,
        **_hall_parts(ambient, factor ** copies, r, s),
    }


def _stack_value(family: str, n: int, q: int, prime: int, k: int) -> int:
    """Class size of the stacked twisted witness for `prime`, whose q has
    even order k: a = floor(n/(k/2)) blocks GU_1(q^(k/2)), one fewer when
    the full stack would exhaust the group (possible only for the
    even-dimension orthogonal forms).  A full stack needs a < prime, so
    no block index collapses."""
    d, eps = _form(family, n)
    big_k = k // 2
    a = n // big_k
    if d == 2 * a * big_k and eps == -(-1) ** a:
        return _stacked(d, eps, q, big_k, a - 1)[0]
    if a >= prime:
        raise PreconditionError(
            "case 'twisted-stack' needs floor(n/(k/2)) < r, got %d >= %d" % (a, prime)
        )
    return _stacked(d, eps, q, big_k, a)[0]


def _block_witness(family: str, n: int, q: int, prime: int, k: int) -> ClassSize:
    # The block witness of `prime`, whose order of q (of -q for GU) is k.
    build = _linear if family in ("GL", "GU") else _orthogonal
    return build(family, n, q, prime, k)


def verify_pair(family: str, n: int, q: int, r: int, s: int) -> dict:
    """Check the block-witness divisibility implication for the pair (r, s).

    Computes the r-element and s-element block witnesses and tests: if each
    class size is coprime to the other prime, then either the multiplicative
    orders of q at r and at s agree and the torus chain has index coprime to
    rs, or (for SO^- of dimension exactly 4K, one order K odd and the other
    2K) the mixed torus GL_1(q^K) x GU_1(q^K) does.  Points where one prime
    misses the group order entirely are vacuous.
    """
    if family not in FAMILIES:
        raise MalformedInputError(
            "unknown family %r; expected one of %s" % (family, ", ".join(FAMILIES))
        )
    _check_rank(n, "rank")
    require_prime_power(q)
    _check_prime(r, "r", q)
    _check_prime(s, "s", q)
    if r == s:
        raise PreconditionError("r and s must be distinct, both are %d" % r)
    _check_order_bits(family, n, q)
    k = _family_order_of_q(family, r, q)
    l = _family_order_of_q(family, s, q)
    order = _order(family, n, q)
    report = dict(family=family, n=n, q=q, r=r, s=s, order=order, k=k, l=l)
    inactive = [p for p in (r, s) if order % p]
    if inactive:
        report.update(
            status="vacuous", inactive=inactive, witnesses=[], premise=False,
            orders_equal=None, chain=None, consistent=True,
        )
        return report
    r_wit = _block_witness(family, n, q, r, k)
    s_wit = _block_witness(family, n, q, s, l)
    premise, orders_equal, chain, mixed, consistent = _verdict(
        family, n, q, r, s, order, k, l, r_wit.value, s_wit.value
    )
    witnesses = [
        dict(
            w.to_json(), prime=prime, other_prime_divides=w.value % other == 0,
            own_prime_divides=w.value % prime == 0,
        )
        for w, prime, other in ((r_wit, r, s), (s_wit, s, r))
    ]
    report.update(
        status="witnessed", witnesses=witnesses, premise=premise,
        orders_equal=orders_equal, chain=chain, mixed_torus=mixed,
        consistent=consistent,
    )
    return report


def _premise(r: int, s: int, r_value: int, s_value: int) -> bool:
    # Each block witness's class size is coprime to the other prime.
    return r_value % s != 0 and s_value % r != 0


def _verdict(family: str, n: int, q: int, r: int, s: int, order: int, k: int,
             l: int, r_value: int, s_value: int) -> tuple:
    """The implication at a point where r and s both divide the group order,
    on validated arguments: k and l are the orders of q (of -q for GU)
    modulo r and s, and r_value and s_value the class sizes of their block
    witnesses.

    Returns (premise, orders_equal, chain, mixed_torus, consistent), the
    verdict fields of verify_pair's report.  The chain is computed whenever
    k == l, premise or not; the mixed torus only where the premise holds
    with k != l outside GL and GU.  verify_pair reads its verdict here,
    and run_grid at each point where _premise holds: where it fails, the
    verdict is consistent.
    """
    premise = _premise(r, s, r_value, s_value)
    orders_equal = k == l
    chain = _chain_report(family, n, q, order, k, r, s) if orders_equal else None
    mixed = None
    if premise and not orders_equal and family not in ("GL", "GU"):
        # Coprimality of both witnesses forces the halved orders to agree,
        # so an order mismatch means opposite parities with a common K.  The
        # stacked witness then decides: coprime to the odd-order prime it
        # pins the group to SO^- of dimension 4K, where the product of a
        # split and a twisted rank-K torus is a Hall {r, s}-subgroup.
        big_k, r_torus = _torus(family, q, k)
        big_s, s_torus = _torus(family, q, l)
        if big_k == big_s:
            even_prime, even_k, odd_prime = (r, k, s) if k % 2 == 0 else (s, l, r)
            stack = _stack_value(family, n, q, even_prime, even_k)
            stack_coprime = stack % odd_prime != 0
            endpoint = family == "SOminus" and n == 2 * big_k
            factor = r_torus * s_torus
            mixed = {
                "torus_factor": factor,
                "rank": big_k,
                "stack_witness": stack,
                "stack_coprime": stack_coprime,
                "endpoint": endpoint,
                **_hall_parts(order, factor, r, s),
            }
            mixed["match"] = stack_coprime and endpoint and mixed["match"]
            if not stack_coprime:
                premise = False
    consistent = (
        (not premise)
        or (orders_equal and chain["match"])
        or (mixed is not None and mixed["match"])
    )
    return premise, orders_equal, chain, mixed, consistent


def _check_grid(manifest, source: str = "grid manifest") -> None:
    """Raise MalformedInputError unless `manifest` is a valid grid manifest,
    and CapacityError if its max_rank exceeds config.RANK_CAP or a group
    of that rank is over config.ORDER_BITS_CAP.

    `source` names the manifest in the messages.
    """
    if not isinstance(manifest, dict) or manifest.get("schema") != GRID_SCHEMA:
        raise MalformedInputError("%s must declare schema %r" % (source, GRID_SCHEMA))
    missing = {"families", "prime_powers", "max_rank", "primes"} - set(manifest)
    if missing:
        raise MalformedInputError(
            "%s is missing %s" % (source, ", ".join(sorted(missing)))
        )
    for key in ("families", "prime_powers", "primes"):
        if not isinstance(manifest[key], list):
            raise MalformedInputError(
                "%s: %s must be a list, got %r" % (source, key, manifest[key])
            )
    for family in manifest["families"]:
        if family not in FAMILIES:
            raise MalformedInputError("%s names unknown family %r" % (source, family))
    for q in manifest["prime_powers"]:
        if not is_int(q) or prime_power(q) is None:
            raise MalformedInputError(
                "%s: prime_powers entry %r is not a prime power" % (source, q)
            )
    primes = manifest["primes"]
    for p in primes:
        if not is_int(p) or not is_prime(p):
            raise MalformedInputError("%s: primes entry %r is not a prime" % (source, p))
    if len(set(primes)) != len(primes):
        raise MalformedInputError("%s lists a prime twice: %r" % (source, primes))
    _check_rank(manifest["max_rank"], "%s: max_rank" % source)
    for family in manifest["families"]:
        for q in manifest["prime_powers"]:
            _check_order_bits(family, manifest["max_rank"], q)


def _check_rank(rank, what: str) -> None:
    """Refuse a rank (named what) that is not a positive integer or that
    exceeds config.RANK_CAP."""
    if not is_int(rank) or rank < 1:
        raise MalformedInputError("%s must be a positive integer, got %r" % (what, rank))
    if rank > RANK_CAP:
        raise CapacityError(
            "%s %d exceeds the rank cap %d" % (what, rank, RANK_CAP),
            cap_name="rank",
            cap_value=RANK_CAP,
        )


def _check_order_bits(family: str, n: int, q: int) -> None:
    """Refuse, before any product is formed, a group whose order has more
    than config.ORDER_BITS_CAP bits, read as dim(G) * log2(q)."""
    dim = n * n if family in ("GL", "GU") else comb(_form(family, n)[0], 2)
    bits = dim * log2(q)
    if bits > ORDER_BITS_CAP:
        raise CapacityError(
            "%s in rank %d over q = %d has an order of about %d bits, above the "
            "order bits cap %d" % (family, n, q, bits, ORDER_BITS_CAP),
            cap_name="order_bits",
            cap_value=ORDER_BITS_CAP,
        )


def load_grid_manifest(path: str = None) -> dict:
    """Load and validate a grid manifest; None means the shipped one."""
    if path is None:
        path = os.path.join(_DATA_DIR, "lie_grid.json")
    try:
        with open(path, "rb") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInputError("cannot read grid manifest %s: %s" % (path, exc))
    _check_grid(manifest, "grid manifest %s" % path)
    return manifest


def run_grid(manifest: dict) -> dict:
    """Check the block-witness implication at every point of the manifest grid.

    A point is a family, a prime power q, a rank n from 1 to max_rank and
    a pair r < s of listed primes; 2 and primes dividing q are skipped.  A
    point where r or s does not divide the group order is vacuous: it is
    counted but not visited, and it cannot fail.  Every other point gets
    its verdict as in verify_pair, but no report: a point where _premise
    fails is consistent, and only a point where it holds is handed to
    _verdict.  Each fact is computed once for the coordinates it depends
    on: the group order per (family, q, n), the order of q or -q modulo
    each prime per (family, q), and each block witness, with its asserted
    divisor and its division of the ambient order checked, per (family,
    q, n, prime).  A witness's divisor product is computed once per q and
    block size, and its report fields are never built.  A
    point gets one failure entry per check that fails there, in
    verify_pair's order: the implication, then r's divisor and ambient
    checks, then s's.
    """
    _check_grid(manifest)
    points = witnessed = 0
    failures = []
    primes = sorted(manifest["primes"])
    for family in manifest["families"]:
        for q in sorted(manifest["prime_powers"]):
            usable = [p for p in primes if p != 2 and q % p]
            ords = {p: _family_order_of_q(family, p, q) for p in usable}
            for n in range(1, manifest["max_rank"] + 1):
                order = _order(family, n, q)
                active = [p for p in usable if order % p == 0]
                points += len(usable) * (len(usable) - 1) // 2
                witnessed += len(active) * (len(active) - 1) // 2
                if len(active) < 2:
                    continue
                values = {}
                faults = {}
                for p in active:
                    w = _block_witness(family, n, q, p, ords[p])
                    values[p] = w.value
                    faults[p] = [
                        reason for reason, holds in (
                            ("divisor", w.divisor_holds), ("ambient", w.divides_ambient)
                        ) if not holds
                    ]
                for r, s in combinations(active, 2):
                    consistent = not _premise(r, s, values[r], values[s]) or _verdict(
                        family, n, q, r, s, order, ords[r], ords[s], values[r], values[s]
                    )[-1]
                    if consistent and not faults[r] and not faults[s]:
                        continue
                    reasons = ([] if consistent else ["implication"]) + faults[r] + faults[s]
                    failures.extend(
                        {"family": family, "n": n, "q": q, "r": r, "s": s, "reason": reason}
                        for reason in reasons
                    )
    return {
        "schema": GRID_REPORT_SCHEMA,
        "points": points,
        "witnessed": witnessed,
        "vacuous": points - witnessed,
        "failures": failures,
        "ok": not failures,
    }
