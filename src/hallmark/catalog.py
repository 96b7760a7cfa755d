"""Named test groups and the group-file format.

Every builder returns a concrete permutation group and is deterministic:
the same parameters always produce the same generator lists, so point
numberings and downstream class orderings are stable across runs.

Groups built from field arithmetic (projective lines, semilinear affine
maps) encode field elements as integers via gf.IntField, whose power
basis comes from the least monic irreducible polynomial: least by the
base-p value of its lower coefficients, constant term least significant.
"""

from __future__ import annotations

import json
import os
from math import gcd
from typing import Callable, Dict, List, Tuple

from . import gf
from .arith import is_int, is_prime, multiplicative_order, prime_power
from .errors import MalformedInputError, PreconditionError
from .perms import PermutationGroup

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data", "groups")


def cyclic(n: int) -> PermutationGroup:
    """Cyclic group of order n on n points."""
    if not is_int(n) or n < 1:
        raise MalformedInputError("cyclic(n) needs an integer n >= 1, got %r" % (n,))
    return PermutationGroup(n, [tuple((i + 1) % n for i in range(n))])


def dihedral(n: int) -> PermutationGroup:
    """Dihedral group of order 2n acting on the n vertices of an n-gon."""
    if not is_int(n) or n < 3:
        raise MalformedInputError(
            "dihedral(n) needs an integer n >= 3 for a faithful vertex action, got %r" % (n,)
        )
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple(-i % n for i in range(n))
    return PermutationGroup(n, [rot, flip])


def symmetric(n: int) -> PermutationGroup:
    """Symmetric group on n >= 1 points."""
    if not is_int(n) or n < 1:
        raise MalformedInputError("symmetric(n) needs an integer n >= 1, got %r" % (n,))
    if n == 1:
        return PermutationGroup(1, [])
    gens = [(1, 0) + tuple(range(2, n)), tuple((i + 1) % n for i in range(n))]
    return PermutationGroup(n, gens)


def alternating(n: int) -> PermutationGroup:
    """Alternating group on n >= 1 points."""
    if not is_int(n) or n < 1:
        raise MalformedInputError("alternating(n) needs an integer n >= 1, got %r" % (n,))
    if n <= 2:
        return PermutationGroup(n, [])
    if n == 3:
        return PermutationGroup(3, [(1, 2, 0)])
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = (0,) + tuple(i % (n - 1) + 1 for i in range(1, n))
    return PermutationGroup(n, [three, big])


def psl2(q: int) -> PermutationGroup:
    """PSL(2, q) on the q+1 points of the projective line.

    Points are numbered by the integer field encoding: [x : 1] is point x
    for x in 0..q-1 and [1 : 0] is point q.  Generators are the Moebius
    maps x -> x+1, x -> gx for g a generating square, and x -> -1/x.
    """
    pp = prime_power(q) if is_int(q) else None
    if pp is None:
        raise MalformedInputError("psl2(q) needs a prime power q >= 2, got %r" % (q,))
    p, e = pp
    field = gf.IntField(p, e)
    inf = q

    def moebius(a: int, b: int, c: int, d: int) -> tuple:
        # Images of [x : 1] under (a b; c d), then of [1 : 0].
        images = []
        for x in range(q):
            num = field.add(field.mul(a, x), b)
            den = field.add(field.mul(c, x), d)
            images.append(field.mul(num, field.inv(den)) if den else inf)
        images.append(field.mul(a, field.inv(c)) if c else inf)
        return tuple(images)

    g = field.multiplicative_generator()
    gsq = field.mul(g, g)
    one = 1
    gens = [
        moebius(one, one, 0, one),
        moebius(gsq, 0, 0, one),
        moebius(0, field.neg(one), one, 0),
    ]
    return PermutationGroup(q + 1, gens)


def semi_affine(q: int, p: int) -> PermutationGroup:
    """Semilinear affine group of F_{q^p} acting on the q^p field elements.

    Generated by translation x -> x+1, scaling x -> gx by a multiplicative
    generator g, and the field automorphism x -> x^q.  Order q^p(q^p-1)p.
    """
    if not (is_int(q) and is_int(p)):
        raise MalformedInputError("semi_affine(q, p) needs integers, got %r, %r" % (q, p))
    if not (is_prime(q) and is_prime(p) and q != p):
        raise MalformedInputError(
            "semi_affine(q, p) needs distinct primes, got q=%r p=%r" % (q, p)
        )
    field = gf.IntField(q, p)
    n = field.order
    translate = tuple(field.add(x, 1) for x in range(n))
    g = field.multiplicative_generator()
    scale = tuple(field.mul(g, x) for x in range(n))
    frob = tuple(field.frobenius(x) for x in range(n))
    return PermutationGroup(n, [translate, scale, frob])


def frobenius(n: int, k: int) -> PermutationGroup:
    """Frobenius group C_n . C_k on n points: x -> x+1 and x -> ux mod n.

    u is the least unit of multiplicative order exactly k modulo n; the
    parameters are rejected when no such unit exists.
    """
    if not (is_int(n) and is_int(k)) or n < 2 or k < 2:
        raise MalformedInputError("frobenius(n, k) needs integers n, k >= 2, got %r, %r" % (n, k))
    u = None
    for cand in range(2, n):
        if gcd(cand, n) == 1 and multiplicative_order(cand, n) == k:
            u = cand
            break
    if u is None:
        raise MalformedInputError("no unit of order %d modulo %d" % (k, n))
    translate = tuple((x + 1) % n for x in range(n))
    scale = tuple(x * u % n for x in range(n))
    return PermutationGroup(n, [translate, scale])


def direct_product(g: PermutationGroup, h: PermutationGroup) -> PermutationGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    dg, dh = g.degree, h.degree
    degree = dg + dh
    rest = tuple(range(dg, degree))
    gens = [p.images + rest for p in g.generators]
    head = tuple(range(dg))
    gens += [head + tuple(i + dg for i in p.images) for p in h.generators]
    return PermutationGroup(degree, gens)


def parse_group_json(obj: object, source: str = "<group>") -> Tuple[str, PermutationGroup]:
    """Validate a group document {"name", "degree", "generators"}.

    Generators list images 1-based.  Errors name the offending generator
    and position so hand-edited files can be fixed without guesswork.
    """
    if not isinstance(obj, dict):
        raise MalformedInputError("%s: top level must be an object" % source)
    extra = set(obj) - {"name", "degree", "generators"}
    if extra:
        raise MalformedInputError("%s: unknown keys %s" % (source, sorted(extra)))
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise MalformedInputError("%s: \"name\" must be a nonempty string" % source)
    degree = obj.get("degree")
    if not is_int(degree) or degree < 0:
        raise MalformedInputError("%s: \"degree\" must be a nonnegative integer" % source)
    gens_raw = obj.get("generators")
    if not isinstance(gens_raw, list):
        raise MalformedInputError("%s: \"generators\" must be a list" % source)
    gens = []
    for gi, row in enumerate(gens_raw, start=1):
        if not isinstance(row, list):
            raise MalformedInputError("%s: generator %d is not a list" % (source, gi))
        if len(row) != degree:
            raise MalformedInputError(
                "%s: generator %d has %d images, expected %d" % (source, gi, len(row), degree)
            )
        seen = [False] * degree
        images = []
        for pos, img in enumerate(row, start=1):
            if not is_int(img) or not 1 <= img <= degree:
                raise MalformedInputError(
                    "%s: generator %d, position %d: image %r outside 1..%d"
                    % (source, gi, pos, img, degree)
                )
            if seen[img - 1]:
                raise MalformedInputError(
                    "%s: generator %d, position %d: image %d repeated" % (source, gi, pos, img)
                )
            seen[img - 1] = True
            images.append(img - 1)
        gens.append(tuple(images))
    return name, PermutationGroup(degree, gens)


def load_group_file(path: str) -> Tuple[str, PermutationGroup]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError("cannot read group file %s: %s" % (path, exc)) from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError("%s: invalid JSON: %s" % (path, exc)) from exc
    return parse_group_json(obj, source=path)


def _shipped(filename: str) -> PermutationGroup:
    _, group = load_group_file(os.path.join(_DATA_DIR, filename))
    return group


def j1() -> PermutationGroup:
    """Janko's smallest sporadic group on 266 points, order 175560."""
    return _shipped("j1.json")


def psl3_3() -> PermutationGroup:
    """PSL(3, 3) on the 13 points of the projective plane over F_3."""
    return _shipped("psl3_3.json")


class CatalogEntry:
    """A named group with its order and degree known up front.

    The builder runs only when the group is requested, so listing the
    catalog stays cheap even for the large entries.
    """

    __slots__ = ("name", "builder", "order", "degree", "tags", "summary")

    def __init__(
        self,
        name: str,
        builder: Callable[[], PermutationGroup],
        order: int,
        degree: int,
        tags: frozenset,
        summary: str,
    ):
        self.name = name
        self.builder = builder
        self.order = order
        self.degree = degree
        self.tags = tags
        self.summary = summary

    def build(self) -> PermutationGroup:
        group = self.builder()
        if group.order != self.order or group.degree != self.degree:
            raise PreconditionError(
                "catalog entry %s built order %d degree %d, registry says %d on %d"
                % (self.name, group.order, group.degree, self.order, self.degree)
            )
        return group

    def __repr__(self) -> str:
        return "CatalogEntry(%r, order=%d, degree=%d)" % (self.name, self.order, self.degree)


_REGISTRY: Dict[str, CatalogEntry] = {}


def _register(
    name: str,
    builder: Callable[[], PermutationGroup],
    order: int,
    degree: int,
    tags: Tuple[str, ...],
    summary: str,
) -> None:
    if name in _REGISTRY:
        raise PreconditionError("duplicate catalog name %s" % name)
    _REGISTRY[name] = CatalogEntry(name, builder, order, degree, frozenset(tags), summary)


def entries(include_stretch: bool = True) -> List[CatalogEntry]:
    out = list(_REGISTRY.values())
    if not include_stretch:
        out = [e for e in out if "sporadic-stretch" not in e.tags]
    return out


def get_entry(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MalformedInputError(
            "unknown catalog group %r (see `hallmark catalog`)" % (name,)
        ) from None


def build(name: str) -> PermutationGroup:
    return get_entry(name).build()


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // gcd(2, q - 1)


def _fill_registry() -> None:
    _register("c6", lambda: cyclic(6), 6, 6, ("solvable", "abelian"), "cyclic of order 6")
    _register("c15", lambda: cyclic(15), 15, 15, ("solvable", "abelian"), "cyclic of order 15")
    _register("c30", lambda: cyclic(30), 30, 30, ("solvable", "abelian"), "cyclic of order 30")
    _register("d4", lambda: dihedral(4), 8, 4, ("solvable",), "dihedral, order 8")
    _register("d6", lambda: dihedral(6), 12, 6, ("solvable",), "dihedral, order 12")
    _register("d15", lambda: dihedral(15), 30, 15, ("solvable",), "dihedral, order 30")
    _register(
        "frob20", lambda: frobenius(5, 4), 20, 5, ("solvable",), "Frobenius 5:4, order 20"
    )
    _register(
        "frob21", lambda: frobenius(7, 3), 21, 7, ("solvable",), "Frobenius 7:3, order 21"
    )
    _register(
        "frob42", lambda: frobenius(7, 6), 42, 7, ("solvable",), "Frobenius 7:6, order 42"
    )
    _register("s3", lambda: symmetric(3), 6, 3, ("solvable",), "symmetric on 3 points")
    _register("s4", lambda: symmetric(4), 24, 4, ("solvable",), "symmetric on 4 points")
    _register("s5", lambda: symmetric(5), 120, 5, (), "symmetric on 5 points")
    _register("s6", lambda: symmetric(6), 720, 6, (), "symmetric on 6 points")
    _register("a4", lambda: alternating(4), 12, 4, ("solvable",), "alternating on 4 points")
    _register("a5", lambda: alternating(5), 60, 5, ("simple",), "alternating on 5 points")
    _register("a6", lambda: alternating(6), 360, 6, ("simple",), "alternating on 6 points")
    _register("a7", lambda: alternating(7), 2520, 7, ("simple",), "alternating on 7 points")
    _register("a8", lambda: alternating(8), 20160, 8, ("simple",), "alternating on 8 points")
    for q in (4, 5, 7, 8, 9, 11, 13, 31):
        _register(
            "psl2_%d" % q,
            (lambda qq: lambda: psl2(qq))(q),
            _psl2_order(q),
            q + 1,
            ("simple",),
            "PSL(2, %d) on the projective line" % q,
        )
    _register("psl3_3", psl3_3, 5616, 13, ("simple",), "PSL(3, 3) on the projective plane")
    _register(
        "aff8",
        lambda: semi_affine(2, 3),
        168,
        8,
        ("solvable",),
        "semilinear affine group of F_8",
    )
    _register(
        "aff9",
        lambda: semi_affine(3, 2),
        144,
        9,
        ("solvable",),
        "semilinear affine group of F_9",
    )
    _register(
        "aff32",
        lambda: semi_affine(2, 5),
        4960,
        32,
        ("solvable",),
        "semilinear affine group of F_32",
    )
    _register(
        "c3xc5",
        lambda: direct_product(cyclic(3), cyclic(5)),
        15,
        8,
        ("solvable", "abelian"),
        "C3 x C5 on 3 + 5 points",
    )
    _register(
        "a5xc7",
        lambda: direct_product(alternating(5), cyclic(7)),
        420,
        12,
        (),
        "A5 x C7 on 5 + 7 points",
    )
    _register(
        "s3xs3",
        lambda: direct_product(symmetric(3), symmetric(3)),
        36,
        6,
        ("solvable",),
        "S3 x S3 on 3 + 3 points",
    )
    _register(
        "j1",
        j1,
        175560,
        266,
        ("simple", "sporadic-stretch"),
        "Janko group J1 on 266 points",
    )


_fill_registry()
