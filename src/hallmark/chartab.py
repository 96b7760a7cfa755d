"""Character tables: file format, exact validation, and block partitions.

A table file is UTF-8 JSON in the "hallmark-ct/1" schema:

    {
      "schema": "hallmark-ct/1",
      "name": "a5",
      "order": 60,
      "exponent": 30,
      "classes": [{"label": "1a", "size": 1, "element_order": 1}, ...],
      "irreducibles": [[1, 1, ...], ...]
    }

Every entry of an irreducible row is either a plain integer or an
object {"n": ..., "terms": [[coeff, exponent], ...]} denoting
sum coeff * zeta_n^exponent; coefficients are nonzero integers (never
rationals: character values are algebraic integers, and the division
inside central characters happens in-tool, where integrality can be
asserted).  parse_table rejects bad shape, bad size sums, and inexact
orthogonality with distinct error kinds, so a corrupted file never gets
as far as a verdict.  Orthogonality is most of the cost of a parse: for
k classes it takes k(k+1)/2 sums of k columns, each summed by
cyclotomic.inner into one coefficient dict and canonicalized once.

Block partitions follow the classical central-character route: chi and
psi share a p-block exactly when the reductions of omega_chi(K) and
omega_psi(K) agree modulo a prime ideal over p for every class K.
CycReducer maps the values into Z[zeta_m]/p, m the p'-part of their root
orders, which is the product of the residue fields at all the prime
ideals over p at once, so equal images mean equal reductions modulo
every one of them.  Any two such ideals differ by a Galois automorphism
and p-blocks are Galois-stable, so this gives the same partition as any
one ideal would.  A central character scales the canonical form of its
table value, which the value keeps, so each value is canonicalized once
however many primes its table's blocks are computed for.
"""

from __future__ import annotations

import json
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .arith import check_pi, is_int, require_prime
from .cyclotomic import Cyc, inner
from .errors import (
    TableCorruptError,
    TableOrthogonalityError,
    TableSchemaError,
    TableSumError,
)
from .modp import CycReducer
from .verdicts import (
    ClassRecord,
    Verdict,
    blocks_criterion,
    pairwise_criterion,
    pi_prime_sizes_criterion,
)

SCHEMA = "hallmark-ct/1"

__all__ = [
    "SCHEMA",
    "CharacterTable",
    "BlockPartition",
    "parse_table",
    "load_table",
    "encode_value",
    "central_character",
    "block_partition",
    "principal_block_clear",
    "table_criterion_b",
    "table_criterion_c",
]


class CharacterTable:
    """A parsed, fully validated table.

    Immutable after parse.  Its classes are verdicts.ClassRecord, as a
    ClassTable's are, with no representative, so the size criteria in
    `verdicts` run unchanged on either source.
    """

    __slots__ = (
        "name",
        "order",
        "exponent",
        "classes",
        "rows",
        "degrees",
        "trivial_index",
    )

    def __init__(self, name, order, exponent, classes, rows, degrees, trivial_index):
        self.name = name
        self.order = order
        self.exponent = exponent
        self.classes = classes
        self.rows = rows
        self.degrees = degrees
        self.trivial_index = trivial_index


def encode_value(v: Cyc):
    """Smallest schema form of a value: plain int when rational."""
    value = v.as_integer()
    if value is not None:
        return value
    terms = sorted(v.canonical().items())
    return {"n": v.n, "terms": [[c, e] for e, c in terms]}


def _decode_value(obj, where: str, exponent: int) -> Cyc:
    if is_int(obj):
        return Cyc.integer(obj)
    if not isinstance(obj, dict):
        raise TableSchemaError("%s: expected an integer or an {n, terms} object" % where)
    if set(obj) != {"n", "terms"}:
        raise TableSchemaError("%s: value object keys must be exactly n and terms" % where)
    n = obj["n"]
    if not is_int(n) or n < 1:
        raise TableSchemaError("%s: n must be a positive integer" % where)
    if exponent % n:
        raise TableSchemaError("%s: root order %d does not divide the exponent %d" % (where, n, exponent))
    terms = obj["terms"]
    if not isinstance(terms, list) or not terms:
        raise TableSchemaError("%s: terms must be a nonempty list" % where)
    coeffs: Dict[int, int] = {}
    for t, term in enumerate(terms):
        if not isinstance(term, list) or len(term) != 2:
            raise TableSchemaError("%s: terms[%d] must be a [coeff, exponent] pair" % (where, t))
        c, e = term
        if not is_int(c) or c == 0:
            raise TableSchemaError("%s: terms[%d] coefficient must be a nonzero integer" % (where, t))
        if not is_int(e) or not 0 <= e < n:
            raise TableSchemaError("%s: terms[%d] exponent must lie in 0..%d" % (where, t, n - 1))
        if e in coeffs:
            raise TableSchemaError("%s: terms[%d] repeats exponent %d" % (where, t, e))
        coeffs[e] = c
    return Cyc(n, coeffs)


def parse_table(data) -> CharacterTable:
    """Parse and validate a table; rejection is position-precise."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableSchemaError("table file is not UTF-8: %s" % exc)
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TableSchemaError("table file is not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise TableSchemaError("top level must be an object")
    expected = {"schema", "name", "order", "exponent", "classes", "irreducibles"}
    if set(doc) != expected:
        missing = expected - set(doc)
        extra = set(doc) - expected
        parts = []
        if missing:
            parts.append("missing %s" % ", ".join(sorted(missing)))
        if extra:
            parts.append("unknown %s" % ", ".join(sorted(extra)))
        raise TableSchemaError("top-level keys: " + "; ".join(parts))
    if doc["schema"] != SCHEMA:
        raise TableSchemaError("schema must be %r, got %r" % (SCHEMA, doc["schema"]))
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise TableSchemaError("name must be a nonempty string")
    order = doc["order"]
    if not is_int(order) or order < 1:
        raise TableSchemaError("order must be a positive integer")
    exponent = doc["exponent"]
    if not is_int(exponent) or exponent < 1:
        raise TableSchemaError("exponent must be a positive integer")

    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        raise TableSchemaError("classes must be a nonempty list")
    classes: List[ClassRecord] = []
    labels = set()
    for i, obj in enumerate(raw_classes):
        where = "classes[%d]" % i
        if not isinstance(obj, dict) or set(obj) != {"label", "size", "element_order"}:
            raise TableSchemaError("%s: keys must be exactly label, size, element_order" % where)
        label = obj["label"]
        if not isinstance(label, str) or not label:
            raise TableSchemaError("%s: label must be a nonempty string" % where)
        if label in labels:
            raise TableSchemaError("%s: duplicate label %r" % (where, label))
        labels.add(label)
        size = obj["size"]
        if not is_int(size) or size < 1:
            raise TableSchemaError("%s: size must be a positive integer" % where)
        o = obj["element_order"]
        if not is_int(o) or o < 1:
            raise TableSchemaError("%s: element_order must be a positive integer" % where)
        if exponent % o:
            raise TableCorruptError("%s: element order %d does not divide the exponent %d" % (where, o, exponent))
        classes.append(ClassRecord(i, size, o))

    if sum(c.size for c in classes) != order:
        raise TableSumError(
            "class sizes sum to %d, order is %d" % (sum(c.size for c in classes), order)
        )
    identity = [c.index for c in classes if c.element_order == 1]
    if len(identity) != 1:
        raise TableCorruptError("expected exactly one class of element order 1, found %d" % len(identity))
    identity_index = identity[0]
    if classes[identity_index].size != 1:
        raise TableCorruptError("identity class has size %d" % classes[identity_index].size)

    raw_rows = doc["irreducibles"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise TableSchemaError("irreducibles must be a nonempty list")
    if len(raw_rows) != len(classes):
        raise TableSchemaError(
            "table must be square: %d irreducibles, %d classes" % (len(raw_rows), len(classes))
        )
    rows: List[Tuple[Cyc, ...]] = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, list) or len(raw) != len(classes):
            raise TableSchemaError("irreducibles[%d] must list one value per class" % i)
        rows.append(
            tuple(
                _decode_value(v, "irreducibles[%d][%d]" % (i, j), exponent)
                for j, v in enumerate(raw)
            )
        )

    degrees = [row[identity_index].as_integer() for row in rows]
    for i, deg in enumerate(degrees):
        if deg is None or deg < 1:
            raise TableCorruptError("irreducibles[%d] has a non-positive or irrational degree" % i)
        if order % deg:
            raise TableCorruptError(
                "irreducibles[%d] degree %d does not divide the order %d" % (i, deg, order)
            )

    # exact first orthogonality, all pairs (the norm row is the i == j case)
    sizes = [col.size for col in classes]
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            expected = {0: order} if i == j else {}
            if inner(rows[i], rows[j], sizes).canonical() != expected:
                raise TableOrthogonalityError(
                    "irreducibles %d and %d fail first orthogonality" % (i, j)
                )

    trivial = [i for i, row in enumerate(rows) if all(v.as_integer() == 1 for v in row)]
    if len(trivial) != 1:
        raise TableCorruptError("expected exactly one trivial character, found %d" % len(trivial))

    return CharacterTable(name, order, exponent, classes, rows, degrees, trivial[0])


def load_table(path) -> CharacterTable:
    with open(path, "rb") as handle:
        return parse_table(handle.read())


def central_character(table: CharacterTable, chi: int, k: int) -> Cyc:
    """omega_chi(K) = size(K) * chi(g_K) / chi(1), certified integral."""
    value = table.rows[chi][k]
    size = table.classes[k].size
    deg = table.degrees[chi]
    # canonicalization is linear, so this is the form of size * value
    coords = {e: c * size for e, c in value.canonical().items()}
    if any(c % deg for c in coords.values()):
        raise TableCorruptError(
            "central character of irreducible %d at class %d is not an algebraic integer"
            % (chi, k)
        )
    return Cyc(value.n, {e: c // deg for e, c in coords.items()})


class BlockPartition:
    """p-blocks as a partition of irreducible indices."""

    __slots__ = ("p", "blocks", "principal_index", "vacuous")

    def __init__(self, p: int, blocks: List[List[int]], principal_index: int, vacuous: bool):
        self.p = p
        self.blocks = blocks
        self.principal_index = principal_index
        self.vacuous = vacuous

    def to_json(self, table: CharacterTable) -> dict:
        degrees = table.degrees
        return {
            "p": self.p,
            "vacuous": self.vacuous,
            "blocks": self.blocks,
            "principal_index": self.principal_index,
            "block_degrees": [[degrees[i] for i in b] for b in self.blocks],
        }


def block_partition(table: CharacterTable, p: int) -> BlockPartition:
    """Group irreducibles by congruence of all central characters mod p,
    read as equal images in Z[zeta_m]/p under CycReducer.

    Central characters repeat across the table (psl2_31 has 324 and 29
    distinct ones), so each distinct one is reduced once.  For p not
    dividing the order the notion is vacuous and everything lands in one
    flagged block.
    """
    require_prime(p)
    k = len(table.rows)
    if table.order % p:
        return BlockPartition(p, [list(range(k))], 0, True)
    # The values' root orders all divide the declared exponent, and their lcm
    # may be far smaller: it alone decides the ring the reducer maps into.
    reducer = CycReducer(lcm(*(v.n for row in table.rows for v in row)), p)
    images: Dict[tuple, tuple] = {}

    def image(omega: Cyc) -> tuple:
        key = (omega.n, frozenset(omega.coeffs.items()))
        if key not in images:
            images[key] = reducer.reduce(omega)
        return images[key]

    signature_to_block: Dict[tuple, int] = {}
    blocks: List[List[int]] = []
    for chi in range(k):
        sig = tuple(
            image(central_character(table, chi, col)) for col in range(len(table.classes))
        )
        b = signature_to_block.get(sig)
        if b is None:
            b = len(blocks)
            signature_to_block[sig] = b
            blocks.append([])
        blocks[b].append(chi)
    principal = next(b for b, members in enumerate(blocks) if table.trivial_index in members)
    return BlockPartition(p, blocks, principal, False)


def _principal_block_verdict(table: CharacterTable, p: int) -> Verdict:
    part = block_partition(table, p)
    degrees = table.degrees
    for chi in part.blocks[part.principal_index]:
        if degrees[chi] % p == 0:
            return Verdict.no(
                "irreducible %d (degree %d) in the principal %d-block has degree divisible by %d"
                % (chi, degrees[chi], p, p),
                chi_index=chi,
                degree=degrees[chi],
                prime=p,
            )
    return Verdict.yes(
        "no degree in the principal %d-block is divisible by %d" % (p, p),
        degrees=[degrees[i] for i in part.blocks[part.principal_index]],
        prime=p,
    )


def principal_block_clear(table: CharacterTable):
    """Callable p -> Verdict for wiring table data into the group-side check."""

    def check(p: int) -> Verdict:
        return _principal_block_verdict(table, p)

    return check


def table_criterion_b(table: CharacterTable, pi: Sequence[int]) -> Verdict:
    """Pairwise coprime-size condition, sourced from the table alone."""
    return pairwise_criterion(table, check_pi(table.order, pi))


def table_criterion_c(table: CharacterTable, pi: Sequence[int]) -> Verdict:
    """pi-prime sizes plus clear principal blocks, by the block rule of
    verdicts.blocks_criterion (the primes 3 and 5 of pi)."""
    primes = list(check_pi(table.order, pi))  # a list, as the verdict's text prints it
    verdict = pi_prime_sizes_criterion(table, primes)
    if verdict.holds is not True:
        return verdict
    return blocks_criterion(table.order, primes, principal_block_clear(table)) or Verdict.yes(
        "pi-prime class sizes and clear principal blocks for %s" % (primes,)
    )
