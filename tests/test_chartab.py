"""Character table parsing, blocks, and table-sourced criteria.

The frozen block partitions were validated against structural facts that
do not depend on this code: a character sits alone in its block exactly
when the p-part of its degree is the full p-part of the order, the
trivial character sits in the principal block, and the degree multisets
follow the classical values for the groups shipped.  Galois stability
pins independence from the choice of prime ideal inside the reducer, and
Osima's criterion (tests/oracles.py), which reduces nothing mod p, checks
every partition of every shipped table.
"""

import copy
import json
import random
from math import gcd, lcm
from pathlib import Path

import pytest

import hallmark
import oracles
from hallmark import catalog, chartab, criteria, modp, subgroups
from hallmark.arith import p_part, prime_factors
from hallmark.classdata import ClassTable
from hallmark.errors import (
    PreconditionError,
    TableCorruptError,
    TableOrthogonalityError,
    TableSchemaError,
    TableSumError,
)
from hallmark.verdicts import p_element_classes

TABLES_DIR = Path(hallmark.__file__).parent / "data" / "tables"
SHIPPED = ("c6", "d4", "s4", "a5", "psl2_7", "psl2_31")

_CACHE = {}


def table(name):
    if name not in _CACHE:
        _CACHE[name] = chartab.load_table(TABLES_DIR / ("%s.json" % name))
    return _CACHE[name]


def c2_doc():
    return {
        "schema": "hallmark-ct/1",
        "name": "c2",
        "order": 2,
        "exponent": 2,
        "classes": [
            {"label": "1a", "size": 1, "element_order": 1},
            {"label": "2a", "size": 1, "element_order": 2},
        ],
        "irreducibles": [[1, 1], [1, -1]],
    }


def zeta3(e):
    return {"n": 3, "terms": [[1, e]]}


def c3_doc():
    return {
        "schema": "hallmark-ct/1",
        "name": "c3",
        "order": 3,
        "exponent": 3,
        "classes": [
            {"label": "1a", "size": 1, "element_order": 1},
            {"label": "3a", "size": 1, "element_order": 3},
            {"label": "3b", "size": 1, "element_order": 3},
        ],
        "irreducibles": [
            [1, 1, 1],
            [1, zeta3(1), zeta3(2)],
            [1, zeta3(2), zeta3(1)],
        ],
    }


def parse(doc):
    return chartab.parse_table(json.dumps(doc))


def shipped_doc(name):
    return json.loads((TABLES_DIR / ("%s.json" % name)).read_text())


def twisted_doc(doc, k):
    """The document with zeta_n -> zeta_n^k applied to every value object;
    k is a unit mod the exponent, so the exponents stay distinct."""
    doc = copy.deepcopy(doc)
    for row in doc["irreducibles"]:
        for j, v in enumerate(row):
            if isinstance(v, dict):
                row[j] = {"n": v["n"], "terms": [[c, e * k % v["n"]] for c, e in v["terms"]]}
    return doc


def galois_twist(name, k):
    """The shipped table with zeta -> zeta^k applied to every value."""
    return parse(twisted_doc(shipped_doc(name), k))


def shuffled(name, seed):
    """The shipped table with its rows and its classes in a seeded random order."""
    rng = random.Random(seed)
    doc = shipped_doc(name)
    rows = list(range(len(doc["irreducibles"])))
    cols = list(range(len(doc["classes"])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    doc["classes"] = [doc["classes"][c] for c in cols]
    doc["irreducibles"] = [[doc["irreducibles"][r][c] for c in cols] for r in rows]
    return parse(doc)


class TestParsing:
    def test_shipped_tables_load(self):
        for name in SHIPPED:
            t = table(name)
            assert t.name == name
            assert t.order == catalog.get_entry(name).order
            assert len(t.rows) == len(t.classes)
            assert t.degrees[t.trivial_index] == 1
            assert t.exponent == lcm(*[c.element_order for c in t.classes])

    def test_round_trip(self):
        # the shipped files are written by encode_value, so encoding the
        # parsed values gives each file's values back
        for name in SHIPPED:
            t = table(name)
            encoded = [[chartab.encode_value(v) for v in row] for row in t.rows]
            assert encoded == shipped_doc(name)["irreducibles"]

    def test_inline_docs_parse(self):
        assert parse(c2_doc()).degrees == [1, 1]
        assert parse(c3_doc()).trivial_index == 0

    def test_encode_value_prefers_integers(self):
        t = table("a5")
        encoded = [chartab.encode_value(v) for row in t.rows for v in row]
        assert any(isinstance(e, dict) for e in encoded)  # golden entries
        assert chartab.encode_value(t.rows[t.trivial_index][0]) == 1

    def test_p_element_classes(self):
        t = table("a5")
        assert [c.size for c in p_element_classes(t, 5)] == [12, 12]
        assert [c.size for c in p_element_classes(t, 2)] == [15]
        with pytest.raises(PreconditionError):
            p_element_classes(t, 6)


class TestRejection:
    def test_not_json(self):
        with pytest.raises(TableSchemaError, match="not valid JSON"):
            chartab.parse_table("{nope")
        with pytest.raises(TableSchemaError, match="not UTF-8"):
            chartab.parse_table(b"\xff\xfe\x00")
        with pytest.raises(TableSchemaError, match="top level"):
            chartab.parse_table("[]")

    def test_top_level_keys(self):
        doc = c2_doc()
        del doc["order"]
        with pytest.raises(TableSchemaError, match="missing order"):
            parse(doc)
        doc = c2_doc()
        doc["comment"] = "hi"
        with pytest.raises(TableSchemaError, match="unknown comment"):
            parse(doc)
        doc = c2_doc()
        doc["schema"] = "hallmark-ct/2"
        with pytest.raises(TableSchemaError, match="schema"):
            parse(doc)

    def test_scalar_fields(self):
        for field, bad in [("name", ""), ("order", 0), ("order", True),
                           ("exponent", -2), ("name", 7)]:
            doc = c2_doc()
            doc[field] = bad
            with pytest.raises(TableSchemaError, match=field):
                parse(doc)

    def test_class_entries(self):
        doc = c2_doc()
        doc["classes"][1] = {"label": "2a", "size": 1}
        with pytest.raises(TableSchemaError, match="classes\\[1\\]"):
            parse(doc)
        doc = c2_doc()
        doc["classes"][1]["label"] = "1a"
        with pytest.raises(TableSchemaError, match="duplicate label"):
            parse(doc)
        doc = c2_doc()
        doc["classes"][1]["size"] = 0
        with pytest.raises(TableSchemaError, match="size"):
            parse(doc)
        doc = c2_doc()
        doc["classes"][1]["element_order"] = 3
        with pytest.raises(TableCorruptError, match="does not divide the exponent"):
            parse(doc)

    def test_size_sum(self):
        doc = c2_doc()
        doc["classes"][1]["size"] = 2
        with pytest.raises(TableSumError, match="sum to 3, order is 2"):
            parse(doc)

    def test_identity_class(self):
        doc = c2_doc()
        doc["classes"][1]["element_order"] = 1
        with pytest.raises(TableCorruptError, match="exactly one class"):
            parse(doc)
        doc = c2_doc()
        doc["order"] = 3
        doc["classes"][0]["size"] = 2
        with pytest.raises(TableCorruptError, match="identity class has size 2"):
            parse(doc)

    def test_shape_of_irreducibles(self):
        doc = c2_doc()
        doc["irreducibles"].append([1, 1])
        with pytest.raises(TableSchemaError, match="square"):
            parse(doc)
        doc = c2_doc()
        doc["irreducibles"][1] = [1]
        with pytest.raises(TableSchemaError, match="one value per class"):
            parse(doc)

    def test_degrees(self):
        doc = c2_doc()
        doc["irreducibles"][1] = [0, 0]
        with pytest.raises(TableCorruptError, match="degree"):
            parse(doc)
        doc = c2_doc()
        doc["irreducibles"][0] = [3, 1]
        with pytest.raises(TableCorruptError, match="does not divide the order"):
            parse(doc)

    def test_orthogonality(self):
        doc = c2_doc()
        doc["irreducibles"][1] = [1, 1]
        with pytest.raises(TableOrthogonalityError):
            parse(doc)
        doc = c3_doc()
        doc["irreducibles"][1][2] = zeta3(1)
        with pytest.raises(TableOrthogonalityError):
            parse(doc)

    def test_value_objects(self):
        cases = [
            ({"n": 3}, "keys"),
            ({"n": 0, "terms": [[1, 0]]}, "positive"),
            ({"n": 2, "terms": [[1, 0]]}, "does not divide the exponent"),
            ({"n": 3, "terms": []}, "nonempty"),
            ({"n": 3, "terms": [[1]]}, "pair"),
            ({"n": 3, "terms": [[0, 1]]}, "nonzero"),
            ({"n": 3, "terms": [[1, 3]]}, "exponent must lie"),
            ({"n": 3, "terms": [[1, 1], [2, 1]]}, "repeats"),
            ({"n": 3, "terms": 5}, "nonempty list"),
            ("zeta", "expected an integer"),
            (1.5, "expected an integer"),
            (True, "expected an integer"),
        ]
        for bad, snippet in cases:
            doc = c3_doc()
            doc["irreducibles"][1][1] = bad
            with pytest.raises(TableSchemaError, match=snippet):
                parse(doc)

    def test_missing_file(self):
        with pytest.raises(OSError):
            chartab.load_table(TABLES_DIR / "nope.json")


class TestCentralCharacters:
    def test_trivial_row_gives_class_sizes(self):
        for name in SHIPPED:
            t = table(name)
            for k, c in enumerate(t.classes):
                omega = chartab.central_character(t, t.trivial_index, k)
                assert omega.as_integer() == c.size

    def test_all_values_are_integral(self):
        for name in SHIPPED:
            t = table(name)
            for chi in range(len(t.rows)):
                for k in range(len(t.classes)):
                    chartab.central_character(t, chi, k)  # must not raise

    def test_value_times_size_over_degree(self):
        for name in SHIPPED:
            t = table(name)
            for chi, row in enumerate(t.rows):
                for k, c in enumerate(t.classes):
                    omega = chartab.central_character(t, chi, k)
                    assert omega.n == row[k].n
                    assert (oracles.from_cyc(omega, omega.n) * t.degrees[chi]).equals(
                        oracles.from_cyc(row[k], omega.n) * c.size
                    )


class TestBlockPartitions:
    def test_frozen_partitions(self):
        # degrees: c6 all 1; s4 [1,1,2,3,3]; a5 [1,3,3,4,5];
        # psl2_7 [1,3,3,6,7,8]; psl2_31 [1,15,15,30*7,31,32*7]
        assert chartab.block_partition(table("c6"), 2).blocks == [[0, 3], [1, 4], [2, 5]]
        assert chartab.block_partition(table("c6"), 3).blocks == [[0, 2, 4], [1, 3, 5]]
        assert chartab.block_partition(table("s4"), 3).blocks == [[0, 1, 2], [3], [4]]
        assert chartab.block_partition(table("a5"), 2).blocks == [[0, 1, 2, 4], [3]]
        assert chartab.block_partition(table("a5"), 3).blocks == [[0, 3, 4], [1], [2]]
        assert chartab.block_partition(table("a5"), 5).blocks == [[0, 1, 2, 3], [4]]
        assert chartab.block_partition(table("psl2_7"), 7).blocks == [
            [0, 1, 2, 3, 5], [4]
        ]
        assert chartab.block_partition(table("psl2_31"), 3).blocks == [
            [0, 10, 15], [1], [2], [3], [4], [5], [6], [7], [8], [9],
            [11, 14, 16], [12, 13, 17],
        ]
        assert chartab.block_partition(table("psl2_31"), 5).blocks == [
            [0, 10, 13, 16], [1], [2], [3], [4], [5], [6], [7], [8], [9],
            [11, 12, 14, 15, 17],
        ]
        # Steinberg is the unique character of defect zero at 31
        assert chartab.block_partition(table("psl2_31"), 31).blocks[1] == [10]

    def test_partition_properties(self):
        for name in SHIPPED:
            t = table(name)
            full_primes = prime_factors(t.order)
            for p in full_primes:
                part = chartab.block_partition(t, p)
                assert not part.vacuous
                flat = sorted(i for b in part.blocks for i in b)
                assert flat == list(range(len(t.rows)))
                assert t.trivial_index in part.blocks[part.principal_index]
                # defect zero exactly when alone in the block
                full = p_part(t.order, p)
                for b in part.blocks:
                    for chi in b:
                        alone = len(b) == 1
                        assert (p_part(t.degrees[chi], p) == full) == alone

    def test_each_distinct_central_character_is_reduced_once(self, monkeypatch):
        # psl2_31's 18 x 18 central characters take 29 distinct values
        reduce = modp.CycReducer.reduce
        reduced = []

        def counting(reducer, value):
            reduced.append(value)
            return reduce(reducer, value)

        monkeypatch.setattr(modp.CycReducer, "reduce", counting)
        t = table("psl2_31")
        for p in prime_factors(t.order):
            reduced.clear()
            chartab.block_partition(t, p)
            assert len(reduced) <= 29, p

    def test_vacuous_partition(self):
        part = chartab.block_partition(table("a5"), 7)
        assert part.vacuous
        assert part.blocks == [[0, 1, 2, 3, 4]]
        assert part.principal_index == 0

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            chartab.block_partition(table("a5"), 6)
        with pytest.raises(PreconditionError):
            chartab.block_partition(table("a5"), 1)

    def test_json_shape(self):
        part = chartab.block_partition(table("a5"), 5)
        out = part.to_json(table("a5"))
        assert out["p"] == 5
        assert out["block_degrees"] == [[1, 3, 3, 4], [5]]

    def test_galois_twist_leaves_blocks_fixed(self):
        # a twisted table reduces through a different prime ideal over p;
        # the partition may not depend on that choice
        cases = [("c6", (5, 7)), ("s4", (5, 7)), ("a5", (7, 29)),
                 ("psl2_7", (5, 11)), ("psl2_31", (7439,))]
        for name, ks in cases:
            t = table(name)
            for k in ks:
                assert gcd(k, t.exponent) == 1
                twisted = galois_twist(name, k)
                for p in prime_factors(t.order):
                    assert (
                        chartab.block_partition(twisted, p).blocks
                        == chartab.block_partition(t, p).blocks
                    ), (name, k, p)

    def test_osima_oracle(self):
        # Osima's criterion links characters by exact sums over the p-regular
        # classes, with no reduction mod p; the shipped table, a shuffled copy
        # and a Galois twist must each give the oracle's blocks
        for name in SHIPPED:
            t = table(name)
            k = next(k for k in range(2, t.exponent + 2) if gcd(k, t.exponent) == 1)
            for variant in (t, shuffled(name, 19), galois_twist(name, k)):
                for p in prime_factors(t.order):
                    assert (
                        chartab.block_partition(variant, p).blocks
                        == oracles.osima_blocks(variant, p)
                    ), (name, p)


class TestTableCriteria:
    def test_frozen_verdicts(self):
        assert chartab.table_criterion_b(table("a5"), [2, 5]).holds is False
        assert chartab.table_criterion_b(table("psl2_31"), [3, 5]).holds is True
        assert chartab.table_criterion_b(table("s4"), [2, 3]).holds is False
        failing = chartab.table_criterion_c(table("a5"), [3, 5])
        assert failing.holds is False
        assert failing.witnesses["size"] % 5 == 0  # fails already at sizes
        assert chartab.table_criterion_c(table("psl2_31"), [3, 5]).holds is True
        assert chartab.table_criterion_c(table("c6"), [2, 3]).holds is True

    def test_primes_outside_the_order_are_dropped(self):
        assert chartab.table_criterion_b(table("a5"), [2, 7]).holds is True
        assert chartab.table_criterion_c(table("a5"), [7]).holds is True
        with pytest.raises(PreconditionError):
            chartab.table_criterion_b(table("a5"), [2, 6])

    @pytest.mark.parametrize("criterion", [
        chartab.table_criterion_b, chartab.table_criterion_c,
    ])
    def test_repeated_prime_refused_as_by_the_hall_search(self, criterion):
        # the same prime-set rule and message as subgroups.hall_subgroup
        with pytest.raises(PreconditionError, match="prime set repeats 3") as info:
            criterion(table("a5"), [3, 5, 3])
        with pytest.raises(PreconditionError) as hall:
            subgroups.hall_subgroup(catalog.build("a5"), [3, 5, 3])
        assert str(info.value) == str(hall.value)

    def test_single_prime_sets_consult_blocks(self):
        # order-3 classes of A5 have size 20, coprime to 3, so {3} hangs
        # on the principal 3-block, whose degrees are [1,4,5]: clear
        assert chartab.table_criterion_c(table("a5"), [3]).holds is True
        # {5}: sizes 12 pass and the principal 5-block holds [1,3,3,4]
        assert chartab.table_criterion_c(table("a5"), [5]).holds is True

    def test_principal_block_hook(self):
        hook = chartab.principal_block_clear(table("a5"))
        assert hook(3).holds is True
        assert hook(5).holds is True
        # PSL(2,7) principal 3-block degrees are [1,7,8]: clear
        assert chartab.principal_block_clear(table("psl2_7"))(3).holds is True
        # the S4 principal 2-block is the whole table; degree 2 trips it
        failing = chartab.principal_block_clear(table("s4"))(2)
        assert failing.holds is False
        assert failing.witnesses["degree"] == 2


class TestTableVersusGroup:
    def test_class_profiles_match(self):
        for name in SHIPPED:
            t = table(name)
            ct = ClassTable(catalog.build(name))
            shipped = sorted((c.element_order, c.size) for c in t.classes)
            computed = sorted((c.element_order, c.size) for c in ct.classes)
            assert shipped == computed

    def test_criteria_agree_between_sources(self):
        from itertools import combinations

        for name in SHIPPED:
            t = table(name)
            ct = ClassTable(catalog.build(name))
            primes = prime_factors(t.order)
            for p, q in combinations(primes, 2):
                assert (
                    criteria.pair_criterion(ct, p, q).holds
                    == chartab.table_criterion_b(t, [p, q]).holds
                )

    def test_theorem_c_agreement_on_shipped_tables(self):
        for name in SHIPPED:
            g = catalog.build(name)
            hook = chartab.principal_block_clear(table(name))
            for pi in criteria.default_prime_sets(g.order):
                check = criteria.check_theorem_c(g, pi, principal_block_clear=hook)
                assert check.agree is True, (name, pi, check.lhs, check.rhs)

    def test_psl2_31_hall_witness(self):
        g = catalog.build("psl2_31")
        hook = chartab.principal_block_clear(table("psl2_31"))
        check = criteria.check_theorem_c(g, [3, 5], principal_block_clear=hook)
        assert check.lhs.holds is True
        assert check.rhs.holds is True
        assert check.rhs.witnesses["hall"]["order"] == 15
