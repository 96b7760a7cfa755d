"""Acceptance battery: the nine statements this package must certify.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints
one pass/fail line for each.  Criteria 1-8 run on the default catalog
and finish in well under the ten-minute budget; criterion 9 builds the
sporadic stretch entry and only runs with --run-extended (about 1 s on
the compiled kernel, 2-3 s on the pure one).
"""

import itertools
import json
import time

import pytest

from hallmark import catalog, chartab, criteria, lieorders, subgroups
from hallmark.arith import is_power_of, p_part, prime_factors
from hallmark.classdata import ClassTable
from hallmark.cli import TABLE_BACKED, _shipped_table_path
from hallmark.config import default_caps

from test_chartab import twisted_doc

CAPS = default_caps()
ENTRIES = sorted(catalog.entries(include_stretch=False), key=lambda e: e.order)


def _table(name):
    return chartab.load_table(_shipped_table_path(name))


def _block_hook(name):
    return chartab.principal_block_clear(_table(name))


def test_c1_theorem_a_equivalence_full_catalog():
    started = time.monotonic()
    checks = 0
    for entry in ENTRIES:
        group = entry.build()
        for chk in criteria.check_group(group, "A", CAPS):
            assert chk.agree is True, (entry.name, chk.to_json())
            checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print("criterion 1 PASS: theorem A criterion == oracle on %d prime pairs "
          "across %d groups (%.1fs)" % (checks, len(ENTRIES), elapsed))


def test_c2_semi_affine_one_sided_profile():
    group = catalog.build("aff8")
    table = ClassTable(group)
    two_sizes = {ci.size for ci in table.classes
                 if ci.element_order > 1 and is_power_of(ci.element_order, 2)}
    three_sizes = {ci.size for ci in table.classes
                   if ci.element_order > 1 and is_power_of(ci.element_order, 3)}
    assert two_sizes == {7}
    assert three_sizes == {28}
    # One direction of the divisibility condition holds...
    assert criteria.sizes_coprime_criterion(table, 2, 3).holds is True
    # ...the other fails, and no commuting Sylow pair exists.
    assert criteria.sizes_coprime_criterion(table, 3, 2).holds is False
    chk = criteria.check_theorem_a(group, 2, 3, CAPS)
    assert chk.lhs.holds is False
    assert chk.rhs.holds is False
    assert chk.agree is True
    print("criterion 2 PASS: semi-affine group of order 168 shows the "
          "one-sided profile (2-element size 7, 3-element size 28, no "
          "commuting Sylow pair)")


def test_c3_psl2_31_abelian_hall():
    group = catalog.build("psl2_31")
    chk = criteria.check_theorem_c(group, [3, 5], CAPS,
                                   principal_block_clear=_block_hook("psl2_31"))
    assert chk.lhs.holds is True
    assert chk.rhs.holds is True
    assert chk.agree is True
    result = subgroups.hall_subgroup(group, [3, 5], CAPS)
    assert result.status == "found"
    assert result.subgroup.order == 15
    assert subgroups.is_abelian(result.subgroup)
    assert chartab.table_criterion_c(_table("psl2_31"), [3, 5]).holds is True
    print("criterion 3 PASS: PSL(2,31) holds for {3,5} with an abelian "
          "Hall subgroup of order 15")


def test_c4_simple_groups_even_r_class():
    checked = 0
    for entry in ENTRIES:
        if "simple" not in entry.tags:
            continue
        table = ClassTable(entry.build())
        for r in prime_factors(table.order):
            if r == 2:
                continue
            even = [ci for ci in table.classes
                    if ci.element_order > 1
                    and is_power_of(ci.element_order, r)
                    and ci.size % 2 == 0]
            assert even, (entry.name, r)
            checked += 1
    assert checked >= 20
    print("criterion 4 PASS: every simple catalog group has an even-size "
          "r-element class for each odd r (%d group/prime pairs)" % checked)


def test_c5_theorem_b_all_small_prime_sets():
    started = time.monotonic()
    total = 0
    a5_absent_seen = False
    for entry in ENTRIES:
        group = entry.build()
        primes = prime_factors(group.order)
        for size in (2, 3):
            for pi in itertools.combinations(primes, size):
                chk = criteria.check_theorem_b(group, list(pi), CAPS)
                assert chk.agree is True, (entry.name, pi, chk.to_json())
                total += 1
                if entry.name == "a5" and pi == (2, 5):
                    assert chk.lhs.holds is False
                    assert chk.rhs.holds is False
                    a5_absent_seen = True
    assert a5_absent_seen
    assert total == 131
    print("criterion 5 PASS: theorem B criterion == oracle on %d prime sets "
          "(|pi| <= 3), including the A5 {2,5} proved-absent case (%.1fs)"
          % (total, time.monotonic() - started))


def test_c6_theorem_c_shipped_tables():
    checks = 0
    for name in TABLE_BACKED:
        group = catalog.build(name)
        hook = _block_hook(name)
        for pi in criteria.default_prime_sets(group.order):
            chk = criteria.check_theorem_c(group, list(pi), CAPS,
                                           principal_block_clear=hook)
            assert chk.agree is True, (name, pi, chk.to_json())
            checks += 1
    # (a) singleton blocks are exactly the defect-zero characters.
    for name in TABLE_BACKED:
        table = _table(name)
        for p in prime_factors(table.order):
            partition = chartab.block_partition(table, p)
            for block in partition.blocks:
                degrees = [table.rows[i][0].as_integer() for i in block]
                zero_defect = [
                    d for d in degrees
                    if p_part(d, p) == p_part(table.order, p)
                ]
                if len(block) == 1:
                    assert zero_defect == degrees, (name, p, block)
                else:
                    assert not zero_defect, (name, p, block)
    # (b) the A5 partition at p = 5.
    part = chartab.block_partition(_table("a5"), 5)
    assert part.to_json(_table("a5"))["block_degrees"] == [[1, 3, 3, 4], [5]]
    # (c) verdicts survive a Galois twist of the table.
    for name, k in (("a5", 7), ("psl2_31", 7439)):
        table = _table(name)
        with open(_shipped_table_path(name)) as fh:
            twisted = chartab.parse_table(json.dumps(twisted_doc(json.load(fh), k)))
        assert (chartab.table_criterion_c(twisted, [3, 5]).holds
                == chartab.table_criterion_c(table, [3, 5]).holds)
    print("criterion 6 PASS: theorem C criterion == oracle on %d prime sets "
          "over the shipped tables; block partitions validated" % checks)


def test_c7_section4_suite():
    solvable = [e for e in ENTRIES if "solvable" in e.tags]
    normalization = core = odd = 0
    for entry in solvable:
        group = entry.build()
        for chk in criteria.check_group(group, "t4.1", CAPS):
            assert chk.agree is True, (entry.name, chk.to_json())
            normalization += 1
        for chk in criteria.check_group(group, "t4.2", CAPS):
            assert chk.agree is True, (entry.name, chk.to_json())
            assert chk.note != "precondition failed"
            core += 1
    for entry in ENTRIES:
        group = entry.build()
        for chk in criteria.check_group(group, "t4.3", CAPS):
            assert chk.agree is True, (entry.name, chk.to_json())
            odd += 1
    print("criterion 7 PASS: normalization (%d), core characterization (%d), "
          "and odd-size solvability (%d) checks all agree"
          % (normalization, core, odd))


def test_c8_lie_grid_and_cross_check():
    started = time.monotonic()
    report = lieorders.run_grid(lieorders.load_grid_manifest())
    elapsed = time.monotonic() - started
    assert report["ok"] is True
    assert report["failures"] == []
    assert report["points"] == 7776
    assert elapsed < 60
    # the r = 7 block witness of GL_3(2) = SL(3,2), as lie-verify reports it
    witness = lieorders.verify_pair("GL", 3, 2, 7, 3)["witnesses"][0]
    assert witness["prime"] == 7
    formula = witness["value"]
    table = ClassTable(catalog.build("psl2_7"))
    group_side = [ci.size for ci in table.classes if ci.element_order == 7]
    assert formula == 24
    assert group_side == [24, 24]
    print("criterion 8 PASS: %d grid points with zero failures (%.2fs); "
          "SL(3,2) order-7 class size 24 matches the enumeration"
          % (report["points"], elapsed))


@pytest.mark.extended
def test_c9_extended_j1():
    started = time.monotonic()
    group = catalog.build("j1")
    assert group.order == 175560
    chk = criteria.check_theorem_b(group, [3, 5], CAPS)
    assert chk.lhs.holds is True
    assert chk.rhs.holds is True
    assert chk.agree is True
    result = subgroups.hall_subgroup(group, [3, 5], CAPS)
    assert result.status == "found"
    assert result.subgroup.order == 15
    # Order-15 groups are cyclic, so nilpotent + abelian pins the shape.
    assert subgroups.is_nilpotent(result.subgroup, CAPS)
    assert subgroups.is_abelian(result.subgroup)
    print("criterion 9 PASS: J1 holds for {3,5} with a cyclic Hall subgroup "
          "of order 15 (%.1fs)" % (time.monotonic() - started))
