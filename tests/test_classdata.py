"""Conjugacy class tables against naive partitioning."""

import gc

import pytest

import oracles
from hallmark import catalog, config
from hallmark.classdata import ClassTable, class_table
from hallmark.errors import CapacityError, PreconditionError
from hallmark.kernels import kernel
from hallmark.verdicts import p_element_classes

def naive_class_data(group):
    elems = oracles.close([p.images for p in group.generators], group.degree)
    return sorted(
        (oracles.element_order(min(c)), len(c))
        for c in oracles.conjugacy_classes(elems)
    )


class TestClassTable:
    @pytest.mark.parametrize("name", ["c6", "s3", "d4", "a4", "s4", "frob20", "a5"])
    def test_matches_naive_partition(self, name):
        group = catalog.build(name)
        table = ClassTable(group)
        got = sorted((ci.element_order, ci.size) for ci in table.classes)
        assert got == naive_class_data(group)

    @pytest.mark.parametrize("name", ["s4", "a5", "frob21"])
    def test_internal_consistency(self, name):
        group = catalog.build(name)
        table = ClassTable(group)
        assert sum(ci.size for ci in table.classes) == group.order
        for ci in table.classes:
            assert group.order % ci.size == 0
            assert ci.centralizer_order * ci.size == group.order
            rep = ci.representative()
            assert oracles.element_order(rep.images) == ci.element_order

    def test_semi_affine_profile(self):
        # the one-sided counterexample group: a lone involution class of
        # size 7 and two classes of 3-elements, both of size 28
        table = ClassTable(catalog.build("aff8"))
        assert sorted((ci.element_order, ci.size) for ci in table.classes) == [
            (1, 1), (2, 7), (3, 28), (3, 28), (6, 28), (6, 28), (7, 24), (7, 24),
        ]
        assert [ci.size for ci in p_element_classes(table, 2)] == [7]
        assert [ci.size for ci in p_element_classes(table, 3)] == [28, 28]
        assert [ci.size for ci in p_element_classes(table, 7)] == [24, 24]

    def test_p_element_classes_all_p_power_orders(self):
        table = ClassTable(catalog.build("s4"))
        twos = p_element_classes(table, 2)
        assert all(ci.element_order in (2, 4) for ci in twos)
        assert sum(ci.size for ci in twos) == 15  # 9 involutions + 6 elements of order 4
        with pytest.raises(PreconditionError):
            p_element_classes(table, 6)

    def test_element_order_set(self):
        table = ClassTable(catalog.build("a5"))
        assert sorted({ci.element_order for ci in table.classes}) == [1, 2, 3, 5]

    def test_direct_table_is_the_kept_table(self):
        group = catalog.build("a5")
        table = ClassTable(group)
        assert class_table(group) is table

    def test_caps_respected(self):
        with pytest.raises(CapacityError):
            ClassTable(catalog.build("a5"), 59)

    def test_missing_cap_is_read_from_the_environment(self, monkeypatch):
        # No cap passed: the table's element enumeration resolves it.
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", "59")
        with pytest.raises(CapacityError) as info:
            class_table(catalog.build("a5"))
        assert info.value.cap_value == 59
        monkeypatch.delenv("HALLMARK_CAP_ELEMENTS")
        assert len(class_table(catalog.build("a5")).classes) == 5

    def test_default_caps_is_an_int(self, monkeypatch):
        monkeypatch.delenv("HALLMARK_CAP_ELEMENTS", raising=False)
        assert config.default_caps() == config.ELEMENT_CAP
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", "59")
        cap = config.default_caps()
        assert type(cap) is int and cap == 59


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's collector setting for one test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """Row enumeration and the class partition pause the cyclic collector
    and leave the caller's setting as they found it, on every exit."""

    def test_class_table_keeps_the_setting(self, collector, monkeypatch):
        seen = []
        partition = kernel.conjugacy_partition

        def spy(*args):
            seen.append(gc.isenabled())
            return partition(*args)

        monkeypatch.setattr(kernel, "conjugacy_partition", spy)
        table = class_table(catalog.build("s4"))
        assert len(table.classes) == 5
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_capped_element_rows_keep_the_setting(self, collector):
        group = catalog.build("a5")
        with pytest.raises(CapacityError):
            group.element_rows(59)
        assert gc.isenabled() is collector
        assert len(group.element_rows(60)) == 60
        assert gc.isenabled() is collector

    def test_a_raising_partition_keeps_the_setting(self, collector, monkeypatch):
        def boom(*args):
            raise RuntimeError("partition failed")

        monkeypatch.setattr(kernel, "conjugacy_partition", boom)
        with pytest.raises(RuntimeError):
            ClassTable(catalog.build("s4"))
        assert gc.isenabled() is collector

    def test_a_raising_enumeration_keeps_the_setting(self, collector, monkeypatch):
        def boom(*args):
            raise RuntimeError("compose failed")

        monkeypatch.setattr(kernel, "compose", boom)
        group = catalog.build("s4")
        with pytest.raises(RuntimeError):
            group.element_rows()
        assert gc.isenabled() is collector
