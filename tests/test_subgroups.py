"""Sylow, Hall, and structure queries against naive recomputation."""

import math

import pytest

import oracles
from hallmark import catalog, classdata, subgroups
from hallmark.arith import p_part, pi_part, prime_factors
from hallmark.config import Caps
from hallmark.errors import CapacityError, PreconditionError
from hallmark.kernels import kernel


def naive_elements(group):
    return oracles.close([p.images for p in group.generators], group.degree)


def naive_set(sub):
    return oracles.close([p.images for p in sub.generators], sub.degree)


def assert_genuine_subgroup(group, sub, ambient=None):
    ambient = ambient if ambient is not None else naive_elements(group)
    got = naive_set(sub)
    assert len(got) == sub.order
    assert got <= ambient
    assert oracles.is_subgroup(ambient, got)


def chief_factor_orders(group):
    series = subgroups.chief_series(group)
    return sorted(upper.order // lower.order for lower, upper in zip(series, series[1:]))


# Orders of the composition factors of every non-solvable catalog group
# outside the sporadic stretch: S_n = A_n.2, A5 x C7, and the simple
# groups themselves.
COMPOSITION_FACTORS = {
    "s5": (60, 2), "s6": (360, 2), "a5xc7": (60, 7),
    "a5": (60,), "a6": (360,), "a7": (2520,), "a8": (20160,),
    "psl2_4": (60,), "psl2_5": (60,), "psl2_7": (168,), "psl2_8": (504,),
    "psl2_9": (360,), "psl2_11": (660,), "psl2_13": (1092,), "psl2_31": (14880,),
    "psl3_3": (5616,),
}


def p_solvable_from_composition_factors():
    """(name, p, expected) for each group above and prime of its order: a
    simple composition factor is a p-group exactly when its order is p."""
    return [
        (name, p, all(f == p or f % p for f in factors))
        for name, factors in sorted(COMPOSITION_FACTORS.items())
        for p in prime_factors(math.prod(factors))
    ]


P_SOLVABLE_CASES = [
    ("a5", 2, False), ("a5", 3, False), ("a5", 7, True),
    ("s5", 2, False), ("frob20", 2, True), ("frob20", 5, True),
    ("psl2_7", 7, False),
]


class TestSylow:
    @pytest.mark.parametrize("name", ["s4", "a5", "frob20", "aff9", "psl2_7"])
    def test_sylow_order_and_membership(self, name):
        group = catalog.build(name)
        ambient = naive_elements(group)
        for p in prime_factors(group.order):
            syl = subgroups.sylow(group, p)
            assert syl.order == p_part(group.order, p)
            assert_genuine_subgroup(group, syl, ambient)

    @pytest.mark.parametrize("name,p,count", [
        ("s4", 2, 3), ("s4", 3, 4), ("a5", 5, 6), ("a5", 2, 5), ("frob20", 2, 5),
    ])
    def test_sylow_counts(self, name, p, count):
        group = catalog.build(name)
        assert subgroups.sylow_count(group, p) == count
        conjugates = subgroups.all_sylow(group, p)
        assert len(conjugates) == count
        assert count % p == 1
        assert group.order % count == 0
        closed = [oracles.close([kernel.unpack(r) for r in gens], group.degree)
                  for gens in conjugates]
        assert len({frozenset(c) for c in closed}) == count

    def test_sylow_needs_prime(self):
        with pytest.raises(PreconditionError):
            subgroups.sylow(catalog.build("s4"), 6)

    def test_sylow_cap(self):
        with pytest.raises(CapacityError):
            subgroups.sylow(catalog.build("a5"), 2, Caps(elements=10))


def unpacked_rows(sub):
    return [kernel.unpack(r) for r in sub.element_rows()]


class TestSylowClimb:
    """Every Sylow subgroup is the one the reference climb in oracles picks,
    so witnesses do not depend on where the climb reads element orders."""

    SMALL = [e.name for e in catalog.entries(include_stretch=False) if e.order < 1000]

    @pytest.mark.parametrize("name", SMALL)
    def test_matches_the_reference_climb(self, name):
        group = catalog.build(name)
        ambient = naive_elements(group)
        for p in prime_factors(group.order):
            expected = sorted(oracles.sylow_climb(ambient, p))
            assert unpacked_rows(subgroups.sylow(group, p)) == expected, p

    @pytest.mark.parametrize("name,pi", [
        ("a5xc7", (2, 7)), ("a5xc7", (3, 7)), ("psl2_31", (3, 5)), ("aff8", (2, 3)),
        ("frob42", (2, 3)),
    ])
    def test_nested_scopes_match_the_reference_climb(self, monkeypatch, name, pi):
        climbs = []
        climb = subgroups._sylow_rows

        def recording(degree, scope_rows, p, orders):
            rows = climb(degree, scope_rows, p, orders)
            climbs.append((scope_rows, p, rows))
            return rows

        monkeypatch.setattr(subgroups, "_sylow_rows", recording)
        group = catalog.build(name)
        p, q = pi
        subgroups.nilpotent_hall(group, pi)
        subgroups.exists_commuting_sylow_pair(group, p, q)
        subgroups.exists_normalizing_sylow_pair(group, p, q)
        subgroups.exists_normalizing_sylow_pair(group, q, p)
        assert any(scope_rows is not group.element_rows() for scope_rows, _, _ in climbs)
        for scope_rows, prime, rows in climbs:
            scope = [kernel.unpack(r) for r in scope_rows]
            expected = sorted(oracles.sylow_climb(scope, prime))
            assert [kernel.unpack(r) for r in rows] == expected, (len(scope), prime)

    def test_subgroups_read_the_ambient_class_table(self, monkeypatch):
        # A climb in any subgroup reads its ambient group's class table:
        # hall_subgroup's whole-group result and a normal closure tabulate
        # nothing of their own.
        built = []
        init = classdata.ClassTable.__init__

        def counting(self, grp, caps=None):
            built.append(grp)
            init(self, grp, caps)

        monkeypatch.setattr(classdata.ClassTable, "__init__", counting)
        group = catalog.build("a5xc7")
        classdata.class_table(group)
        hall = subgroups.hall_subgroup(group, [2, 3, 5, 7]).subgroup
        assert hall.order == group.order
        assert not subgroups.is_nilpotent(hall)
        assert built == [group]
        s4 = catalog.build("s4")
        classdata.class_table(s4)
        closure = s4.normal_closure(s4.generators)
        assert closure.parent is s4 and closure.ambient is s4
        assert subgroups.sylow(closure, 2).order == 8
        assert built == [group, s4]


class TestCentralizerNormalizer:
    def test_centralizer_matches_naive(self):
        group = catalog.build("s4")
        ambient = naive_elements(group)
        for target in group.generators:
            cent = subgroups.centralizer(group, target)
            naive = oracles.centralizer(ambient, target.images)
            assert naive_set(cent) == naive
            assert cent.parent is group and cent.ambient is group

    def test_normalizer_of_sylow_has_index_sylow_count(self):
        group = catalog.build("a5")
        syl = subgroups.sylow(group, 5)
        norm = subgroups.normalizer(group, syl)
        assert group.order // norm.order == subgroups.sylow_count(group, 5)
        assert naive_set(syl) <= naive_set(norm)
        assert syl.parent is group and norm.parent is group
        # nested scopes: parent is the scope, ambient the outermost group
        inner = subgroups.sylow(norm, 2)
        cent = subgroups.centralizer(norm, inner)
        assert inner.parent is norm and cent.parent is norm
        assert {id(g.ambient) for g in (syl, norm, inner, cent)} == {id(group)}


class TestPredicates:
    def test_abelian_and_nilpotent(self):
        assert subgroups.is_abelian(catalog.build("c30").subgroup(
            catalog.build("c30").generators))
        d4 = catalog.build("d4")
        whole_d4 = d4.subgroup(d4.generators)
        assert not subgroups.is_abelian(whole_d4)
        assert subgroups.is_nilpotent(whole_d4)  # 2-group
        s3 = catalog.build("s3")
        assert not subgroups.is_nilpotent(s3.subgroup(s3.generators))

    def test_nilpotent_means_every_sylow_is_normal(self):
        # naive cross-check of the predicate on a mixed bag
        for name in ["c6", "s3", "d4", "a4", "c30", "frob20"]:
            group = catalog.build(name)
            whole = group.subgroup(group.generators)
            ambient = naive_elements(group)
            sylows_normal = True
            for p in prime_factors(group.order):
                syl_set = naive_set(subgroups.sylow(group, p))
                for g in ambient:
                    gi = oracles.inverse(g)
                    if any(
                        oracles.compose(oracles.compose(gi, x), g) not in syl_set
                        for x in syl_set
                    ):
                        sylows_normal = False
            assert subgroups.is_nilpotent(whole) == sylows_normal

    def test_solvable_matches_catalog_tags(self):
        for entry in catalog.entries(include_stretch=False):
            group = entry.build()
            assert subgroups.is_solvable(group) == ("solvable" in entry.tags), entry.name

    def test_simple_matches_catalog_tags(self):
        for entry in catalog.entries(include_stretch=False):
            if entry.order > 1000:
                continue
            group = entry.build()
            assert subgroups.is_simple(group) == ("simple" in entry.tags), entry.name

    def test_prime_cyclic_is_simple(self):
        assert subgroups.is_simple(catalog.cyclic(7))

    @pytest.mark.parametrize("name,p,expected", P_SOLVABLE_CASES + [
        case for case in p_solvable_from_composition_factors()
        if case not in P_SOLVABLE_CASES
    ])
    def test_p_solvable(self, name, p, expected):
        assert subgroups.is_p_solvable(catalog.build(name), p) == expected

    def test_composition_factors_cover_the_non_solvable_catalog(self):
        names = {e.name for e in catalog.entries(include_stretch=False)
                 if "solvable" not in e.tags}
        assert set(COMPOSITION_FACTORS) == names
        for name, factors in COMPOSITION_FACTORS.items():
            assert math.prod(factors) == catalog.get_entry(name).order, name


class TestStructure:
    def test_minimal_normal_subgroups(self):
        assert subgroups.minimal_normal_subgroup(catalog.build("a4")).order == 4
        assert subgroups.minimal_normal_subgroup(catalog.build("s3xs3")).order == 3
        assert subgroups.minimal_normal_subgroup(catalog.build("a5")).order == 60

    @pytest.mark.parametrize("name,factors", [
        ("c30", [2, 3, 5]), ("d4", [2, 2, 2]), ("a4", [3, 4]), ("s4", [2, 3, 4]),
        ("frob20", [2, 2, 5]), ("s3xs3", [2, 2, 3, 3]), ("s5", [2, 60]),
        ("a5xc7", [7, 60]),
    ])
    def test_chief_series(self, name, factors):
        group = catalog.build(name)
        series = subgroups.chief_series(group)
        assert series[0].order == 1 and series[-1].order == group.order
        for term in series:
            assert term.parent is group
            for g in group.generators:
                assert all(h.conjugate(g) in term for h in term.generators)
        assert chief_factor_orders(group) == factors
        assert subgroups.chief_series(group) is series
        assert subgroups.minimal_normal_subgroup(group) is series[1]

    def test_derived_subgroups(self):
        assert subgroups.derived_subgroup(catalog.build("s4")).order == 12
        assert subgroups.derived_subgroup(catalog.build("d4")).order == 2
        assert subgroups.derived_subgroup(catalog.build("a5")).order == 60
        assert subgroups.derived_subgroup(catalog.build("c30")).order == 1
        s4 = catalog.build("s4")
        a4 = subgroups.derived_subgroup(s4)
        v4 = subgroups.derived_subgroup(a4)
        assert a4.parent is s4 and v4.parent is a4 and v4.ambient is s4
        c30 = catalog.build("c30")
        trivial = subgroups.derived_subgroup(c30)
        assert trivial.parent is c30 and trivial.ambient is c30

    @pytest.mark.parametrize("name,p,core_order", [
        ("s4", 3, 4), ("s4", 2, 1), ("a4", 3, 4), ("frob20", 5, 1),
        ("frob20", 2, 5), ("c30", 2, 15), ("c30", 3, 10), ("c30", 5, 6),
    ])
    def test_op_prime_core(self, name, p, core_order):
        group = catalog.build(name)
        core = subgroups.op_prime_core(group, p)
        assert core.order == core_order
        assert core.parent is group and core.ambient is group
        assert core.order % p != 0 if p != 1 else True
        # normality, the naive way
        core_set = naive_set(core)
        for g in naive_elements(group):
            gi = oracles.inverse(g)
            assert all(
                oracles.compose(oracles.compose(gi, x), g) in core_set
                for x in core_set
            )


class TestDirectProducts:
    """Chief factors, p-solvability and simplicity of G x H follow from
    those of G and H."""

    PAIRS = [("a5", "c3"), ("s4", "d4"), ("s3", "a5"), ("a5", "a5"), ("s5", "c2")]

    @staticmethod
    def _factor(name):
        if name in ("c2", "c3"):
            return catalog.cyclic(int(name[1:]))
        return catalog.build(name)

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_product_facts_follow_from_the_factors(self, left, right):
        g, h = self._factor(left), self._factor(right)
        product = catalog.direct_product(g, h)
        assert product.order == g.order * h.order
        assert chief_factor_orders(product) == sorted(
            chief_factor_orders(g) + chief_factor_orders(h)
        )
        for p in prime_factors(product.order):
            assert subgroups.is_p_solvable(product, p) == (
                subgroups.is_p_solvable(g, p) and subgroups.is_p_solvable(h, p)
            ), p
        assert not subgroups.is_simple(product)


class TestCommutingPairs:
    @pytest.mark.parametrize("name,p,q,expected", [
        ("a5", 2, 5, False), ("a5", 3, 5, False), ("a5", 2, 3, False),
        ("c30", 2, 3, True), ("c30", 3, 5, True),
        ("a5xc7", 3, 7, True), ("a5xc7", 2, 5, False),
        ("psl2_31", 3, 5, True),
        ("aff8", 2, 3, False),
    ])
    def test_commuting_sylow_pair(self, name, p, q, expected):
        group = catalog.build(name)
        got, pair = subgroups.exists_commuting_sylow_pair(group, p, q)
        assert got == expected
        if got:
            a, b = pair
            a_set, b_set = naive_set(a), naive_set(b)
            assert all(
                oracles.compose(x, y) == oracles.compose(y, x)
                for x in a_set for y in b_set
            )

    def test_normalizing_pair_semi_affine(self):
        # the translation subgroup is the normal Sylow 2, so every Sylow 3
        # normalizes it; with n_3 = 28 no Sylow 2 returns the favor
        group = catalog.build("aff8")
        got_32, _ = subgroups.exists_normalizing_sylow_pair(group, 3, 2)
        got_23, _ = subgroups.exists_normalizing_sylow_pair(group, 2, 3)
        assert got_32
        assert not got_23


class TestHall:
    @pytest.mark.parametrize("name,pi,order", [
        ("psl2_31", (3, 5), 15),
        ("c30", (2, 5), 10),
        ("a5xc7", (3, 7), 21),
        ("frob21", (3,), 3),
    ])
    def test_nilpotent_hall_found(self, name, pi, order):
        group = catalog.build(name)
        hall = subgroups.nilpotent_hall(group, pi)
        assert hall is not None
        assert hall.order == order == pi_part(group.order, pi)
        assert subgroups.is_nilpotent(hall)
        assert_genuine_subgroup(group, hall)

    @pytest.mark.parametrize("name,pi", [
        ("a5", (2, 5)), ("a5", (3, 5)), ("frob20", (2, 5)), ("aff8", (2, 3)),
        ("s4", (2, 3)),
    ])
    def test_nilpotent_hall_absent(self, name, pi):
        assert subgroups.nilpotent_hall(catalog.build(name), pi) is None

    def test_absence_certified_by_two_generated_sweep(self):
        # every group of order 20 = 2^2 * 5 is 2-generated, so the sweep
        # over pairs is a complete subgroup-order census at that size
        group = catalog.build("a5")
        orders = oracles.two_generated_subgroup_orders(
            naive_elements(group), group.degree
        )
        assert 20 not in orders
        assert 15 not in orders
        result = subgroups.hall_subgroup(group, (2, 5))
        assert result.status == "absent"
        result = subgroups.hall_subgroup(group, (3, 5))
        assert result.status == "absent"

    @pytest.mark.parametrize("name,pi,order,nilpotent", [
        ("a5", (2, 3), 12, False),       # A4 inside A5
        ("s5", (2, 3), 24, False),       # S4 inside S5
        ("psl2_7", (2, 3), 24, False),   # S4 inside PSL(2,7)
        ("psl2_7", (3, 7), 21, False),   # Sylow-7 normalizer
        ("frob21", (3, 7), 21, False),   # the whole group
        ("c30", (2, 3, 5), 30, True),
    ])
    def test_hall_search_found(self, name, pi, order, nilpotent):
        group = catalog.build(name)
        result = subgroups.hall_subgroup(group, pi)
        assert result.status == "found"
        sub = result.subgroup
        assert sub.order == order == pi_part(group.order, pi)
        assert subgroups.is_nilpotent(sub) == nilpotent
        assert_genuine_subgroup(group, sub)

    def test_hall_rejects_junk_pi(self):
        group = catalog.build("s4")
        with pytest.raises(PreconditionError):
            subgroups.hall_subgroup(group, (4, 3))
        with pytest.raises(PreconditionError):
            subgroups.hall_subgroup(group, (2, 2))


class TestSubgroupFromRows:
    """parent.subgroup_from_rows picks the greedy generators that the
    oracle picks by closing the rows again after each pick."""

    @pytest.mark.parametrize("name", ["s4", "a5", "frob20", "psl2_7"])
    def test_matches_the_greedy_oracle(self, name):
        group = catalog.build(name)
        row_sets = []
        for p in prime_factors(group.order):
            syl = subgroups.sylow(group, p)
            row_sets.append(syl.element_rows())
            row_sets.append(subgroups.centralizer(group, syl).element_rows())
            row_sets.append(subgroups.normalizer(group, syl).element_rows())
        for rows in row_sets:
            sub = group.subgroup_from_rows(rows)
            unpacked = [kernel.unpack(r) for r in rows]
            expected = oracles.greedy_generators(unpacked, group.degree)
            assert [g.images for g in sub.generators] == expected
            assert sub.order == len(rows)
            assert sub.parent is group
            assert sub.element_rows() == rows

    def test_rows_that_are_not_a_subgroup_raise(self):
        group = catalog.build("s4")
        rows = group.element_rows()
        v4 = subgroups.sylow(group, 2).element_rows()
        # outside: the first three rows generate an order-4 group that does
        # not hold the fourth; a subgroup's rows out of order are not kept
        outside = [kernel.pack(r) for r in
                   [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 2, 0, 3)]]
        for junk in (rows[:3], rows[:5], v4[:-1], rows[1:], outside, v4[::-1]):
            with pytest.raises(PreconditionError):
                group.subgroup_from_rows(junk)

    def test_rows_are_kept(self, monkeypatch):
        group = catalog.build("a5")
        rows = subgroups.normalizer(group, subgroups.sylow(group, 5)).element_rows()
        sub = group.subgroup_from_rows(rows)

        def no_enumeration(*args):
            raise AssertionError("element rows enumerated again")

        monkeypatch.setattr(kernel, "close_group", no_enumeration)
        assert sub.element_rows() == rows

    def test_rows_outside_the_parent_raise(self):
        group = catalog.build("a5")
        even = naive_elements(group)
        odd = [r for r in catalog.build("s5").element_rows() if kernel.unpack(r) not in even]
        rows = sorted([kernel.identity_row(5), odd[0]])
        assert len(oracles.close([kernel.unpack(odd[0])], 5)) == 2
        with pytest.raises(PreconditionError):
            group.subgroup_from_rows(rows)


class TestHallWitnesses:
    """hall_subgroup's witnesses and budget use, frozen from the anchored
    search as first shipped; `hallmark suite` never calls hall_subgroup."""

    FOUND = {
        ("a5", (2, 3)): (12, ["(2 3 4)", "(1 2)(3 4)"]),
        ("psl2_7", (2, 3)): (24, ["(1 3 7)(2 5 6)", "(0 1)(2 3)(4 6)(5 7)"]),
        ("psl3_3", (2, 3)): (432, [
            "(5 6)(7 10)(8 12)(9 11)", "(4 5)(7 11)(8 10)(9 12)",
            "(4 7 10)(5 8 11)(6 9 12)", "(2 3)(7 10)(8 11)(9 12)",
            "(1 2)(7 12)(8 10)(9 11)", "(1 4)(2 5)(3 6)(11 12)",
        ]),
        ("aff32", (5, 31)): (155, [
            "(2 4 16 13 27)(3 5 17 12 26)(6 20 29 22 25)(7 21 28 23 24)"
            "(8 10 14 30 19)(9 11 15 31 18)",
            "(1 2 4 8 16 5 10 20 13 26 17 7 14 28 29 31 27 19 3 6 12 24 21 15 30"
            " 25 23 11 22 9 18)",
        ]),
    }

    @pytest.mark.parametrize("name,pi", sorted(FOUND))
    def test_found_witness(self, name, pi):
        result = subgroups.hall_subgroup(catalog.build(name), pi)
        order, gens = self.FOUND[name, pi]
        assert (result.status, result.reason) == ("found", "anchored Sylow closure search")
        assert result.subgroup.order == order
        assert [g.cycle_string() for g in result.subgroup.generators] == gens

    def test_absent_reason(self):
        result = subgroups.hall_subgroup(catalog.build("a8"), (5, 7))
        assert result.status == "absent"
        assert result.reason == "no Sylow combination over the anchor closes to order 35"
        assert result.subgroup is None

    @pytest.mark.parametrize("name,least", [("a5", 9), ("psl2_7", 85), ("psl3_3", 406)])
    def test_least_budget_that_completes(self, name, least):
        # the least hall_candidates budget under which the {2, 3} search
        # finds its witness; one less runs out
        def search(budget):
            return subgroups.hall_subgroup(catalog.build(name), (2, 3), Caps(hall_candidates=budget))

        assert search(least).status == "found"
        short = search(least - 1)
        assert (short.status, short.reason) == ("inconclusive", "Hall search budget exhausted")
        assert short.subgroup is None
