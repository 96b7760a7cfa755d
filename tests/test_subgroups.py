"""Sylow, Hall, and structure queries against naive recomputation."""

import math
import os
import subprocess
import sys
from itertools import combinations

import pytest

import oracles
from hallmark import catalog, classdata, subgroups
from hallmark.arith import p_part, pi_part, prime_factors
from hallmark.errors import CapacityError, PreconditionError
from hallmark.kernels import kernel
from hallmark.perms import Permutation, PermutationGroup


def naive_elements(group):
    return oracles.close([p.images for p in group.generators], group.degree)


def naive_set(sub):
    return oracles.close([p.images for p in sub.generators], sub.degree)


def assert_genuine_subgroup(group, sub, ambient=None):
    """The naive closure of sub's generators, a group by construction, lies
    in group and is sub's own element list."""
    ambient = ambient if ambient is not None else naive_elements(group)
    got = naive_set(sub)
    assert len(got) == sub.order
    assert got <= ambient
    assert sorted(got) == [kernel.unpack(r) for r in sub.element_rows()]


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
            subgroups.sylow(catalog.build("a5"), 2, 10)


def reference_all_sylow(group, p):
    """all_sylow's list by conjugating every element row of each conjugate
    along the same breadth-first orbit search, with no shortcut."""
    seed = subgroups.sylow(group, p)
    gen_rows = [kernel.pack(g.images) for g in group.generators]
    seed_rows = tuple(seed.element_rows())
    seen = {seed_rows: [kernel.pack(g.images) for g in seed.generators]}
    frontier = [seed_rows]
    while frontier:
        nxt = []
        for rows in frontier:
            for g in gen_rows:
                gi = kernel.inverse(g)
                conj = tuple(sorted(kernel.compose(kernel.compose(gi, r), g) for r in rows))
                if conj not in seen:
                    seen[conj] = [kernel.compose(kernel.compose(gi, s), g) for s in seen[rows]]
                    nxt.append(conj)
        frontier = nxt
    return [seen[rows] for rows in sorted(seen)]


ALL_SYLOW_GROUPS = sorted(
    [e.name for e in catalog.entries(include_stretch=False) if e.order < 1000]
    + ["psl3_3", "aff32"]
)


class TestAllSylow:
    @pytest.mark.parametrize("name", ALL_SYLOW_GROUPS)
    def test_matches_reference_and_count(self, name):
        group = catalog.build(name)
        for p in prime_factors(group.order):
            got = subgroups.all_sylow(group, p)
            assert got == reference_all_sylow(group, p)
            # the count a second way: the index of a Sylow normalizer
            norm = subgroups.normalizer(group, subgroups.sylow(group, p))
            assert len(got) == group.order // norm.order
            # n_p * |P| <= |G|: the element cap on G bounds the lists
            assert len(got) * subgroups.sylow(group, p).order <= group.order


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
        assert closure.ambient() is s4
        assert subgroups.sylow(closure, 2).order == 8
        assert built == [group, s4]


class TestCentralizerNormalizer:
    def test_centralizer_matches_naive(self):
        group = catalog.build("s4")
        ambient = naive_elements(group)
        for target in group.generators:
            cent = subgroups.centralizer(group, group.subgroup([target]))
            naive = oracles.centralizer(ambient, target.images)
            assert naive_set(cent) == naive
            assert cent.ambient() is group

    def test_normalizer_of_sylow_has_index_sylow_count(self):
        group = catalog.build("a5")
        syl = subgroups.sylow(group, 5)
        norm = subgroups.normalizer(group, syl)
        assert group.order // norm.order == len(subgroups.all_sylow(group, 5)) == 6
        assert naive_set(syl) <= naive_set(norm)
        # nested scopes: members of the scope, each with a weakref to the
        # outermost group
        inner = subgroups.sylow(norm, 2)
        cent = subgroups.centralizer(norm, inner)
        assert naive_set(inner) <= naive_set(norm) and naive_set(cent) <= naive_set(norm)
        assert all(g.ambient() is group for g in (syl, norm, inner, cent))


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
            assert term.ambient() is group
            for g in group.generators:
                gi = oracles.inverse(g.images)
                assert all(
                    Permutation(oracles.compose(oracles.compose(gi, h.images), g.images)) in term
                    for h in term.generators
                )
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
        assert a4.ambient() is s4 and v4.ambient() is s4
        assert all(g in a4 for g in v4.generators)
        c30 = catalog.build("c30")
        trivial = subgroups.derived_subgroup(c30)
        assert trivial.ambient() is c30

    @pytest.mark.parametrize("name,p,core_order", [
        ("s4", 3, 4), ("s4", 2, 1), ("a4", 3, 4), ("frob20", 5, 1),
        ("frob20", 2, 5), ("c30", 2, 15), ("c30", 3, 10), ("c30", 5, 6),
    ])
    def test_op_prime_core(self, name, p, core_order):
        group = catalog.build(name)
        core = subgroups.op_prime_core(group, p)
        assert core.order == core_order
        assert all(g in group for g in core.generators) and core.ambient() is group
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
    """Chief factors, p-solvability, simplicity and Hall subgroups of
    G x H follow from those of G and H."""

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

    # c30 x s3 adds nilpotent and abelian Hall subgroups, which PAIRS lacks
    @pytest.mark.parametrize("left,right", PAIRS + [("c30", "s3")])
    def test_hall_subgroups_follow_from_the_factors(self, left, right):
        # For a Hall pi-subgroup K of G x H, K meets G in a pi-subgroup
        # whose order is at least |K| / |H|_pi = |G|_pi, so K n G is a
        # Hall subgroup of G, and likewise for H; conversely the product
        # of Hall subgroups of the factors is one of G x H.  A nilpotent
        # Hall pi-subgroup makes every Hall pi-subgroup conjugate to it
        # (Wielandt), so nilpotency and commutativity are the same for
        # every witness, and the product's is nilpotent (abelian)
        # exactly when both factors' are.
        g, h = self._factor(left), self._factor(right)
        product = catalog.direct_product(g, h)
        primes = prime_factors(product.order)
        for k in range(2, len(primes) + 1):
            for pi in combinations(primes, k):
                left_shape, right_shape = self._hall_shape(g, pi), self._hall_shape(h, pi)
                expected = None
                if left_shape is not None and right_shape is not None:
                    expected = tuple(a and b for a, b in zip(left_shape, right_shape))
                assert self._hall_shape(product, pi) == expected, pi

    @staticmethod
    def _hall_shape(group, pi):
        """(nilpotent, abelian) of the Hall subgroup that hall_subgroup
        finds for the primes of pi dividing the order, or None when it
        proves there is none."""
        result = subgroups.hall_subgroup(group, [p for p in pi if group.order % p == 0])
        assert result.status in ("found", "absent"), (group.order, pi, result.reason)
        if result.subgroup is None:
            return None
        return subgroups.is_nilpotent(result.subgroup), subgroups.is_abelian(result.subgroup)


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
        pair = subgroups.exists_commuting_sylow_pair(group, p, q)
        assert (pair is not None) == expected
        if pair is not None:
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
        assert subgroups.exists_normalizing_sylow_pair(group, 3, 2) is not None
        assert subgroups.exists_normalizing_sylow_pair(group, 2, 3) is None


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

    def test_divides_factorial_by_legendre(self):
        for n in range(1, 200):
            for m in range(30):
                assert subgroups._divides_factorial(n, m) == (math.factorial(m) % n == 0)
        # a8's order and its (5, 7) index, which the Hall search tests first
        assert subgroups._divides_factorial(20160, 576)
        assert not subgroups._divides_factorial(60, 4)

    def test_element_cap_stops_the_search_before_any_sylow_list(self, monkeypatch):
        # a8 (order 20160) over an element cap of 1000: the cap is checked
        # when a8's rows are read, and no Sylow list is begun
        def unreachable(*args):
            raise AssertionError("all_sylow called")

        monkeypatch.setattr(subgroups, "all_sylow", unreachable)
        with pytest.raises(CapacityError) as info:
            subgroups.hall_subgroup(catalog.build("a8"), [5, 7], caps=1000)
        assert (info.value.cap_name, info.value.cap_value) == ("elements", 1000)

    def test_hall_rejects_junk_pi(self):
        group = catalog.build("s4")
        with pytest.raises(PreconditionError):
            subgroups.hall_subgroup(group, (4, 3))
        with pytest.raises(PreconditionError):
            subgroups.hall_subgroup(group, (2, 2))


class TestSubgroupFromRows:
    """group.subgroup_from_rows picks the greedy generators that the
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
            assert sub.ambient() is group
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
    def test_least_budget_that_completes(self, name, least, monkeypatch):
        # the least hall_candidates budget under which the {2, 3} search
        # finds its witness; one less runs out
        def search(budget):
            monkeypatch.setattr(subgroups, "HALL_CANDIDATE_CAP", budget)
            return subgroups.hall_subgroup(catalog.build(name), (2, 3))

        assert search(least).status == "found"
        short = search(least - 1)
        assert (short.status, short.reason) == ("inconclusive", "Hall search budget exhausted")
        assert (short.cap_name, short.cap_value) == ("hall_candidates", least - 1)
        assert short.subgroup is None


class TestHallSearchWork:
    """Work the anchored search does, counted at the kernel: Sylow counts
    come from the conjugate lists, not from normalizer scans, and a
    last-level candidate whose element orders rule out a Hall subgroup
    costs no closure.  Normal closures are counted too: a search whose
    index passes the factorial test never tests simplicity."""

    def count_calls(self, monkeypatch):
        calls = {"close_group": 0, "normalizer_filter": 0, "normal_closure": 0}
        for owner, name in ((kernel, "close_group"), (kernel, "normalizer_filter"),
                            (PermutationGroup, "normal_closure")):
            def counted(*args, _name=name, _inner=getattr(owner, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_a8_absent_search(self, monkeypatch):
        group = catalog.build("a8")
        calls = self.count_calls(monkeypatch)
        assert subgroups.hall_subgroup(group, (5, 7)).status == "absent"
        assert calls["normalizer_filter"] == 0
        assert calls["close_group"] < 100
        # 20160 divides 576!, so no chief series is built to test simplicity
        assert calls["normal_closure"] == 0

    def test_aff32_found_search(self, monkeypatch):
        group = catalog.build("aff32")
        calls = self.count_calls(monkeypatch)
        assert subgroups.hall_subgroup(group, (5, 31)).status == "found"
        assert calls["normalizer_filter"] == 0


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

FULL_CHECKS = """
import gc, sys
sys.path.insert(0, %r)
from hallmark import catalog, classdata, criteria, subgroups

def run(name):
    group = catalog.build(name)
    classdata.class_table(group)
    for theorem in criteria.THEOREMS:
        criteria.check_group(group, theorem)
    for pi in criteria.default_prime_sets(group.order):
        found = subgroups.hall_subgroup(group, pi).subgroup
        if found is not None:
            subgroups.is_nilpotent(found)

def run_out_of_budget(name, pi, budget):
    subgroups.HALL_CANDIDATE_CAP = budget
    assert subgroups.hall_subgroup(catalog.build(name), pi).status == "inconclusive"

gc.collect()
gc.disable()
for name in %r:
    run(name)
for name, pi, budget in %r:
    run_out_of_budget(name, pi, budget)
print(gc.collect())
"""


class TestOwnershipTree:
    """A group and the facts kept on it hold no reference cycle, so
    reference counting frees them; a subgroup only holds a weakref to
    the group it was made in."""

    def test_full_checks_leave_no_cyclic_garbage(self):
        # A fresh interpreter with the cyclic collector off: whatever the
        # checks leave unreachable is found by the one collection at the end.
        # psl3_3's {2, 3} search needs a budget of 406, so 405 stops it
        code = FULL_CHECKS % (os.path.abspath(SRC), ["a5", "s4", "a5xc7", "aff32", "a8"],
                              [("psl3_3", (2, 3), 405)])
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]

    @pytest.mark.parametrize("name", ["a5xc7", "frob42", "a8"])
    def test_climb_after_the_ambient_group_is_gone(self, name):
        # A climb reads the ambient class table while that group lives and
        # the host's own table after it is gone; both give the same rows.
        group = catalog.build(name)
        anchor = subgroups.sylow(group, max(prime_factors(group.order)))
        live = subgroups.normalizer(group, anchor)
        orphan = subgroups.normalizer(group, anchor)
        primes = prime_factors(live.order)
        expected = [subgroups.sylow(live, p).element_rows() for p in primes]
        del group, anchor, live
        assert orphan.ambient() is None
        assert [subgroups.sylow(orphan, p).element_rows() for p in primes] == expected
