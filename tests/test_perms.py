"""Permutations and the stabilizer-chain group against naive closure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hallmark import catalog
from hallmark.config import DEGREE_CAP
from hallmark.errors import CapacityError, MalformedInputError, PreconditionError
from hallmark.kernels import kernel
from hallmark.perms import Permutation, PermutationGroup, compose, conjugate, inverse

perm_images = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.permutations(range(n))
)


def from_cycles(degree, *cycles):
    """The permutation of 0..degree-1 with the given cycles."""
    imgs = list(range(degree))
    for cyc in cycles:
        for pos, pt in enumerate(cyc):
            imgs[pt] = cyc[(pos + 1) % len(cyc)]
    return Permutation(imgs)


class TestPermutation:
    @given(perm_images)
    def test_inverse_matches_oracle(self, images):
        p = tuple(images)
        assert inverse(p) == oracles.inverse(p)
        assert compose(p, inverse(p)) == oracles.identity(len(p))

    @given(perm_images, st.randoms())
    def test_compose_matches_oracle(self, images, rng):
        other = list(range(len(images)))
        rng.shuffle(other)
        assert compose(tuple(images), tuple(other)) == oracles.compose(tuple(images), tuple(other))

    @given(perm_images)
    def test_order_matches_oracle(self, images):
        # the kernel's order, as the class table reads it for a permutation
        p = Permutation(images)
        assert kernel.order_of(kernel.pack(p.images)) == oracles.element_order(tuple(images))

    def test_cycle_round_trip(self):
        p = from_cycles(6, (0, 1, 2), (4, 5))
        assert p.cycle_string() == "(0 1 2)(4 5)"
        assert from_cycles(6, *p.cycles()) == p

    def test_conjugate_definition(self):
        p = from_cycles(4, (0, 1)).images
        g = from_cycles(4, (0, 2, 1, 3)).images
        assert conjugate(p, g) == oracles.compose(oracles.compose(oracles.inverse(g), p), g)

    def test_rejects_non_bijections(self):
        with pytest.raises(MalformedInputError):
            Permutation([0, 0, 1])
        with pytest.raises(MalformedInputError):
            Permutation([0, 2])
        with pytest.raises(MalformedInputError):
            Permutation([0, "1"])

    def test_degree_cap_enforced(self):
        with pytest.raises(CapacityError):
            Permutation(range(DEGREE_CAP + 1))
        # a group's degree is an int (not a bool) of at least 0
        for degree in (-1, True, 2.0, "3"):
            with pytest.raises(MalformedInputError, match="degree must be"):
                PermutationGroup(degree, [])


def s4():
    return PermutationGroup(4, [from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))])


class TestPermutationGroup:
    @pytest.mark.parametrize(
        "degree,cycle_sets,expected_order",
        [
            (4, [[(0, 1)], [(0, 1, 2, 3)]], 24),
            (5, [[(0, 1, 2)], [(2, 3, 4)]], 60),
            (6, [[(0, 1, 2, 3, 4, 5)]], 6),
            (7, [[(0, 1, 2, 3, 4, 5, 6)], [(1, 2, 4), (3, 6, 5)]], 21),
        ],
    )
    def test_order_matches_naive_closure(self, degree, cycle_sets, expected_order):
        gens = [from_cycles(degree, *cs) for cs in cycle_sets]
        group = PermutationGroup(degree, gens)
        naive = oracles.close([g.images for g in gens], degree)
        assert group.order == len(naive) == expected_order
        assert {kernel.unpack(r) for r in group.element_rows()} == naive

    def test_membership(self):
        group = PermutationGroup(5, [from_cycles(5, (0, 1, 2)), from_cycles(5, (2, 3, 4))])
        for row in group.element_rows():
            assert Permutation(kernel.unpack(row)) in group
        assert from_cycles(5, (0, 1)) not in group  # odd, so outside A5

    def test_element_rows_cap(self):
        with pytest.raises(CapacityError):
            s4().element_rows(23)

    def test_elements_sorted_and_cached(self):
        group = s4()
        rows = group.element_rows()
        assert rows == sorted(rows)
        assert group.element_rows() is rows

    def test_normal_closure_of_double_transposition_in_s4(self):
        group = s4()
        v4 = group.normal_closure([from_cycles(4, (0, 1), (2, 3))])
        assert v4.order == 4
        assert oracles.is_abelian([kernel.unpack(r) for r in v4.element_rows()])

    def test_coset_action_quotient_s4_mod_v4(self):
        group = s4()
        v4 = group.normal_closure([from_cycles(4, (0, 1), (2, 3))])
        quotient = group.coset_action_quotient(v4)
        assert quotient.degree == 6
        assert quotient.order == 6
        assert all(g in group for g in v4.generators) and v4.ambient() is group
        # a quotient acts on new points: a top-level group, with no ambient
        assert quotient.ambient is None

    def test_coset_action_above_the_degree_cap(self):
        # C33 x C35 over its trivial subgroup has 1155 cosets
        group = catalog.direct_product(catalog.cyclic(33), catalog.cyclic(35))
        with pytest.raises(CapacityError) as info:
            group.coset_action_quotient(group.subgroup([]))
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    def test_coset_action_refuses_the_index_before_the_walk(self, monkeypatch):
        # S_12 over its trivial subgroup has 12! cosets; walking them would
        # hold 12! rows before Permutation saw the degree
        group = catalog.symmetric(12)
        trivial = group.subgroup([])

        def unreachable(self, cap=None):
            raise AssertionError("coset walk begun")

        monkeypatch.setattr(PermutationGroup, "element_rows", unreachable)
        with pytest.raises(CapacityError) as info:
            group.coset_action_quotient(trivial)
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    def test_coset_action_rejects_non_normal(self):
        group = s4()
        sub = group.subgroup([from_cycles(4, (0, 1))])
        assert group.ambient is None
        assert all(g in group for g in sub.generators) and sub.ambient() is group
        inner = sub.subgroup(sub.generators)
        assert all(g in sub for g in inner.generators) and inner.ambient() is group
        with pytest.raises(PreconditionError):
            group.coset_action_quotient(sub)
        with pytest.raises(PreconditionError, match="requires a normal subgroup"):
            group.coset_action_quotient(inner)

    def test_coset_action_rejects_a_subgroup_outside_the_group(self):
        # a group of another degree, and one whose generator is odd
        a5 = PermutationGroup(5, [from_cycles(5, (0, 1, 2)), from_cycles(5, (2, 3, 4))])
        for outsider in (s4(), PermutationGroup(5, [from_cycles(5, (0, 1))])):
            with pytest.raises(PreconditionError, match="belongs to a different group"):
                a5.coset_action_quotient(outsider)

    def test_normal_closure_rejects_outsiders(self):
        group = PermutationGroup(5, [from_cycles(5, (0, 1, 2)), from_cycles(5, (2, 3, 4))])
        with pytest.raises(PreconditionError):
            group.normal_closure([from_cycles(5, (0, 1))])
        with pytest.raises(PreconditionError):
            group.subgroup([from_cycles(5, (0, 1))])

    @given(st.randoms(note_method_calls=False))
    @settings(max_examples=20, deadline=None)
    def test_random_subgroups_of_s7_have_dividing_order(self, rng):
        degree = 7
        a = list(range(degree))
        b = list(range(degree))
        rng.shuffle(a)
        rng.shuffle(b)
        group = PermutationGroup(degree, [Permutation(a), Permutation(b)])
        naive = oracles.close([tuple(a), tuple(b)], degree)
        assert group.order == len(naive)
        assert 5040 % group.order == 0


def _oracle_normal_closure(group_gens, seeds, degree):
    """Close the seeds, adding conjugates by the group generators until stable."""
    gens = [s for s in seeds if s != oracles.identity(degree)]
    closure = oracles.close(gens, degree)
    i = 0
    while i < len(gens):
        for g in group_gens:
            c = oracles.compose(oracles.compose(oracles.inverse(g), gens[i]), g)
            if c not in closure:
                gens.append(c)
                closure = oracles.close(gens, degree)
        i += 1
    return closure


group_and_seeds = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.lists(st.permutations(range(n)), min_size=1, max_size=3),
        st.lists(st.integers(min_value=0), min_size=1, max_size=2),
    )
)


@given(group_and_seeds)
@settings(max_examples=60, deadline=None)
def test_normal_closure_extends_its_chain_correctly(data):
    gen_images, picks = data
    degree = len(gen_images[0])
    group = PermutationGroup(degree, [Permutation(g) for g in gen_images])
    elements = sorted(oracles.close([tuple(g) for g in gen_images], degree))
    seeds = [Permutation(elements[k % len(elements)]) for k in picks]

    closure = group.normal_closure(seeds)
    want = _oracle_normal_closure([tuple(g) for g in gen_images],
                                  [s.images for s in seeds], degree)
    assert closure.order == len(want)
    assert [kernel.unpack(r) for r in closure.element_rows()] == sorted(want)
    fresh = PermutationGroup(degree, closure.generators)
    assert fresh.order == closure.order
    assert fresh.element_rows() == closure.element_rows()
    for x in elements:
        assert (Permutation(x) in closure) == (x in want)


@pytest.mark.parametrize("name", ["s4", "a5", "psl2_7", "psl2_31", "psl3_3", "a5xc7", "a8"])
def test_each_schreier_generator_is_sifted_once(monkeypatch, name):
    # Schreier generators sift from level 1 or deeper; membership tests and
    # new generators sift from level 0.  Sifting each (orbit point,
    # generator) pair of the final chain at most once bounds the count.
    schreier_sifts = []
    sift = PermutationGroup._sift_tuple

    def counting(self, g, start=0):
        if start > 0:
            schreier_sifts.append(start)
        return sift(self, g, start)

    shipped = catalog.build(name)
    monkeypatch.setattr(PermutationGroup, "_sift_tuple", counting)
    group = PermutationGroup(shipped.degree, shipped.generators)
    pairs = sum(len(lvl.transversal) * len(lvl.gens) for lvl in group._levels)
    assert group.order == shipped.order
    assert len(schreier_sifts) <= pairs


def _assert_rows_are_the_closure(group):
    rows = [kernel.unpack(r) for r in group.element_rows()]
    gens = [g.images for g in group.generators]
    assert rows == sorted(oracles.close(gens, group.degree))
    assert len(rows) == group.order


class TestElementRowsFromChain:
    # element_rows multiplies one transversal element per chain level; the
    # oracle closes the generators breadth-first, sharing no code with it.

    def test_no_closure_is_made(self, monkeypatch):
        def no_closure(*args):
            raise AssertionError("element_rows closed the generators")

        monkeypatch.setattr(kernel, "close_group", no_closure)
        group = catalog.build("psl2_7")
        assert len(group.element_rows()) == group.order == 168

    @pytest.mark.parametrize("name,base", [
        ("psl3_3", (1, 4, 0, 2, 5)),  # five levels, base not a prefix of 0..n-1
        ("a5xc7", (0, 2, 5, 1)),  # intransitive
    ])
    def test_catalog_bases(self, name, base):
        group = catalog.build(name)
        assert tuple(lvl.base for lvl in group._levels) == base
        _assert_rows_are_the_closure(group)

    @pytest.mark.parametrize("left,right", [("s4", "d4"), ("a5", "c3")])
    def test_direct_products(self, left, right):
        g = catalog.build(left)
        h = catalog.cyclic(3) if right == "c3" else catalog.build(right)
        _assert_rows_are_the_closure(catalog.direct_product(g, h))

    @pytest.mark.parametrize("degree", [0, 1])
    def test_trivial_groups(self, degree):
        group = PermutationGroup(degree, [])
        assert group.element_rows() == [kernel.identity_row(degree)]
        _assert_rows_are_the_closure(group)
