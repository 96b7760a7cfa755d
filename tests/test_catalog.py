"""Catalog builders, registry bookkeeping, and the group file format."""

import json

import pytest

import oracles
from hallmark import catalog
from hallmark.config import DEGREE_CAP
from hallmark.errors import CapacityError, MalformedInputError


class TestBuilders:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (6, 6), (30, 30)])
    def test_cyclic(self, n, order):
        group = catalog.cyclic(n)
        assert group.order == order
        naive = oracles.close([g.images for g in group.generators], group.degree)
        assert len(naive) == order

    @pytest.mark.parametrize("n", [3, 4, 15])
    def test_dihedral(self, n):
        group = catalog.dihedral(n)
        assert group.order == 2 * n

    def test_dihedral_needs_three_vertices(self):
        with pytest.raises(MalformedInputError):
            catalog.dihedral(2)

    @pytest.mark.parametrize("n,order", [(3, 6), (4, 24), (5, 120), (13, 6227020800)])
    def test_symmetric(self, n, order):
        assert catalog.symmetric(n).order == order

    @pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60), (7, 2520), (13, 3113510400)])
    def test_alternating(self, n, order):
        assert catalog.alternating(n).order == order

    @pytest.mark.parametrize(
        "q,order",
        [(4, 60), (5, 60), (7, 168), (8, 504), (9, 360), (11, 660), (13, 1092), (16, 4080),
         (17, 2448), (19, 3420), (23, 6072), (25, 7800), (27, 9828), (29, 12180), (31, 14880),
         (32, 32736), (2, 6), (3, 12), (37, 25308), (49, 58800), (64, 262080)],
    )
    def test_psl2_orders(self, q, order):
        # |PSL(2,q)| = q(q^2-1)/gcd(2, q-1)
        group = catalog.psl2(q)
        assert group.order == order
        assert group.degree == q + 1

    def test_psl2_rejects_bad_q(self):
        with pytest.raises(MalformedInputError):
            catalog.psl2(6)

    def test_psl2_above_the_degree_cap(self):
        # 1025 points on the projective line over F_1024
        with pytest.raises(CapacityError) as info:
            catalog.psl2(1024)
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    @pytest.mark.parametrize("build,arg", [
        (catalog.symmetric, 0),
        (catalog.alternating, 0),
        (catalog.symmetric, True),
        (catalog.psl2, 1),
        (catalog.psl2, True),
        # a bool is an int but not an integer parameter
        (catalog.cyclic, True),
        (catalog.cyclic, 2.0),
        (catalog.dihedral, True),
        pytest.param(lambda n: catalog.frobenius(n, 2), True, id="frobenius-True"),
        pytest.param(lambda q: catalog.semi_affine(q, 3), True, id="semi_affine-True"),
    ])
    def test_builders_reject_bad_parameters(self, build, arg):
        with pytest.raises(MalformedInputError):
            build(arg)

    @pytest.mark.parametrize(
        "q,p,order",
        [(2, 3, 168), (3, 2, 144), (2, 5, 4960), (5, 2, 1200), (2, 7, 113792),
         (3, 5, 294030), (7, 2, 4704)],
    )
    def test_semi_affine_orders(self, q, p, order):
        # order q^p * (q^p - 1) * p, acting on q^p field points
        group = catalog.semi_affine(q, p)
        assert group.order == order
        assert group.degree == q ** p

    def test_semi_affine_above_the_degree_cap(self):
        # 2^17 points: refused by the degree cap before any field is built
        with pytest.raises(CapacityError) as info:
            catalog.semi_affine(2, 17)
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    @pytest.mark.parametrize("n,k,order", [(5, 4, 20), (7, 3, 21), (7, 6, 42)])
    def test_frobenius(self, n, k, order):
        assert catalog.frobenius(n, k).order == order

    def test_frobenius_rejects_impossible_multiplier(self):
        # units mod 8 all square to 1, so there is no multiplier of order 3
        with pytest.raises(MalformedInputError):
            catalog.frobenius(8, 3)

    def test_direct_product(self):
        a5 = catalog.alternating(5)
        c7 = catalog.cyclic(7)
        prod = catalog.direct_product(a5, c7)
        assert prod.order == 420
        assert prod.degree == 12

    def test_direct_product_above_the_degree_cap(self):
        # 600 + 600 points: refused by Permutation, the first to see them
        with pytest.raises(CapacityError) as info:
            catalog.direct_product(catalog.cyclic(600), catalog.cyclic(600))
        assert (info.value.cap_name, info.value.cap_value) == ("degree", DEGREE_CAP)

    def test_shipped_psl3_3(self):
        group = catalog.psl3_3()
        assert group.order == 5616
        assert group.degree == 13


class TestRegistry:
    def test_entries_carry_tags(self):
        names = {e.name for e in catalog.entries()}
        assert {"a5", "psl2_31", "aff8", "j1", "s3xs3"} <= names

    def test_stretch_filter(self):
        assert all(
            "sporadic-stretch" not in e.tags
            for e in catalog.entries(include_stretch=False)
        )
        assert any(
            "sporadic-stretch" in e.tags for e in catalog.entries(include_stretch=True)
        )

    def test_unknown_name(self):
        with pytest.raises(MalformedInputError):
            catalog.get_entry("nosuch")

    def test_every_small_entry_builds_to_registered_size(self):
        for entry in catalog.entries(include_stretch=False):
            group = entry.build()  # build() itself checks order and degree
            assert group.order == entry.order

    @pytest.mark.extended
    def test_stretch_entry_builds(self):
        group = catalog.get_entry("j1").build()
        assert group.order == 175560
        assert group.degree == 266


def doc(degree, gens, name="t"):
    return {"name": name, "degree": degree, "generators": gens}


class TestGroupFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc(3, [[2, 1, 3], [2, 3, 1]], name="s3")))
        name, group = catalog.load_group_file(str(path))
        assert name == "s3"
        assert group.order == 6

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            doc(3, [[2, 1, 3]], name=""),
            {"degree": 3, "generators": []},
            doc("3", [[2, 1, 3]]),
            doc(3, "nope"),
            doc(3, [[2, 1]]),
            doc(3, [[0, 1, 2]]),  # images are 1-based
            doc(3, [[1, 1, 2]]),
            doc(3, [[1, 2, True]]),
            {**doc(3, [[2, 1, 3]]), "extra": 1},
        ],
    )
    def test_rejects_malformed_documents(self, obj):
        with pytest.raises(MalformedInputError):
            catalog.parse_group_json(obj)

    def test_missing_file(self):
        with pytest.raises(MalformedInputError):
            catalog.load_group_file("/nonexistent/g.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(MalformedInputError):
            catalog.load_group_file(str(path))
