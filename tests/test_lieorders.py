"""Order formulas and semisimple class sizes for the classical families.

Expected values come from three independent sources: order products
multiplied out by hand, permutation-group class tables from the catalog
(SL(3,2) and PSL(2,7) are the same group, as are SL(2,4) and A5, so the
matrix-side formulas must reproduce sizes the enumeration side already
computed), and the integer cyclotomic oracle in tests/oracles.py.  Grid
counts were frozen from a run of the shipped manifest that finished
with zero failures.
"""

import json
import os
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hallmark import arith, catalog, chartab, lieorders
from hallmark.classdata import ClassTable
from hallmark.errors import MalformedInputError, PreconditionError
from hallmark.lieorders import FAMILIES, load_grid_manifest, run_grid, verify_pair

from oracles import cyclotomic_poly

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


# the generic order, as verify_pair and run_grid read it
group_order = lieorders._order


def witness(family, n, q, r):
    """The block witness of r, built as verify_pair and run_grid build it."""
    return lieorders._block_witness(
        family, n, q, r, lieorders._family_order_of_q(family, r, q)
    )


class TestGroupOrder:
    def test_frozen_orders(self):
        # GL_3(2): 2^3 * 1 * 3 * 7 = 168, and so on down the list.
        assert group_order("GL", 3, 2) == 168
        assert group_order("GL", 1, 5) == 4
        assert group_order("GU", 2, 2) == 18
        assert group_order("GU", 3, 2) == 648
        assert group_order("Sp", 2, 3) == 51840
        assert group_order("SOodd", 2, 3) == 51840
        assert group_order("SOplus", 2, 2) == 36
        assert group_order("SOminus", 2, 2) == 60
        # 2^12 * 17 * 3 * 15 * 63
        assert group_order("SOminus", 4, 2) == 197406720

    def test_rank_one_coincidences(self):
        # Sp_2, SO_3, and SL_2 share an order; rank-one SO^+/- are tori.
        for q in PRIME_POWERS:
            sl2 = group_order("GL", 2, q) // (q - 1)
            assert group_order("Sp", 1, q) == sl2
            assert group_order("SOodd", 1, q) == sl2
            assert group_order("SOplus", 1, q) == q - 1
            assert group_order("SOminus", 1, q) == q + 1

    def test_gl_product_form(self):
        for n in range(1, 6):
            for q in (2, 3, 4, 5):
                expect = q ** (n * (n - 1) // 2)
                for j in range(1, n + 1):
                    expect *= q**j - 1
                assert group_order("GL", n, q) == expect

    def test_gu_is_sign_twisted_gl(self):
        for n in range(1, 6):
            for q in (2, 3, 4, 5):
                expect = q ** (n * (n - 1) // 2)
                for j in range(1, n + 1):
                    expect *= q**j - (-1) ** j
                assert group_order("GU", n, q) == expect

    def test_input_validation(self):
        # verify_pair checks the family, rank and q before any order
        with pytest.raises(MalformedInputError, match="unknown family"):
            verify_pair("SU", 2, 2, 3, 5)
        with pytest.raises(MalformedInputError, match="rank"):
            verify_pair("GL", 0, 2, 3, 5)
        with pytest.raises(MalformedInputError, match="rank"):
            verify_pair("GL", -1, 2, 3, 5)
        with pytest.raises(MalformedInputError, match="rank"):
            verify_pair("GL", True, 2, 3, 5)
        with pytest.raises(PreconditionError, match="prime power"):
            verify_pair("GL", 2, 6, 5, 7)
        with pytest.raises(PreconditionError, match="prime power"):
            verify_pair("GL", 2, 1, 3, 5)
        with pytest.raises(PreconditionError, match="prime power"):
            verify_pair("GL", 3, 4.0, 3, 5)
        with pytest.raises(PreconditionError, match="prime power"):
            verify_pair("GL", 3, "4", 3, 5)


def ord_mod(r, q):
    # the order of q modulo r, as the GL witnesses read it
    return lieorders._family_order_of_q("GL", r, q)


def ord_mod_neg(r, q):
    # the order of -q modulo r, as the GU witnesses read it
    return lieorders._family_order_of_q("GU", r, q)


class TestMultiplicativeOrders:
    @given(
        r=st.sampled_from(ODD_PRIMES),
        q=st.integers(min_value=2, max_value=200),
    )
    def test_ord_mod_is_least_exponent(self, r, q):
        assume(q % r != 0)
        k = ord_mod(r, q)
        assert pow(q, k, r) == 1
        assert all(pow(q, j, r) != 1 for j in range(1, k))

    @given(
        r=st.sampled_from(ODD_PRIMES),
        q=st.integers(min_value=2, max_value=200),
    )
    def test_ord_mod_neg_is_least_exponent(self, r, q):
        assume(q % r != 0)
        k = ord_mod_neg(r, q)
        assert pow(-q, k, r) == 1
        assert all(pow(-q, j, r) != 1 for j in range(1, k))

    def test_known_orders(self):
        assert ord_mod(7, 2) == 3
        assert ord_mod(31, 5) == 3
        assert ord_mod(13, 3) == 3
        assert ord_mod_neg(3, 2) == 1
        assert ord_mod_neg(5, 2) == 4
        assert ord_mod_neg(7, 2) == 6

    def test_verify_pair_factors_s_once(self, monkeypatch):
        # s is factored when it is checked to be prime; its order of q
        # divides s - 1 and needs no second factoring of s
        s = 1099511627689
        factored = []
        factor = arith.prime_factors

        def counting(n):
            factored.append(n)
            return factor(n)

        monkeypatch.setattr(arith, "prime_factors", counting)
        assert verify_pair("GL", 2, 2, 3, s)["consistent"] is True
        assert factored.count(s) == 1

    def test_rejects_bad_inputs(self):
        # verify_pair checks r and s before it takes their orders
        with pytest.raises(PreconditionError, match="r must be a prime"):
            verify_pair("GL", 2, 3, 4, 5)
        with pytest.raises(PreconditionError, match="s must be a prime"):
            verify_pair("GU", 2, 2, 3, 9)
        with pytest.raises(PreconditionError, match="divides q"):
            verify_pair("GL", 2, 25, 5, 3)
        # ord_7(2) = 3 exceeds the rank, which the builder refuses
        with pytest.raises(PreconditionError, match="does not divide"):
            lieorders._block_witness("GL", 2, 2, 7, 3)


class TestCrossCheckAgainstEnumeration:
    """The same groups computed two ways must give the same class sizes."""

    def test_sl32_matches_psl27(self):
        cs = witness("GL", 3, 2, 7)
        table = ClassTable(catalog.build("psl2_7"))
        sizes = [ci.size for ci in table.classes if ci.element_order == 7]
        assert cs.value == 24
        assert sizes == [24, 24]

    def test_sl24_matches_a5(self):
        table = ClassTable(catalog.build("a5"))
        fives = [ci.size for ci in table.classes if ci.element_order == 5]
        threes = [ci.size for ci in table.classes if ci.element_order == 3]
        assert witness("GL", 2, 4, 5).value == 12
        assert witness("Sp", 1, 4, 5).value == 12
        assert fives == [12, 12]
        assert witness("Sp", 1, 4, 3).value == 20
        assert threes == [20]

    def test_sp_rank_one_matches_psl2_11(self):
        table = ClassTable(catalog.build("psl2_11"))
        threes = [ci.size for ci in table.classes if ci.element_order == 3]
        # Order-3 elements sit in the torus of order (q+1)/2 = 6 upstairs;
        # the centre acts freely so the size survives the quotient.
        assert witness("Sp", 1, 11, 3).value == 110
        assert threes == [110]

    def test_sp_rank_one_matches_psl2_31_table(self):
        import hallmark
        from pathlib import Path

        path = Path(hallmark.__file__).parent / "data" / "tables" / "psl2_31.json"
        doc = chartab.load_table(str(path))
        threes = [c.size for c in doc.classes if c.element_order == 3]
        fives = [c.size for c in doc.classes if c.element_order == 5]
        # Both primes divide (q-1)/2 = 15, the split torus.
        assert witness("Sp", 1, 31, 3).value == 992
        assert witness("Sp", 1, 31, 5).value == 992
        assert threes == [992]
        assert fives == [992, 992]


class TestClassSizeReports:
    def test_json_shape(self):
        rep = witness("Sp", 1, 4, 5).to_json()
        assert rep == {
            "family": "Sp",
            "case": "twisted",
            "params": {
                "n": 1,
                "q": 4,
                "r": 5,
                "k": 2,
                "m": 0,
                "kappa": 1,
                "ambient": "Sp_2(4)",
            },
            "value": 12,
            "divisor": 1,
            "ambient": 60,
            "divisor_holds": True,
            "divides_ambient": True,
        }

    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=1, max_value=6),
        q=st.sampled_from((2, 3, 4, 5, 7, 9)),
        r=st.sampled_from((3, 5, 7, 11, 13)),
    )
    @settings(max_examples=200, deadline=None)
    def test_divisibility_flags_hold(self, family, n, q, r):
        assume(q % r != 0)
        try:
            cs = witness(family, n, q, r)
        except PreconditionError:
            assume(False)
        assert cs.value >= 1
        assert cs.divisor_holds
        assert cs.divides_ambient
        assert cs.ambient % cs.value == 0


class TestSymplecticAndOrthogonalCases:
    def test_sp_parity_dispatch(self):
        assert witness("Sp", 1, 4, 3).to_json()["case"] == "split"
        assert witness("Sp", 1, 4, 5).to_json()["case"] == "twisted"

    def test_sp_twisted_stack(self):
        # ord_3(2) = 2: a = floor(2 / 1) = 2 blocks GU_1(2) stacked in Sp_4(2),
        # |Sp_4(2)| / |GU_2(2)| = 720 / 18.
        assert lieorders._stack_value("Sp", 2, 2, 3, 2) == 40
        # The stack needs strictly fewer than r blocks.
        with pytest.raises(PreconditionError, match="floor"):
            lieorders._stack_value("Sp", 3, 2, 3, 2)
        with pytest.raises(PreconditionError, match="floor"):
            lieorders._stack_value("Sp", 4, 2, 3, 2)

    def test_so_drop_cases(self):
        # Minus type of dimension 2*kappa: the split torus eats the form.
        cs = witness("SOminus", 3, 4, 3)
        assert cs.to_json()["case"] == "split-drop"
        # |SOminus_6(4)| / (3 * |SOminus_4(4)|) = 1018368000 / 12240.
        assert cs.value == 83200
        assert cs.divisor_holds and cs.divides_ambient
        # Plus type of dimension 2*kappa with k even.
        cs = witness("SOplus", 3, 2, 3)
        assert cs.to_json()["case"] == "twisted-drop"
        # |SOplus_6(2)| / |GU_2(2)| = 20160 / 18.
        assert cs.value == 1120
        assert cs.divides_ambient
        # The split-drop step needs m >= 1: ord_7(2) = 3 fills SO^-_6(2).
        with pytest.raises(PreconditionError, match="m >= 1"):
            witness("SOminus", 3, 2, 7)

    def test_so_odd_split(self):
        cs = witness("SOodd", 4, 2, 7)
        assert cs.to_json()["case"] == "split"
        # Ambient 2^16 * 3 * 15 * 63 * 255, divided by 7 * |SO_3(2)|.
        assert cs.value == 47377612800 // 42
        assert cs.divisor_holds and cs.divides_ambient



class TestWitnessBuilders:
    def test_gu_even_k_block_frozen(self):
        # k = ord_5(-2) = 4: the block GL_1(2^4) sits on 4 = k * 5^0
        # dimensions and is reported with kappa = 4/2 = 2.  Worked by hand:
        # |GU_4(2)| = 2^6 * 3 * 3 * 9 * 15 = 77760, value 77760 / (2^4 - 1),
        # divisor (2 + 1)(2^2 - 1)(2^3 + 1) = 3 * 3 * 9.
        rep = witness("GU", 4, 2, 5).to_json()
        assert rep["case"] == "block"
        assert rep["params"] == {
            "n": 4, "q": 2, "r": 5, "k": 4, "m": 0, "kappa": 2, "ambient": "GU_4(2)",
        }
        assert (rep["value"], rep["divisor"], rep["ambient"]) == (5184, 81, 77760)

    def test_gu_pair_witnesses_frozen(self):
        # r = 3: k = 1 and the block GU_1(2^3) on 3 = 1 * 3^1 dimensions,
        # value 77760 / ((2^3 + 1) * |GU_1(2)|) = 77760 / 27, divisor 3 * 3.
        # r = 5 is the even-k block above.
        rep = verify_pair("GU", 4, 2, 3, 5)
        common = {"family": "GU", "case": "block", "ambient": 77760,
                  "divisor_holds": True, "divides_ambient": True}
        assert rep["witnesses"] == [
            dict(common, params={"n": 4, "q": 2, "r": 3, "k": 1, "m": 1, "kappa": 3,
                                 "ambient": "GU_4(2)"},
                 value=2880, divisor=9, prime=3, other_prime_divides=True,
                 own_prime_divides=True),
            dict(common, params={"n": 4, "q": 2, "r": 5, "k": 4, "m": 0, "kappa": 2,
                                 "ambient": "GU_4(2)"},
                 value=5184, divisor=81, prime=5, other_prime_divides=True,
                 own_prime_divides=False),
        ]

    def test_drop_params_frozen(self):
        # A "-drop" witness reports the stepped-down block as kappa1, after
        # the orthogonal params in their report order.
        split = witness("SOminus", 3, 4, 3)
        twisted = witness("SOplus", 3, 2, 3)
        assert (split.family, split.case, list(split.params.items())) == ("SO", "split-drop", [
            ("d", 6), ("eps", -1), ("q", 4), ("r", 3), ("k", 1),
            ("ambient", "SO^-_6(4)"), ("m", 1), ("kappa", 3), ("kappa1", 1),
        ])
        assert (twisted.case, list(twisted.params.items())) == ("twisted-drop", [
            ("d", 6), ("eps", 1), ("q", 2), ("r", 3), ("k", 2),
            ("ambient", "SO^+_6(2)"), ("m", 1), ("kappa", 3), ("kappa1", 1),
        ])

    def test_sp_is_odd_dimensional_so(self):
        # Sp_2n(q) and SO_2n+1(q) have the same order, so each witness of
        # one is a witness of the other: same case, value, divisor and
        # ambient, and a witness that does not fit fails alike in both.
        def outcome(family, n, q, r):
            try:
                cs = witness(family, n, q, r)
            except PreconditionError:
                return "precondition"
            return (cs.case, cs.value, cs.divisor, cs.ambient)

        compared = 0
        for q in (2, 3, 4, 5, 7, 8, 9):
            for r in (3, 5, 7, 11, 13):
                if q % r == 0:
                    continue
                for n in range(1, 9):
                    sp = outcome("Sp", n, q, r)
                    assert sp == outcome("SOodd", n, q, r)
                    compared += sp != "precondition"
        assert compared == 188

    @pytest.mark.parametrize("family", ["GL", "GU", "Sp", "SOodd"],
                             ids=["GL", "GU", "Sp", "SO"])
    def test_r_two_is_rejected(self, family):
        # The witnesses are defined for odd r only.
        with pytest.raises(PreconditionError, match="r must be odd, got 2"):
            verify_pair(family, 2, 3, 2, 5)


class TestVerifyPair:
    def test_vacuous_point(self):
        rep = verify_pair("GL", 2, 2, 5, 7)
        assert rep["status"] == "vacuous"
        assert rep["inactive"] == [5, 7]
        assert rep["premise"] is False
        assert rep["consistent"] is True
        assert rep["witnesses"] == []
        assert "mixed_torus" not in rep

    def test_premise_false_point(self):
        rep = verify_pair("GL", 4, 2, 3, 5)
        assert rep["status"] == "witnessed"
        assert rep["premise"] is False
        assert rep["mixed_torus"] is None and rep["chain"] is None
        values = {w["prime"]: w["value"] for w in rep["witnesses"]}
        # |GL_4(2)| / ((2^2-1) |GL_2(2)|) and / (2^4-1).
        assert values == {3: 1120, 5: 1344}
        assert all(w["other_prime_divides"] for w in rep["witnesses"])
        assert rep["consistent"] is True

    def test_gu_premise_false_point(self):
        rep = verify_pair("GU", 4, 2, 3, 5)
        assert rep["status"] == "witnessed"
        assert (rep["k"], rep["l"]) == (1, 4)
        values = {w["prime"]: w["value"] for w in rep["witnesses"]}
        # kappa grows to 3 = 1 * 3^1 for r = 3; 77760/27 and 77760/15.
        assert values == {3: 2880, 5: 5184}
        assert rep["premise"] is False and rep["consistent"] is True

    def test_equal_orders_chain(self):
        rep = verify_pair("GL", 5, 4, 11, 31)
        assert rep["premise"] is True
        assert rep["orders_equal"] is True
        assert rep["chain"] == {
            "torus_factor": 1023,
            "copies": 1,
            "rank": 5,
            "r_part_ambient": 11,
            "r_part_torus": 11,
            "s_part_ambient": 31,
            "s_part_torus": 31,
            "match": True,
        }
        for w in rep["witnesses"]:
            assert w["value"] == 758041804800
            assert not w["other_prime_divides"]
            assert not w["own_prime_divides"]
        assert rep["consistent"] is True

    def test_equal_orders_two_copies(self):
        # Both primes divide q - 1, so the chain stacks two torus copies.
        rep = verify_pair("GL", 2, 16, 3, 5)
        assert rep["premise"] is True and rep["orders_equal"] is True
        assert rep["chain"]["torus_factor"] == 15
        assert rep["chain"]["copies"] == 2
        assert rep["chain"]["rank"] == 1
        assert rep["chain"]["r_part_ambient"] == 9
        assert rep["chain"]["s_part_ambient"] == 25
        assert rep["chain"]["match"] is True
        assert [w["value"] for w in rep["witnesses"]] == [272, 272]

    @pytest.mark.parametrize(
        "n, q, r, s, torus",
        [
            (6, 3, 7, 13, 728),
            (2, 4, 3, 5, 15),
            (6, 4, 7, 13, 4095),
            (6, 5, 7, 31, 15624),
        ],
    )
    def test_minus_type_mixed_torus(self, n, q, r, s, torus):
        # The one shape where unequal orders still leave the premise true:
        # minus type at the stacked endpoint, torus (q^K-1)(q^K+1).
        rep = verify_pair("SOminus", n, q, r, s)
        assert rep["status"] == "witnessed"
        assert rep["premise"] is True
        assert rep["orders_equal"] is False
        mt = rep["mixed_torus"]
        assert mt["torus_factor"] == torus
        assert mt["stack_coprime"] is True
        assert mt["endpoint"] is True
        assert mt["match"] is True
        assert mt["r_part_ambient"] == mt["r_part_torus"] == p_part(torus, r)
        assert mt["s_part_ambient"] == mt["s_part_torus"] == p_part(torus, s)
        assert rep["consistent"] is True

    def test_mixed_torus_stack_witness_value(self):
        rep = verify_pair("SOminus", 2, 4, 3, 5)
        # |SOminus_4(4)| / (q^2 - 1) = 4080 / 15.
        assert rep["mixed_torus"]["stack_witness"] == 272

    def test_input_validation(self):
        with pytest.raises(MalformedInputError, match="unknown family"):
            verify_pair("SU", 2, 2, 3, 5)
        with pytest.raises(PreconditionError, match="distinct"):
            verify_pair("GL", 2, 2, 3, 3)
        with pytest.raises(PreconditionError, match="odd"):
            verify_pair("GL", 2, 2, 2, 5)
        with pytest.raises(PreconditionError, match="divides q"):
            verify_pair("GL", 2, 9, 3, 5)
        with pytest.raises(MalformedInputError, match="rank"):
            verify_pair("GL", True, 2, 3, 7)

    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(min_value=1, max_value=6),
        q=st.sampled_from((7, 8, 9, 11, 13, 16)),
        pair=st.sampled_from(
            [(r, s) for r in ODD_PRIMES for s in ODD_PRIMES if r < s]
        ),
    )
    @settings(max_examples=250, deadline=None)
    def test_consistent_beyond_grid(self, family, n, q, pair):
        # Fresh prime powers the frozen grid never touches.
        r, s = pair
        assume(q % r != 0 and q % s != 0)
        rep = verify_pair(family, n, q, r, s)
        assert rep["status"] in ("witnessed", "vacuous")
        assert rep["consistent"] is True
        for w in rep["witnesses"]:
            assert w["divisor_holds"] and w["divides_ambient"]


class TestGrid:
    def test_tiny_manifest_counts(self):
        tiny = {
            "schema": "hallmark-lie-grid/1",
            "families": ["GL"],
            "prime_powers": [2],
            "max_rank": 2,
            "primes": [3, 5, 7],
        }
        rep = run_grid(tiny)
        assert rep["schema"] == "hallmark-lie-grid-report/1"
        # 3 prime pairs x 2 ranks; |GL_1(2)| = 1 and |GL_2(2)| = 6 leave
        # every pair with an inactive prime.
        assert rep["points"] == 6
        assert rep["witnessed"] == 0
        assert rep["vacuous"] == 6
        assert rep["failures"] == []
        assert rep["ok"] is True

    def test_shipped_manifest(self):
        manifest = load_grid_manifest()
        assert manifest["schema"] == "hallmark-lie-grid/1"
        assert list(manifest["families"]) == list(FAMILIES)
        started = time.monotonic()
        rep = run_grid(manifest)
        elapsed = time.monotonic() - started
        assert rep["points"] == 7776
        assert rep["witnessed"] == 1475
        assert rep["vacuous"] == 6301
        assert rep["failures"] == []
        assert rep["ok"] is True
        assert "elapsed" not in rep
        assert elapsed < 60

    # The primes include 2 and primes dividing some q, which the grid skips.
    REPLAYED = {
        "schema": "hallmark-lie-grid/1",
        "families": list(FAMILIES),
        "prime_powers": [7, 8, 9, 16],
        "max_rank": 6,
        "primes": [2, 3, 5, 7, 13, 17],
    }

    @staticmethod
    def _replay(manifest):
        # Every point through verify_pair, which builds each point's
        # witnesses afresh: the grid's counts and failures, and the
        # witnessed reports.
        points = witnessed = vacuous = 0
        failures = []
        reports = []
        primes = sorted(manifest["primes"])
        for family in manifest["families"]:
            for q in sorted(manifest["prime_powers"]):
                for n in range(1, manifest["max_rank"] + 1):
                    for i, r in enumerate(primes):
                        if r == 2 or q % r == 0:
                            continue
                        for s in primes[i + 1:]:
                            if s == 2 or q % s == 0:
                                continue
                            rep = verify_pair(family, n, q, r, s)
                            points += 1
                            if rep["status"] == "vacuous":
                                vacuous += 1
                            else:
                                witnessed += 1
                                reports.append(rep)
                            where = {"family": family, "n": n, "q": q, "r": r, "s": s}
                            if not rep["consistent"]:
                                failures.append(dict(where, reason="implication"))
                            for w in rep["witnesses"]:
                                if not w["divisor_holds"]:
                                    failures.append(dict(where, reason="divisor"))
                                if not w["divides_ambient"]:
                                    failures.append(dict(where, reason="ambient"))
        return (points, witnessed, vacuous, failures), reports

    @staticmethod
    def _counts(rep):
        return rep["points"], rep["witnessed"], rep["vacuous"], rep["failures"]

    def test_matches_pair_by_pair_replay(self):
        # The grid builds no report and visits no vacuous point, yet it
        # must count and fail exactly as verify_pair does point by point,
        # and each report's verdict must be the core's for that point.
        counts, reports = self._replay(self.REPLAYED)
        _, witnessed, vacuous, _ = counts
        assert witnessed > 0 and vacuous > 0
        assert self._counts(run_grid(self.REPLAYED)) == counts
        premises = 0
        for rep in reports:
            values = {w["prime"]: w["value"] for w in rep["witnesses"]}
            verdict = lieorders._verdict(
                rep["family"], rep["n"], rep["q"], rep["r"], rep["s"], rep["order"],
                rep["k"], rep["l"], values[rep["r"]], values[rep["s"]],
            )
            assert verdict == (rep["premise"], rep["orders_equal"], rep["chain"],
                               rep["mixed_torus"], rep["consistent"])
            premises += rep["premise"]
        assert 0 < premises < len(reports)

    def test_failures_match_the_replay(self, monkeypatch):
        # Corrupted witnesses: the grid lists the same failures as the
        # point-by-point replay, in the same order, for each of the three
        # reasons.  A witness whose value is 1 is coprime to every prime,
        # so its points' premise can hold where no torus chain fits.
        def corrupt(build):
            def corrupted(family, n, q, prime, *rest):
                w = build(family, n, q, prime, *rest)
                if prime == 7 and n in (3, 5):
                    w.divisor = w.value + 1
                if (prime, n % 2) == (13, 0) or (prime, n) == (7, 5):
                    w.ambient = w.ambient * w.value + 1
                if prime == 5 and n == 4 and family != "SOplus":
                    w.value = 1
                return w
            return corrupted

        monkeypatch.setattr(lieorders, "_linear", corrupt(lieorders._linear))
        monkeypatch.setattr(lieorders, "_orthogonal", corrupt(lieorders._orthogonal))
        counts, _ = self._replay(self.REPLAYED)
        failures = counts[3]
        assert {f["reason"] for f in failures} == {"implication", "divisor", "ambient"}
        assert self._counts(run_grid(self.REPLAYED)) == counts

    def test_verdict_only_where_the_premise_holds(self, monkeypatch):
        # A point where some witness's class size is divisible by the other
        # prime is consistent, so the grid asks _verdict only at the points
        # where neither is, in the replay's order.  Those are the reports
        # with a true premise, and the points where the mixed torus's
        # stacked witness turns the premise false (SO^-_8(16) at 5 and 17).
        _, reports = self._replay(self.REPLAYED)
        asked = []
        verdict = lieorders._verdict

        def counting(*args):
            asked.append(args[:5])
            return verdict(*args)

        monkeypatch.setattr(lieorders, "_verdict", counting)
        assert run_grid(self.REPLAYED)["ok"] is True
        premised = [tuple(rep[key] for key in ("family", "n", "q", "r", "s"))
                    for rep in reports
                    if not any(w["other_prime_divides"] for w in rep["witnesses"])]
        assert sum(rep["premise"] for rep in reports) == len(premised) - 1
        assert asked == premised

    # A drawn manifest on which the corrupted builders of
    # test_failures_match_the_replay reach all three failure reasons.
    CORRUPTIBLE = {
        "schema": "hallmark-lie-grid/1",
        "families": ["GL", "SOminus"],
        "prime_powers": [8, 9],
        "max_rank": 5,
        "primes": [2, 3, 5, 7, 13],
    }

    @given(manifest=st.fixed_dictionaries({
        "schema": st.just("hallmark-lie-grid/1"),
        "families": st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=3,
                             unique=True),
        "prime_powers": st.lists(
            st.sampled_from([q for q in range(2, 33) if arith.prime_power(q)]),
            min_size=1, max_size=2, unique=True),
        "max_rank": st.integers(min_value=1, max_value=6),
        # 2 and the primes of some q are drawn too; the grid skips them
        "primes": st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 31)),
                           min_size=2, max_size=5, unique=True),
    }))
    @example(manifest=CORRUPTIBLE)
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    def test_drawn_manifests_match_the_replay(self, manifest):
        assert self._counts(run_grid(manifest)) == self._replay(manifest)[0]
        if manifest == self.CORRUPTIBLE:
            grid = TestGrid()
            grid.REPLAYED = manifest
            with pytest.MonkeyPatch.context() as patch:
                grid.test_failures_match_the_replay(patch)

    def test_manifest_validation(self, tmp_path):
        good = {
            "schema": "hallmark-lie-grid/1",
            "families": ["GL"],
            "prime_powers": [2],
            "max_rank": 2,
            "primes": [3],
        }

        def dump(obj):
            path = tmp_path / "m.json"
            path.write_text(json.dumps(obj))
            return str(path)

        assert load_grid_manifest(dump(good))["max_rank"] == 2
        with pytest.raises(MalformedInputError, match="schema"):
            load_grid_manifest(dump({**good, "schema": "nope/9"}))
        broken = dict(good)
        del broken["primes"]
        with pytest.raises(MalformedInputError, match="missing primes"):
            load_grid_manifest(dump(broken))
        with pytest.raises(MalformedInputError, match="unknown family"):
            load_grid_manifest(dump({**good, "families": ["SU"]}))
        with pytest.raises(MalformedInputError, match="cannot read"):
            load_grid_manifest(str(tmp_path / "absent.json"))

        bad_values = [
            ({"families": "GL"}, "must be a list"),
            ({"prime_powers": 4}, "must be a list"),
            ({"primes": "3, 5"}, "must be a list"),
            ({"prime_powers": ["x"]}, "not a prime power"),
            ({"prime_powers": [True]}, "not a prime power"),
            ({"prime_powers": [1]}, "not a prime power"),
            ({"primes": [3, "a"]}, "not a prime"),
            # No pair reaches the next two values: 3 and 5 divide 6, and 9
            # is the only prime listed.
            ({"prime_powers": [6], "primes": [3, 5]}, "not a prime power"),
            ({"primes": [9]}, "not a prime"),
            ({"primes": [True, 3]}, "not a prime"),
            ({"primes": [3, 5, 3]}, "prime twice"),
            ({"max_rank": "3"}, "max_rank"),
            ({"max_rank": 2.5}, "max_rank"),
            ({"max_rank": 0}, "max_rank"),
            ({"max_rank": True}, "max_rank"),
        ]
        for change, message in bad_values:
            bad = {**good, **change}
            with pytest.raises(MalformedInputError, match=message):
                load_grid_manifest(dump(bad))
            with pytest.raises(MalformedInputError, match=message):
                run_grid(bad)
        # 2 and primes dividing q stay allowed; the grid skips them.
        assert run_grid({**good, "primes": [2, 3, 5, 7]})["points"] == 6
        assert run_grid({**good, "prime_powers": [9], "primes": [3, 5, 7]})["points"] == 2


def _evaluate_factor(coeffs, q):
    return sum(c * q**i for i, c in enumerate(coeffs))


def evaluate_q_product(entry, q):
    """Evaluate a stored q-power times polynomial-factor product at q."""
    value = q ** entry["q_exponent"]
    for coeffs in entry["factors"]:
        value *= _evaluate_factor(coeffs, q)
    return value


def exceptional_rows():
    """Rows documenting the twisted and exceptional groups whose relevant
    tori are not maximal, with their generic orders and the centralizer
    orders attached; data only, consumed by the divisibility checks of
    TestExceptionalTori."""
    path = os.path.join(os.path.dirname(__file__), "exceptional_tori.json")
    with open(path, "rb") as handle:
        doc = json.load(handle)
    assert doc.get("schema") == "hallmark-exceptional-tori/1", path
    return doc["rows"]


class TestExceptionalTori:
    def test_rows_present(self):
        rows = exceptional_rows()
        assert [row["group"] for row in rows] == ["3D4", "E6", "2E6", "E7"]

    def test_evaluate_q_product(self):
        # Little-endian coefficient lists: (q - 1)(q + 1) * q^2 at q = 5.
        prod = {"q_exponent": 2, "factors": [[-1, 1], [1, 1]]}
        assert evaluate_q_product(prod, 5) == 25 * 4 * 6

    @staticmethod
    def divisibility(row, q):
        # The ambient order at q, and whether each centralizer order and
        # each cyclotomic torus order Phi_d(q) divides it.
        ambient = evaluate_q_product(row["ambient"], q)
        centralizers = [
            ambient % evaluate_q_product(c, q) == 0 for c in row["centralizers"]
        ]
        cyclotomic = [
            ambient % _evaluate_factor(cyclotomic_poly(d), q) == 0
            for d in row["torus_orders_d"]
        ]
        return ambient, centralizers, cyclotomic

    def test_all_rows_divide(self):
        for q in (2, 3, 4, 5):
            for row in exceptional_rows():
                _, centralizers, cyclotomic = self.divisibility(row, q)
                assert all(centralizers), (row["group"], q)
                assert all(cyclotomic), (row["group"], q)

    def test_triality_row_frozen(self):
        row = [r for r in exceptional_rows() if r["group"] == "3D4"][0]
        ambient, centralizers, cyclotomic = self.divisibility(row, 2)
        # 2^12 * 3^4 * 7^2 * 13.
        assert ambient == 211341312
        assert centralizers == [True]
        assert cyclotomic == [True, True]

    def test_e6_centralizer_matches_so_order(self):
        row = [r for r in exceptional_rows() if r["group"] == "E6"][0]
        for q in (2, 3, 4, 5):
            got = evaluate_q_product(row["centralizers"][0], q)
            assert got == (q**2 - 1) * group_order("SOminus", 4, q)
