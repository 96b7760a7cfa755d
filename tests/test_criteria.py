"""Theorem checks: criterion side vs witness side.

The frozen verdicts below were derived by hand from class sizes and
subgroup structure before being asserted (the A5, S4, and affine cases
are all small enough to reason out on paper).  Sweeps assert agreement
only, which is the statement under test; disagreement on any catalog
group would falsify the implementation, not the sweep.
"""

import random
from itertools import combinations

import pytest

from hallmark import catalog, chartab, classdata, criteria, subgroups
from hallmark.arith import prime_factors
from hallmark.classdata import ClassTable
from hallmark.cli import TABLE_BACKED, _shipped_table_path
from hallmark.errors import CapacityError, PreconditionError
from hallmark.kernels import kernel
from hallmark.perms import PermutationGroup
from hallmark.verdicts import Verdict, agreement

_BUILT = {}


def group(name):
    if name not in _BUILT:
        _BUILT[name] = catalog.build(name)
    return _BUILT[name]


def table(name):
    key = ("table", name)
    if key not in _BUILT:
        _BUILT[key] = ClassTable(group(name))
    return _BUILT[key]


SWEEP = ["c6", "c30", "s3", "s4", "a4", "d4", "d6", "d15",
         "frob20", "frob21", "frob42", "a5", "aff8", "s3xs3",
         "c3xc5", "psl2_7"]


class TestVerdict:
    def test_three_states(self):
        assert Verdict.yes("ok").holds is True
        assert Verdict.no("bad").holds is False
        assert Verdict.undetermined("capped").holds is None
        assert Verdict.undetermined("capped").is_undetermined

    def test_json_wording(self):
        assert Verdict.yes("ok").to_json() == {"verdict": "holds", "detail": "ok"}
        out = Verdict.no("bad", prime=3).to_json()
        assert out["verdict"] == "fails"
        assert out["witnesses"] == {"prime": 3}
        assert Verdict.undetermined("capped").to_json()["verdict"] == "undetermined"

    def test_agreement_table(self):
        yes, no, open_ = Verdict.yes(""), Verdict.no(""), Verdict.undetermined("")
        assert agreement(yes, yes) is True
        assert agreement(no, no) is True
        assert agreement(yes, no) is False
        assert agreement(no, yes) is False
        for other in (yes, no, open_):
            assert agreement(open_, other) is None
            assert agreement(other, open_) is None


def is_pure_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def naive_sizes_coprime(tab, q, p):
    return all(
        ci.size % p != 0
        for ci in tab.classes
        if ci.element_order > 1 and is_pure_power(ci.element_order, q)
    )


class TestCriterionFunctions:
    def test_sizes_coprime_matches_direct_scan(self):
        for name in SWEEP:
            tab = table(name)
            primes = prime_factors(tab.order)
            for q in primes:
                for p in primes:
                    if p == q:
                        continue
                    got = criteria.sizes_coprime_criterion(tab, q, p)
                    assert got.holds is naive_sizes_coprime(tab, q, p)

    def test_pair_and_pairwise_compose(self):
        for name in SWEEP:
            tab = table(name)
            primes = prime_factors(tab.order)
            for p, q in combinations(primes, 2):
                expected = naive_sizes_coprime(tab, q, p) and naive_sizes_coprime(tab, p, q)
                assert criteria.pair_criterion(tab, p, q).holds is expected
            if len(primes) >= 2:
                expected = all(
                    naive_sizes_coprime(tab, q, p) and naive_sizes_coprime(tab, p, q)
                    for p, q in combinations(primes, 2)
                )
                assert criteria.pairwise_criterion(tab, primes).holds is expected

    def test_pi_prime_sizes_matches_direct_scan(self):
        for name in SWEEP:
            tab = table(name)
            primes = prime_factors(tab.order)
            for k in (2, len(primes)):
                for pi in combinations(primes, k):
                    expected = all(
                        naive_sizes_coprime(tab, p, q) for p in pi for q in pi
                    )
                    assert criteria.pi_prime_sizes_criterion(tab, pi).holds is expected

    def test_failing_verdict_names_the_class(self):
        v = criteria.sizes_coprime_criterion(table("a5"), 3, 2)
        assert v.holds is False
        ci = table("a5").classes[v.witnesses["class_index"]]
        assert ci.element_order == 3
        assert ci.size % 2 == 0


class TestTheoremA:
    def test_frozen_outcomes(self):
        # A5: every Sylow pair fails both sides (simple, not nilpotent-by-anything)
        for p, q in ((2, 3), (2, 5), (3, 5)):
            check = criteria.check_theorem_a(group("a5"), p, q)
            assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        # abelian group: every pair commutes and every size is 1
        check = criteria.check_theorem_a(group("c6"), 2, 3)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)
        assert "q_sylow" in check.rhs.witnesses
        # S4: a commuting pair would make the whole group nilpotent
        check = criteria.check_theorem_a(group("s4"), 2, 3)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)

    def test_sweep_agreement(self):
        for name in SWEEP:
            g = group(name)
            for p, q in combinations(prime_factors(g.order), 2):
                assert criteria.check_theorem_a(g, p, q).agree is True, (name, p, q)


class TestTheoremB:
    def test_frozen_outcomes(self):
        # A5 has no subgroup of order 20, nilpotent or otherwise
        check = criteria.check_theorem_b(group("a5"), [2, 5])
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        # PSL(2,7): the {3,7} Hall subgroup is the Frobenius 7:3, not nilpotent
        check = criteria.check_theorem_b(group("psl2_7"), [3, 7])
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        # C6 is its own nilpotent {2,3} Hall subgroup
        check = criteria.check_theorem_b(group("c6"), [2, 3])
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)
        assert check.rhs.witnesses["hall"]["order"] == 6

    def test_sweep_agreement(self):
        for name in SWEEP:
            g = group(name)
            for pi in criteria.default_prime_sets(g.order):
                assert criteria.check_theorem_b(g, pi).agree is True, (name, pi)


class TestTheoremC:
    def test_block_side_only_consulted_when_sizes_pass(self):
        # A5 {3,5}: the order-3 classes have size 20, divisible by 5, so
        # the verdict is settled before any block data is wanted
        check = criteria.check_theorem_c(group("a5"), [3, 5])
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        stub = criteria.check_theorem_c(
            group("a5"), [3, 5], principal_block_clear=lambda p: Verdict.yes("stub")
        )
        assert stub.lhs.holds is False

    def test_missing_table_degrades_to_undetermined(self):
        # C30 passes the size condition trivially, so the 3- and 5-block
        # conditions are needed and no table hook was supplied
        check = criteria.check_theorem_c(group("c30"), [3, 5])
        assert check.lhs.holds is None
        assert check.rhs.holds is True
        assert check.agree is None

    def test_block_hook_is_consulted_per_prime(self):
        asked = []

        def hook(p):
            asked.append(p)
            return Verdict.yes("clear")

        check = criteria.check_theorem_c(group("c30"), [2, 3, 5], principal_block_clear=hook)
        assert asked == [3, 5]
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)

        failing = criteria.check_theorem_c(
            group("c30"), [3, 5],
            principal_block_clear=lambda p: Verdict.no("degree divisible by %d" % p),
        )
        assert failing.lhs.holds is False
        # a failing block condition must disagree with the abelian witness
        assert failing.agree is False


class TestOneSidedChecks:
    def test_normalization_frozen(self):
        # translations of the affine line over F8 are a normal Sylow 2
        check = criteria.check_sylow_normalization(group("aff8"), 3, 2)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)
        assert check.note == "one-sided implication"
        # 3-element classes of that group have even size: vacuous
        check = criteria.check_sylow_normalization(group("aff8"), 2, 3)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        # PSL(2,11): involutions sit in classes of size 55, coprime to 3,
        # but neither solvability holds, so the premise is withdrawn
        check = criteria.check_sylow_normalization(group("psl2_11"), 3, 2)
        assert check.lhs.holds is False
        assert "solvable" in check.lhs.detail
        assert check.agree is True
        # central Sylow 7 of A5 x C7: nonvacuous and normal
        check = criteria.check_sylow_normalization(group("a5xc7"), 2, 7)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)

    def test_core_characterization_frozen(self):
        # not 2-solvable: the statement does not apply to A5
        check = criteria.check_core_characterization(group("a5"), 2, 3)
        assert check.agree is None
        assert check.note == "precondition failed"
        # S4: trivial odd core, quotient order 24, and indeed no Sylow 2
        # fits inside the order-6 normalizer of a Sylow 3
        check = criteria.check_core_characterization(group("s4"), 2, 3)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        assert check.rhs.witnesses["core_order"] == 1
        # S4: the 3'-core is the Klein four group
        check = criteria.check_core_characterization(group("s4"), 3, 2)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        assert check.rhs.witnesses["core_order"] == 4
        # affine F8 line: 7'-core is the translation subgroup, quotient 21
        check = criteria.check_core_characterization(group("aff8"), 7, 2)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)
        assert check.rhs.witnesses["core_order"] == 8
        check = criteria.check_core_characterization(group("aff8"), 2, 7)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)

    def test_odd_sizes_frozen(self):
        with pytest.raises(PreconditionError):
            criteria.check_odd_sizes_solvability(group("a5"), 2)
        # A5: order-3 classes have size 20, premise fails
        check = criteria.check_odd_sizes_solvability(group("a5"), 3)
        assert (check.lhs.holds, check.rhs.holds, check.agree) == (False, False, True)
        # order 21: every class size is odd and both conclusions deliver
        for q in (3, 7):
            check = criteria.check_odd_sizes_solvability(group("frob21"), q)
            assert (check.lhs.holds, check.rhs.holds, check.agree) == (True, True, True)

    def test_sweep_agreement(self):
        for name in SWEEP:
            g = group(name)
            primes = prime_factors(g.order)
            for p in primes:
                for q in primes:
                    if p != q:
                        assert criteria.check_sylow_normalization(g, p, q).agree is True
                        t42 = criteria.check_core_characterization(g, p, q)
                        assert t42.agree is True or t42.note == "precondition failed"
            for q in primes:
                if q != 2:
                    assert criteria.check_odd_sizes_solvability(g, q).agree is True


class TestCheckGroup:
    def test_dispatch_counts(self):
        assert len(criteria.check_group(group("c6"), "A")) == 1
        assert len(criteria.check_group(group("a5"), "A")) == 3
        assert len(criteria.check_group(group("a5"), "B")) == 4
        assert len(criteria.check_group(group("a5"), "t4.1")) == 6
        assert len(criteria.check_group(group("a5"), "t4.3")) == 2
        with pytest.raises(PreconditionError):
            criteria.check_group(group("c6"), "Z")

    @pytest.mark.parametrize("entry", ["check_group", "check_one"])
    def test_unknown_theorem_is_refused(self, entry):
        args = (group("a5"), "Z") + (([2, 3],) if entry == "check_one" else ())
        with pytest.raises(PreconditionError) as info:
            getattr(criteria, entry)(*args)
        assert str(info.value) == "unknown theorem 'Z'"

    def test_pair_override(self):
        check = criteria.check_one(group("a5"), "A", (2, 5))
        assert check.params == {"p": 2, "q": 5}

    @pytest.mark.parametrize("theorem, primes, caps", [
        ("A", [3], None), ("A", [2, 3, 5], None),
        ("t4.1", [3], None), ("t4.1", [2, 3, 5], None),
        ("t4.2", [3], None), ("t4.2", [2, 3, 5], None),
        ("t4.3", [], None), ("t4.3", [3, 5], None),
        # a missing prime is not filled in from the next argument
        ("A", [3], 5),
    ], ids=["A-few", "A-many", "t4.1-few", "t4.1-many", "t4.2-few", "t4.2-many",
            "t4.3-few", "t4.3-many", "A-caps-as-q"])
    def test_wrong_prime_count_is_refused(self, theorem, primes, caps):
        with pytest.raises(PreconditionError, match="theorem %s takes" % theorem):
            criteria.check_one(group("a5"), theorem, primes, caps)

    def test_default_prime_sets(self):
        assert criteria.default_prime_sets(60) == [(2, 3), (2, 5), (3, 5), (2, 3, 5)]
        assert criteria.default_prime_sets(12) == [(2, 3)]
        assert criteria.default_prime_sets(8) == []
        assert criteria.default_prime_sets(2 * 3 * 5 * 7) == [
            (2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7),
            (3, 5, 7), (2, 3, 5, 7),
        ]

    def test_json_shape(self):
        check = criteria.check_theorem_a(group("c6"), 2, 3)
        out = check.to_json()
        assert set(out) == {"theorem", "params", "criterion", "witness", "agree"}
        assert out["criterion"]["verdict"] == "holds"
        noted = criteria.check_sylow_normalization(group("c6"), 2, 3).to_json()
        assert noted["note"] == "one-sided implication"


class TestCapacityDegradation:
    def test_both_sides_go_undetermined(self):
        tiny = 10
        check = criteria.check_theorem_a(group("a5"), 2, 3, caps=tiny)
        assert check.lhs.holds is None
        assert check.rhs.holds is None
        assert check.agree is None
        check = criteria.check_theorem_b(group("a5"), [2, 3], caps=tiny)
        assert check.agree is None


class TestGroupFacts:
    """Facts computed once per group object, and read back under any caps."""

    @pytest.mark.parametrize("name", ["s4", "frob20", "a5", "psl2_7"])
    def test_check_group_builds_one_class_table(self, monkeypatch, name):
        built = []

        class CountingTable(classdata.ClassTable):
            def __init__(self, grp, caps=None):
                built.append(grp)
                super().__init__(grp, caps)

        monkeypatch.setattr(classdata, "ClassTable", CountingTable)
        fresh = catalog.build(name)
        for theorem in criteria.THEOREMS:
            criteria.check_group(fresh, theorem)
        assert built == [fresh]

    @pytest.mark.parametrize("name", ["s4", "frob20", "a5", "psl2_7"])
    def test_check_group_climbs_each_sylow_once(self, monkeypatch, name):
        climbs = {}
        scopes = []  # held, so no scope's id is reused during the sweep
        climb = subgroups._sylow_rows

        def counting(degree, scope_rows, p, *rest):
            scopes.append(scope_rows)
            key = (id(scope_rows), p)
            climbs[key] = climbs.get(key, 0) + 1
            return climb(degree, scope_rows, p, *rest)

        monkeypatch.setattr(subgroups, "_sylow_rows", counting)
        fresh = catalog.build(name)
        for theorem in criteria.THEOREMS:
            criteria.check_group(fresh, theorem)
        assert climbs
        assert max(climbs.values()) == 1

    @pytest.mark.parametrize("name", ["s4", "a5", "psl2_7"])
    def test_check_group_computes_element_orders_per_class(self, monkeypatch, name):
        tabulated = []
        computed = []
        order_of = kernel.order_of

        class CountingTable(classdata.ClassTable):
            def __init__(self, grp, caps=None):
                super().__init__(grp, caps)
                tabulated.append(len(self.classes))

        def counting(row):
            computed.append(row)
            return order_of(row)

        monkeypatch.setattr(classdata, "ClassTable", CountingTable)
        monkeypatch.setattr(kernel, "order_of", counting)
        fresh = catalog.build(name)
        for theorem in criteria.THEOREMS:
            criteria.check_group(fresh, theorem)
        assert tabulated
        assert len(computed) <= sum(tabulated)

    def test_climbs_read_under_a_smaller_cap_match_a_fresh_group(self):
        warm = catalog.build("a5xc7")
        for theorem in criteria.THEOREMS:
            criteria.check_group(warm, theorem)
        fresh = catalog.build("a5xc7")
        small = warm.order - 1
        raised = []
        for grp in (warm, fresh):
            with pytest.raises(CapacityError) as info:
                subgroups.sylow(grp, 2, small)
            raised.append((info.value.cap_name, info.value.cap_value, str(info.value)))
        assert raised[0] == raised[1]
        # A scope inside the group is under the cap; its kept climb and a
        # fresh one (which cannot tabulate the whole group) agree.
        kept, _ = subgroups.exists_normalizing_sylow_pair(warm, 7, 5)
        _, scope = subgroups._sylow_and("normalizer", warm, 5, None)
        assert subgroups.sylow(scope, 7, small) is kept
        norm = subgroups.normalizer(fresh, subgroups.sylow(fresh, 5))
        assert norm.order == 70
        assert subgroups.sylow(norm, 7, small).element_rows() == kept.element_rows()

    @pytest.mark.parametrize("name, small", [
        ("s5", 100),
        ("a5xc7", 60),
    ], ids=["s5-small0", "a5xc7-small1"])
    def test_smaller_caps_after_default_caps_match_a_fresh_group(self, name, small):
        warm = catalog.build(name)
        for theorem in criteria.THEOREMS:
            criteria.check_group(warm, theorem)
        after = [c.to_json() for t in criteria.THEOREMS
                 for c in criteria.check_group(warm, t, small)]
        fresh = [c.to_json() for t in criteria.THEOREMS
                 for c in criteria.check_group(catalog.build(name), t, small)]
        assert after == fresh
        assert any(side["verdict"] == "undetermined"
                   for c in after for side in (c["criterion"], c["witness"]))

    def test_memo_reads_raise_the_fresh_cap_error(self):
        warm = catalog.build("a5xc7")
        classdata.class_table(warm)
        subgroups.sylow(warm, 2)
        subgroups.is_p_solvable(warm, 2)
        subgroups.op_prime_core(warm, 3)
        calls = [
            lambda g: classdata.class_table(g, 100),
            lambda g: subgroups.sylow(g, 2, 100),
            lambda g: subgroups.is_p_solvable(g, 2, 100),
            lambda g: subgroups.op_prime_core(g, 3, 100),
        ]
        for call in calls:
            raised = []
            for grp in (warm, catalog.build("a5xc7")):
                with pytest.raises(CapacityError) as info:
                    call(grp)
                raised.append((info.value.cap_name, info.value.cap_value, str(info.value)))
            assert raised[0] == raised[1]


def relabeled(grp, rng):
    """grp with its points renamed by a seeded random permutation sigma
    other than the identity: each generator g becomes sigma^-1 g sigma,
    which sends sigma(i) to sigma(g(i))."""
    sigma = list(range(grp.degree))
    while sigma == sorted(sigma):
        rng.shuffle(sigma)
    gens = []
    for g in grp.generators:
        images = [0] * grp.degree
        for i, j in enumerate(g.images):
            images[sigma[i]] = sigma[j]
        gens.append(images)
    return PermutationGroup(grp.degree, gens)


class TestRelabeling:
    """Renaming the points changes no fact the checks read: the class
    sizes, the Sylow orders and every verdict of every default check
    are those of the group as shipped."""

    @staticmethod
    def _facts(grp, hook):
        sizes = sorted(ci.size for ci in ClassTable(grp).classes)
        sylows = [subgroups.sylow(grp, p).order for p in prime_factors(grp.order)]
        checks = [
            (c.theorem, c.params, c.lhs.holds, c.rhs.holds, c.agree)
            for theorem in criteria.THEOREMS
            for c in criteria.check_group(grp, theorem, principal_block_clear=hook)
        ]
        return sizes, sylows, checks

    @pytest.mark.parametrize("name", [e.name for e in catalog.entries(include_stretch=False)])
    def test_relabeled_group_gives_the_same_facts(self, name):
        shipped = catalog.build(name)
        renamed = relabeled(shipped, random.Random(name))
        assert renamed.generators != shipped.generators
        hook = None
        if name in TABLE_BACKED:
            hook = chartab.principal_block_clear(chartab.load_table(_shipped_table_path(name)))
        assert self._facts(renamed, hook) == self._facts(shipped, hook)
