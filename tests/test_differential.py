"""Differential checks against sympy, an implementation unrelated to hallmark.

For every catalog group that is not gated behind --extended, the group
order, the multiset of conjugacy class sizes, the order of a Sylow
p-subgroup for each prime p of the order, the order of the normal
closure of every nontrivial class representative, solvability and the
order of the derived subgroup must agree with sympy.combinatorics.
Only exact invariants are compared, so sympy's randomised algorithms
cannot make the comparison flaky.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from hallmark import catalog, subgroups
from hallmark.arith import prime_factors
from hallmark.classdata import ClassTable

NAMES = [e.name for e in catalog.entries(include_stretch=False)]


def _sympy_perm(perm):
    return sympy_comb.Permutation(list(perm.images))


@pytest.mark.parametrize("name", NAMES)
def test_agrees_with_sympy(name):
    group = catalog.build(name)
    other = sympy_comb.PermutationGroup([_sympy_perm(g) for g in group.generators])

    assert group.order == other.order()
    assert sorted(ci.size for ci in ClassTable(group).classes) == sorted(
        len(c) for c in other.conjugacy_classes()
    )
    for p in prime_factors(group.order):
        assert subgroups.sylow(group, p).order == other.sylow_subgroup(p).order()


@pytest.mark.parametrize("name", NAMES)
def test_closures_and_solvability_agree_with_sympy(name):
    group = catalog.build(name)
    other = sympy_comb.PermutationGroup([_sympy_perm(g) for g in group.generators])

    for ci in ClassTable(group).classes:
        if ci.element_order == 1:
            continue
        rep = ci.representative()
        theirs = other.normal_closure(sympy_comb.PermutationGroup([_sympy_perm(rep)]))
        assert group.normal_closure([rep]).order == theirs.order(), ci
    assert subgroups.is_solvable(group) == other.is_solvable
    assert subgroups.derived_subgroup(group).order == other.derived_subgroup().order()
