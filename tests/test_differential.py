"""Differential checks against sympy, an implementation unrelated to hallmark.

For every catalog group that is not gated behind --extended, the group
order, the multiset of conjugacy class sizes and the order of a Sylow
p-subgroup for each prime p of the order must agree with
sympy.combinatorics.  Only exact invariants are compared, so sympy's
randomised algorithms cannot make the comparison flaky.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from hallmark import catalog, subgroups
from hallmark.arith import prime_factors
from hallmark.classdata import ClassTable

NAMES = [e.name for e in catalog.entries(include_stretch=False)]


@pytest.mark.parametrize("name", NAMES)
def test_agrees_with_sympy(name):
    group = catalog.build(name)
    other = sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(list(g.images)) for g in group.generators]
    )

    assert group.order == other.order()
    assert sorted(ci.size for ci in ClassTable(group).classes) == sorted(
        len(c) for c in other.conjugacy_classes()
    )
    for p in prime_factors(group.order):
        assert subgroups.sylow(group, p).order == other.sylow_subgroup(p).order()
