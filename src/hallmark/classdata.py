"""Conjugacy class data computed by exhaustive enumeration.

A ClassTable lists every conjugacy class of a group with its size, the
order of its elements, and the centralizer order.  Classes are sorted by
(element order, size, least member row), so indices are stable across
runs and backends.  All construction goes through the element cap; the
caller sees a CapacityError rather than an attempt to enumerate a group
that is too large.  The first table built for a group, by class_table or
by ClassTable directly, is kept on the group, so every check on it reads
the same one; a later read under a smaller element cap still raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .arith import is_power_of, require_prime
from .errors import PreconditionError
from .kernels import Row, kernel
from .perms import Permutation, PermutationGroup, collector_paused


class ClassInfo:
    """One conjugacy class: representative, size, orders."""

    __slots__ = ("index", "rep_row", "size", "element_order", "centralizer_order")

    def __init__(self, index: int, rep_row: Row, size: int, element_order: int, centralizer_order: int):
        self.index = index
        self.rep_row = rep_row
        self.size = size
        self.element_order = element_order
        self.centralizer_order = centralizer_order

    def representative(self) -> Permutation:
        return Permutation(kernel.unpack(self.rep_row))

    def __repr__(self) -> str:
        return "ClassInfo(index=%d, order=%d, size=%d)" % (
            self.index,
            self.element_order,
            self.size,
        )


def as_group(group) -> PermutationGroup:
    """group, or a PreconditionError if it is not a permutation group."""
    if not isinstance(group, PermutationGroup):
        raise PreconditionError("expected a permutation group")
    return group


class ClassTable:
    """All conjugacy classes of a permutation group.

    The table also keeps each element row's class id and each id's
    element order, so p_element_orders reads the p-elements without an
    order computation.  A Sylow climb in any subgroup reads them from the
    table of the subgroup's ambient group while that group lives (see
    subgroups).
    """

    def __init__(self, group, caps: Optional[int] = None):
        group = as_group(group)
        order = self.order = group.order
        rows = group.element_rows(caps)
        with collector_paused():
            cids = kernel.conjugacy_partition(rows, group.generator_rows())
        nclasses = max(cids) + 1 if cids else 0
        sizes = [0] * nclasses
        reps: List[Optional[Row]] = [None] * nclasses
        for row, cid in zip(rows, cids):
            sizes[cid] += 1
            if reps[cid] is None:
                reps[cid] = row
        raw = []
        for cid in range(nclasses):
            rep = reps[cid]
            size = sizes[cid]
            if order % size:
                raise PreconditionError("class size %d does not divide order %d" % (size, order))
            raw.append((kernel.order_of(rep), size, rep))
        self._rows = rows
        self._cids = cids
        self._id_orders = [elt_order for elt_order, _, _ in raw]
        raw.sort()
        self.classes: Tuple[ClassInfo, ...] = tuple(
            ClassInfo(i, rep, size, elt_order, order // size)
            for i, (elt_order, size, rep) in enumerate(raw)
        )
        group.memo("class_table", lambda: self)

    def p_element_orders(self, p: int) -> Dict[Row, int]:
        """{row: element order} for the nontrivial elements whose order is
        a power of p, in row order."""
        require_prime(p)
        orders = [o if o > 1 and is_power_of(o, p) else 0 for o in self._id_orders]
        return {row: orders[cid] for row, cid in zip(self._rows, self._cids) if orders[cid]}


def class_table(group, caps: Optional[int] = None) -> ClassTable:
    """The group's ClassTable, built on first use and kept on the group."""
    group = as_group(group)
    group.element_rows(caps)  # the cap check a fresh build makes
    return group.memo("class_table", lambda: ClassTable(group, caps))
