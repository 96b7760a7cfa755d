"""Deterministic permutation-group engine.

Groups are given by generators acting on {0, ..., degree-1}.  A base and
strong generating set is built by deterministic Schreier-Sims, with no
randomisation (a new base point is the least point its generator moves),
and membership, exact order, the element list (each element once, as a
product of one transversal element per level), coset actions and normal
closures are derived from it.  Each level keeps the inverse of every
transversal element next to it, so sifting never inverts.

The chain only grows, and each level remembers which Schreier generators
it has sifted, so each is sifted once over the group's life (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 4.4; Seress,
Permutation Group Algorithms, 4.2).  normal_closure extends one chain in
place, one conjugate at a time, resuming the Schreier loop where the
conjugate's sift stopped.  config.SIFT_CAP bounds the Schreier sifts of
one group.

Permutation and PermutationGroup check a degree in _check_degree;
`g in group` tests a Permutation, group.contains(images) an image tuple.

There is one group type.  A subgroup is a PermutationGroup made by
group.subgroup(...), which checks that its generators are members of
group; its `ambient` is a weakref to the outermost group of that chain
(None for a top-level group).  Facts that other modules derive from a
group (class table, the orders of its p-elements, Sylow subgroups with
their normalizers and centralizers, solvability, a chief series) are kept
on it through PermutationGroup.memo, so a group and its facts form a tree
that reference counting frees.  Inside this layer an element is its image
tuple (compose, inverse, conjugate); only generators are Permutations.
Equal inputs always produce equal outputs, byte for byte.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from typing import Iterable, Sequence

from ._kernel_py import compose, inverse
from .arith import is_int
from .config import DEGREE_CAP, SIFT_CAP, default_caps
from .errors import CapacityError, MalformedInputError, PreconditionError
from .kernels import Row, kernel


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector around bulk row work, restoring
    the caller's setting on every exit, exceptions included.  Pure rows
    are tuples, which the collector traverses until a collection untracks
    them.  Nothing in the group layer makes a reference cycle, so no
    garbage waits for a collection while the collector is off.  On a8's
    class table and (5, 7) Hall search (pure kernel, 4 runs each) the
    pause cuts 75 collections to 17 and their time from 4.1-5.8 ms to
    3.8-4.2 ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_degree(degree) -> None:
    """Refuse a degree that is not an int (not a bool) in 0..DEGREE_CAP."""
    if not is_int(degree) or degree < 0:
        raise MalformedInputError(f"degree must be an integer >= 0, got {degree!r}")
    if degree > DEGREE_CAP:
        raise CapacityError(
            f"degree {degree} exceeds the supported maximum {DEGREE_CAP}",
            cap_name="degree",
            cap_value=DEGREE_CAP,
        )


def conjugate(a: tuple, g: tuple) -> tuple:
    """Image tuple of g^-1 a g; products read left to right, as in compose."""
    return compose(compose(inverse(g), a), g)


class Permutation:
    """A permutation of {0..degree-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        _check_degree(n)
        seen = bytearray(n)
        for pos, v in enumerate(imgs):
            if not is_int(v):
                raise MalformedInputError(f"image at position {pos} is not an integer")
            if v < 0 or v >= n:
                raise MalformedInputError(
                    f"image {v} at position {pos} is outside 0..{n - 1}"
                )
            if seen[v]:
                raise MalformedInputError(f"duplicate image {v} at position {pos}")
            seen[v] = 1
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    def cycles(self) -> list:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = bytearray(self.degree)
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = 1
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = 1
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


class _Level:
    """A base point, its strong generators, and the orbit of the base with
    a transversal element and its inverse per point.

    A level only grows: no transversal or inverse entry is ever replaced.
    `checked` holds the (orbit point, generator index) pairs whose Schreier
    generator has been sifted, or is the identity because the pair is an
    edge of the orbit's tree.
    """

    __slots__ = ("base", "gens", "gen_invs", "orbit", "transversal", "inverses", "checked")

    def __init__(self, base: int, ident: tuple):
        self.base = base
        self.gens: list = []
        self.gen_invs: list = []
        self.orbit = [base]
        self.transversal = {base: ident}
        self.inverses = {base: ident}
        self.checked: set = set()

    def extend(self, s: tuple) -> None:
        """Add the strong generator s and close the orbit under it.

        s is applied to the points already in the orbit; every point that
        appears is then closed under all of the level's generators.
        """
        k = len(self.gens)
        self.gens.append(s)
        self.gen_invs.append(inverse(s))
        orbit, transversal, inverses = self.orbit, self.transversal, self.inverses
        old = len(orbit)
        head = 0
        while head < len(orbit):
            beta = orbit[head]
            u = transversal[beta]
            u_inv = inverses[beta]
            for i in range(k if head < old else 0, k + 1):
                t = self.gens[i]
                gamma = t[beta]
                if gamma not in transversal:
                    transversal[gamma] = compose(u, t)
                    inverses[gamma] = compose(self.gen_invs[i], u_inv)
                    orbit.append(gamma)
                    self.checked.add((beta, i))
            head += 1


class PermutationGroup:
    """A finite permutation group with a deterministic stabilizer chain."""

    def __init__(self, degree: int, generators: Iterable):
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        _check_degree(degree)
        if degree == 0 and gens:
            raise MalformedInputError("degree 0 admits no generators")
        for g in gens:
            if g.degree != degree:
                raise MalformedInputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        self.ambient: "weakref.ref | None" = None
        self._ident = tuple(range(degree))
        self.generators = tuple(g for g in gens if g.images != self._ident)
        self._levels: list[_Level] = []
        self._sifts = 0
        for g in self.generators:
            r, j = self._sift_tuple(g.images)
            self._add_residue(r, 0, j)
        self._schreier_close(len(self._levels) - 1)
        self._rows: list | None = None
        self._facts: dict = {}

    def memo(self, key, compute):
        """The fact stored under key, from compute() on first use.

        No key holds caps: before it reads a fact, the caller repeats the
        cap check that a fresh computation would make.
        """
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    # -- stabilizer chain ------------------------------------------------

    def _sift_tuple(self, g: tuple, start: int = 0):
        """Reduce g through levels start.., returning (residue, stop_level)."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            beta = g[lvl.base]
            u_inv = lvl.inverses.get(beta)
            if u_inv is None:
                return g, i
            g = compose(g, u_inv)
        return g, len(self._levels)

    def _add_residue(self, r: tuple, first: int, stop: int) -> bool:
        """Make the residue r, whose sift stopped at level stop, a strong
        generator of levels first..stop; False if r is the identity.

        r fixes the base points above stop and moves that of level stop; if
        it fixes every base point, a level at its least moved point is
        appended.
        """
        if r == self._ident:
            return False
        if stop == len(self._levels):
            base = next(p for p, v in enumerate(r) if v != p)
            self._levels.append(_Level(base, self._ident))
        for lvl in self._levels[first : stop + 1]:
            lvl.extend(r)
        return True

    def _schreier_close(self, i: int) -> None:
        """Sift the unchecked Schreier generators of levels i, i-1, .., 0.

        Levels below i are closed already.  A residue found at level i
        becomes a strong generator of levels i+1 down to where its sift
        stopped, and the loop resumes there; levels 0..i need not take it,
        since it lies in the group their generators generate.  A pair once
        sifted to the identity still does later (entries are never
        replaced, and new levels only go below), so each pair is sifted
        once, and at the end every Schreier generator lies in the next
        level's group: the chain is a base and strong generating set.
        """
        while i >= 0:
            stop = self._sift_level(i)
            i = i - 1 if stop is None else stop
        self.order = 1
        for lvl in self._levels:
            self.order *= len(lvl.orbit)

    def _sift_level(self, i: int):
        """Sift level i's unchecked Schreier generators until one leaves a
        residue; add it and return where its sift stopped, or None."""
        lvl = self._levels[i]
        for beta in lvl.orbit:
            u = lvl.transversal[beta]
            for k, s in enumerate(lvl.gens):
                if (beta, k) in lvl.checked:
                    continue
                lvl.checked.add((beta, k))
                sg = compose(compose(u, s), lvl.inverses[s[beta]])
                if sg == self._ident:
                    continue
                self._sifts += 1
                if self._sifts > SIFT_CAP:
                    raise CapacityError(
                        "building the stabilizer chain needs more Schreier sifts "
                        f"than the sift cap {SIFT_CAP}",
                        cap_name="sifts",
                        cap_value=SIFT_CAP,
                    )
                r, j = self._sift_tuple(sg, i + 1)
                if self._add_residue(r, i + 1, j):
                    return j
        return None

    def _adjoin(self, g: tuple) -> bool:
        """Extend this group by image tuple g in place; False if a member.

        The residue of g's sift joins the levels down to where the sift
        stopped, and the Schreier loop resumes at that level; pairs that
        earlier builds and adjoins sifted are not sifted again.  Only for a
        group whose rows and facts nobody has read yet.
        """
        r, j = self._sift_tuple(g)
        if not self._add_residue(r, 0, j):
            return False
        self.generators += (Permutation(g),)
        self._schreier_close(j)
        return True

    # -- queries ---------------------------------------------------------

    def __contains__(self, g: Permutation) -> bool:
        """Whether the Permutation g, of this group's degree, is a member."""
        if not isinstance(g, Permutation):
            raise MalformedInputError("membership test requires a Permutation")
        if g.degree != self.degree:
            raise MalformedInputError(
                f"element degree {g.degree} does not match group degree {self.degree}"
            )
        return self.contains(g.images)

    def contains(self, images: tuple) -> bool:
        """Whether the image tuple, of this group's degree, is a member."""
        return self._sift_tuple(images)[0] == self._ident

    def element_rows(self, cap: int | None = None) -> list:
        """All elements as sorted kernel rows, each formed once as a product
        of one transversal element per level.  Cached after first call."""
        if cap is None:
            cap = default_caps()
        if self.order > cap:
            raise CapacityError(
                f"group order {self.order} exceeds the element cap {cap}",
                cap_name="elements",
                cap_value=cap,
            )
        if self._rows is None:
            with collector_paused():
                rows = [kernel.identity_row(self.degree)]
                for lvl in reversed(self._levels):
                    us = [kernel.pack(u) for u in lvl.transversal.values()]
                    rows = [kernel.compose(h, u) for h in rows for u in us]
                rows.sort()
            self._rows = rows
        return self._rows

    def generator_rows(self) -> list:
        """The generators as kernel rows."""
        return [kernel.pack(g.images) for g in self.generators]

    # -- constructions ---------------------------------------------------

    def subgroup(self, generators: Iterable) -> "PermutationGroup":
        """The subgroup generated by members of this group, with a weakref
        to this group's ambient group, or to this group if it has none."""
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if not all(g in self for g in gens):
            raise PreconditionError("subgroup generator is not a member of the parent")
        H = PermutationGroup(self.degree, gens)
        H.ambient = self.ambient or weakref.ref(self)
        return H

    def subgroup_from_rows(self, rows: Sequence[Row]) -> "PermutationGroup":
        """The subgroup of this group whose elements are the sorted kernel
        rows.

        One chain grows from the trivial subgroup: each row that is not
        yet a member is adjoined, in row order, until the order reaches
        len(rows).  So the generators are the greedy pick from the rows.
        Every row costs one membership sift; once all of them are known
        to be members, the rows are kept as the subgroup's element rows.
        """
        H = self.subgroup([])
        for row in rows:
            g = kernel.unpack(row)
            if H.order < len(rows):
                if H._adjoin(g) and not self.contains(g):
                    raise PreconditionError("subgroup generator is not a member of the parent")
            elif not H.contains(g):
                raise PreconditionError("the rows are not the elements of a subgroup")
        if H.order != len(rows) or any(a >= b for a, b in zip(rows, rows[1:])):
            raise PreconditionError("the rows are not the elements of a subgroup")
        H._rows = list(rows)
        return H

    def normal_closure(self, seeds: Iterable) -> "PermutationGroup":
        """Smallest normal subgroup of this group containing the seeds."""
        H = self.subgroup(seeds)
        i = 0
        while i < len(H.generators):
            h = H.generators[i].images
            for g in self.generators:
                H._adjoin(conjugate(h, g.images))
            i += 1
        return H

    def coset_action_quotient(self, N: "PermutationGroup") -> "PermutationGroup":
        """G acting on the right cosets of the normal subgroup N.

        Points of the result are cosets, numbered by the lexicographic order
        of their least elements, so the output is reproducible.  An index
        above DEGREE_CAP is refused before the coset walk.
        """
        if N.degree != self.degree or not all(self.contains(n.images) for n in N.generators):
            raise PreconditionError("subgroup belongs to a different group")
        for n in N.generators:
            for g in self.generators:
                if not N.contains(conjugate(n.images, g.images)):
                    raise PreconditionError("coset action requires a normal subgroup")
        index = self.order // N.order
        if index > DEGREE_CAP:
            raise CapacityError(
                f"coset count {index} exceeds the supported maximum degree {DEGREE_CAP}",
                cap_name="degree",
                cap_value=DEGREE_CAP,
            )
        n_rows = N.element_rows()
        gen_rows = self.generator_rows()
        start = n_rows[0]  # least element of N = canonical form of the coset N*1
        canon: dict = {}
        queue = [start]
        canon[start] = None
        head = 0
        while head < len(queue):
            rep = queue[head]
            head += 1
            for g in gen_rows:
                c = kernel.coset_min(n_rows, kernel.compose(rep, g))
                if c not in canon:
                    if len(canon) >= index:
                        raise PreconditionError("coset walk left the expected index")
                    canon[c] = None
                    queue.append(c)
        reps = sorted(canon)
        pos = {r: i for i, r in enumerate(reps)}
        images = []
        for g in gen_rows:
            images.append(
                Permutation(
                    [pos[kernel.coset_min(n_rows, kernel.compose(r, g))] for r in reps]
                )
            )
        Q = PermutationGroup(index, images)
        if Q.order != index:
            raise PreconditionError("coset action order mismatch; subgroup not normal?")
        return Q

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"

