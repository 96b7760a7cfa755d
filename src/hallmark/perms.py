"""Deterministic permutation-group engine.

Groups are given by generators acting on {0, ..., degree-1}.  A base and
strong generating set is built by deterministic Schreier-Sims, with no
randomisation (a new base point is the least point its generator moves),
and membership, exact order, coset actions and normal closures are
derived from it.  Each level keeps the inverse of every transversal
element next to it, so sifting never inverts.

The chain only grows, and each level remembers which Schreier generators
it has sifted, so each is sifted once over the group's life (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 4.4; Seress,
Permutation Group Algorithms, 4.2).  normal_closure extends one chain in
place, one conjugate at a time, resuming the Schreier loop where the
conjugate's sift stopped.  config.SIFT_CAP bounds the Schreier sifts of
one group.

There is one group type.  A subgroup is a PermutationGroup made by
parent.subgroup(...), which checks that its generators lie in the parent;
it knows its parent and its ambient group, the outermost group of that
chain, whose elements include all of its own.  A group with no parent is
its own ambient group.  Facts that other modules derive from a group
(class table, the orders of its p-elements, Sylow subgroups with their
normalizers and centralizers, solvability, a chief series) are kept on
it through PermutationGroup.memo, and live as long as the group does.
Equal inputs always produce equal outputs, byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._kernel_py import compose, inverse, order_of
from .config import DEGREE_CAP, SIFT_CAP, default_caps
from .errors import CapacityError, MalformedInputError, PreconditionError
from .kernels import Row, kernel


class Permutation:
    """A permutation of {0..degree-1}, stored as its tuple of images.

    Products read left to right: (p * q)(i) == q(p(i)).
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n > DEGREE_CAP:
            raise CapacityError(
                f"degree {n} exceeds the supported maximum {DEGREE_CAP}",
                cap_name="degree",
                cap_value=DEGREE_CAP,
            )
        seen = bytearray(n)
        for pos, v in enumerate(imgs):
            if not isinstance(v, int) or isinstance(v, bool):
                raise MalformedInputError(f"image at position {pos} is not an integer")
            if v < 0 or v >= n:
                raise MalformedInputError(
                    f"image {v} at position {pos} is outside 0..{n - 1}"
                )
            if seen[v]:
                raise MalformedInputError(f"duplicate image {v} at position {pos}")
            seen[v] = 1
        self.images = imgs
        self._hash = hash(imgs)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        imgs = list(range(degree))
        for cyc in cycles:
            for pos, pt in enumerate(cyc):
                if not 0 <= pt < degree:
                    raise MalformedInputError(f"cycle point {pt} outside 0..{degree - 1}")
                imgs[pt] = cyc[(pos + 1) % len(cyc)]
        return cls(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise MalformedInputError("cannot compose permutations of different degrees")
        p = Permutation.__new__(Permutation)
        p.images = compose(self.images, other.images)
        p._hash = hash(p.images)
        return p

    def inverse(self) -> "Permutation":
        p = Permutation.__new__(Permutation)
        p.images = inverse(self.images)
        p._hash = hash(p.images)
        return p

    def __invert__(self) -> "Permutation":
        return self.inverse()

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def order(self) -> int:
        return order_of(self.images)

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

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

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

    def __init__(
        self, degree: int, generators: Iterable, *, parent: "PermutationGroup | None" = None
    ):
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if parent is not None and not parent.is_member(g):
                raise PreconditionError("subgroup generator is not a member of the parent")
            gens.append(g)
        if degree == 0 and gens:
            raise MalformedInputError("degree 0 admits no generators")
        if degree > DEGREE_CAP:
            raise CapacityError(
                f"degree {degree} exceeds the supported maximum {DEGREE_CAP}",
                cap_name="degree",
                cap_value=DEGREE_CAP,
            )
        for g in gens:
            if g.degree != degree:
                raise MalformedInputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        self.parent = parent
        self.ambient = self if parent is None else parent.ambient
        self.generators = tuple(g for g in gens if not g.is_identity)
        self._ident = tuple(range(degree))
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

        A fact that depends on caps must carry them in its key, or the
        caller must repeat the cap check a fresh computation would make.
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

    def _adjoin(self, g: Permutation) -> bool:
        """Extend this group by g in place; False if g was already a member.

        The residue of g's sift joins the levels down to where the sift
        stopped, and the Schreier loop resumes at that level; pairs that
        earlier builds and adjoins sifted are not sifted again.  Only for a
        group whose rows and facts nobody has read yet.
        """
        r, j = self._sift_tuple(g.images)
        if not self._add_residue(r, 0, j):
            return False
        self.generators += (g,)
        self._schreier_close(j)
        return True

    # -- queries ---------------------------------------------------------

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def is_member(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation):
            raise MalformedInputError("membership test requires a Permutation")
        if g.degree != self.degree:
            raise MalformedInputError(
                f"element degree {g.degree} does not match group degree {self.degree}"
            )
        r, _ = self._sift_tuple(g.images)
        return r == self._ident

    def __contains__(self, g: Permutation) -> bool:
        return self.is_member(g)

    def element_rows(self, cap: int | None = None) -> list:
        """All elements as sorted kernel rows.  Cached after first call."""
        if cap is None:
            cap = default_caps().elements
        if self.order > cap:
            raise CapacityError(
                f"group order {self.order} exceeds the element cap {cap}",
                cap_name="elements",
                cap_value=cap,
            )
        if self._rows is None:
            gens = [kernel.pack(g.images) for g in self.generators]
            rows = kernel.close_group(gens, self.degree, cap)
            if rows is None:
                raise CapacityError(
                    f"enumeration exceeded the element cap {cap}",
                    cap_name="elements",
                    cap_value=cap,
                )
            self._rows = rows
        return self._rows

    def elements(self, cap: int | None = None) -> list:
        """All elements as Permutation objects, in lexicographic order."""
        return [self._perm_from_row(r) for r in self.element_rows(cap)]

    def _perm_from_row(self, row: Row) -> Permutation:
        p = Permutation.__new__(Permutation)
        p.images = kernel.unpack(row)
        p._hash = hash(p.images)
        return p

    # -- constructions ---------------------------------------------------

    def subgroup(self, generators: Iterable) -> "PermutationGroup":
        """The subgroup generated by members of this group."""
        return PermutationGroup(self.degree, generators, parent=self)

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
            g = self._perm_from_row(row)
            if H.order < len(rows):
                if H._adjoin(g) and g not in self:
                    raise PreconditionError("subgroup generator is not a member of the parent")
            elif g not in H:
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
            h = H.generators[i]
            for g in self.generators:
                H._adjoin(h.conjugate(g))
            i += 1
        return H

    def coset_action_quotient(
        self, N: "PermutationGroup", cap: int | None = None
    ) -> "PermutationGroup":
        """G acting on the right cosets of the normal subgroup N.

        Points of the result are cosets, numbered by the lexicographic order
        of their least elements, so the output is reproducible.
        """
        if cap is None:
            cap = default_caps().quotient_degree
        if N.parent is not self:
            raise PreconditionError("subgroup belongs to a different group")
        for n in N.generators:
            for g in self.generators:
                if not N.is_member(n.conjugate(g)):
                    raise PreconditionError("coset action requires a normal subgroup")
        index = self.order // N.order
        if index > cap:
            raise CapacityError(
                f"coset count {index} exceeds the quotient cap {cap}",
                cap_name="quotient_degree",
                cap_value=cap,
            )
        n_rows = N.element_rows()
        gen_rows = [kernel.pack(g.images) for g in self.generators]
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

