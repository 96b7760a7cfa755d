"""The enumeration kernels against the oracles, and the backends against each other.

Each backend keeps its own row encoding, so every test packs with the
backend's own `pack` and compares what `unpack` gives back.  The oracle
tests run on every backend that imports, so the pure kernel is always
tested; the parity tests read the compiled kernel from the
`compiled_kernel` fixture (see conftest), which builds the shipped C
when no extension is installed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hallmark import _kernel_py
from hallmark import catalog

try:
    from hallmark import _kernel_cy
except ImportError:
    _kernel_cy = None

BACKENDS = [_kernel_py] + ([_kernel_cy] if _kernel_cy is not None else [])
GROUPS = ["s4", "d6", "a5", "frob20", "psl2_7"]

each_backend = pytest.mark.parametrize("k", BACKENDS, ids=lambda k: k.BACKEND)

perm_images = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.permutations(range(n))
)


def _unpacked(k, rows):
    return [k.unpack(r) for r in rows]


# -- every backend against the oracles ------------------------------------


def test_pure_backend_tag():
    assert _kernel_py.BACKEND == "pure"


@each_backend
@given(images=perm_images, rng=st.randoms())
def test_row_arithmetic_matches_oracle(k, images, rng):
    images = tuple(images)
    other = list(range(len(images)))
    rng.shuffle(other)
    other = tuple(other)
    a, b = k.pack(images), k.pack(other)
    assert k.unpack(a) == images
    assert k.unpack(k.identity_row(len(images))) == oracles.identity(len(images))
    assert k.unpack(k.compose(a, b)) == oracles.compose(images, other)
    assert k.unpack(k.inverse(a)) == oracles.inverse(images)
    assert k.order_of(a) == oracles.element_order(images)


@each_backend
@pytest.mark.parametrize("name", GROUPS)
def test_group_kernels_match_oracle(k, name):
    group = catalog.build(name)
    degree = group.degree
    images = [g.images for g in group.generators]
    gens = [k.pack(g) for g in images]
    elems = oracles.close(images, degree)

    rows = k.close_group(gens, degree, group.order + 1)
    assert _unpacked(k, rows) == sorted(elems)

    cids = k.conjugacy_partition(rows, gens)
    first_seen = list(dict.fromkeys(cids))  # ids are numbered by least member
    assert first_seen == list(range(len(first_seen)))
    classes = {}
    for row, c in zip(rows, cids):
        classes.setdefault(c, set()).add(k.unpack(row))
    assert sorted(map(sorted, classes.values())) == sorted(
        map(sorted, oracles.conjugacy_classes(elems))
    )

    probe = images[0]
    assert _unpacked(k, k.centralizer_filter(rows, gens[:1])) == sorted(
        oracles.centralizer(elems, probe)
    )

    sub = oracles.close([probe], degree)
    sub_rows = k.close_group(gens[:1], degree, group.order + 1)
    assert _unpacked(k, k.normalizer_filter(rows, gens[:1], set(sub_rows))) == sorted(
        g for g in elems
        if oracles.compose(oracles.compose(oracles.inverse(g), probe), g) in sub
    )
    for g in images:
        assert k.unpack(k.coset_min(sub_rows, k.pack(g))) == min(
            oracles.compose(n, g) for n in sub
        )


def _oracle_normalizer(rows, sub_gens, sub):
    return [g for g in rows
            if all(oracles.compose(oracles.compose(oracles.inverse(g), s), g) in sub
                   for s in sub_gens)]


def _normalizer_filter(k, rows, sub_gens, sub):
    return _unpacked(k, k.normalizer_filter(
        [k.pack(g) for g in rows], [k.pack(s) for s in sub_gens], {k.pack(x) for x in sub}))


@st.composite
def subgroups_of_small_symmetric_groups(draw):
    """(n, generators, rows): a subgroup of S_n, n <= 7, whose generators
    all fix the last `fixed` points, and rows of S_n to filter that mix
    random permutations with members of the subgroup."""
    n = draw(st.integers(min_value=1, max_value=7))
    fixed = draw(st.integers(min_value=0, max_value=n - 1))
    tail = tuple(range(n - fixed, n))
    gens = draw(st.lists(
        st.permutations(range(n - fixed)).map(lambda p: tuple(p) + tail), max_size=2))
    rows = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=30))
    rows += sorted(oracles.close(gens, n))[:5]
    return n, gens, rows


@each_backend
@settings(max_examples=60, deadline=None)
@given(case=subgroups_of_small_symmetric_groups())
def test_normalizer_filter_matches_oracle_on_subgroups(k, case):
    n, gens, rows = case
    sub = oracles.close(gens, n)
    assert _normalizer_filter(k, rows, gens, sub) == _oracle_normalizer(rows, gens, sub)


@each_backend
def test_normalizer_filter_edge_cases(k):
    s4 = sorted(oracles.close([(1, 0, 2, 3), (1, 2, 3, 0)], 4))
    # no generators: every row normalizes the trivial subgroup
    assert _normalizer_filter(k, s4, [], {oracles.identity(4)}) == s4
    # point 3 is fixed by all of <(0 1 2)>, so it is the test point, and
    # only rows fixing 3 get past it
    three = [(1, 2, 0, 3)]
    kept = _normalizer_filter(k, s4, three, oracles.close(three, 4))
    assert kept == _oracle_normalizer(s4, three, oracles.close(three, 4))
    assert len(kept) == 6 and all(g[3] == 3 for g in kept)
    # every point has all four images under <(0 1 2 3)>, so every row
    # passes the point test and the full test rejects the 16 rows outside
    # the dihedral normalizer
    four = [(1, 2, 3, 0)]
    kept = _normalizer_filter(k, s4, four, oracles.close(four, 4))
    assert kept == _oracle_normalizer(s4, four, oracles.close(four, 4))
    assert len(kept) == 8


def _oracle_centralizer(rows, xs):
    return [r for r in rows
            if all(oracles.compose(r, x) == oracles.compose(x, r) for x in xs)]


@each_backend
@settings(max_examples=60, deadline=None)
@given(case=subgroups_of_small_symmetric_groups())
def test_centralizer_filter_matches_oracle_on_subgroups(k, case):
    n, gens, rows = case
    kept = k.centralizer_filter([k.pack(r) for r in rows], [k.pack(x) for x in gens])
    assert _unpacked(k, kept) == _oracle_centralizer(rows, gens)


@each_backend
def test_centralizer_filter_edge_cases(k):
    s4 = sorted(oracles.close([(1, 0, 2, 3), (1, 2, 3, 0)], 4))
    packed = [k.pack(r) for r in s4]
    ident = oracles.identity(4)
    # no targets, or a first target fixing every point: every row is kept
    assert _unpacked(k, k.centralizer_filter(packed, [])) == s4
    assert _unpacked(k, k.centralizer_filter(packed, [k.pack(ident)])) == s4
    # the 4-cycle (0 1 2 3): 8 rows satisfy r[1] == r[0] + 1 (mod 4) at
    # the test point 0, and the full test keeps the 4 powers of the cycle;
    # behind an identity first target the full test alone decides
    four = (1, 2, 3, 0)
    for xs in ([four], [ident, four]):
        kept = _unpacked(k, k.centralizer_filter(packed, [k.pack(x) for x in xs]))
        assert kept == _oracle_centralizer(s4, [four]) and len(kept) == 4


@each_backend
def test_close_group_cap(k):
    group = catalog.build("s4")
    gens = [k.pack(g.images) for g in group.generators]
    assert k.close_group(gens, 4, 23) is None
    assert len(k.close_group(gens, 4, 24)) == 24


def _generators(group, key=None):
    """The group's generator images, conjugated by a point permutation
    seeded by key when a key is given."""
    images = [g.images for g in group.generators]
    if key is None:
        return images
    sigma = list(range(group.degree))
    random.Random(key).shuffle(sigma)
    out = []
    for g in images:
        row = [0] * group.degree
        for x in range(group.degree):
            row[sigma[x]] = sigma[g[x]]
        out.append(tuple(row))
    return out


# name -> (group builder, relabeling key or None, the prefix length L the
# partition reads, or None where the relabeling decides it).  L is one
# more than the first point the least non-identity element moves, and at
# least 2.
BASE_SHAPES = {
    # relabeled: points 0..L-1 are no longer the catalog's own base
    **{name + "~": (lambda name=name: catalog.build(name), name, None)
       for name in ("frob42", "psl2_11", "aff32", "psl2_31", "a5xc7")},
    # intransitive: the least element moves only the C_7 orbit 5..11
    "a5xc7": (lambda: catalog.build("a5xc7"), None, 6),
    # regular cyclic: every element moves point 0, so L = 1 before the clamp
    "c12": (lambda: catalog.cyclic(12), None, 2),
    "c2": (lambda: catalog.cyclic(2), None, 2),
    # S_n: the least element is the transposition (n-2 n-1), so L = n - 1
    "s3": (lambda: catalog.symmetric(3), None, 2),
    "s6": (lambda: catalog.symmetric(6), None, 5),
}


@each_backend
@pytest.mark.parametrize("name", BASE_SHAPES)
def test_conjugacy_partition_on_base_shapes(k, name):
    build, key, prefix = BASE_SHAPES[name]
    group = build()
    images = _generators(group, key)
    elems = oracles.close(images, group.degree)
    rows = sorted(k.pack(e) for e in elems)
    if prefix is not None:
        least = k.unpack(rows[1])
        assert max(2, next(i for i, v in enumerate(least) if v != i) + 1) == prefix
    cids = k.conjugacy_partition(rows, [k.pack(g) for g in images])
    first_seen = list(dict.fromkeys(cids))  # ids are numbered by least member
    assert first_seen == list(range(len(first_seen)))
    classes = {}
    for row, c in zip(rows, cids):
        classes.setdefault(c, set()).add(k.unpack(row))
    assert sorted(map(sorted, classes.values())) == sorted(
        map(sorted, oracles.conjugacy_classes(elems))
    )


@each_backend
@pytest.mark.parametrize("degree", [1, 2, 5])
def test_conjugacy_partition_of_the_trivial_group(k, degree):
    rows = [k.identity_row(degree)]
    assert k.conjugacy_partition(rows, []) == [0]
    assert k.conjugacy_partition(rows, rows) == [0]


# -- the compiled backend against the pure one ----------------------------

# name, relabeling key (None: the catalog's own points)
PARITY_GROUPS = [(name, None) for name in GROUPS] + [("aff32", "parity")]


def test_compiled_backend_tag(compiled_kernel):
    assert compiled_kernel.BACKEND == "compiled"


@given(images=perm_images, rng=st.randoms())
def test_rows_sort_alike(compiled_kernel, images, rng):
    images = tuple(images)
    other = list(range(len(images)))
    rng.shuffle(other)
    other = tuple(other)
    py = _kernel_py.pack(images) < _kernel_py.pack(other)
    assert py == (compiled_kernel.pack(images) < compiled_kernel.pack(other))


@pytest.mark.parametrize(
    "name,key", PARITY_GROUPS, ids=[name + ("~" if key else "") for name, key in PARITY_GROUPS]
)
def test_group_kernels_agree(compiled_kernel, name, key):
    group = catalog.build(name)
    degree = group.degree
    images = _generators(group, key)
    cap = group.order + 1
    results = []
    for k in (_kernel_py, compiled_kernel):
        gens = [k.pack(g) for g in images]
        rows = k.close_group(gens, degree, cap)
        sub_rows = k.close_group(gens[:1], degree, cap)
        results.append((
            _unpacked(k, rows),
            k.conjugacy_partition(rows, gens),
            _unpacked(k, k.centralizer_filter(rows, gens[:1])),
            _unpacked(k, k.normalizer_filter(rows, gens[:1], set(sub_rows))),
            [k.unpack(k.coset_min(sub_rows, g)) for g in gens],
        ))
    assert results[0] == results[1]
