"""Seeded inputs for the benchmark workloads.

Everything hallmark sees in a benchmark run is written here from a
key, "<seed>.<round>": catalog generators conjugated by a seeded point
permutation, shipped character tables with their characters and classes
permuted, and grid manifests with their lists shuffled.  The same key
writes the same files.  Each round of a run gets its own key, so the
per-operation medians of a run span several relabelings and one seed's
choice of stabilizer-chain base weighs less.  The expected outputs
(expected.json) do not depend on the key, because relabeling points,
characters or classes changes no invariant the benchmark checks.
"""

from __future__ import annotations

import json
import os
import random

# Non-gated catalog groups of order below 1,000.  A round of all of them
# takes under 10 s on the pure kernel, so a run holds the three rounds
# that per-operation medians need; the larger groups are timed by
# large-groups.
BATTERY_GROUPS = (
    "c6", "s3", "d4", "a4", "d6", "c15", "c3xc5", "frob20", "frob21", "s4",
    "c30", "d15", "s3xs3", "frob42", "a5", "psl2_4", "psl2_5", "s5", "aff9",
    "aff8", "psl2_7", "a6", "psl2_9", "a5xc7", "psl2_8", "psl2_11", "s6",
)

# One query per group: (group, pi, Hall status, Hall order or None).
# The Hall facts follow from the subgroup structure of each group.
LARGE_QUERIES = (
    ("aff32", (5, 31), "found", 155),
    ("psl3_3", (2, 3), "found", 432),
    ("psl2_31", (3, 5), "found", 15),
    ("a8", (5, 7), "absent", None),
)

SHIPPED_TABLES = ("a5", "c6", "d4", "psl2_7", "psl2_31", "s4")

# Criterion C's block side recomputes the 3- and 5-block partitions that
# the block operations already time.  For psl2_31 over {3, 5} that repeats
# CycReducer(7440, 3), the largest cost of a round, so tables-grid would
# move with caching of reducers; it is left out.
SKIPPED_TABLE_CHECKS = (("psl2_31", "C", (3, 5)),)

# The shipped grid (7776 points) and a larger one for tables-grid.
SHIPPED_GRID = {
    "families": ["GL", "GU", "Sp", "SOodd", "SOplus", "SOminus"],
    "prime_powers": [2, 3, 4, 5],
    "max_rank": 8,
    "primes": [3, 5, 7, 11, 13, 17, 19, 23, 29, 31],
}
LARGE_GRID = {
    "families": ["GL", "GU", "Sp", "SOodd", "SOplus", "SOminus"],
    "prime_powers": [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19],
    "max_rank": 12,
    "primes": [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43],
}

WORKLOADS = ("battery", "large-groups", "tables-grid")


def _rng(key: str, what: str) -> random.Random:
    return random.Random("%s/%s" % (key, what))


def relabel_group(name: str, degree: int, generators, key: str) -> dict:
    """Group JSON for the generators conjugated by a seeded point permutation."""
    sigma = list(range(degree))
    _rng(key, "points/" + name).shuffle(sigma)
    gens = []
    for images in generators:
        out = [0] * degree
        for x in range(degree):
            out[sigma[x]] = sigma[images[x]] + 1
        gens.append(out)
    return {"name": name, "degree": degree, "generators": gens}


def permute_table(doc: dict, key: str) -> tuple:
    """(permuted table JSON, row order): row i of the result is row
    row_order[i] of the shipped table; classes are shuffled too."""
    rng = _rng(key, "table/" + doc["name"])
    k = len(doc["classes"])
    rows = list(range(k))
    cols = list(range(k))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = dict(doc)
    out["classes"] = [doc["classes"][j] for j in cols]
    out["irreducibles"] = [[doc["irreducibles"][i][j] for j in cols] for i in rows]
    return out, rows


def grid_manifest(shape: dict, key: str, what: str) -> dict:
    rng = _rng(key, "grid/" + what)
    out = {"schema": "hallmark-lie-grid/1", "max_rank": shape["max_rank"]}
    for key in ("families", "prime_powers", "primes"):
        values = list(shape[key])
        rng.shuffle(values)
        out[key] = values
    return out


def grid_points(shape: dict) -> int:
    """Points a grid run visits: odd prime pairs r < s not dividing q."""
    total = 0
    for q in shape["prime_powers"]:
        usable = sum(1 for r in shape["primes"] if r != 2 and q % r)
        total += usable * (usable - 1) // 2
    return total * len(shape["families"]) * shape["max_rank"]


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def write_inputs(workload: str, key: str, out_dir: str, src_dir: str) -> None:
    """Write the inputs of one workload and a manifest.json listing them."""
    from hallmark import catalog

    tables_dir = os.path.join(src_dir, "hallmark", "data", "tables")
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "key": key, "tables": []}

    def add_group(name):
        group = catalog.build(name)
        doc = relabel_group(name, group.degree, [g.images for g in group.generators], key)
        _write(os.path.join(out_dir, "group_%s.json" % name), doc)

    def add_table(name):
        with open(os.path.join(tables_dir, name + ".json"), encoding="utf-8") as fh:
            doc, rows = permute_table(json.load(fh), key)
        _write(os.path.join(out_dir, "table_%s.json" % name), doc)
        manifest["tables"].append({"name": name, "row_order": rows})

    if workload == "battery":
        for name in BATTERY_GROUPS:
            add_group(name)
            if name in SHIPPED_TABLES:
                add_table(name)
        _write(os.path.join(out_dir, "grid.json"), grid_manifest(SHIPPED_GRID, key, workload))
    elif workload == "large-groups":
        for name, _, _, _ in LARGE_QUERIES:
            add_group(name)
    elif workload == "tables-grid":
        for name in SHIPPED_TABLES:
            add_table(name)
        _write(os.path.join(out_dir, "grid.json"), grid_manifest(LARGE_GRID, key, workload))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    _write(os.path.join(out_dir, "manifest.json"), manifest)
