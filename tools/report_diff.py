#!/usr/bin/env python3
"""List the hallmark reports that differ between two source trees.

Run from anywhere:  python3 tools/report_diff.py OLD NEW

OLD and NEW are each a checkout (a directory holding src/hallmark) or a
src directory.  For each tree one child process imports that tree's
hallmark and runs, with --no-timings:

  - `suite` and `catalog`;
  - `classes` for every catalog group outside the sporadic stretch;
  - `hall` for every such group and every nonempty set of the primes
    dividing its order, and once more for the least prime that does not
    divide it;
  - `check --theorem T` for every theorem T and every such group;
  - `check --theorem T --pi ...` on each of PI_GROUPS, once for every
    theorem T with a prime set of T's arity (the group's first two
    primes, its largest odd prime, or all its primes), and once more,
    on the first of them, for each theorem of fixed arity with all the
    group's primes, which a theorem of two primes or of one refuses;
  - `check --theorem C --table catalog:NAME` for every shipped table,
    on the catalog group of the same name, and REFUSED_TABLES, the
    three that `check` refuses with exit 2: a table of another order, a
    table of the same order with other class sizes, and `--table` with
    a theorem other than C;
  - `lie-grid` on the shipped manifest, on GRID_VARIANTS, copies of it
    that the manifest checks refuse, one copy per refusal (a wrong
    schema, a missing key, a field that is not a list, an unknown
    family, a q that is not a prime power, a primes entry that is not
    prime, a repeated prime and `max_rank: 0`, which exit 2, and a
    `max_rank` above the rank cap, which exits 3), and on a path that
    names no file (exit 2);
  - `ct-analyze --theorem B` and `--theorem C` for every shipped
    character table and every nonempty set of the primes dividing its
    order;
  - `ct-blocks -p P` for every shipped character table and every prime
    P dividing its order, and `ct-blocks catalog:a5 -p 7`, where 7 does
    not divide the order and the partition is vacuous;
  - `lie-verify --family F --n N --q Q --r R --s S` for every family, N
    in 1..8, Q in {2, 3, 4, 5, 7, 8, 9} and every pair R < S from
    {3, 5, 7, 11, 13} of primes not dividing Q, so that the value of each
    block witness is compared, not only the grid's counts, and at
    MIXED_POINTS, where the mixed torus's stacked witness is not coprime
    to the odd-order prime and so sets the premise false; and at
    REFUSED_POINTS, which exit 2: n = 0, r = 2, r dividing q and r = s;
  - `ct-blocks -p 2` and `ct-analyze --theorem C --pi 3,5` on each of the
    A5_VARIANTS, copies of the shipped a5 table with a few places
    rewritten.  Three ask for large root orders: one declares the
    exponent 30270 = 30 * 1009, and two write the trivial character's
    value 1 at its second class in Q(zeta_1009) and in Q(zeta_n),
    n = 2^20 - 1.  One writes 0 for the value -1 of the degree-5
    character at class 3a, so that first orthogonality fails (exit 2) at
    the pair (0, 4), after the pairs (0, 1) to (0, 3) pass and before the
    later failing pairs.  One writes the trivial character's value at its
    second class as 4000 distinct powers of zeta_65537, so that
    orthogonality's product of that value by itself meets the cyclotomic
    form cap (exit 3).  One writes that value as zeta_65539^52431: the
    sum of the pair (0, 1) lifts it to Q(zeta_(5 * 65539)), where its
    exponent lies on the layer that the canonical form drops for the
    prime 65539, so that the sum's form would need 65538 coordinates,
    over the cap (exit 3).  No copy holds a value whose canonical form is much larger, since
    a tree without a bound on canonical forms would then run out of
    memory.  Each of the others is refused (exit 2) by one check
    of the table reader, one copy per refusal: a file that is not UTF-8,
    not JSON, or no object; each top-level key and each class field made
    wrong; class sizes that do not sum to the order; no identity class of
    size 1; too few rows or values; each way a value object can be
    malformed; a degree 0, an irrational degree and one not dividing the
    order; and a column times -1, which keeps orthogonality but leaves no
    trivial character;
  - the `classes`, `hall` and `check` commands again with
    HALLMARK_CAP_ELEMENTS=700, which puts every class table above 700
    elements out of reach: `classes` and `hall` then exit 3 with the
    element cap's stderr line, and `check` exercises the undetermined
    texts (all but t4.1's "solvability test unavailable", which only the
    sift cap reaches).  The variable is set in the child's environment
    around each such call and removed after it, and these reports are
    keyed "HALLMARK_CAP_ELEMENTS=700 classes ...", "... hall ..." and
    "... check ...";
  - `hall --pi 2,3` on each of BUDGET_GROUPS, with
    hallmark.subgroups.HALL_CANDIDATE_CAP set to the least budget under
    which the search completes, and once more to one below it, where
    the search ends inconclusive.  No option or variable lowers that
    cap, so the child sets the module constant around each such call,
    as the tests do, and restores it after.  These reports are keyed
    "HALL_CANDIDATE_CAP=N hall ...".

The parent process writes the table copies and the manifest copies into
one temporary directory, and both children read them
there, so the path in each report is the same on both sides.

Each command's stdout, stderr and exit code is its report.  The commands
run one after another inside the child through `hallmark.cli.main`, so a
tree costs one interpreter start; an exception that escapes `main` is
recorded as the report.  A tree uses whichever kernel it imports, so a
tree with a built extension is compared on the compiled kernel.

Prints each command whose report differs, or is missing on one side,
and exits 1 if there is any; exits 0 when every report is identical.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from unittest import mock


# the environment setting of the capped pass
CAPPED = ("HALLMARK_CAP_ELEMENTS", "700")

# group: the least HALL_CANDIDATE_CAP under which its {2, 3} search completes
BUDGET_GROUPS = {"a5": 9, "psl2_7": 85, "psl3_3": 406}

# (family, n, q, r, s) of the `lie-verify` points outside the box whose
# mixed torus has a stacked witness divisible by the odd-order prime
MIXED_POINTS = (("SOminus", 4, 16, 5, 17), ("SOminus", 12, 3, 7, 13))

# (family, n, q, r, s) of the `lie-verify` points that verify_pair refuses:
# n = 0, r = 2, r dividing q, r = s
REFUSED_POINTS = (("GL", 0, 2, 3, 5), ("GL", 2, 3, 2, 5), ("GL", 2, 9, 3, 5),
                  ("GL", 2, 2, 3, 3))

# catalog groups that `check --pi` runs on
PI_GROUPS = ("a5", "s4", "psl2_7", "frob21")

# `check` commands whose --table is refused: (theorem, group, table)
REFUSED_TABLES = (("C", "a4", "a5"), ("C", "s3", "c6"), ("B", "a5", "a5"))

# the value of an edit that deletes the key or list entry at its path
DROP = object()

# name: the edits that make each copy of the a5 table, each a (path,
# value) pair whose path is the keys and indexes that reach the place
# written; or the bytes of a file that is no table document at all
A5_VARIANTS = {
    "a5_exponent_30270": ((("exponent",), 30270), (("irreducibles", 0, 1), 1)),
    "a5_one_in_zeta_1009": ((("exponent",), 30270),
                            (("irreducibles", 0, 1), {"n": 1009, "terms": [[1, 0]]})),
    "a5_one_in_zeta_1048575": ((("exponent",), 30 * 1048575),
                               (("irreducibles", 0, 1), {"n": 1048575, "terms": [[1, 0]]})),
    "a5_not_orthogonal": ((("irreducibles", 4, 2), 0),),
    "a5_long_value": ((("exponent",), 30 * 65537),
                      (("irreducibles", 0, 1),
                       {"n": 65537, "terms": [[1, e] for e in range(1, 4001)]})),
    "a5_form_over_cap": ((("exponent",), 30 * 65539),
                         (("irreducibles", 0, 1), {"n": 65539, "terms": [[1, 52431]]})),
    "a5_not_utf8": b"\xff\xfe{}",
    "a5_not_json": b"{nope",
    "a5_not_an_object": b"[]",
    "a5_no_order": ((("order",), DROP),),
    "a5_unknown_key": ((("comment",), "x"),),
    "a5_schema_2": ((("schema",), "hallmark-ct/2"),),
    "a5_name_empty": ((("name",), ""),),
    "a5_order_0": ((("order",), 0),),
    "a5_exponent_0": ((("exponent",), 0),),
    "a5_classes_empty": ((("classes",), []),),
    "a5_class_without_size": ((("classes", 1, "size"), DROP),),
    "a5_label_empty": ((("classes", 1, "label"), ""),),
    "a5_label_repeated": ((("classes", 1, "label"), "1a"),),
    "a5_size_0": ((("classes", 1, "size"), 0),),
    "a5_element_order_0": ((("classes", 1, "element_order"), 0),),
    "a5_element_order_7": ((("classes", 1, "element_order"), 7),),
    "a5_size_16": ((("classes", 1, "size"), 16),),
    "a5_two_identity_classes": ((("classes", 1, "element_order"), 1),),
    "a5_identity_size_2": ((("classes", 0, "size"), 2), (("classes", 1, "size"), 14)),
    "a5_irreducibles_empty": ((("irreducibles",), []),),
    "a5_four_irreducibles": ((("irreducibles", 4), DROP),),
    "a5_short_row": ((("irreducibles", 4, 4), DROP),),
    "a5_value_float": ((("irreducibles", 1, 3), 1.5),),
    "a5_value_without_terms": ((("irreducibles", 1, 3), {"n": 5}),),
    "a5_value_n_0": ((("irreducibles", 1, 3), {"n": 0, "terms": [[1, 0]]}),),
    "a5_value_n_7": ((("irreducibles", 1, 3), {"n": 7, "terms": [[1, 0]]}),),
    "a5_value_terms_empty": ((("irreducibles", 1, 3), {"n": 5, "terms": []}),),
    "a5_value_term_triple": ((("irreducibles", 1, 3), {"n": 5, "terms": [[1, 2, 3]]}),),
    "a5_value_coefficient_0": ((("irreducibles", 1, 3), {"n": 5, "terms": [[0, 1]]}),),
    "a5_value_exponent_5": ((("irreducibles", 1, 3), {"n": 5, "terms": [[1, 5]]}),),
    "a5_value_exponent_repeated": ((("irreducibles", 1, 3),
                                    {"n": 5, "terms": [[1, 2], [1, 2]]}),),
    "a5_degree_0": ((("irreducibles", 1, 0), 0),),
    "a5_degree_irrational": ((("irreducibles", 1, 0), {"n": 5, "terms": [[1, 1]]}),),
    "a5_degree_7": ((("irreducibles", 4, 0), 7),),
    # the class 2a's column times -1 keeps orthogonality, but no row is all 1
    "a5_column_2a_negated": tuple(
        (("irreducibles", i, 1), v) for i, v in enumerate([-1, 1, 1, 0, -1])
    ),
}

# name: the edits that make each copy of the shipped grid manifest, as
# in A5_VARIANTS
GRID_VARIANTS = {
    "grid_schema_2": ((("schema",), "hallmark-lie-grid/2"),),
    "grid_no_primes": ((("primes",), DROP),),
    "grid_families_not_a_list": ((("families",), "GL"),),
    "grid_family_su": ((("families", 0), "SU"),),
    "grid_q_6": ((("prime_powers", 0), 6),),
    "grid_prime_9": ((("primes", 0), 9),),
    "grid_prime_repeated": ((("primes", 1), 3),),
    "grid_max_rank_0": ((("max_rank",), 0),),
    "grid_max_rank_33": ((("max_rank",), 33),),
}

# file name in the inputs directory that no input is written to
ABSENT_GRID = "grid_absent.json"


def _edited(source: str, edits) -> bytes:
    """The JSON document in the file source with edits applied, each a
    (path, value) pair as in A5_VARIANTS."""
    with open(source) as fh:
        doc = json.load(fh)
    for (*keys, last), value in edits:
        place = doc
        for key in keys:
            place = place[key]
        if value is DROP:
            del place[last]
        else:
            place[last] = value
    return json.dumps(doc).encode("utf-8")


def _write_inputs(tree: str, directory: str) -> None:
    """Write the A5_VARIANTS copies of tree's a5 table and the
    GRID_VARIANTS copies of its grid manifest into directory."""
    data = os.path.join(_src_dir(tree), "hallmark", "data")
    variants = [(name, edits, os.path.join(data, "tables", "a5.json"))
                for name, edits in A5_VARIANTS.items()]
    variants += [(name, edits, os.path.join(data, "lie_grid.json"))
                 for name, edits in GRID_VARIANTS.items()]
    for name, edits, source in variants:
        text = edits if isinstance(edits, bytes) else _edited(source, edits)
        with open(os.path.join(directory, name + ".json"), "wb") as fh:
            fh.write(text)


def _commands(directory: str):
    """(environment setting or None, argv) for every report; directory
    holds the inputs that _write_inputs writes."""
    from hallmark import catalog, cli, criteria, lieorders
    from hallmark.arith import is_prime, prime_factors

    groups = catalog.entries(include_stretch=False)
    capped = [["classes", "catalog:" + e.name] for e in groups]
    for e in groups:
        primes = prime_factors(e.order)
        pis = [pi for k in range(1, len(primes) + 1) for pi in combinations(primes, k)]
        pis.append([next(p for p in range(2, e.order + 2) if is_prime(p) and e.order % p)])
        for pi in pis:
            capped.append(["hall", "catalog:" + e.name, "--pi", ",".join(map(str, pi))])
    capped += [
        ["check", "--theorem", theorem, "--group", "catalog:" + e.name]
        for e in groups
        for theorem in criteria.THEOREMS
    ]
    out = [["suite"], ["catalog"]] + capped
    for name in PI_GROUPS:
        primes = prime_factors(catalog.get_entry(name).order)
        for theorem, entry in criteria.THEOREMS.items():
            pis = [{2: primes[:2], 1: primes[-1:], None: primes}[entry.arity]]
            if name == PI_GROUPS[0] and entry.arity is not None:
                pis.append(primes)  # more primes than the theorem takes
            out += [["check", "--theorem", theorem, "--group", "catalog:" + name,
                     "--pi", ",".join(map(str, pi))] for pi in pis]
    out += [["check", "--theorem", "C", "--group", "catalog:" + name,
             "--table", "catalog:" + name] for name in cli.TABLE_BACKED]
    out += [["check", "--theorem", theorem, "--group", "catalog:" + group,
             "--table", "catalog:" + table] for theorem, group, table in REFUSED_TABLES]
    out.append(["lie-grid"])
    out += [["lie-grid", os.path.join(directory, name + ".json")] for name in GRID_VARIANTS]
    out.append(["lie-grid", os.path.join(directory, ABSENT_GRID)])
    for name in cli.TABLE_BACKED:
        primes = prime_factors(catalog.get_entry(name).order)
        for k in range(1, len(primes) + 1):
            for pi in combinations(primes, k):
                for theorem in ("B", "C"):
                    out.append(["ct-analyze", "catalog:" + name, "--theorem", theorem,
                                "--pi", ",".join(map(str, pi))])
        out += [["ct-blocks", "catalog:" + name, "-p", str(p)] for p in primes]
    out.append(["ct-blocks", "catalog:a5", "-p", "7"])  # 7 does not divide 60
    box = [(family, n, q, r, s)
           for family in lieorders.FAMILIES
           for n in range(1, 9)
           for q in (2, 3, 4, 5, 7, 8, 9)
           for r, s in combinations([p for p in (3, 5, 7, 11, 13) if q % p], 2)]
    for family, n, q, r, s in box + list(MIXED_POINTS) + list(REFUSED_POINTS):
        out.append(["lie-verify", "--family", family, "--n", str(n),
                    "--q", str(q), "--r", str(r), "--s", str(s)])
    for name in A5_VARIANTS:
        path = os.path.join(directory, name + ".json")
        out.append(["ct-blocks", path, "-p", "2"])
        out.append(["ct-analyze", path, "--theorem", "C", "--pi", "3,5"])
    budgeted = [(("HALL_CANDIDATE_CAP", budget), ["hall", "catalog:" + name, "--pi", "2,3"])
                for name, least in BUDGET_GROUPS.items() for budget in (least, least - 1)]
    return [(None, argv) for argv in out] + [(CAPPED, argv) for argv in capped] + budgeted


def _applied(setting):
    """A context that puts setting, a (name, value) pair or None, in force
    and restores what was there after: a HALLMARK_* name in the
    environment, any other name as a constant of hallmark.subgroups."""
    if setting is None:
        return contextlib.nullcontext()
    name, value = setting
    if name.startswith("HALLMARK_"):
        return mock.patch.dict(os.environ, {name: value})
    from hallmark import subgroups

    return mock.patch.object(subgroups, name, value)


def _collect(directory: str) -> None:
    """Child side: run every command in this interpreter and print one
    JSON object {command line: [exit, stdout, stderr]}."""
    from hallmark import cli

    reports = {}
    for setting, argv in _commands(directory):
        key = " ".join(argv)
        if setting is not None:
            key = "%s=%s %s" % (setting[0], setting[1], key)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _applied(setting):
            try:
                code = cli.main(argv + ["--no-timings"])
            except Exception as exc:  # a crash is a report too
                code = "exception %s: %s" % (type(exc).__name__, exc)
        reports[key] = [code, out.getvalue(), err.getvalue()]
    sys.stdout.write(json.dumps(reports))


def _src_dir(tree: str) -> str:
    src = os.path.join(tree, "src")
    path = src if os.path.isdir(os.path.join(src, "hallmark")) else tree
    if not os.path.isdir(os.path.join(path, "hallmark")):
        sys.exit("report_diff: no hallmark package under %s" % tree)
    return os.path.abspath(path)


def _reports(tree: str, directory: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_src_dir(tree))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--collect", directory],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        sys.exit("report_diff: collecting %s failed:\n%s" % (tree, done.stderr))
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv[:1] == ["--collect"]:
        _collect(argv[1])
        return 0
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(argv[0], directory)
        old, new = (_reports(tree, directory) for tree in argv)
    differ = [cmd for cmd in sorted(set(old) | set(new)) if old.get(cmd) != new.get(cmd)]
    for cmd in differ:
        if cmd not in old or cmd not in new:
            print("missing in %s: %s" % ("OLD" if cmd not in old else "NEW", cmd))
        else:
            print("differs: %s" % cmd)
    print("%d of %d reports differ" % (len(differ), len(set(old) | set(new))))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
