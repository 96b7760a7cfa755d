#!/usr/bin/env python3
"""List the hallmark reports that differ between two source trees.

Run from anywhere:  python3 tools/report_diff.py OLD NEW

OLD and NEW are each a checkout (a directory holding src/hallmark) or a
src directory.  For each tree one child process imports that tree's
hallmark and runs, with --no-timings:

  - `suite` and `catalog`;
  - `classes` for every catalog group outside the sporadic stretch;
  - `hall` for every such group and every set of at least two of the
    primes dividing its order;
  - `check --theorem T` for every theorem T and every such group;
  - `ct-analyze --theorem B` and `--theorem C` for every shipped
    character table and every nonempty set of the primes dividing its
    order;
  - `ct-blocks -p P` for every shipped character table and every prime
    P dividing its order;
  - `lie-verify --family F --n N --q Q --r R --s S` for every family, N
    in 1..8, Q in {2, 3, 4, 5, 7, 8, 9} and every pair R < S from
    {3, 5, 7, 11, 13} of primes not dividing Q, so that the value of each
    block witness is compared, not only the grid's counts;
  - the `check` commands again with HALLMARK_CAP_ELEMENTS=700, which
    puts every class table above 700 elements out of reach and so
    exercises the undetermined texts (all but t4.1's "solvability test
    unavailable", which only the sift cap reaches).  The variable is set
    in the child's environment around each such call and removed after
    it, and these reports are keyed "HALLMARK_CAP_ELEMENTS=700 check ...".

Each command's stdout, stderr and exit code is its report.  The commands
run one after another inside the child through `hallmark.cli.main`, so a
tree costs one interpreter start; an exception that escapes `main` is
recorded as the report.  A tree uses whichever kernel it imports, so a
tree with a built extension is compared on the compiled kernel.

Prints each command whose report differs, or is missing on one side,
and exits 1 if there is any; exits 0 when every report is identical.
"""

import json
import os
import subprocess
import sys
from itertools import combinations


# the environment setting of the capped pass
CAPPED = ("HALLMARK_CAP_ELEMENTS", "700")


def _commands():
    """(environment setting or None, argv) for every report."""
    from hallmark import catalog, cli, criteria, lieorders
    from hallmark.arith import prime_factors

    groups = catalog.entries(include_stretch=False)
    out = [["suite"], ["catalog"]]
    out += [["classes", "catalog:" + e.name] for e in groups]
    for e in groups:
        primes = prime_factors(e.order)
        for k in range(2, len(primes) + 1):
            for pi in combinations(primes, k):
                out.append(["hall", "catalog:" + e.name, "--pi", ",".join(map(str, pi))])
    checks = [
        ["check", "--theorem", theorem, "--group", "catalog:" + e.name]
        for e in groups
        for theorem in criteria.THEOREMS
    ]
    out += checks
    for name in cli.TABLE_BACKED:
        primes = prime_factors(catalog.get_entry(name).order)
        for k in range(1, len(primes) + 1):
            for pi in combinations(primes, k):
                for theorem in ("B", "C"):
                    out.append(["ct-analyze", "catalog:" + name, "--theorem", theorem,
                                "--pi", ",".join(map(str, pi))])
        out += [["ct-blocks", "catalog:" + name, "-p", str(p)] for p in primes]
    for family in lieorders.FAMILIES:
        for n in range(1, 9):
            for q in (2, 3, 4, 5, 7, 8, 9):
                usable = [p for p in (3, 5, 7, 11, 13) if q % p]
                for r, s in combinations(usable, 2):
                    out.append(["lie-verify", "--family", family, "--n", str(n),
                                "--q", str(q), "--r", str(r), "--s", str(s)])
    return [(None, argv) for argv in out] + [(CAPPED, argv) for argv in checks]


def _collect() -> None:
    """Child side: run every command in this interpreter and print one
    JSON object {command line: [exit, stdout, stderr]}."""
    import contextlib
    import io

    from hallmark import cli

    reports = {}
    for setting, argv in _commands():
        key = " ".join(argv)
        if setting is not None:
            os.environ[setting[0]] = setting[1]
            key = "%s=%s %s" % (setting[0], setting[1], key)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--no-timings"])
            except Exception as exc:  # a crash is a report too
                code = "exception %s: %s" % (type(exc).__name__, exc)
            finally:
                if setting is not None:
                    del os.environ[setting[0]]
        reports[key] = [code, out.getvalue(), err.getvalue()]
    sys.stdout.write(json.dumps(reports))


def _src_dir(tree: str) -> str:
    src = os.path.join(tree, "src")
    path = src if os.path.isdir(os.path.join(src, "hallmark")) else tree
    if not os.path.isdir(os.path.join(path, "hallmark")):
        sys.exit("report_diff: no hallmark package under %s" % tree)
    return os.path.abspath(path)


def _reports(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_src_dir(tree))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--collect"],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        sys.exit("report_diff: collecting %s failed:\n%s" % (tree, done.stderr))
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv == ["--collect"]:
        _collect()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    old, new = (_reports(tree) for tree in argv)
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
