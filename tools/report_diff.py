#!/usr/bin/env python3
"""List the hallmark reports that differ between two source trees.

Run from anywhere:  python3 tools/report_diff.py OLD NEW

OLD and NEW are each a checkout (a directory holding src/hallmark) or a
src directory.  For each tree one child process imports that tree's
hallmark and runs, with --no-timings:

  - `suite`;
  - `classes` for every catalog group outside the sporadic stretch;
  - `hall` for every such group and every set of at least two of the
    primes dividing its order.

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


def _commands():
    from hallmark import catalog
    from hallmark.arith import prime_factors

    groups = catalog.entries(include_stretch=False)
    out = [["suite"]]
    out += [["classes", "catalog:" + e.name] for e in groups]
    for e in groups:
        primes = prime_factors(e.order)
        for k in range(2, len(primes) + 1):
            for pi in combinations(primes, k):
                out.append(["hall", "catalog:" + e.name, "--pi", ",".join(map(str, pi))])
    return out


def _collect() -> None:
    """Child side: run every command in this interpreter and print one
    JSON object {command line: [exit, stdout, stderr]}."""
    import contextlib
    import io

    from hallmark import cli

    reports = {}
    for argv in _commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--no-timings"])
            except Exception as exc:  # a crash is a report too
                code = "exception %s: %s" % (type(exc).__name__, exc)
        reports[" ".join(argv)] = [code, out.getvalue(), err.getvalue()]
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
