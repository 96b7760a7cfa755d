#!/usr/bin/env python3
"""Time the suite, the J1 check body and Tier-1 on two source trees.

Run from anywhere:  python3 benchmarks/bench_suite.py OLD NEW

OLD and NEW are each a checkout: a directory holding src/hallmark and
tests.  Each tree runs on whichever kernel it imports, so a checkout with
a built extension is timed on the compiled kernel; both trees must import
the same one.  In pairs, with the tree that runs first alternating from
pair to pair, it runs in child processes:

  - `hallmark suite --no-timings`, 5 pairs, timed over the whole child
    process;
  - the body of tests/test_acceptance.py::test_c9_extended_j1
    (check_theorem_b and hall_subgroup for {3, 5} on J1, then is_nilpotent
    and is_abelian of the witness), 3 pairs, timed inside the child from
    before the group is built, with the child's peak RSS;
  - Tier-1, `python -m pytest -q --continue-on-collection-errors` in the
    checkout with its src on PYTHONPATH, once per tree, timed over the
    whole child process.

It prints one JSON object, the `suite_and_j1` block of a BENCH file:
`suite_<backend>` and `j1_<backend>` hold the runs, the medians, the
speedup (OLD median over NEW median) and `outputs_identical`, which
compares the suite report bytes and the J1 verdicts and Hall witness of
every run; `tier1_<backend>` holds each tree's time and pytest summary.
"""

import json
import os
import subprocess
import sys
import time
from statistics import median

SUITE_PAIRS = 5
J1_PAIRS = 3


def _j1_body() -> None:
    """Child side: run the J1 check body and print its time, peak RSS and
    outputs as one JSON object."""
    import resource

    from hallmark import catalog, criteria, subgroups
    from hallmark.config import default_caps

    started = time.perf_counter()
    caps = default_caps()
    group = catalog.build("j1")
    chk = criteria.check_theorem_b(group, [3, 5], caps)
    result = subgroups.hall_subgroup(group, [3, 5], caps)
    sub = result.subgroup
    output = {
        "check": chk.to_json(),
        "hall": result.status,
        "witness": criteria.sub_witness(sub),
        "nilpotent": subgroups.is_nilpotent(sub, caps),
        "abelian": subgroups.is_abelian(sub),
    }
    elapsed = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps({
        "elapsed_s": round(elapsed, 2),
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "output": output,
    }))


def _child(tree: str, argv: list, strict: bool = True) -> tuple:
    """(seconds, stdout) of one child process on tree's src; a strict
    child that fails ends the bench."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    started = time.perf_counter()
    done = subprocess.run([sys.executable] + argv, cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    if strict and done.returncode:
        sys.exit("bench_suite: %s in %s failed:\n%s" % (argv, tree, done.stderr))
    return elapsed, done.stdout


def _suite(tree: str) -> tuple:
    elapsed, out = _child(tree, ["-m", "hallmark.cli", "suite", "--no-timings"])
    return {"elapsed_s": round(elapsed, 3)}, out


def _j1(tree: str) -> tuple:
    _, out = _child(tree, [os.path.abspath(__file__), "--j1"])
    run = json.loads(out)
    return run, run.pop("output")


def _alternate(trees: list, pairs: int, measure) -> dict:
    """Runs of measure on both trees, the first tree of each pair
    alternating; outputs_identical when every output is the same."""
    runs = {"parent": [], "change": []}
    outputs = set()
    for k in range(pairs):
        order = [0, 1] if k % 2 == 0 else [1, 0]
        for side in order:
            run, output = measure(trees[side])
            runs[("parent", "change")[side]].append(run)
            outputs.add(json.dumps(output, sort_keys=True))
    med = {side: median(r["elapsed_s"] for r in rs) for side, rs in runs.items()}
    return {
        "runs": runs,
        "median_s": med,
        "speedup": round(med["parent"] / med["change"], 3),
        "outputs_identical": len(outputs) == 1,
    }


def _tier1(tree: str) -> dict:
    # a failing test is part of the result, not a failed measurement
    elapsed, out = _child(tree, ["-m", "pytest", "-q", "--continue-on-collection-errors"],
                          strict=False)
    lines = out.strip().splitlines()
    return {"elapsed_s": round(elapsed, 1), "result": lines[-1] if lines else ""}


def main(argv) -> int:
    if argv == ["--j1"]:
        _j1_body()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    trees = [os.path.abspath(t) for t in argv]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "hallmark")):
            sys.exit("bench_suite: no src/hallmark under %s" % tree)
    probe = ["-c", "from hallmark.kernels import BACKEND; print(BACKEND)"]
    backends = {_child(tree, probe)[1].strip() for tree in trees}
    if len(backends) != 1:
        sys.exit("bench_suite: the trees import different kernels %s" % sorted(backends))
    backend = backends.pop()
    block = {
        "suite_" + backend: _alternate(trees, SUITE_PAIRS, _suite),
        "j1_" + backend: _alternate(trees, J1_PAIRS, _j1),
        "tier1_" + backend: {
            side: _tier1(tree) for side, tree in zip(("parent", "change"), trees)
        },
    }
    sys.stdout.write(json.dumps(block, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
