#!/usr/bin/env python3
"""Time the suite, a character-table command, the J1 check body and
Tier-1 on two source trees, or the suite and the J1 body on both kernels
of one tree.

Run from anywhere:  python3 benchmarks/bench_suite.py OLD NEW
               or:  python3 benchmarks/bench_suite.py --backends TREE

OLD and NEW are each a checkout: a directory holding src/hallmark and
tests.  Each tree runs on whichever kernel it imports, so a checkout with
a built extension is timed on the compiled kernel; both trees must import
the same one.  In pairs, with the tree that runs first alternating from
pair to pair, it runs in child processes:

  - `hallmark suite --no-timings`, 5 pairs, timed over the whole child
    process;
  - `hallmark ct-analyze catalog:psl2_31 --theorem C --pi 3,5
    --no-timings`, 10 pairs, timed over the whole child process: the
    table path end to end (parse with its orthogonality check, block
    partitions at 3 and 5, the table criteria);
  - the body of tests/test_acceptance.py::test_c9_extended_j1
    (check_theorem_b and hall_subgroup for {3, 5} on J1, then is_nilpotent
    and is_abelian of the witness), 3 pairs, timed inside the child from
    before the group is built, with the child's peak RSS;
  - `import hallmark` and `import hallmark.cli`, 10 pairs each, timed
    over the whole child process (`python -c "import MODULE"`);
  - Tier-1, `python -m pytest -q --continue-on-collection-errors` in the
    checkout with its src on PYTHONPATH, once per tree, timed over the
    whole child process.

It prints one JSON object, the `suite_and_j1` block of a BENCH file:
`suite_<backend>`, `ct_analyze_<backend>` and `j1_<backend>` hold the
runs, the medians, the speedup (OLD median over NEW median) and
`outputs_identical`, which compares the report bytes of the suite and of
ct-analyze and the J1 verdicts and Hall witness of every run;
`import_<backend>` holds the same for each import, whose output is
empty; `tier1_<backend>` holds each tree's time and pytest summary.

With --backends, TREE's suite and J1 body run in pure/compiled pairs
instead, the backend that runs first alternating from pair to pair (5
and 3 pairs).  The compiled side runs on a copy of TREE's src/hallmark
in a temp dir, with the shipped `_kernel_cy.c` built into it by `gcc
-O2 -shared -fPIC`, as tests/conftest.py's `compiled_kernel` builds it;
nothing is written under TREE.  It prints the `item3_gate` block of a
BENCH file: `suite` and `j1` hold the runs, the medians and
`pure_over_compiled` (pure median over compiled median), and
`outputs_identical` compares the outputs across both backends.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from statistics import median

SUITE_PAIRS = 5
CT_ANALYZE_PAIRS = 10
CT_ANALYZE = ("ct-analyze", "catalog:psl2_31", "--theorem", "C", "--pi", "3,5")
J1_PAIRS = 3
IMPORT_PAIRS = 10
IMPORTED = ("hallmark", "hallmark.cli")


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


def _child(tree: str, argv: list, strict: bool = True, src: str = None) -> tuple:
    """(seconds, stdout) of one child process in tree, importing hallmark
    from src (tree's src by default); a strict child that fails ends the
    bench."""
    env = dict(os.environ, PYTHONPATH=src or os.path.join(tree, "src"))
    started = time.perf_counter()
    done = subprocess.run([sys.executable] + argv, cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - started
    if strict and done.returncode:
        sys.exit("bench_suite: %s in %s failed:\n%s" % (argv, tree, done.stderr))
    return elapsed, done.stdout


def _cli(*args):
    """A measure for _alternate: one child that runs `hallmark ARGS
    --no-timings`; its output is the report."""
    def measure(tree: str, src: str = None) -> tuple:
        elapsed, out = _child(tree, ["-m", "hallmark.cli", *args, "--no-timings"], src=src)
        return {"elapsed_s": round(elapsed, 3)}, out
    return measure


def _importer(module: str):
    """A measure for _alternate: one child that imports module."""
    def measure(tree: str, src: str = None) -> tuple:
        elapsed, _ = _child(tree, ["-c", "import " + module], src=src)
        return {"elapsed_s": round(elapsed, 4)}, None
    return measure


def _j1(tree: str, src: str = None) -> tuple:
    _, out = _child(tree, [os.path.abspath(__file__), "--j1"], src=src)
    run = json.loads(out)
    return run, run.pop("output")


def _alternate(sides: list, pairs: int, measure, ratio: str) -> dict:
    """Runs of measure on both sides, each a (label, tree, src) triple,
    the first side of each pair alternating; `ratio` names the first
    side's median over the second's, and outputs_identical holds when
    every output is the same."""
    runs = {label: [] for label, _, _ in sides}
    outputs = set()
    for k in range(pairs):
        for label, tree, src in sides if k % 2 == 0 else sides[::-1]:
            run, output = measure(tree, src)
            runs[label].append(run)
            outputs.add(json.dumps(output, sort_keys=True))
    med = {label: median(r["elapsed_s"] for r in rs) for label, rs in runs.items()}
    first, second = (label for label, _, _ in sides)
    return {
        "runs": runs,
        "median_s": med,
        ratio: round(med[first] / med[second], 3),
        "outputs_identical": len(outputs) == 1,
    }


def _compiled_copy(tree: str, where: str) -> str:
    """Copy tree's src/hallmark under where and build the shipped
    _kernel_cy.c into the copy; the directory to put on PYTHONPATH."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not os.path.exists(os.path.join(include, "Python.h")):
        sys.exit("bench_suite: building _kernel_cy.c needs gcc and %s/Python.h" % include)
    package = os.path.join(where, "hallmark")
    shutil.copytree(os.path.join(tree, "src", "hallmark"), package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    target = os.path.join(package, "_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    built = subprocess.run([gcc, "-O2", "-shared", "-fPIC", "-I", include,
                            os.path.join(package, "_kernel_cy.c"), "-o", target],
                           capture_output=True, text=True, check=False)
    if built.returncode:
        sys.exit("bench_suite: gcc could not build _kernel_cy.c:\n" + built.stderr)
    return where


def _backends(tree: str) -> dict:
    """The item3_gate block: tree's suite and J1 body, pure and compiled
    alternating."""
    probe = ["-c", "from hallmark.kernels import BACKEND; print(BACKEND)"]
    with tempfile.TemporaryDirectory(prefix="bench_suite_") as where:
        sides = [("pure", tree, None), ("compiled", tree, _compiled_copy(tree, where))]
        for label, _, src in sides:
            backend = _child(tree, probe, src=src)[1].strip()
            if backend != label:
                sys.exit("bench_suite: the %s side imports the %s kernel" % (label, backend))
        suite = _alternate(sides, SUITE_PAIRS, _cli("suite"), "pure_over_compiled")
        j1 = _alternate(sides, J1_PAIRS, _j1, "pure_over_compiled")
    return {
        "suite": suite,
        "j1": j1,
        "note": "deletion gate: pure over compiled at most 1.25 for the suite and at most "
                "2 for the J1 body, on one commit",
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
    backends_mode = argv[0] == "--backends"
    trees = [os.path.abspath(t) for t in argv[backends_mode:]]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "hallmark")):
            sys.exit("bench_suite: no src/hallmark under %s" % tree)
    if backends_mode:
        sys.stdout.write(json.dumps(_backends(trees[0]), indent=1) + "\n")
        return 0
    probe = ["-c", "from hallmark.kernels import BACKEND; print(BACKEND)"]
    backends = {_child(tree, probe)[1].strip() for tree in trees}
    if len(backends) != 1:
        sys.exit("bench_suite: the trees import different kernels %s" % sorted(backends))
    backend = backends.pop()
    sides = [("parent", trees[0], None), ("change", trees[1], None)]
    block = {
        "suite_" + backend: _alternate(sides, SUITE_PAIRS, _cli("suite"), "speedup"),
        "ct_analyze_" + backend: _alternate(sides, CT_ANALYZE_PAIRS, _cli(*CT_ANALYZE),
                                            "speedup"),
        "j1_" + backend: _alternate(sides, J1_PAIRS, _j1, "speedup"),
        "import_" + backend: {
            module: _alternate(sides, IMPORT_PAIRS, _importer(module), "speedup")
            for module in IMPORTED
        },
        "tier1_" + backend: {
            side: _tier1(tree) for side, tree in zip(("parent", "change"), trees)
        },
    }
    sys.stdout.write(json.dumps(block, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
