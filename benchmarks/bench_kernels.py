"""Time the pure-Python kernels against the compiled extension.

Loads both backends side by side, runs each on the same group (each packs
the generators into its own row encoding), checks the unpacked outputs
agree, and prints a small table.  The workload is the kernel side of the
group-side oracles: closing a list of generators, as the Sylow climb and
the Hall search do (a group's own element list comes from its stabilizer
chain, not from this closure), partitioning the elements into conjugacy
classes, and filtering for a centralizer.

    python3 benchmarks/bench_kernels.py [--group psl2_31] [--repeat 3]
"""

import argparse
import sys
import time

from hallmark import catalog
from hallmark import _kernel_py

try:
    from hallmark import _kernel_cy
except ImportError:
    _kernel_cy = None


def best_of(repeat, fn, *args):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run(name, group, repeat):
    degree = group.degree
    cap = group.order + 1
    stages = []

    for backend_name, backend in (("pure", _kernel_py), ("compiled", _kernel_cy)):
        if backend is None:
            continue
        gens = [backend.pack(g.images) for g in group.generators]
        t_close, rows = best_of(repeat, backend.close_group, gens, degree, cap)
        t_part, cids = best_of(repeat, backend.conjugacy_partition, rows, gens)
        t_cent, cent = best_of(repeat, backend.centralizer_filter, rows, gens[:1])
        outputs = ([backend.unpack(r) for r in rows], cids, [backend.unpack(r) for r in cent])
        stages.append((backend_name, t_close, t_part, t_cent, outputs))

    print("group %s: order %d, degree %d, %d generators" % (
        name, group.order, degree, len(group.generators)))
    print("%-9s %12s %12s %12s" % ("backend", "close_group", "classes", "centralizer"))
    for backend_name, t_close, t_part, t_cent, _ in stages:
        print("%-9s %11.3fs %11.3fs %11.3fs" % (backend_name, t_close, t_part, t_cent))
    if len(stages) == 2:
        agree = stages[0][4] == stages[1][4]
        print("outputs agree: %s" % agree)
        if not agree:
            return 1
        for column, label in ((1, "close_group"), (2, "classes"), (3, "centralizer")):
            ratio = stages[0][column] / stages[1][column]
            print("speedup %-12s %.1fx" % (label, ratio))
    else:
        print("compiled extension not built; pure backend only")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", default="psl2_31",
                        help="catalog entry to use as the workload")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per measurement; the best is reported")
    args = parser.parse_args(argv)
    group = catalog.build(args.group)
    return run(args.group, group, args.repeat)


if __name__ == "__main__":
    sys.exit(main())
