"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are record files or directories of them, as run.py saves
under .perfbench/results/.  For every workload in both and every
end-to-end metric of BENCHMARK.json, it prints the median and quartiles
of each side and marks the metric "worse" when HEAD's median is worse
than BASE's by more than the metric's bound.  Exit status: 0 when
nothing is worse, 1 when something is, 2 when the records cannot be
compared (different kernel backends, or no untraced runs in common).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(where: str) -> list:
    paths = sorted(glob.glob(os.path.join(where, "*.json"))) if os.path.isdir(where) else [where]
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return [r for r in records if r.get("trace") == 0]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list, head: list, spec: dict) -> tuple:
    """(lines, status) for the two record lists."""
    backends = {r["stamp"]["backend"] for r in base + head}
    if len(backends) > 1:
        return ["refusing to compare results from different kernels: %s" % sorted(backends)], 2
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    if not workloads:
        return ["no workload has untraced records on both sides"], 2
    lines, status = [], 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            sides = []
            for records in (base, head):
                values = [r["metrics"][name]["value"] for r in records
                          if r["workload"] == workload and name in r["metrics"]]
                sides.append(_quartiles(values) if values else None)
            if None in sides:
                continue
            (b1, b2, b3), (h1, h2, h3) = sides
            change = (h2 - b2) / b2 if b2 else 0.0
            worse = sign * change > metric["bound"]
            status = 1 if worse else status
            lines.append("%-13s %-13s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %+.1f%%%s" % (
                workload, name, b2, b1, b3, h2, h1, h3, 100 * change,
                "  worse (bound %g)" % metric["bound"] if worse else ""))
    return lines, status


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, status = compare(load_records(argv[1]), load_records(argv[2]), spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
