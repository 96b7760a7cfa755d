"""One pass of one workload, in its own process.

    python3 perfbench/workload.py INPUT_DIR [--setup-only] [--no-probe] [--spans PATH]

The process imports hallmark from the checkout's src/, reads and
validates the inputs that inputs.py wrote to INPUT_DIR, then prints
"READY" so the parent can time set-up from process start.  It then runs
every operation of the workload once, in order, one at a time, and
checks each output against expected.json.  Right after "READY", and on
a timer during the pass unless --no-probe is given, it times the
reference work of reference.py, which scales the times it reports to
the reference speed.  The last stdout line is a JSON object with the
per-operation times (raw and, when probed, scaled) and verdicts, the
reference times, the peak RSS and, with --spans, the per-layer numbers
of the traced pass.  With --setup-only it holds only the reference time
that scales set-up.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
from reference import SpeedProbe  # noqa: E402

# Reference runs right after set-up; their median scales the set-up time.
SETUP_PROBE_REPS = 5


def import_hallmark():
    """Import hallmark from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hallmark", "__init__.py")):
        raise SystemExit("no hallmark sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import hallmark

    if os.path.dirname(os.path.dirname(os.path.abspath(hallmark.__file__))) != SRC:
        raise SystemExit("hallmark was imported from %s, not %s" % (hallmark.__file__, SRC))
    return hallmark


# -- arithmetic kept apart from hallmark, for the expected values --------


def primes_of(n: int) -> tuple:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def pi_part(n: int, pi) -> int:
    part = 1
    for p in pi:
        while n % p == 0:
            n //= p
            part *= p
    return part


def prime_sets(order: int) -> list:
    """The default prime sets: all pairs, the odd primes, all primes.

    Spelled out here, not taken from hallmark, so the workload stays the
    same if hallmark's defaults change."""
    primes = primes_of(order)
    out = [(p, q) for i, p in enumerate(primes) for q in primes[i + 1:]]
    odd = tuple(p for p in primes if p != 2)
    if len(odd) > 2:
        out.append(odd)
    if len(primes) > 2 and primes not in out:
        out.append(primes)
    return out


def theorems_for(name: str) -> tuple:
    if name in inputs.SHIPPED_TABLES:
        return ("A", "B", "C", "t4.1", "t4.2", "t4.3")
    return ("A", "B", "t4.1", "t4.2", "t4.3")


# -- workloads -----------------------------------------------------------
#
# Each workload is a class whose __init__ is the set-up (read and
# validate inputs) and whose ops() yields (name, run, check): run() does
# one operation and returns its output, check(output) returns None when
# the output is right and a message when it is not.


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tally(checks) -> dict:
    """Verdict counts as `hallmark suite` reports them per group."""
    out = {"checks": len(checks), "agree": 0, "disagree": 0, "skipped": 0, "undetermined": 0}
    for c in checks:
        if c.agree is True:
            out["agree"] += 1
        elif c.agree is False:
            out["disagree"] += 1
        elif c.note == "precondition failed":
            out["skipped"] += 1
        else:
            out["undetermined"] += 1
    return out


def _witness_errors(check, order: int) -> list:
    """Every Hall or Sylow witness must have the pi-part of |G| as order."""
    params = check.params
    p = params.get("p", 2)
    q = params.get("q")
    wanted = {"hall": params.get("pi"), "p_sylow": [p], "q_sylow": [q]}
    errors = []
    for verdict in (check.lhs, check.rhs):
        for key, pi in wanted.items():
            w = verdict.witnesses.get(key)
            if w is not None and w["order"] != pi_part(order, pi):
                errors.append("%s %s witness has order %d, expected %d"
                              % (check.theorem, key, w["order"], pi_part(order, pi)))
    return errors


def _grid_check(shape):
    def check(report):
        points = inputs.grid_points(shape)
        if not report["ok"] or report["points"] != points:
            return "grid ok=%s with %d points, expected ok with %d" % (
                report["ok"], report["points"], points)
        return None
    return check


class Battery:
    """`hallmark suite` on the relabeled groups: every default check of
    theorems A, B, C (table-backed groups), t4.1, t4.2 and t4.3 is one
    operation, and the grid run on the shipped-size manifest is the last."""

    def __init__(self, in_dir, expected):
        from hallmark import catalog, chartab, lieorders
        from hallmark.config import default_caps

        self.expected = expected
        self.caps = default_caps()
        self.groups, self.hooks = {}, {}
        for name in inputs.BATTERY_GROUPS:
            path = os.path.join(in_dir, "group_%s.json" % name)
            _, self.groups[name] = catalog.parse_group_json(_read_json(path), source=path)
            if name in inputs.SHIPPED_TABLES:
                table = chartab.load_table(os.path.join(in_dir, "table_%s.json" % name))
                self.hooks[name] = chartab.principal_block_clear(table)
        self.grid = lieorders.load_grid_manifest(os.path.join(in_dir, "grid.json"))

    def ops(self):
        from hallmark import criteria, lieorders

        for name in inputs.BATTERY_GROUPS:
            group = self.groups[name]
            for theorem in theorems_for(name):
                hook = self.hooks.get(name) if theorem == "C" else None

                def run(group=group, theorem=theorem, hook=hook):
                    return criteria.check_group(group, theorem, self.caps,
                                                principal_block_clear=hook)

                yield "%s:%s" % (name, theorem), run, self._checker(name, theorem)
        yield "grid", lambda: lieorders.run_grid(self.grid), _grid_check(inputs.SHIPPED_GRID)

    def _checker(self, name, theorem):
        want = self.expected[name]

        def check(checks):
            errors = []
            tally = _tally(checks)
            if tally != want["tallies"][theorem]:
                errors.append("tally %s, expected %s" % (tally, want["tallies"][theorem]))
            for c in checks:
                errors.extend(_witness_errors(c, want["order"]))
            return "; ".join(errors) or None
        return check


class LargeGroups:
    """One single query per large group: parse the group JSON, build its
    ClassTable, and search for one Hall subgroup."""

    def __init__(self, in_dir, expected):
        from hallmark import catalog
        from hallmark.config import default_caps

        self.expected = expected
        self.caps = default_caps()
        self.docs = {}
        for name, _, _, _ in inputs.LARGE_QUERIES:
            path = os.path.join(in_dir, "group_%s.json" % name)
            self.docs[name] = _read_json(path)
            catalog.parse_group_json(self.docs[name], source=path)

    def ops(self):
        for name, pi, status, hall_order in inputs.LARGE_QUERIES:
            yield (name, lambda name=name, pi=pi: self._query(name, pi),
                   self._checker(name, pi, status, hall_order))

    def _query(self, name, pi):
        from hallmark import catalog, subgroups
        from hallmark.classdata import ClassTable

        _, group = catalog.parse_group_json(self.docs[name], source=name)
        table = ClassTable(group, self.caps)
        hall = subgroups.hall_subgroup(group, list(pi), self.caps)
        return {
            "order": group.order,
            "sizes": sorted(ci.size for ci in table.classes),
            "hall": (hall.status, hall.subgroup.order if hall.subgroup is not None else None),
        }

    def _checker(self, name, pi, status, hall_order):
        want = self.expected[name]

        def check(out):
            order = want["order"]
            errors = []
            if out["order"] != order:
                errors.append("order %d, expected %d" % (out["order"], order))
            sizes = {}
            for s in out["sizes"]:
                sizes[str(s)] = sizes.get(str(s), 0) + 1
            if sizes != want["class_sizes"]:
                errors.append("class sizes %s, expected %s" % (sizes, want["class_sizes"]))
            if sum(out["sizes"]) != order or any(order % s for s in out["sizes"]):
                errors.append("class sizes do not partition the group")
            found = out["hall"][1]
            if found is not None and found != pi_part(order, pi):
                errors.append("Hall subgroup of order %d, not the pi-part" % found)
            if out["hall"] != (status, hall_order):
                errors.append("Hall search %s, expected %s" % (out["hall"], (status, hall_order)))
            return "; ".join(errors) or None
        return check


class TablesGrid:
    """Character tables and the classical-group grid, no permutation
    group: parse each permuted table, partition it into p-blocks for
    every prime of its order, run the table-side criteria B and C over
    the default prime sets (but inputs.SKIPPED_TABLE_CHECKS), then run
    the large grid."""

    def __init__(self, in_dir, expected):
        from hallmark import chartab, lieorders

        self.expected = expected
        manifest = _read_json(os.path.join(in_dir, "manifest.json"))
        self.row_order = {t["name"]: t["row_order"] for t in manifest["tables"]}
        self.texts = {}
        for name in inputs.SHIPPED_TABLES:
            with open(os.path.join(in_dir, "table_%s.json" % name), "rb") as fh:
                self.texts[name] = fh.read()
            chartab.parse_table(self.texts[name])
        self.grid = lieorders.load_grid_manifest(os.path.join(in_dir, "grid.json"))
        self.tables = {}

    def ops(self):
        from hallmark import chartab, lieorders

        for name in inputs.SHIPPED_TABLES:
            want = self.expected[name]
            yield name + ":parse", lambda name=name: self._parse(name), self._order_check(want)
            for p in primes_of(want["order"]):
                yield ("%s:blocks:%d" % (name, p),
                       lambda name=name, p=p: chartab.block_partition(self.tables[name], p),
                       self._blocks_check(name, p))
            for pi in prime_sets(want["order"]):
                key = ",".join(map(str, pi))
                for kind, fn in (("B", chartab.table_criterion_b), ("C", chartab.table_criterion_c)):
                    if (name, kind, pi) in inputs.SKIPPED_TABLE_CHECKS:
                        continue
                    yield ("%s:%s:%s" % (name, kind, key),
                           lambda name=name, fn=fn, pi=pi: fn(self.tables[name], list(pi)).holds,
                           self._equals(want["criteria"]["%s:%s" % (kind, key)]))
        yield "grid", lambda: lieorders.run_grid(self.grid), _grid_check(inputs.LARGE_GRID)

    def _parse(self, name):
        from hallmark import chartab

        self.tables[name] = chartab.parse_table(self.texts[name])
        return self.tables[name]

    @staticmethod
    def _order_check(want):
        return lambda table: None if table.order == want["order"] else "order %d" % table.order

    @staticmethod
    def _equals(value):
        return lambda got: None if got == value else "got %r, expected %r" % (got, value)

    def _blocks_check(self, name, p):
        want = self.expected[name]["blocks"][str(p)]
        rows = self.row_order[name]

        def check(part):
            blocks = sorted(sorted(rows[i] for i in b) for b in part.blocks)
            principal = sorted(rows[i] for i in part.blocks[part.principal_index])
            if (blocks, principal, part.vacuous) != (want["blocks"], want["principal"], want["vacuous"]):
                return "%d-blocks %s (principal %s), expected %s (principal %s)" % (
                    p, blocks, principal, want["blocks"], want["principal"])
            return None
        return check


WORKLOAD_CLASSES = {"battery": Battery, "large-groups": LargeGroups, "tables-grid": TablesGrid}


def run_pass(workload, probe=None) -> list:
    """Run every operation once; time only the operation itself.

    With a SpeedProbe the reference work runs on its timer during the
    pass and once at each end (see reference.py); each result then has,
    besides the raw time "s", the time "scaled_s" to the reference
    speed, both without the reference time spent inside the operation."""
    done = []
    if probe is not None:
        probe.sample()
        with probe:
            _timed_ops(workload, done)
        probe.sample()
    else:
        _timed_ops(workload, done)
    results = []
    for name, started, ended, out, error, check in done:
        if error is None:
            try:
                error = check(out)
            except Exception:
                error = "output check raised: " + traceback.format_exc(limit=3)
        result = {"name": name, "s": ended - started, "ok": error is None, "error": error}
        if probe is not None:
            result["s"] -= probe.inside(started, ended)
            result["scaled_s"] = result["s"] * probe.scale(started, ended)
        results.append(result)
    return results


def _timed_ops(workload, done):
    for name, run, check in workload.ops():
        started = time.perf_counter()
        try:
            out, error = run(), None
        except Exception:  # an operation that raises is a failed operation
            out, error = None, traceback.format_exc(limit=3)
        ended = time.perf_counter()
        done.append((name, started, ended, out, error, check))


def main(argv) -> int:
    in_dir = argv[1]
    setup_only = "--setup-only" in argv
    probing = "--no-probe" not in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None

    hm = import_hallmark()
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    manifest = _read_json(os.path.join(in_dir, "manifest.json"))
    expected = _read_json(os.path.join(HERE, "expected.json"))[manifest["workload"]]
    workload = WORKLOAD_CLASSES[manifest["workload"]](in_dir, expected)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    # the host's speed right after set-up, which scales the set-up time
    setup_ref_s = statistics.median(SpeedProbe().sample() for _ in range(SETUP_PROBE_REPS))
    if setup_only:
        sys.stdout.write(json.dumps({"setup_ref_s": setup_ref_s}) + "\n")
        return 0

    probe = SpeedProbe() if probing else None
    results = run_pass(workload, probe)
    out = {
        "backend": hm.kernels.BACKEND,
        "setup_ref_s": setup_ref_s,
        "ref_s": [s for _, s in probe.samples] if probing else [],
        "ops": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["untraced"] = tracer.untraced
        tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
