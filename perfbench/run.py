"""hallmark benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload {battery,large-groups,tables-grid}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the parent of this directory and
hallmark is imported from its src/.  Inputs are written from the seed
into .perfbench/, one set per round (see inputs.py); hallmark reads
nothing else.

A round runs every operation of the workload once, in a fresh
single-threaded process (workload.py), one at a time, each starting
when the previous one ends.  With --trace 0 the run repeats rounds, each
after SETUP_PER_ROUND processes that only set up, until the next round
would end after S seconds (at least one).  It reports the end-to-end
metrics: setup_s, the median time from process start to ready; wall_s,
the sum over operations of each one's median time across rounds;
slowest_op_s, the largest of those medians; and the median peak RSS of
a round.  Every time is scaled to the speed of a reference host
(reference.py): a timer in the workload process runs a fixed piece of
work that runs no hallmark code, and each time is multiplied by
REFERENCE_S over the reference time measured during and around it, so
a swing of the shared host's speed between runs cancels.  The record
line keeps the unscaled times and the reference times.  With --trace 1
it runs two plain and two traced rounds on the same inputs, without the
reference timer, and reports the per-layer metrics of the traced
rounds, plus the ratio of traced to plain (unscaled) wall time.

Every operation's output is checked against expected.json.  The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it is the full record (environment stamp, sample counts,
failures), which is also saved under .perfbench/results/ for
compare.py.  Exit status is 0 when a result was printed, and another
code, with nothing on stdout, when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import workload as workload_process  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

# Set-up-only processes started before each round; with the round's own
# set-up they are the samples behind setup_s.
SETUP_PER_ROUND = 2
# Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 175


class RunError(Exception):
    pass


def _child(in_dir, deadline, *flags):
    """Run workload.py; return (set-up seconds, final JSON).

    The process is killed if it is still running at `deadline`."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), in_dir, *flags]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    killer = threading.Timer(max(0.0, deadline - started), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RunError("workload process failed (exit %s) in %s" % (proc.returncode, in_dir))
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("workload process printed no result in %s" % in_dir)
    return setup_s, json.loads(lines[-1])


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    base = os.path.join(SRC, "hallmark")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _stamp(backend, seed):
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _ops_summary(outs, key="scaled_s"):
    """Per-operation medians over rounds of the time `key`; a burst of
    host contention that slows one round does not move them."""
    times = {}
    for out in outs:
        for op in out["ops"]:
            times.setdefault(op["name"], []).append(op[key])
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    slowest = max(medians, key=medians.get)
    return {
        "wall_s": sum(medians.values()),
        "slowest_op_s": medians[slowest],
        "slowest_op": slowest,
    }


def _metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def _round_inputs(workload, seed, index, in_dir):
    round_dir = os.path.join(in_dir, "round%d" % index)
    inputs.write_inputs(workload, "%d.%d" % (seed, index), round_dir, SRC)
    return round_dir


def measure(workload, seed, in_dir, seconds, deadline):
    setups, outs = [], []
    started = time.perf_counter()
    while True:
        round_dir = _round_inputs(workload, seed, len(outs), in_dir)
        for flags in [("--setup-only",)] * SETUP_PER_ROUND + [()]:
            setup_s, out = _child(round_dir, deadline, *flags)
            setups.append((setup_s, setup_s * REFERENCE_S / out["setup_ref_s"]))
        outs.append(out)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(outs) > seconds:
            break
    summary = _ops_summary(outs)
    raw = _ops_summary(outs, "s")
    rounds = len(outs)
    metrics = {
        "setup_s": _metric([scaled for _, scaled in setups], "s"),
        "wall_s": {"value": summary["wall_s"], "unit": "s", "samples": rounds},
        "slowest_op_s": {"value": summary["slowest_op_s"], "unit": "s", "samples": rounds},
        "peak_rss_mb": _metric([o["peak_rss_kb"] / 1024.0 for o in outs], "MB"),
    }
    extra = {
        "slowest_op": summary["slowest_op"],
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": raw["wall_s"],
            "slowest_op_s": raw["slowest_op_s"],
        },
        "reference_s": _metric([s for o in outs for s in o["ref_s"]], "s"),
    }
    return outs, metrics, extra


def measure_traced(workload, seed, in_dir, spans_path, deadline):
    round_dir = _round_inputs(workload, seed, 0, in_dir)
    traced_flags = ("--no-probe", "--spans", spans_path)
    # plain, traced, traced, plain: a steady drift of host speed cancels.
    # No reference runs in these rounds, so none lands in a span.
    outs = [_child(round_dir, deadline, *flags)[1]
            for flags in (("--no-probe",), traced_flags, traced_flags, ("--no-probe",))]
    plain, traced = [outs[0], outs[3]], outs[1:3]
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [t["layers"][name][0] for t in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    ratio = _ops_summary(traced, "s")["wall_s"] / _ops_summary(plain, "s")["wall_s"]
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio", "samples": len(outs)}
    return outs, metrics, {"untraced": traced[0]["untraced"], "spans_file": spans_path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    backend = workload_process.import_hallmark().kernels.BACKEND

    os.makedirs(RESULTS, exist_ok=True)
    in_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK)
    tag = os.path.basename(in_dir)
    try:
        if args.trace:
            spans = os.path.join(RESULTS, tag + ".spans.jsonl.gz")
            outs, metrics, extra = measure_traced(args.workload, args.seed, in_dir, spans, deadline)
        else:
            outs, metrics, extra = measure(args.workload, args.seed, in_dir, args.seconds, deadline)
    except RunError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    backends = {o["backend"] for o in outs} | {backend}
    if len(backends) != 1:
        print("perfbench: rounds ran on different kernels %s" % sorted(backends), file=sys.stderr)
        return 2
    attempted = sum(len(o["ops"]) for o in outs)
    failures = [{"op": op["name"], "error": op["error"]}
                for o in outs for op in o["ops"] if not op["ok"]]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": _stamp(backend, args.seed),
        "ops_per_round": len(outs[0]["ops"]),
        "rounds": len(outs),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": {"value": len(failures) / attempted, "unit": "ratio", "samples": attempted},
        "metrics": metrics,
        "failures": failures[:20],
        **extra,
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
