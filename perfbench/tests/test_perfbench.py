"""Tests of the benchmark itself: seeded inputs, output checks, tracing,
comparison, and refusal to run without the program.

    python3 -m pytest perfbench/tests -q

Workloads are shrunk to small groups and tables so the tests take
seconds; the checks they exercise are the ones the full runs use.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import compare  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

SMALL_GRID = {"families": ["GL", "Sp"], "prime_powers": [2, 3], "max_rank": 3, "primes": [3, 5, 7]}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "BATTERY_GROUPS", ("c6", "a4", "a5"))
    monkeypatch.setattr(inputs, "LARGE_QUERIES", (("a5", (3, 5), "absent", None),
                                                  ("s4", (2, 3), "found", 24)))
    monkeypatch.setattr(inputs, "SHIPPED_TABLES", ("a5", "s4"))
    monkeypatch.setattr(inputs, "SHIPPED_GRID", SMALL_GRID)
    monkeypatch.setattr(inputs, "LARGE_GRID", SMALL_GRID)


def _workload(name, tmp_path, expected, key="3.0"):
    inputs.write_inputs(name, key, str(tmp_path), SRC)
    workload.import_hallmark()
    return workload.WORKLOAD_CLASSES[name](str(tmp_path), expected)


def _failed(results):
    return sorted(r["name"] for r in results if not r["ok"])


LARGE_EXPECTED = {
    "a5": {"order": 60, "class_sizes": {"1": 1, "12": 2, "15": 1, "20": 1}},
    "s4": {"order": 24, "class_sizes": {"1": 1, "3": 1, "6": 2, "8": 1}},
}


def test_same_key_same_inputs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d, key in ((a, "5.0"), (b, "5.0"), (c, "5.1")):
        inputs.write_inputs("large-groups", key, str(d), SRC)
    name = "group_psl3_3.json"
    assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / name).read_bytes() != (c / name).read_bytes()


def test_permuted_table_maps_back():
    with open(os.path.join(SRC, "hallmark", "data", "tables", "a5.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    out, rows = inputs.permute_table(doc, "11.0")
    assert sorted(rows) == list(range(len(rows)))
    degrees = [r[[c["element_order"] for c in out["classes"]].index(1)] for r in out["irreducibles"]]
    assert degrees == [doc["irreducibles"][i][0] for i in rows]


def test_grid_points_match_shipped_grid():
    assert inputs.grid_points(inputs.SHIPPED_GRID) == 7776


def test_battery_passes_and_corrupted_tally_fails(small, tmp_path):
    expected = EXPECTED["battery"]
    assert _failed(workload.run_pass(_workload("battery", tmp_path / "ok", expected))) == []
    bad = json.loads(json.dumps(expected))
    bad["a4"]["tallies"]["B"]["agree"] += 1
    results = workload.run_pass(_workload("battery", tmp_path / "bad", bad))
    assert _failed(results) == ["a4:B"]
    assert len(results) == 5 + 5 + 6 + 1


def test_large_groups_corrupted_class_sizes_fail(small, tmp_path):
    ok = workload.run_pass(_workload("large-groups", tmp_path / "ok", LARGE_EXPECTED))
    assert _failed(ok) == []
    bad = json.loads(json.dumps(LARGE_EXPECTED))
    bad["s4"]["class_sizes"] = {"1": 1, "3": 1, "6": 1, "8": 2}
    assert _failed(workload.run_pass(_workload("large-groups", tmp_path / "bad", bad))) == ["s4"]


def test_tables_grid_corrupted_block_fails(small, tmp_path):
    expected = EXPECTED["tables-grid"]
    assert _failed(workload.run_pass(_workload("tables-grid", tmp_path / "ok", expected))) == []
    bad = json.loads(json.dumps(expected))
    bad["a5"]["blocks"]["2"]["principal"] = [0]
    assert _failed(workload.run_pass(_workload("tables-grid", tmp_path / "bad", bad))) == ["a5:blocks:2"]


def test_operation_that_raises_is_a_failure(small, tmp_path):
    wl = _workload("large-groups", tmp_path, LARGE_EXPECTED)
    wl.docs["a5"] = {"name": "a5", "degree": 2, "generators": [[1, 1]]}
    assert _failed(workload.run_pass(wl)) == ["a5"]


def test_speed_probe_scales_by_nearby_reference_times():
    probe = reference.SpeedProbe()
    w = reference.WINDOW_S
    probe.samples = [(0.0, 0.032), (w / 2, 0.030), (10.0, 0.008), (10.0 + w / 2, 0.010), (20.0, 0.010)]
    ref = reference.REFERENCE_S
    assert probe.scale(w / 4, w / 2) == pytest.approx(ref / 0.031)
    assert probe.scale(10.0 - w / 2, 10.0 - w / 4) == pytest.approx(ref / 0.009)
    # no sample near the operation: the mean of all of them
    assert probe.scale(50.0, 51.0) == pytest.approx(ref / 0.018)


def test_pass_reports_raw_and_scaled_times(small, tmp_path):
    probe = reference.SpeedProbe()
    results = workload.run_pass(_workload("large-groups", tmp_path, LARGE_EXPECTED), probe)
    assert len(probe.samples) >= 2
    for r in results:
        assert r["s"] > 0 and r["scaled_s"] > 0


class _Spin:
    """A workload of one operation that keeps the processor busy; the
    operation's own start and end go to `times`."""

    def __init__(self):
        self.times = []

    def ops(self):
        def spin():
            started = ended = time.perf_counter()
            while ended - started < 4 * reference.PROBE_EVERY_S:
                ended = time.perf_counter()
            self.times.append((started, ended))

        yield "spin", spin, lambda out: None


def test_timer_samples_long_operation_and_takes_them_off():
    probe, spin = reference.SpeedProbe(), _Spin()
    (result,) = workload.run_pass(spin, probe)
    (started, ended), = spin.times
    during = [s for t, s in probe.samples if started <= t <= ended]
    assert len(during) >= 2
    assert result["s"] == pytest.approx(ended - started - sum(during), abs=0.002)


def test_tracer_counts_spans_and_restores():
    workload.import_hallmark()
    from hallmark import catalog, subgroups
    from hallmark.classdata import ClassTable

    original = subgroups.sylow
    t = tracer.Tracer()
    t.install()
    try:
        group = catalog.build("s4")
        ClassTable(group)
        ClassTable(group)
        subgroups.sylow(group, 2)
    finally:
        t.uninstall()
    assert subgroups.sylow is original
    m = t.metrics()
    assert m["classdata.ClassTable.calls"][0] == 2
    assert m["classdata.ClassTable.per_group"][0] == 2.0
    assert m["subgroups.sylow.calls"][0] == 1
    assert m["trace.untraced_layers"][0] == 0
    names = {s[0] for s in t.spans}
    assert {"perms.PermutationGroup", "kernels.conjugacy_partition"} <= names
    # spans nest: every parent closes after its children
    for name, start, end, parent in t.spans:
        if parent >= 0:
            assert t.spans[parent][1] <= start <= end <= t.spans[parent][2]
    total = sum(m[n + ".self_s"][0] for n in tracer.layer_names())
    outer = sum(s[2] - s[1] for s in t.spans if s[3] < 0)
    assert total == pytest.approx(outer)


def test_tracer_reports_a_bypassing_binding(monkeypatch):
    workload.import_hallmark()
    from hallmark import criteria, subgroups

    monkeypatch.setattr(criteria, "sylow", subgroups.sylow, raising=False)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.untraced == ["subgroups.sylow: bound as hallmark.criteria.sylow"]
    assert t.metrics()["trace.untraced_layers"][0] == 1


def _record(workload_name, backend, wall):
    return {"workload": workload_name, "trace": 0, "stamp": {"backend": backend},
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_compare_refuses_different_backends():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    base = [_record("battery", "pure", 10.0)]
    lines, status = compare.compare(base, [_record("battery", "compiled", 1.0)], spec)
    assert status == 2 and "different kernels" in lines[0]
    _, status = compare.compare(base, [_record("battery", "pure", 12.0)], spec)
    assert status == 1
    _, status = compare.compare(base, [_record("battery", "pure", 10.5)], spec)
    assert status == 0


def test_run_without_program_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
