"""Exit codes, report schema, and determinism of the command line tool.

Each test drives cli.main() in process and parses the JSON report from
stdout.  Frozen counts (class counts, suite totals, grid totals) were
read off a run of the finished catalog and act as regression pins: the
catalog is part of the package, so the numbers are deterministic.
"""

import hashlib
import json
import os
import re
import time

import pytest

from hallmark import catalog, cli, config, lieorders, subgroups
from hallmark.config import ORDER_BITS_CAP, RANK_CAP, SIFT_CAP
from hallmark.errors import CapacityError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = None
    if captured.out.lstrip().startswith("{"):
        report = json.loads(captured.out)
    return code, report, captured.err


class TestReportEnvelope:
    def test_schema_and_tool(self, capsys):
        code, rep, _ = run(capsys, "catalog", "--no-timings")
        assert code == 0
        assert rep["schema"] == "hallmark-report/1"
        assert rep["tool"]["name"] == "hallmark"
        assert rep["command"] == "catalog"
        assert rep["exit"] == 0
        assert "timings" not in rep

    def test_timings_present_by_default(self, capsys):
        code, rep, _ = run(capsys, "catalog")
        assert code == 0
        assert "total_s" in rep["timings"]

    def test_no_timings_is_byte_identical(self, capsys):
        cli.main(["check", "--theorem", "A", "--group", "catalog:s4", "--no-timings"])
        first = capsys.readouterr().out
        cli.main(["check", "--theorem", "A", "--group", "catalog:s4", "--no-timings"])
        second = capsys.readouterr().out
        assert first == second

    def test_help_exits_zero(self, capsys):
        # main() absorbs argparse's SystemExit and returns its code.
        assert cli.main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestCatalogCommand:
    def test_lists_every_entry(self, capsys):
        code, rep, _ = run(capsys, "catalog", "--no-timings")
        assert code == 0
        names = [g["name"] for g in rep["groups"]]
        assert len(names) == 34
        assert "a5" in names and "j1" in names
        orders = [g["order"] for g in rep["groups"]]
        assert orders == sorted(orders)
        a5 = [g for g in rep["groups"] if g["name"] == "a5"][0]
        assert a5["order"] == 60 and a5["degree"] == 5
        j1 = [g for g in rep["groups"] if g["name"] == "j1"][0]
        assert "sporadic-stretch" in j1["tags"]


class TestClassesCommand:
    def test_s4_classes(self, capsys):
        code, rep, _ = run(capsys, "classes", "catalog:s4", "--no-timings")
        assert code == 0
        assert rep["group"] == {"name": "s4", "order": 24, "degree": 4}
        assert rep["class_count"] == 5
        assert sum(c["size"] for c in rep["classes"]) == 24
        for c in rep["classes"]:
            assert c["size"] * c["centralizer_order"] == 24
        assert rep["caps"]["degree_cap"] == 1024

    def test_caps_block_names_each_bound_once(self, capsys):
        _, rep, _ = run(capsys, "classes", "catalog:a5", "--no-timings")
        assert list(rep["caps"]) == ["degree_cap", "elements"]
        # --extended unlocks J1 and raises no cap
        _, extended, _ = run(capsys, "classes", "catalog:a5", "--no-timings", "--extended")
        assert extended["caps"] == rep["caps"]

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(
            {"name": "c4", "degree": 4, "generators": [[2, 3, 4, 1]]}
        ))
        code, rep, _ = run(capsys, "classes", str(path), "--no-timings")
        assert code == 0
        assert rep["group"]["order"] == 4
        assert rep["class_count"] == 4

    def test_missing_file_is_usage_error(self, capsys):
        code, rep, err = run(capsys, "classes", "/no/such/file.json")
        assert code == 2
        assert rep is None
        assert "error:" in err

    def test_stretch_entry_gated(self, capsys):
        code, rep, err = run(capsys, "classes", "catalog:j1")
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "--extended" in err


class TestHallCommand:
    def test_found_subgroup(self, capsys):
        code, rep, _ = run(capsys, "hall", "catalog:a5", "--pi", "2,3", "--no-timings")
        assert code == 0
        assert rep["status"] == "found"
        assert rep["subgroup"]["order"] == 12
        assert rep["subgroup"]["index"] == 5
        assert rep["nilpotent"] is False
        assert rep["abelian"] is False

    def test_proved_absent(self, capsys):
        code, rep, _ = run(capsys, "hall", "catalog:a5", "--pi", "2,5", "--no-timings")
        assert code == 0
        assert rep["status"] == "absent"
        assert rep["subgroup"] is None

    def test_abelian_hall(self, capsys):
        code, rep, _ = run(capsys, "hall", "catalog:psl2_31", "--pi", "3,5",
                           "--no-timings")
        assert code == 0
        assert rep["status"] == "found"
        assert rep["subgroup"]["order"] == 15
        assert rep["abelian"] is True

    def test_bad_pi_is_usage_error(self, capsys):
        for bad in ("3,3", "x", "1", ""):
            code, rep, err = run(capsys, "hall", "catalog:a5", "--pi", bad)
            assert code == 2, bad
            assert "error:" in err

    @pytest.mark.parametrize("group,pi,constant,value,cap_name", [
        # psl3_3's {2, 3} search needs a budget of 406
        ("psl3_3", "2,3", "HALL_CANDIDATE_CAP", 405, "hall_candidates"),
    ])
    def test_inconclusive_search_names_its_cap(
        self, capsys, monkeypatch, group, pi, constant, value, cap_name
    ):
        monkeypatch.setattr(subgroups, constant, value)
        code, rep, _ = run(capsys, "hall", "catalog:" + group, "--pi", pi, "--no-timings")
        assert code == 3
        assert rep["status"] == "inconclusive"
        assert (rep["cap_name"], rep["cap_value"]) == (cap_name, value)
        assert rep["subgroup"] is None
        assert list(rep["caps"]) == ["degree_cap", "elements"]


class TestCheckCommand:
    def test_theorem_a_default_pairs(self, capsys):
        code, rep, _ = run(capsys, "check", "--theorem", "A",
                           "--group", "catalog:a5", "--no-timings")
        assert code == 0
        assert rep["summary"] == {"checks": 3, "agree": 3, "disagree": 0,
                                  "skipped": 0, "undetermined": 0}
        for check in rep["checks"]:
            assert check["agree"] is True

    def test_theorem_a_named_pair(self, capsys):
        code, rep, _ = run(capsys, "check", "--theorem", "A",
                           "--group", "catalog:psl2_31", "--pi", "3,5",
                           "--no-timings")
        assert code == 0
        assert rep["summary"]["agree"] == 1

    @pytest.mark.parametrize("argv", [
        ["check", "--theorem", "A", "--group", "catalog:a5"],
        ["hall", "catalog:a5"],
        ["ct-analyze", "catalog:a5", "--theorem", "B"],
    ], ids=["check", "hall", "ct-analyze"])
    def test_pi_error_names_the_first_bad_entry(self, capsys, argv):
        code, rep, err = run(capsys, *argv, "--pi", "4,9")
        assert code == 2
        assert rep is None
        assert err == "error: --pi entry must be a prime, got 4\n"

    def test_stretch_group_gated_in_check(self, capsys):
        code, rep, err = run(capsys, "check", "--theorem", "A",
                             "--group", "catalog:j1", "--pi", "3,5")
        assert code == 3
        assert rep is None and "capacity:" in err

    def test_theorem_c_auto_table(self, capsys):
        # psl2_31 ships a character table, so the block side is wired in.
        code, rep, _ = run(capsys, "check", "--theorem", "C",
                           "--group", "catalog:psl2_31", "--pi", "3,5",
                           "--no-timings")
        assert code == 0
        check = rep["checks"][0]
        assert check["criterion"]["verdict"] == "holds"
        assert check["witness"]["verdict"] == "holds"
        assert check["agree"] is True

    @pytest.mark.parametrize("group,pi,primes", [
        ("catalog:c6", [], "[2, 3]"),
        ("catalog:psl2_31", ["--pi", "3,5"], "[3, 5]"),
    ], ids=["c6", "psl2_31"])
    def test_theorem_c_criterion_frozen(self, capsys, group, pi, primes):
        # every principal block here is clear, so the criterion keeps the
        # pi-prime sizes verdict rather than a block verdict
        code, rep, _ = run(capsys, "check", "--theorem", "C", "--group", group,
                           *pi, "--no-timings")
        assert code == 0
        assert [c["criterion"] for c in rep["checks"]] == [{
            "verdict": "holds",
            "detail": "all pi-element class sizes are pi-prime for " + primes,
        }]

    def test_explicit_table_flag(self, capsys, tmp_path):
        code, rep, _ = run(capsys, "check", "--theorem", "C",
                           "--group", "catalog:a5", "--pi", "3,5",
                           "--table", "catalog:a5", "--no-timings")
        assert code == 0
        assert rep["inputs"]["table"] == "catalog:a5"
        assert rep["checks"][0]["agree"] is True

    def test_table_of_another_group_is_refused(self, capsys):
        # d4's table has a vacuous 3-block; a5's block side must not read it
        code, rep, err = run(capsys, "check", "--theorem", "C",
                             "--group", "catalog:a5", "--pi", "3",
                             "--table", "catalog:d4", "--no-timings")
        assert code == 2
        assert rep is None
        assert err.startswith("error:") and "order 8" in err and "order 60" in err

    def test_table_of_another_group_of_the_same_order_is_refused(self, capsys):
        # c6 and s3 both have order 6, but c6's classes all have size 1
        code, rep, err = run(capsys, "check", "--theorem", "C",
                             "--group", "catalog:s3", "--table", "catalog:c6",
                             "--no-timings")
        assert code == 2
        assert rep is None
        assert err.startswith("error:") and "class sizes" in err

    def test_table_over_the_element_cap_is_compared_by_order(self, capsys, monkeypatch):
        # with no class table to compare, the check runs and stops at the cap
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", "5")
        code, rep, _ = run(capsys, "check", "--theorem", "C",
                           "--group", "catalog:s3", "--table", "catalog:c6",
                           "--no-timings")
        assert code == 3
        assert rep["summary"]["undetermined"] == 1

    @pytest.mark.parametrize("theorem", ["A", "B", "t4.1", "t4.2", "t4.3"])
    def test_table_outside_theorem_c_is_refused(self, capsys, theorem):
        code, rep, err = run(capsys, "check", "--theorem", theorem,
                             "--group", "catalog:a5", "--table", "catalog:a5",
                             "--no-timings")
        assert code == 2
        assert rep is None
        assert err.startswith("error:") and "theorem C only" in err

    def test_undetermined_sides_name_their_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", "50")
        code, rep, _ = run(capsys, "check", "--theorem", "B", "--group", "catalog:a5",
                           "--pi", "2,3", "--no-timings")
        assert code == 3
        (check,) = rep["checks"]
        for side in (check["criterion"], check["witness"]):
            assert side["verdict"] == "undetermined"
            assert side["witnesses"] == {"cap_name": "elements", "cap_value": 50}

    def test_precondition_failures_count_as_skipped(self, capsys):
        # a5 is not p-solvable for any p dividing its order.
        code, rep, _ = run(capsys, "check", "--theorem", "t4.2",
                           "--group", "catalog:a5", "--pi", "2,3",
                           "--no-timings")
        assert code == 0
        assert rep["summary"]["skipped"] == 1
        assert rep["checks"][0]["note"] == "precondition failed"

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--theorem", "A",
                           "--group", "catalog:a5", "--pi", "2,3,5")
        assert code == 2
        assert "exactly two primes" in err
        code, _, err = run(capsys, "check", "--theorem", "t4.3",
                           "--group", "catalog:a5", "--pi", "3,5")
        assert code == 2

    def test_unknown_theorem_rejected_by_parser(self, capsys):
        code = cli.main(["check", "--theorem", "Z", "--group", "catalog:a5"])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBounds:
    BIG = "2305843009213693951"  # 2**61 - 1, a prime far above the factor cap

    def test_every_cap_constant_is_documented(self):
        # docs/cli.md names each *_CAP of hallmark.config, and no other
        docs = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "cli.md")
        with open(docs) as fh:
            named = set(re.findall(r"\b[A-Z][A-Z_]*_CAP\b", fh.read()))
        assert named == {name for name in vars(config) if name.endswith("_CAP")}

    @pytest.mark.parametrize("argv", [
        ["ct-blocks", "catalog:a5", "-p", BIG],
        ["check", "--theorem", "B", "--group", "catalog:a5", "--pi", "2," + BIG],
        ["hall", "catalog:a5", "--pi", "3," + BIG],
        ["lie-verify", "--family", "GL", "--n", "2", "--q", "2", "--r", "3", "--s", BIG],
        ["lie-verify", "--family", "GL", "--n", "2", "--q", BIG, "--r", "3", "--s", "5"],
    ])
    def test_huge_prime_hits_the_factor_cap(self, capsys, argv):
        code, rep, err = run(capsys, *argv)
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "factor cap" in err

    def test_large_prime_below_the_cap_finishes(self, capsys):
        # 2 has order about 5.5e11 modulo s
        code, rep, _ = run(capsys, "lie-verify", "--family", "GL", "--n", "2", "--q", "2",
                           "--r", "3", "--s", "1099511627689", "--no-timings")
        assert code == 0
        assert rep["pair"]["consistent"] is True

    @staticmethod
    def _a5_table(tmp_path, exponent, trivial_value, at_class=1):
        with open(os.path.join(cli._TABLES_DIR, "a5.json")) as fh:
            doc = json.load(fh)
        doc["exponent"] = exponent
        doc["irreducibles"][0][at_class] = trivial_value
        path = tmp_path / "a5_copy.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_declared_exponent_does_not_size_the_field(self, capsys, tmp_path):
        # 30270 = 30 * 1009: roots of order 1009 would need F_{2^504}
        path = self._a5_table(tmp_path, 30270, 1)
        code, rep, _ = run(capsys, "ct-blocks", path, "-p", "2", "--no-timings")
        assert code == 0
        assert rep["partition"]["blocks"] == [[0, 1, 2, 4], [3]]

    def test_value_root_order_of_large_field_degree_finishes(self, capsys, tmp_path):
        # the value 1, written in Q(zeta_1009): the residue fields of
        # Z[zeta_1009]/2 are F_{2^504}, but the reducer builds none of them
        path = self._a5_table(tmp_path, 30270, {"n": 1009, "terms": [[1, 0]]})
        code, rep, _ = run(capsys, "ct-blocks", path, "-p", "2", "--no-timings")
        assert code == 0
        assert rep["partition"]["blocks"] == [[0, 1, 2, 4], [3]]

    @pytest.mark.parametrize("bits", [20, 40])
    def test_huge_root_order_finishes(self, capsys, tmp_path, bits):
        # the value 1, written in Q(zeta_n) for n = 2^bits - 1: F_{2^bits} holds
        # the roots, but there are n of them
        n = 2**bits - 1
        path = self._a5_table(tmp_path, 30 * n, {"n": n, "terms": [[1, 0]]})
        code, rep, _ = run(capsys, "ct-blocks", path, "-p", "2", "--no-timings")
        assert code == 0
        assert rep["partition"]["blocks"] == [[0, 1, 2, 4], [3]]

    def test_prime_conductor_hits_the_cyclotomic_form_cap(self, capsys, tmp_path):
        # the degree at the identity written as zeta_n^(n-1), n a prime near
        # 10^10: its canonical form would hold n - 1 coordinates
        n = 10000000019
        path = self._a5_table(tmp_path, 30 * n, {"n": n, "terms": [[1, n - 1]]}, at_class=0)
        started = time.monotonic()
        code, rep, err = run(capsys, "ct-blocks", path, "-p", "2", "--no-timings")
        assert time.monotonic() - started < 2
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "cyclotomic form cap" in err

    def test_long_value_product_hits_the_cyclotomic_form_cap(self, capsys, tmp_path):
        # 4000 distinct terms in Q(zeta_65537): the table's orthogonality
        # check would multiply them by themselves, 16 million term products
        n = 65537
        value = {"n": n, "terms": [[1, e] for e in range(1, 4001)]}
        path = self._a5_table(tmp_path, 30 * n, value)
        started = time.monotonic()
        code, rep, err = run(capsys, "ct-blocks", path, "-p", "2", "--no-timings")
        assert time.monotonic() - started < 1
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "cyclotomic form cap" in err

    @staticmethod
    def _grid(tmp_path, max_rank, q=19):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "schema": "hallmark-lie-grid/1",
            "families": ["Sp"],
            "prime_powers": [q],
            "max_rank": max_rank,
            "primes": [3, 5],
        }))
        return str(path)

    def test_huge_grid_rank_hits_the_rank_cap(self, capsys, tmp_path):
        started = time.monotonic()
        code, rep, err = run(capsys, "lie-grid", self._grid(tmp_path, 10000))
        assert time.monotonic() - started < 1
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "rank cap %d" % RANK_CAP in err
        with pytest.raises(CapacityError) as info:
            lieorders.load_grid_manifest(self._grid(tmp_path, 10000))
        assert (info.value.cap_name, info.value.cap_value) == ("rank", RANK_CAP)

    @staticmethod
    def _symmetric(tmp_path, n):
        # a transposition and an n-cycle, images 1-based
        path = tmp_path / ("s%d.json" % n)
        path.write_text(json.dumps({
            "name": "s%d" % n,
            "degree": n,
            "generators": [[2, 1] + list(range(3, n + 1)), list(range(2, n + 1)) + [1]],
        }))
        return str(path)

    def test_large_symmetric_group_hits_the_sift_cap(self, capsys, tmp_path):
        started = time.monotonic()
        code, rep, err = run(capsys, "classes", self._symmetric(tmp_path, 200))
        assert time.monotonic() - started < 10
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "sift cap %d" % SIFT_CAP in err
        started = time.monotonic()
        with pytest.raises(CapacityError) as info:
            catalog.load_group_file(self._symmetric(tmp_path, 80))
        assert time.monotonic() - started < 10
        assert (info.value.cap_name, info.value.cap_value) == ("sifts", SIFT_CAP)

    def test_chief_series_waits_for_a_class_table_under_the_element_cap(
        self, capsys, monkeypatch
    ):
        # S6 is not solvable, so p-solvability reads its chief series, whose
        # walk starts only after a class table of all 720 elements
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", "700")
        started = time.monotonic()
        code, rep, _ = run(capsys, "check", "--theorem", "t4.2", "--group", "catalog:s6",
                           "--no-timings")
        assert time.monotonic() - started < 10
        assert code == 3
        assert rep["checks"]
        for check in rep["checks"]:
            assert check["criterion"]["verdict"] == "undetermined"
            assert check["witness"]["verdict"] == "undetermined"
            assert check["agree"] is None

    def test_huge_verify_rank_hits_the_rank_cap(self, capsys):
        code, rep, err = run(capsys, "lie-verify", "--family", "Sp", "--n", "10000",
                             "--q", "19", "--r", "3", "--s", "5")
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "rank cap %d" % RANK_CAP in err

    def test_grid_at_the_rank_cap_finishes(self, capsys, tmp_path):
        code, rep, _ = run(capsys, "lie-grid", self._grid(tmp_path, RANK_CAP), "--no-timings")
        assert code == 0
        assert rep["grid"]["points"] == RANK_CAP
        code, _, _ = run(capsys, "lie-verify", "--family", "Sp", "--n", str(RANK_CAP),
                         "--q", "19", "--r", "3", "--s", "5", "--no-timings")
        assert code == 0

    def test_huge_verify_order_hits_the_order_bits_cap(self, capsys):
        # the order of Sp_64(127) has 14,537 bits, more digits than an int prints
        started = time.monotonic()
        code, rep, err = run(capsys, "lie-verify", "--family", "Sp", "--n", str(RANK_CAP),
                             "--q", "127", "--r", "3", "--s", "7", "--no-timings")
        assert time.monotonic() - started < 1
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "order bits cap %d" % ORDER_BITS_CAP in err
        assert "Traceback" not in err
        with pytest.raises(CapacityError) as info:
            lieorders.verify_pair("Sp", RANK_CAP, 127, 3, 7)
        assert (info.value.cap_name, info.value.cap_value) == ("order_bits", ORDER_BITS_CAP)

    def test_huge_grid_prime_power_hits_the_order_bits_cap(self, capsys, tmp_path):
        started = time.monotonic()
        code, rep, err = run(capsys, "lie-grid", self._grid(tmp_path, RANK_CAP, 2**500))
        assert time.monotonic() - started < 1
        assert code == 3
        assert rep is None
        assert "capacity:" in err and "order bits cap %d" % ORDER_BITS_CAP in err
        with pytest.raises(CapacityError) as info:
            lieorders.load_grid_manifest(self._grid(tmp_path, RANK_CAP, 2**500))
        assert (info.value.cap_name, info.value.cap_value) == ("order_bits", ORDER_BITS_CAP)

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_element_cap_variable_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HALLMARK_CAP_ELEMENTS", value)
        code, rep, err = run(capsys, "classes", "catalog:a5")
        assert code == 2
        assert rep is None
        assert "HALLMARK_CAP_ELEMENTS" in err


class TestTableCommands:
    def test_ct_analyze_abelian_hall(self, capsys):
        code, rep, _ = run(capsys, "ct-analyze", "catalog:psl2_31",
                           "--pi", "3,5", "--theorem", "C", "--no-timings")
        assert code == 0
        assert rep["table"]["order"] == 14880
        assert rep["criterion"]["verdict"] == "holds"

    def test_ct_analyze_b(self, capsys):
        code, rep, _ = run(capsys, "ct-analyze", "catalog:a5",
                           "--pi", "2,5", "--theorem", "B", "--no-timings")
        assert code == 0
        assert rep["criterion"]["verdict"] == "fails"

    def test_ct_blocks_frozen_partition(self, capsys):
        code, rep, _ = run(capsys, "ct-blocks", "catalog:a5", "-p", "2",
                           "--no-timings")
        assert code == 0
        part = rep["partition"]
        assert part["p"] == 2
        assert part["blocks"] == [[0, 1, 2, 4], [3]]
        assert part["block_degrees"] == [[1, 3, 3, 5], [4]]

    @pytest.mark.parametrize("argv", [
        ["ct-blocks", "{missing}", "-p", "2"],
        ["ct-analyze", "{missing}", "--pi", "3"],
        ["check", "--theorem", "C", "--group", "catalog:a5", "--table", "{missing}"],
        ["check", "--theorem", "A", "--group", "catalog:a5", "--table", "{missing}"],
        ["ct-blocks", "{dir}", "-p", "2"],
        ["classes", "{deep}"],
        ["ct-blocks", "{deep}", "-p", "2"],
        ["lie-grid", "{deep}"],
        ["classes", "{latin}"],
    ], ids=["blocks-missing", "analyze-missing", "check-table-missing",
            "check-a-table-missing", "blocks-dir",
            "classes-deep", "blocks-deep", "grid-deep", "classes-not-utf8"])
    def test_unreadable_input_is_usage_error(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff\xfe")
        paths = {"missing": tmp_path / "missing.json", "dir": tmp_path,
                 "deep": deep, "latin": latin}
        code, rep, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert rep is None
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_shipped_table(self, capsys):
        code, _, err = run(capsys, "ct-analyze", "catalog:a6", "--pi", "3")
        assert code == 2
        assert "no shipped character table" in err


class TestLieCommands:
    def test_lie_verify_mixed_point(self, capsys):
        code, rep, _ = run(capsys, "lie-verify", "--family", "SOminus",
                           "--n", "6", "--q", "3", "--r", "7", "--s", "13",
                           "--no-timings")
        assert code == 0
        pair = rep["pair"]
        assert pair["consistent"] is True
        assert pair["mixed_torus"]["match"] is True

    def test_lie_verify_bad_point(self, capsys):
        code, _, err = run(capsys, "lie-verify", "--family", "GL",
                           "--n", "2", "--q", "9", "--r", "3", "--s", "5")
        assert code == 2
        assert "divides q" in err

    def test_lie_grid_shipped(self, capsys):
        code, rep, _ = run(capsys, "lie-grid", "--no-timings")
        assert code == 0
        grid = rep["grid"]
        assert grid["points"] == 7776
        assert grid["witnessed"] == 1475
        assert grid["failures"] == []
        assert "elapsed" not in grid

    def test_grid_times_sit_under_timings(self, capsys, monkeypatch):
        # run_grid reports no time; lie-grid has timings.total_s, and the
        # suite times its grid item as it times each group
        code, rep, _ = run(capsys, "lie-grid")
        assert code == 0
        assert "elapsed" not in rep["grid"] and "total_s" in rep["timings"]
        entries = cli.catalog.entries
        monkeypatch.setattr(
            cli.catalog, "entries",
            lambda **kw: [e for e in entries(**kw) if e.name == "s4"])
        for flags, timed in (((), True), (("--no-timings",), False)):
            code, rep, _ = run(capsys, "suite", *flags)
            assert code == 0
            grid, (group,) = rep["grid"], rep["groups"]
            assert "elapsed" not in grid
            assert ("elapsed_s" in grid) is timed and ("elapsed_s" in group) is timed

    def test_lie_grid_custom_manifest(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "schema": "hallmark-lie-grid/1",
            "families": ["GL"],
            "prime_powers": [2],
            "max_rank": 2,
            "primes": [3, 5, 7],
        }))
        code, rep, _ = run(capsys, "lie-grid", str(path), "--no-timings")
        assert code == 0
        assert rep["grid"]["points"] == 6
        assert rep["inputs"]["manifest"] == str(path)

    def test_lie_grid_bad_manifest(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "wrong/1"}))
        code, _, err = run(capsys, "lie-grid", str(path))
        assert code == 2
        assert "error:" in err
        good = {
            "schema": "hallmark-lie-grid/1",
            "families": ["GL"],
            "prime_powers": [2],
            "max_rank": 2,
            "primes": [3, 5, 7],
        }
        # A value no pair reaches is refused too, not only one that crashes.
        for change in ({"max_rank": "3"}, {"primes": [9]}):
            path.write_text(json.dumps({**good, **change}))
            code, out, err = run(capsys, "lie-grid", str(path))
            assert code == 2
            assert out is None
            assert "error:" in err and "Traceback" not in err


class TestSuiteCommand:
    def test_full_battery(self, capsys):
        code, rep, _ = run(capsys, "suite", "--no-timings")
        assert code == 0
        summary = rep["summary"]
        assert summary["groups"] == 33
        assert summary["checks"] == 659
        assert summary["agree"] == 530
        assert summary["disagree"] == 0
        assert summary["undetermined"] == 0
        # t4.2 needs p-solvability; the non-solvable entries skip it.
        assert summary["skipped"] == 129
        assert summary["grid_ok"] is True
        for item in rep["groups"]:
            assert item["disagreements"] == []
        # The whole report, less the tool block that an installed version
        # moves, in the command's own layout; frozen from a run.
        del rep["tool"]
        digest = hashlib.md5(json.dumps(rep, indent=2).encode()).hexdigest()
        assert digest == "23ac90de8ab65d47136fe08eaaab6181"
