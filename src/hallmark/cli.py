"""Command line frontend and batch verification harness.

Every subcommand prints one JSON report to stdout and signals through
the exit code: 0 for success or agreement, 1 when a criterion and its
oracle disagree (the statements are proved, so this means a bug), 2 for
usage errors, 3 when a capacity limit blocks the computation.  Reports
carry the schema tag "hallmark-report/1"; with --no-timings two runs on
identical inputs produce byte-identical output.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from . import catalog, chartab, criteria, lieorders, subgroups
from .arith import require_prime
from .classdata import class_table
from .config import DEGREE_CAP, default_caps
from .errors import CapacityError, MalformedInputError, PreconditionError

REPORT_SCHEMA = "hallmark-report/1"

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

_TABLES_DIR = os.path.join(os.path.dirname(__file__), "data", "tables")

# Catalog entries whose character table ships with the package; theorem C
# runs with the block condition wired in for exactly these.
TABLE_BACKED = ("a5", "c6", "d4", "psl2_7", "psl2_31", "s4")


def _load_group(source: str, extended: bool):
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        entry = catalog.get_entry(name)
        if "sporadic-stretch" in entry.tags and not extended:
            raise CapacityError(
                "catalog entry %s (order %d) is gated behind --extended"
                % (name, entry.order),
                cap_name="extended",
                cap_value=0,
            )
        return name, entry.build()
    return catalog.load_group_file(source)


def _shipped_table_path(name: str) -> str:
    path = os.path.join(_TABLES_DIR, name + ".json")
    if not os.path.exists(path):
        raise MalformedInputError(
            "no shipped character table named %r (have: %s)"
            % (name, ", ".join(TABLE_BACKED))
        )
    return path


def _load_table(source: str):
    path = source
    if source.startswith("catalog:"):
        path = _shipped_table_path(source[len("catalog:"):])
    try:
        return chartab.load_table(path)
    except OSError as exc:
        raise MalformedInputError("cannot read table file %s: %s" % (path, exc)) from exc


def _parse_pi(text: str):
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise MalformedInputError("--pi needs at least one prime")
    try:
        primes = [int(p) for p in parts]
    except ValueError:
        raise MalformedInputError("--pi must be comma-separated integers, got %r" % text)
    if len(set(primes)) != len(primes):
        raise MalformedInputError("--pi lists a prime twice: %r" % text)
    for p in primes:
        require_prime(p, "--pi entry")
    return primes


def _group_blurb(name: str, group) -> dict:
    return {"name": name, "order": group.order, "degree": group.degree}


def _table_blurb(table) -> dict:
    return {"name": table.name, "order": table.order, "irreducibles": len(table.rows)}


def _emit(args, inputs: dict, payload: dict, caps: int = None,
          exit_code: int = EXIT_OK) -> int:
    report = {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "hallmark", "version": __version__},
        "command": args.command,
        "inputs": inputs,
    }
    if caps is not None:
        report["caps"] = {"degree_cap": DEGREE_CAP, "elements": caps}
    report.update(payload)
    report["exit"] = exit_code
    if not args.no_timings:
        report["timings"] = {"total_s": round(time.monotonic() - args.started, 3)}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return exit_code


def _tally(checks) -> dict:
    out = {"checks": len(checks), "agree": 0, "disagree": 0,
           "skipped": 0, "undetermined": 0}
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


def _exit_for(tally: dict) -> int:
    if tally["disagree"]:
        return EXIT_DISAGREE
    if tally["undetermined"]:
        return EXIT_CAPACITY
    return EXIT_OK


def _cmd_catalog(args) -> int:
    groups = [
        {
            "name": e.name,
            "order": e.order,
            "degree": e.degree,
            "tags": sorted(e.tags),
            "summary": e.summary,
        }
        for e in sorted(catalog.entries(), key=lambda e: (e.order, e.name))
    ]
    return _emit(args, {}, {"groups": groups})


def _cmd_classes(args) -> int:
    name, group = _load_group(args.group, args.extended)
    caps = default_caps()
    table = class_table(group, caps)
    classes = [
        {
            "rep": ci.representative().cycle_string(),
            "size": ci.size,
            "element_order": ci.element_order,
            "centralizer_order": ci.centralizer_order,
        }
        for ci in table.classes
    ]
    payload = {
        "group": _group_blurb(name, group),
        "class_count": len(classes),
        "classes": classes,
    }
    return _emit(args, {"group": args.group}, payload, caps)


def _cmd_hall(args) -> int:
    name, group = _load_group(args.group, args.extended)
    caps = default_caps()
    pi = _parse_pi(args.pi)
    result = subgroups.hall_subgroup(group, pi, caps)
    payload = {
        "group": _group_blurb(name, group),
        "pi": sorted(pi),
        "status": result.status,
        "reason": result.reason,
    }
    if result.status == "inconclusive":
        payload["cap_name"] = result.cap_name
        payload["cap_value"] = result.cap_value
    if result.subgroup is not None:
        sub = result.subgroup
        payload["subgroup"] = criteria.sub_witness(sub)
        payload["subgroup"]["index"] = group.order // sub.order
        payload["nilpotent"] = subgroups.is_nilpotent(sub, caps)
        payload["abelian"] = subgroups.is_abelian(sub)
    else:
        payload["subgroup"] = None
    code = EXIT_CAPACITY if result.status == "inconclusive" else EXIT_OK
    inputs = {"group": args.group, "pi": sorted(pi)}
    return _emit(args, inputs, payload, caps, code)


def _block_hook(group_source: str, name: str, table_flag, group, caps: int):
    """Principal-block data for theorem C: an explicit --table wins, a
    catalog entry with a shipped table is wired automatically, and file
    groups without --table run with the block side undetermined.  A table
    whose order, or whose multiset of (class size, element order), is not
    the group's is refused; a group whose class table is over a cap has
    only its order compared."""
    if not table_flag and group_source.startswith("catalog:") and name in TABLE_BACKED:
        table_flag = "catalog:" + name
    if not table_flag:
        return None
    table = _load_table(table_flag)
    if table.order != group.order:
        raise MalformedInputError(
            "table %s has order %d, the group has order %d" % (table_flag, table.order, group.order)
        )
    try:
        classes = class_table(group, caps).classes
    except CapacityError:
        classes = None
    if classes is not None and _class_shape(table.classes) != _class_shape(classes):
        raise MalformedInputError(
            "table %s does not have the group's class sizes and element orders" % table_flag
        )
    return chartab.principal_block_clear(table)


def _class_shape(classes) -> list:
    return sorted((c.size, c.element_order) for c in classes)


def _cmd_check(args) -> int:
    if args.table and args.theorem != "C":
        raise MalformedInputError("--table applies to theorem C only, not %s" % args.theorem)
    name, group = _load_group(args.group, args.extended)
    caps = default_caps()
    theorem = args.theorem
    hook = _block_hook(args.group, name, args.table, group, caps) if theorem == "C" else None
    pi = _parse_pi(args.pi) if args.pi else None
    if pi is None:
        checks = criteria.check_group(group, theorem, caps, principal_block_clear=hook)
    else:
        checks = [criteria.check_one(group, theorem, pi, caps, principal_block_clear=hook)]
    tally = _tally(checks)
    payload = {
        "group": _group_blurb(name, group),
        "theorem": theorem,
        "checks": [c.to_json() for c in checks],
        "summary": tally,
    }
    inputs = {"group": args.group, "theorem": theorem, "pi": pi}
    if args.table:
        inputs["table"] = args.table
    return _emit(args, inputs, payload, caps, _exit_for(tally))


def _cmd_ct_analyze(args) -> int:
    table = _load_table(args.table)
    pi = _parse_pi(args.pi)
    if args.theorem == "B":
        verdict = chartab.table_criterion_b(table, pi)
    else:
        verdict = chartab.table_criterion_c(table, pi)
    payload = {
        "table": _table_blurb(table),
        "theorem": args.theorem,
        "pi": sorted(pi),
        "criterion": verdict.to_json(),
    }
    code = EXIT_CAPACITY if verdict.is_undetermined else EXIT_OK
    inputs = {"table": args.table, "pi": sorted(pi), "theorem": args.theorem}
    return _emit(args, inputs, payload, exit_code=code)


def _cmd_ct_blocks(args) -> int:
    table = _load_table(args.table)
    partition = chartab.block_partition(table, args.prime)
    payload = {
        "table": _table_blurb(table),
        "partition": partition.to_json(table),
    }
    inputs = {"table": args.table, "p": args.prime}
    return _emit(args, inputs, payload)


def _cmd_lie_verify(args) -> int:
    report = lieorders.verify_pair(args.family, args.n, args.q, args.r, args.s)
    code = EXIT_OK if report["consistent"] else EXIT_DISAGREE
    inputs = {"family": args.family, "n": args.n, "q": args.q,
              "r": args.r, "s": args.s}
    return _emit(args, inputs, {"pair": report}, exit_code=code)


def _cmd_lie_grid(args) -> int:
    manifest = lieorders.load_grid_manifest(args.manifest)
    report = lieorders.run_grid(manifest)
    code = EXIT_OK if report["ok"] else EXIT_DISAGREE
    inputs = {"manifest": args.manifest or "shipped"}
    return _emit(args, inputs, {"grid": report}, exit_code=code)


def _cmd_suite(args) -> int:
    caps = default_caps()
    entries = sorted(
        catalog.entries(include_stretch=args.extended),
        key=lambda e: (e.order, e.name),
    )
    groups_payload = []
    totals = {"checks": 0, "agree": 0, "disagree": 0, "skipped": 0, "undetermined": 0}
    for entry in entries:
        group_started = time.monotonic()
        group = entry.build()
        hook = _block_hook("catalog:" + entry.name, entry.name, None, group, caps)
        checks = []
        for theorem in criteria.THEOREMS:
            # theorem C runs only where its block side has a character table
            if theorem != "C" or hook is not None:
                checks.extend(
                    criteria.check_group(group, theorem, caps, principal_block_clear=hook)
                )
        tally = _tally(checks)
        for key in totals:
            totals[key] += tally[key]
        item = {
            "name": entry.name,
            "order": entry.order,
            "summary": tally,
            "disagreements": [c.to_json() for c in checks if c.agree is False],
        }
        if not args.no_timings:
            item["elapsed_s"] = round(time.monotonic() - group_started, 3)
        groups_payload.append(item)
    grid_started = time.monotonic()
    grid = lieorders.run_grid(lieorders.load_grid_manifest())
    if not args.no_timings:
        grid["elapsed_s"] = round(time.monotonic() - grid_started, 3)
    payload = {
        "groups": groups_payload,
        "grid": grid,
        "summary": {**totals, "groups": len(entries), "grid_ok": grid["ok"]},
    }
    code = _exit_for(totals) if grid["ok"] else EXIT_DISAGREE
    inputs = {"extended": bool(args.extended)}
    return _emit(args, inputs, payload, caps, code)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-timings", action="store_true",
        help="omit wall-clock sections so reruns are byte-identical",
    )
    common.add_argument(
        "--extended", action="store_true",
        help="unlock the sporadic stretch entry (J1); the element cap is "
        "raised only through HALLMARK_CAP_ELEMENTS",
    )

    parser = argparse.ArgumentParser(
        prog="hallmark",
        description="Class-size criteria for nilpotent and abelian Hall "
        "subgroups, checked against brute-force group oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", parents=[common], help="list the shipped groups")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("classes", parents=[common], help="conjugacy class table")
    p.add_argument("group", help="catalog:NAME or a group JSON file")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("hall", parents=[common], help="search for a Hall subgroup")
    p.add_argument("group", help="catalog:NAME or a group JSON file")
    p.add_argument("--pi", required=True, help="comma-separated primes, e.g. 3,5")
    p.set_defaults(func=_cmd_hall)

    p = sub.add_parser("check", parents=[common],
                       help="criterion against oracle for one statement")
    p.add_argument("--theorem", required=True, choices=list(criteria.THEOREMS))
    p.add_argument("--group", required=True, help="catalog:NAME or a group JSON file")
    p.add_argument("--pi", help="primes to test; default tries all relevant sets")
    p.add_argument("--table", help="character table JSON for the theorem C block side")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ct-analyze", parents=[common],
                       help="run a table-side criterion")
    p.add_argument("table", help="table JSON file or catalog:NAME")
    p.add_argument("--pi", required=True, help="comma-separated primes")
    p.add_argument("--theorem", choices=["B", "C"], default="C")
    p.set_defaults(func=_cmd_ct_analyze)

    p = sub.add_parser("ct-blocks", parents=[common],
                       help="partition irreducibles into p-blocks")
    p.add_argument("table", help="table JSON file or catalog:NAME")
    p.add_argument("-p", "--prime", required=True, type=int)
    p.set_defaults(func=_cmd_ct_blocks)

    p = sub.add_parser("lie-verify", parents=[common],
                       help="class-size divisibility for one classical-group point")
    p.add_argument("--family", required=True, choices=list(lieorders.FAMILIES))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--s", required=True, type=int)
    p.set_defaults(func=_cmd_lie_verify)

    p = sub.add_parser("lie-grid", parents=[common],
                       help="replay the divisibility grid from a manifest")
    p.add_argument("manifest", nargs="?", default=None,
                   help="manifest JSON; the shipped grid when omitted")
    p.set_defaults(func=_cmd_lie_grid)

    p = sub.add_parser("suite", parents=[common],
                       help="full criterion-versus-oracle battery over the catalog")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.started = time.monotonic()
    try:
        return args.func(args)
    except CapacityError as exc:
        print("capacity: %s" % exc, file=sys.stderr)
        return EXIT_CAPACITY
    except (MalformedInputError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
