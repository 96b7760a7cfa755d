"""Spans around hallmark's public layer functions, from outside src/.

Tracer.install() replaces each function named in LAYERS by a wrapper on
the object that owns it (module attribute, class method, or class
__init__ for a constructor), so calls through the module or the class
are seen.  Each call records a span (name, start, end, parent); spans
stay in memory and write_spans() writes them out at the end.  A layer's
self time is the time of its spans minus the time of their child spans.

A `from X import name` binding made before install() keeps pointing at
the original function.  install() rebinds the re-exports of the
`hallmark` package, which only outside callers use, and reports every
other binding of that kind as untraced rather than dropping it silently.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# module -> public functions; a class name means its constructor.
LAYERS = {
    "kernels": ("close_group", "conjugacy_partition", "centralizer_filter", "normalizer_filter"),
    "perms": ("PermutationGroup", "normal_closure", "element_rows", "coset_action_quotient"),
    "classdata": ("ClassTable",),
    "subgroups": (
        "sylow", "all_sylow", "normalizer", "centralizer", "nilpotent_hall", "hall_subgroup",
        "is_p_solvable", "op_prime_core", "minimal_normal_subgroup",
        "exists_commuting_sylow_pair", "exists_normalizing_sylow_pair",
    ),
    "criteria": (
        "check_theorem_a", "check_theorem_b", "check_theorem_c", "check_sylow_normalization",
        "check_core_characterization", "check_odd_sizes_solvability",
    ),
    "catalog": ("parse_group_json",),
    "chartab": ("parse_table", "block_partition", "table_criterion_b", "table_criterion_c"),
    "modp": ("CycReducer",),
    "lieorders": ("run_grid", "verify_pair"),
}

# perms methods live on PermutationGroup rather than on the module.
_PERMS_METHODS = ("normal_closure", "element_rows", "coset_action_quotient")


def layer_names() -> list:
    return ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]


def _group_key(group) -> tuple:
    group = getattr(group, "group", group)  # a Subgroup tabulates its group
    return (group.degree, tuple(sorted(g.images for g in group.generators)))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []  # [span index, time covered by child spans]
        self.calls = {}
        self.self_s = {}
        self.untraced = []
        self.close_rows = 0
        self.partition_rows = 0
        self.rows_hits = 0
        self.table_keys = set()
        self.reducer_keys = set()
        self._undo = []

    # -- span bookkeeping ------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [index, 0.0]
            stack.append(frame)
            start = spans[index][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = end
                took = end - start
                calls[name] += 1
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # -- counts taken at the layer boundaries ----------------------------

    def _count_close(self, args, rows):
        if rows is not None:
            self.close_rows += len(rows)

    def _count_partition(self, args):
        self.partition_rows += len(args[0])

    def _count_rows_hit(self, args):
        if getattr(args[0], "_rows", None) is not None:
            self.rows_hits += 1

    def _count_table(self, args, _):
        self.table_keys.add(_group_key(args[1]))

    def _count_reducer(self, args, _):
        self.reducer_keys.add((args[1], args[2]))

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        from hallmark import catalog, chartab, classdata, criteria, kernels, lieorders, modp
        from hallmark import perms, subgroups

        modules = {
            "kernels": kernels.kernel, "perms": perms, "classdata": classdata,
            "subgroups": subgroups, "criteria": criteria, "catalog": catalog,
            "chartab": chartab, "modp": modp, "lieorders": lieorders,
        }
        hooks = {
            "kernels.close_group": (None, self._count_close),
            "kernels.conjugacy_partition": (self._count_partition, None),
            "perms.element_rows": (self._count_rows_hit, None),
            "classdata.ClassTable": (None, self._count_table),
            "modp.CycReducer": (None, self._count_reducer),
        }
        originals = {}
        for mod_name, fns in LAYERS.items():
            module = modules[mod_name]
            for fn_name in fns:
                name = "%s.%s" % (mod_name, fn_name)
                before, after = hooks.get(name, (None, None))
                owner, attr = module, fn_name
                if mod_name == "perms" and fn_name in _PERMS_METHODS:
                    owner = perms.PermutationGroup
                target = getattr(owner, attr, None)
                if target is None:
                    self.untraced.append("%s: not found" % name)
                    continue
                if isinstance(target, type):
                    owner, attr = target, "__init__"
                    target = target.__dict__["__init__"]
                wrapper = self._wrap(name, target, before, after)
                originals[id(target)] = (name, target, wrapper)
                self._patch(owner, attr, wrapper)
        self._find_bypasses(originals)

    def _find_bypasses(self, originals) -> None:
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "hallmark" or mod_name.startswith("hallmark.")):
                continue
            for attr, value in list(vars(module).items()):
                name, original, wrapper = originals.get(id(value), (None, None, None))
                if original is not value:
                    continue
                if mod_name == "hallmark":
                    self._patch(module, attr, wrapper)
                else:
                    self.untraced.append("%s: bound as %s.%s" % (name, mod_name, attr))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in layer_names():
            out[name + ".calls"] = (self.calls.get(name, 0), "count")
            out[name + ".self_s"] = (self.self_s.get(name, 0.0), "s")
        out["kernels.close_group.rows"] = (self.close_rows, "count")
        out["kernels.conjugacy_partition.rows"] = (self.partition_rows, "count")
        rows_calls = self.calls.get("perms.element_rows", 0)
        out["perms.element_rows.hit_ratio"] = (
            self.rows_hits / rows_calls if rows_calls else 0.0, "ratio")
        tables = self.calls.get("classdata.ClassTable", 0)
        out["classdata.ClassTable.per_group"] = (
            tables / len(self.table_keys) if self.table_keys else 0.0, "ratio")
        reducers = self.calls.get("modp.CycReducer", 0)
        out["modp.CycReducer.per_key"] = (
            reducers / len(self.reducer_keys) if self.reducer_keys else 0.0, "ratio")
        out["trace.untraced_layers"] = (len(self.untraced), "count")
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
