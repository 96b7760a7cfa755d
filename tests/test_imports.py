"""What importing hallmark loads, checked in fresh interpreters.

`import hallmark` loads no submodule and no importlib.metadata; each
public name is imported from its submodule on first read.  The table
layer (chartab) loads none of the permutation-group modules.  Each check
runs in a child process, since this process has imported everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# every public name, with the submodule that defined it before the
# package loaded its names lazily
PUBLIC = {
    "build": "catalog", "entries": "catalog", "load_group_file": "catalog",
    "block_partition": "chartab", "load_table": "chartab", "parse_table": "chartab",
    "table_criterion_b": "chartab", "table_criterion_c": "chartab",
    "ClassTable": "classdata", "class_table": "classdata",
    "check_group": "criteria", "check_theorem_a": "criteria", "check_theorem_b": "criteria",
    "check_theorem_c": "criteria",
    "CapacityError": "errors", "HallmarkError": "errors", "MalformedInputError": "errors",
    "PreconditionError": "errors", "TableError": "errors",
    "run_grid": "lieorders", "verify_pair": "lieorders",
    "Permutation": "perms", "PermutationGroup": "perms",
    "hall_subgroup": "subgroups", "nilpotent_hall": "subgroups", "sylow": "subgroups",
}


def child(code: str):
    """The JSON value a fresh interpreter prints after running code with
    this checkout's src first on its path."""
    prelude = "import json, sys\nsys.path.insert(0, %r)\n" % os.path.abspath(SRC)
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_after(statement: str) -> set:
    return set(child(
        statement + "\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.startswith('hallmark.') or m == 'importlib.metadata']))\n"
    ))


def test_import_hallmark_loads_no_submodule_and_no_metadata():
    assert loaded_after("import hallmark") == set()


def test_chartab_loads_no_group_layer():
    loaded = loaded_after("import hallmark.chartab")
    group_layer = {"hallmark." + m for m in ("perms", "classdata", "subgroups", "criteria",
                                             "catalog", "kernels")}
    assert "hallmark.chartab" in loaded
    assert not loaded & group_layer


def test_public_names_are_their_submodules_objects():
    got = child(
        "import importlib, hallmark\n"
        "public = %r\n"
        "print(json.dumps({name: getattr(hallmark, name)\n"
        "                  is getattr(importlib.import_module('hallmark.' + module), name)\n"
        "                  for name, module in public.items()}))\n" % PUBLIC
    )
    assert got == {name: True for name in PUBLIC}


def test_all_and_version_unchanged():
    all_names, version, expected = child(
        "import hallmark\n"
        "from importlib.metadata import PackageNotFoundError, version\n"
        "try:\n"
        "    expected = version('hallmark')\n"
        "except PackageNotFoundError:\n"
        "    expected = '0.0.0'\n"
        "print(json.dumps([hallmark.__all__, hallmark.__version__, expected]))\n"
    )
    assert all_names == sorted([*PUBLIC, "__version__"])
    assert version == expected


def test_submodule_attribute_and_unknown_name():
    backend, unknown = child(
        "import hallmark\n"
        "backend = hallmark.kernels.BACKEND\n"
        "try:\n"
        "    hallmark.no_such_module\n"
        "    unknown = 'found'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([backend, unknown]))\n"
    )
    assert backend in ("pure", "compiled")
    assert unknown == "AttributeError"


@pytest.mark.parametrize("name", ["chartab", "lieorders", "modp"])
def test_submodule_all_names_resolve(name):
    # a deleted function must leave no stale name in its module's __all__
    module = importlib.import_module("hallmark." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
