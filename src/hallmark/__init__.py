"""Exact criteria for nilpotent and abelian Hall subgroups.

Class-size and character-table conditions on one side, brute-force
permutation-group oracles on the other; the package exists to run both
and compare.  Everything is exact integer arithmetic, no floats.

`import hallmark` loads no submodule.  Each public name is imported from
its submodule when first read (PEP 562), a submodule read as an
attribute (`hallmark.catalog`) is imported then, and `__version__` asks
the installed distribution only when first read.  So a caller pays only
for the layers it runs: the table criteria in `chartab` load no
permutation group code.
"""

from importlib import import_module

# submodule -> the public names it defines
_SOURCES = {
    "catalog": ("build", "entries", "load_group_file"),
    "chartab": (
        "block_partition", "load_table", "parse_table", "table_criterion_b", "table_criterion_c",
    ),
    "classdata": ("ClassTable", "class_table"),
    "criteria": ("check_group", "check_theorem_a", "check_theorem_b", "check_theorem_c"),
    "errors": (
        "CapacityError", "HallmarkError", "MalformedInputError", "PreconditionError", "TableError",
    ),
    "lieorders": ("run_grid", "verify_pair"),
    "perms": ("Permutation", "PermutationGroup"),
    "subgroups": ("hall_subgroup", "nilpotent_hall", "sylow"),
}
_EXPORTS = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_EXPORTS, "__version__"])


def _version() -> str:
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("hallmark")
    except PackageNotFoundError:
        # running from a source tree without installation
        return "0.0.0"


def __getattr__(name: str):
    if name == "__version__":
        value = _version()
    elif name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    else:
        value = _submodule(name)
    globals()[name] = value
    return value


def _submodule(name: str):
    """The submodule called name, imported; AttributeError if there is
    none.  A private or dunder name is never imported here: tools probe
    dunder names, and the import system finds `_kernel_cy` itself."""
    if not name.startswith("_"):
        try:
            return import_module("." + name, __name__)
        except ModuleNotFoundError as exc:
            if exc.name != "%s.%s" % (__name__, name):
                raise
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
