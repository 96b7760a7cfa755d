import importlib.util
import os
import shutil
import subprocess
import sysconfig

import pytest

SHIPPED_C = os.path.join(
    os.path.dirname(__file__), os.pardir, "src", "hallmark", "_kernel_cy.c"
)


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run the long J1-scale checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="needs --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel, for the backend parity tests.

    An installed extension is used when it imports.  Otherwise the shipped
    `_kernel_cy.c` is compiled with `gcc -O2 -shared -fPIC` into a temp
    dir and loaded from there as a module of its own, outside the hallmark
    package and sys.modules: `hallmark.kernels` still imports the kernel
    it would have imported without this fixture, and nothing is written
    under src/.  Skips when there is no compiler or no Python.h.
    """
    try:
        from hallmark import _kernel_cy

        return _kernel_cy
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc on PATH to build the shipped _kernel_cy.c")
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h under %s to build the shipped _kernel_cy.c" % include)
    target = tmp_path_factory.mktemp("kernel_cy") / (
        "_kernel_cy" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    built = subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", "-I", include, SHIPPED_C, "-o", str(target)],
        capture_output=True,
        text=True,
    )
    if built.returncode:
        pytest.fail("gcc could not build the shipped _kernel_cy.c:\n" + built.stderr)
    spec = importlib.util.spec_from_file_location("_kernel_cy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
