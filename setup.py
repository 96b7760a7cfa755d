import os

from setuptools import Extension, setup

# The compiled kernel is an optimisation, never a requirement: when Cython is
# unavailable the package installs without it and falls back to the
# pure-Python kernels at import time.
ext_modules = []
pyx = os.path.join("src", "hallmark", "_kernel_cy.pyx")
if os.path.exists(pyx):
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [Extension("hallmark._kernel_cy", [pyx])], language_level=3
        )
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
