"""Kernel selection.

The compiled extension is used whenever it imports; otherwise the
pure-Python kernel is.  Both backends expose the same functions and give
identical results after `unpack`.  Each keeps its own row encoding (image
tuples in the pure kernel, two big-endian bytes per point in the compiled
one); code outside the kernels only hashes rows and compares their
order, which is the lexicographic order of the image tuples in both.
"""

from __future__ import annotations

from typing import Union

try:
    from . import _kernel_cy as kernel
except ImportError:
    from . import _kernel_py as kernel  # type: ignore[no-redef]

BACKEND: str = kernel.BACKEND

Row = Union[tuple, bytes]
"""One permutation in a backend's own encoding."""
