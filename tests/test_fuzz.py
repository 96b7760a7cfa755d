"""Mutated input files are parsed or refused with a package error.

Each test takes one valid document (a group file, a shipped hallmark-ct/1
character table, the shipped grid manifest), mutates it, writes it to a
file and hands it to the loader the CLI uses.  A mutation either swaps
one node of the parsed document for another JSON value, deletes one node,
or edits one byte of the serialized text.  The loader must return, or
raise MalformedInputError (every table error is one) or CapacityError:
anything else escaping would surface as a traceback instead of exit 2 or
3.  The runs are derandomized, so a run is reproducible.
"""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallmark import catalog, chartab, lieorders
from hallmark.errors import CapacityError, MalformedInputError

_DATA = os.path.join(os.path.dirname(catalog.__file__), "data")

# A5 on 5 points, images 1-based as in the group file format
GROUP_DOC = {"name": "a5", "degree": 5, "generators": [[2, 3, 1, 4, 5], [1, 3, 4, 5, 2]]}

with open(os.path.join(_DATA, "tables", "a5.json")) as _fh:
    TABLE_DOC = json.load(_fh)

with open(os.path.join(_DATA, "lie_grid.json")) as _fh:
    GRID_DOC = json.load(_fh)

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=70),
    st.sampled_from([2**31, 2**64 + 1, -(2**64), 10**30]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet='a1-:"{', max_size=4),
)
_values = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["", "n", "name", "terms"]), kids, max_size=3),
    max_leaves=6,
)
# bytes that keep a JSON text near-valid, and one that is not UTF-8
_edit_bytes = st.sampled_from(list(b'{}[],:"-0123456789e. ') + [0xFF])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def _mutants(draw, doc):
    """The bytes of one mutation of doc."""
    kind = draw(st.sampled_from(["replace", "delete", "byte"]))
    if kind == "byte":
        text = bytearray(json.dumps(doc).encode())
        pos = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["set", "insert", "drop"]))
        if edit == "drop":
            del text[pos]
        else:
            byte = draw(_edit_bytes)
            if edit == "set":
                text[pos] = byte
            else:
                text.insert(pos, byte)
        return bytes(text)
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = draw(_values)
    else:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_values)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _loads_or_refuses(loader, path, blob):
    path.write_bytes(blob)
    try:
        loader(str(path))
    except (MalformedInputError, CapacityError):
        pass


_fuzz = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@_fuzz
@given(blob=_mutants(GROUP_DOC))
def test_mutated_group_files(scratch, blob):
    _loads_or_refuses(catalog.load_group_file, scratch / "group.json", blob)


@_fuzz
@given(blob=_mutants(TABLE_DOC))
def test_mutated_character_tables(scratch, blob):
    _loads_or_refuses(chartab.load_table, scratch / "table.json", blob)


@_fuzz
@given(blob=_mutants(GRID_DOC))
def test_mutated_grid_manifests(scratch, blob):
    _loads_or_refuses(lieorders.load_grid_manifest, scratch / "grid.json", blob)
