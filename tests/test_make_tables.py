"""tools/make_tables.py against the character tables shipped in the package.

Each document the tool builds, rendered as the tool writes it, must equal
the shipped file byte for byte, so the tool and the data it claims to
make cannot drift apart.
"""

import importlib.util
from pathlib import Path

import hallmark

ROOT = Path(__file__).resolve().parent.parent
TABLES_DIR = Path(hallmark.__file__).parent / "data" / "tables"


def _tool():
    spec = importlib.util.spec_from_file_location("make_tables", ROOT / "tools" / "make_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builds_every_shipped_table_byte_for_byte():
    built = {name: text for name, _, text in _tool().documents()}
    assert sorted(built) == sorted(path.stem for path in TABLES_DIR.glob("*.json"))
    for name, text in built.items():
        assert text.encode("utf-8") == (TABLES_DIR / (name + ".json")).read_bytes(), name
