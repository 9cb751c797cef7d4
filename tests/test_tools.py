"""``tools/loc.py`` gives the line counts in ROADMAP.md's size ledger; its
split must account for every line of a file exactly once."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SYNTHETIC = '''"""A module docstring.

Its second paragraph."""

import os  # a code line that ends in a comment

# a comment-only line
def sep():
    """A one-line docstring."""
    return os.sep
'''


def test_loc_splits_every_line_into_one_kind(tmp_path):
    spec = importlib.util.spec_from_file_location("loc_tool", ROOT / "tools" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    for path in sorted((ROOT / "src" / "msvgd").glob("*.py")):
        counts = loc.count(path)
        assert sum(counts[kind] for kind in loc.KINDS) == counts["lines"], path.name
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    assert loc.count(path) == {"code": 3, "docstring": 4, "comment": 1, "blank": 2, "lines": 10}
