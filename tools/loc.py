"""Line counts of a Python package: ``wc -l`` and an ``ast`` split.

    python3 tools/loc.py SRC_DIR

For each ``*.py`` file directly under SRC_DIR (for example ``src/msvgd``)
and for their total, prints the ``wc -l`` count and its split into four
kinds of line:

- docstring: a line of the string literal that opens a module, class or
  function body, blank lines inside it included;
- blank: any other line holding only whitespace;
- comment: any other line whose first non-blank character is ``#``;
- code: every other line.

The four kinds sum to the ``wc -l`` count of a file that ends in a newline.
A code line that ends in a comment counts as code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """``wc -l`` of ``path`` as ``lines`` plus its split by ``KINDS``."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    counts["lines"] = text.count("\n")
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = [(path.name, count(path)) for path in sorted(Path(args[0]).glob("*.py"))]
    rows.append(("total", {key: sum(c[key] for _, c in rows) for key in ("lines",) + KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  {'wc -l':>6}" + "".join(f"  {kind:>9}" for kind in KINDS))
    for name, c in rows:
        print(f"{name:<{width}}  {c['lines']:>6}" + "".join(f"  {c[kind]:>9}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
