"""Count the code lines of each `src/scenecls` module and in total.

A code line is one that is not blank, not a `#` comment and not inside a
module, class or function docstring. This is the size that ROADMAP's
"smaller `src/`" aim reports.

Usage: python tools/code_lines.py [package directory]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scenecls"


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), start=1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
