"""Print the code lines of each module of src/normlds and their total.

A code line is one that is not blank, not a comment alone, and not inside the
docstring of a module, class or function; the docstrings are found with ast.
Run it from anywhere: python3 tests/code_lines.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "normlds"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20} {count:6}")
    print(f"{'total':20} {total:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
