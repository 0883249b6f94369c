"""Count code lines per module: lines that hold a token of code, without
comments, blank lines and docstrings.

    python bench/loc.py            # src/qsnorm
    python bench/loc.py src/qsnorm bench

Each argument is a Python file or a directory, whose ``*.py`` files are
counted (not recursively). A line counts when ``tokenize`` finds a token on
it other than a comment or a line break, and it is not part of the
docstring of a module, class or function. The script prints one line per
file and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings in ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "qsnorm"
    parser.add_argument("paths", nargs="*", type=Path, default=[default])
    args = parser.parse_args(argv)
    files = [f for path in args.paths for f in (sorted(path.glob("*.py")) if path.is_dir() else [path])]
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
