"""Count the code lines of each Python file under src/jacograph.

Usage: python3 tools/code_lines.py [DIR]   (DIR defaults to src/jacograph)

A code line is a physical line that holds part of a token other than a
comment, so blank lines and comment lines are left out, and so are the lines
of docstrings: the string that opens a module, class or function body.
Prints one "count path" line per file, sorted by path, then the total.
Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "jacograph"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(root.parent).as_posix()}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
