"""Line counts of blockdet's sources: all lines, and code lines.

A code line holds at least one token that is not a comment and is not part
of a docstring (a string that is the first statement of a module, class or
function); blank, comment-only and docstring lines are not code.  A string
that spans lines and is not a docstring counts on every line it spans.

    python tools/loc.py

Prints one row per file under src/, then the total: lines, code lines, path.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """All lines and code lines of one Python source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> int:
    total_lines = total_code = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d}  {path.relative_to(ROOT)}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
