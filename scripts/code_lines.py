"""Count the code lines of each module of a Python package.

A code line holds at least one token that is not a comment and is not
part of a docstring (the string that opens a module, class or function).
Blank lines, comment-only lines and docstring lines do not count.  The
table has one row per module, then the total.

Usage: python3 scripts/code_lines.py [PACKAGE_DIR]   (default src/lambdadet)
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lambdadet"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    args = parser.parse_args()
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print("%-20s %5d" % (path.name, count))
    print("%-20s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
