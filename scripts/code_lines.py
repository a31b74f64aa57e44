#!/usr/bin/env python3
"""Code lines per Python module, without blanks, comments and docstrings.

A line counts when a token other than a comment starts on it, or when a
token that spans several lines (a long string) covers it.  Docstrings do
not count: the string that is the first statement of a module, class or
function, found with ``ast``.  Lines joined by a backslash count each.

Usage: python3 scripts/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them; the default
is the ``src/`` directory of the checkout that holds the script.  Prints
``<lines> <module>`` per module, sorted by path, then ``<lines> total``.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    # Tokens that carry no code: layout, comments, and the stream's ends.
    skipped = {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, help="files or directories")
    args = parser.parse_args(argv)
    paths = args.paths or [Path(__file__).resolve().parents[1] / "src"]
    total = 0
    for path in modules(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
