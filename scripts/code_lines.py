#!/usr/bin/env python3
"""Code lines of Python modules: the non-blank lines that are neither
comments nor docstrings.

A line counts when some token other than a comment starts, ends or runs
across it (a multi-line string that is not a docstring counts every one of
its lines). A docstring is the string that opens a module, class or
function body; its lines do not count.

Usage: python scripts/code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively. Prints
one ``lines  module`` row per module, sorted by path, then the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring of a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths):
    for path in map(pathlib.Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 1
    total = 0
    for path in modules(paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
