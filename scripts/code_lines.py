#!/usr/bin/env python3
"""Count the code lines of Python modules.

    python3 scripts/code_lines.py src/gaussmatch
    python3 scripts/code_lines.py src/gaussmatch/oracle.py src/gaussmatch/families.py

A line counts when it holds a token other than a comment, a newline or an
indent, and is not part of a docstring (the string that opens a module,
class or function).  A string that spans lines counts on each of them.
Each path is a module or a directory, whose ``*.py`` files are counted,
subdirectories included.  Prints one line per module, its path and its
count, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python ``source``, by the rule above."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def _modules(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python modules or directories of them")
    args = parser.parse_args(argv)
    total = 0
    for module in _modules(args.paths):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
