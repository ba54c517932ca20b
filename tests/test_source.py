"""Rules about the package source itself."""

import ast
from pathlib import Path

import gaussmatch

PACKAGE = Path(gaussmatch.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so no check may depend on one.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
