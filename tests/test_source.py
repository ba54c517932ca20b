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


def test_each_argument_check_has_one_home():
    # The vector, dimension and conversion checks are the helpers of
    # linalg.py; a hand-written copy elsewhere would drift from them.
    fragments = ("nonempty finite vector", "has dimension", "not an array of numbers")
    homes = {fragment: [] for fragment in fragments}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        f_string_parts = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                          for part in node.values}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                               for part in node.values)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in f_string_parts):
                text = node.value
            else:
                continue
            for fragment in fragments:
                if fragment in text:
                    homes[fragment].append(f"{path.name}:{node.lineno}")
    assert {fragment: [place.split(":")[0] for place in places]
            for fragment, places in homes.items()} == dict.fromkeys(fragments, ["linalg.py"]), homes


def test_no_unreferenced_private_names():
    # A module-level _name that nothing loads is dead code.
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded) == []


def test_all_lists_every_imported_name():
    # a stale entry, such as a deleted class, breaks "from gaussmatch import *"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(gaussmatch.__all__) == sorted(imported)
    namespace = {}
    exec("from gaussmatch import *", namespace)
    assert set(gaussmatch.__all__) <= set(namespace)


def test_no_private_names_cross_modules():
    # A module's _name is its own business; a name that other modules need is
    # public, so that renaming a private helper never breaks another module.
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "gaussmatch")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
