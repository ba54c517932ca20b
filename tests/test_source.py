"""Rules about the package source itself."""

import ast
import inspect
from pathlib import Path

import gaussmatch
from gaussmatch import ingest

PACKAGE = Path(gaussmatch.__file__).parent


def _places(matches):
    """``module.function`` of every node of the package source that ``matches``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if matches(child):
                found.append(owner)
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    return found


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


def test_modules_parse_as_python_3_10():
    # pyproject.toml promises Python 3.10.  This checks the grammar only, such
    # as an except* clause; a library call that 3.10 lacks still passes.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


def test_files_are_opened_in_one_place():
    # ingest.output_file and ingest._read_chunks decide how a file is opened,
    # decoded and removed after a failed write; another open() would skip them.
    found = _places(lambda node: isinstance(node, ast.Call) and "open" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert sorted(found) == ["ingest._read_chunks", "ingest.output_file"]


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


def test_oracle_parameters_have_one_decoder():
    # oracle._unpack alone knows where the mean ends, how L is assembled,
    # where an isotropic log-scale is cut and which parameters give an exact
    # ln det; a second copy would drift.
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and child.value == 709.0:
                found.append(f"{owner} 709.0")
            elif isinstance(child, ast.Call) and "tril_indices" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(f"{owner} tril_indices")
            elif isinstance(child, ast.Subscript) and isinstance(child.slice, ast.Slice) and (
                getattr(child.value, "id", None) == "params"
            ):
                found.append(f"{owner} params[{ast.unparse(child.slice)}]")
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    assert sorted(found) == [
        "oracle tril_indices",
        "oracle._unpack 709.0", "oracle._unpack params[:n]", "oracle._unpack params[n:]",
    ], found


def test_line_ends_have_one_home():
    # ingest._text_pieces alone cuts a path's text at CR as well as LF and
    # turns its CRLF and CR into LF; ingest._read_chunks only reads.  The raw
    # pattern _PPM_TOKEN holds a backslash and an "r", not a CR.
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, bytes) and (
                b"\r" in child.value
            ):
                found.append(f"{owner}:{child.lineno}")
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
    assert found and {place.split(":")[0] for place in found} == {"ingest._text_pieces"}, found
    assert list(inspect.signature(ingest._read_chunks).parameters) == ["source", "size"]


def test_ppm_format_rules_have_one_home():
    # The sample type and the maxval bound are each written once, for the
    # reader, the writer and the raster check; the header is read by one
    # token pattern, not a nested scanner.
    found = {">u2": [], 65535: []}
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (str, int) and node.value in found:
                found[node.value].append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "read_ppm":
                nested += [f"{path.name}:{child.lineno}" for child in ast.walk(node) if child is not node
                           and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert {key: len(places) for key, places in found.items()} == {">u2": 1, 65535: 1}, found
    assert nested == []


def test_overflow_is_refused_in_one_place():
    # linalg.within_float_range alone silences numpy's overflow warnings and
    # refuses a result beyond the float range; the oracle's objective maps an
    # overflow to inf by design, and the sampler's uint64 words wrap around.
    found = _places(lambda node: isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "errstate")
    assert sorted({place for place in found if not place.startswith("oracle.")}) == [
        "ingest._stream_words", "linalg.within_float_range",
    ], found


def test_positivity_floor_is_written_once():
    # linalg.eigenvalue_floor alone turns a trace into the floor; the oracle's
    # AM-GM gate folds the scale into a constant.
    found = _places(lambda node: isinstance(node, ast.Name)
                    and node.id == "EIGENVALUE_FLOOR_SCALE" and isinstance(node.ctx, ast.Load))
    assert sorted(found) == [
        "linalg.eigenvalue_floor", "linalg.require_nonnegative_definite", "oracle._make_objective",
    ], found
