"""Rules on the library's source that no behavioural test can see."""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cycrew"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish; the library raises instead
    modules = sorted(SRC.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert modules
    assert found == []


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in read]


def test_library_imports_only_names_it_uses():
    # __init__.py imports to re-export; every other module imports to use
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    found = [
        f"{path.name}:{line} {name}"
        for path in modules
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert modules
    assert found == []


def _test_trees():
    """The parsed modules under tests/, by file name."""
    tests = Path(__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(tests.glob("*.py"))}


def _names_read(trees):
    return {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_tests_import_only_names_they_use():
    # the same rule under tests/: a name a test module imports is read
    trees = _test_trees()
    found = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for line, name in _unused_imports(tree)
    ]
    assert trees
    assert found == []


def test_every_reference_copy_has_a_caller():
    # a module-level ref_* definition under tests/ is a reference kept for
    # a differential test; once no test reads it, it is retired
    trees = _test_trees().values()
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("ref_")
    }
    assert defined
    assert sorted(defined - _names_read(trees)) == []


def test_every_conftest_function_has_a_reader():
    # the oracles and builders that conftest.py shares are read by some
    # test; pytest finds hooks and fixtures by name, so they are exempt
    trees = _test_trees()
    defined = {
        node.name
        for node in trees["conftest.py"].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("pytest_")
        and not any(ast.unparse(d).startswith("pytest.fixture") for d in node.decorator_list)
    }
    assert defined
    assert sorted(defined - _names_read(trees.values())) == []


def test_conftest_imports_no_private_library_name():
    # the oracles that conftest.py shares check the library, so they read
    # only its public names and share none of its internals
    tree = _test_trees()["conftest.py"]
    found = [
        f"conftest.py:{node.lineno} {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cycrew"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _reads(node):
    """The names node reads: names loaded, attributes, and strings, which
    the benchmark's tracer passes to getattr."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_every_private_library_name_has_a_reader():
    # code the system never reads is deleted: a top-level _name of the
    # library is read by the library or the benchmark, outside its own
    # definition; tests do not count
    library = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((SRC.parent.parent / "bench").glob("*.py"))]
    read = sum((_reads(tree) for tree in library + bench), collections.Counter())
    defined = collections.defaultdict(list)  # name -> its defining statements
    for tree in library:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name].append(node)
    assert defined
    unread = [
        name
        for name, nodes in defined.items()
        if read[name] <= sum(_reads(node)[name] for node in nodes)
    ]
    assert sorted(unread) == []
