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


def _unread_test_helpers(keep):
    """The module-level functions and classes under tests/ that keep(module,
    name) selects and no module there reads, as sorted (module, name);
    asserts that keep selects some.  pytest finds tests, Test* classes,
    hooks and fixtures by name, so they are never selected."""
    trees = _test_trees()
    helpers = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith(("test_", "Test", "pytest_"))
        and not any(ast.unparse(d).startswith("pytest.fixture") for d in node.decorator_list)
        and keep(module, node.name)
    ]
    assert helpers
    read = _names_read(trees.values())
    return sorted(key for key in helpers if key[1] not in read)


def test_every_reference_copy_has_a_caller():
    # a module-level ref_* definition under tests/ is a reference kept for
    # a differential test; once no test reads it, it is retired
    assert _unread_test_helpers(lambda module, name: name.startswith("ref_")) == []


def test_every_conftest_function_has_a_reader():
    # the other oracles and builders that conftest.py shares are read by
    # some test
    assert _unread_test_helpers(
        lambda module, name: module == "conftest.py" and not name.startswith("ref_")
    ) == []


def test_every_test_helper_has_a_reader():
    # and so is every other helper under tests/ (a builder, a corpus, a
    # filter over a reference scan)
    assert _unread_test_helpers(
        lambda module, name: module != "conftest.py" and not name.startswith("ref_")
    ) == []


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


def _reads(node, bare=True):
    """The names node reads: names loaded (unless bare is false),
    attributes, and strings, which the benchmark's tracer passes to
    getattr."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if bare and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _library_and_bench():
    """The parsed modules of src/cycrew, by file name, and of bench/."""
    library = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((SRC.parent.parent / "bench").glob("*.py"))]
    return library, bench


def _unread(defined, read, bare=True):
    """The names of defined (name -> its defining nodes) that read counts no
    more often than their own definitions read them, bare names counted
    unless bare is false."""
    assert defined
    return sorted(
        name for name, nodes in defined.items() if read[name] <= sum(_reads(node, bare)[name] for node in nodes)
    )


def test_every_private_library_name_has_a_reader():
    # code the system never reads is deleted: a top-level _name of the
    # library is read by the library or the benchmark, outside its own
    # definition; tests do not count
    library, bench = _library_and_bench()
    read = sum((_reads(tree) for tree in [*library.values(), *bench]), collections.Counter())
    defined = collections.defaultdict(list)  # name -> its defining statements
    for tree in library.values():
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
    assert _unread(defined, read) == []


# the paper's operations, kept in the library even where only tests call
# them: the pregroup's domain D, its inverse assignments, cyclic joinability,
# the standard cyclic form, the MKS and Collins criteria, preconjugation and
# the conjugacy closure of a letter
PAPER_OPERATIONS = {
    "check_inverse_assignment",
    "cyclic_joinable",
    "standard_cyclic_form",
    "verify_mks",
    "verify_collins",
    "preconjugate",
    "letter_conjugacy_closure",
    "Pregroup.domain",
}


def test_every_public_library_name_has_a_reader():
    # the same rule for the public top-level functions and classes of the
    # library and the public methods of those classes: each is read by the
    # library or the benchmark outside its own definition, a method only
    # through an attribute or a string, as a bare name is some function's.
    # Re-exports do not count: an import is no read, and the strings of
    # __all__ are left out.  The builders of samples.py are example inputs,
    # and the paper's operations stay whoever calls them
    library, bench = _library_and_bench()
    read, read_as_method = collections.Counter(), collections.Counter()
    for tree in [*library.values(), *bench]:
        for node in tree.body:
            if not (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read += _reads(node)
                read_as_method += _reads(node, bare=False)
    public = []  # (qualified name, its definition)
    for module, tree in library.items():
        for node in tree.body:
            if module != "samples.py" and isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((node.name, node))
                if isinstance(node, ast.ClassDef):
                    public += [
                        (f"{node.name}.{sub.name}", sub)
                        for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                    ]
    assert PAPER_OPERATIONS <= {qualname for qualname, _node in public}
    unread = []
    for methods, counter in ((False, read), (True, read_as_method)):
        defined = collections.defaultdict(list)  # name -> its defining statements
        qualified = collections.defaultdict(set)  # name -> its qualified names
        for qualname, node in public:
            if qualname not in PAPER_OPERATIONS and ("." in qualname) == methods:
                defined[node.name].append(node)
                qualified[node.name].add(qualname)
        unread += [q for name in _unread(defined, counter, bare=not methods) for q in qualified[name]]
    assert sorted(unread) == []


def test_cli_catches_errors_only_in_main_and_its_file_helpers():
    # main is the one place that turns an error into exit 2 and its
    # "error: " line, and _read and _write turn an OSError into a
    # ParseError for it; no command catches an error of its own
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    holders = collections.defaultdict(list)  # top-level name -> its try lines
    for top in tree.body:
        name = getattr(top, "name", f"line {top.lineno}")
        holders[name] += [node.lineno for node in ast.walk(top) if isinstance(node, tries)]
    assert holders["main"]
    allowed = ("main", "_read", "_write")
    assert {name: lines for name, lines in holders.items() if lines and name not in allowed} == {}


def test_only_the_gate_and_the_axioms_command_read_check_axioms():
    # one place turns an AxiomReport into an error: a reader of a pregroup
    # that needs P1-P5 calls pregroup._require_pregroup, and only the
    # axioms command reports the axioms as they are.  An import is no read
    library, _bench = _library_and_bench()
    readers = []
    for module, tree in library.items():
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if _reads(node)["check_axioms"]:
                    readers.append(f"{module}:{getattr(node, 'name', node.lineno)}")
    assert readers == ["cli.py:cmd_axioms", "pregroup.py:_require_pregroup"]


def test_only_the_isomorphism_checker_and_the_pair_reader_raise_invalid_embedding():
    # one checker decides whether subgroup lists and a map phi are an
    # isomorphism between subgroups, for the amalgam and the HNN builder
    # alike; the CLI raises the error itself only where it reads phi
    library, _bench = _library_and_bench()
    raisers = []
    for module, tree in library.items():
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                if any(
                    _reads(sub)["InvalidEmbedding"] for sub in ast.walk(node) if isinstance(sub, ast.Raise)
                ):
                    raisers.append(f"{module}:{getattr(node, 'name', node.lineno)}")
    assert raisers == ["cli.py:_token_pairs", "constructions.py:_isomorphism"]
