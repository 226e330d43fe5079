"""Rules on the library's source that no behavioural test can see."""

import ast
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
