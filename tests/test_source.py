"""The library states its invariants with raises that survive python -O."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "stonedual"


def test_library_has_no_assert():
    # python -O strips assert statements; a broken invariant raises
    # InternalError instead, and theorem checks live in tests/conftest.py
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append("%s:%d raise" % (path.name, node.lineno))
            elif isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
    assert found == []
