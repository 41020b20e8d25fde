"""The library states its invariants with raises that survive python -O, its
element layers do not import the table layers built on them, and the command
line states theorems instead of re-proving them."""

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


def test_element_layers_do_not_import_table_layers():
    # words, elements and the Cuntz layer sit below the tables, their
    # completion and their duality, and need no numpy; InternalError lives
    # in the package itself, and words and finitesgp re-export it
    found = []
    for name in ("words", "polycyclic", "graphisg", "thompson"):
        path = SRC / ("%s.py" % name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                targets = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            for target in targets:
                table_layer = target.rsplit(".", 1)[-1] in ("finitesgp", "filtercomp", "duality")
                if table_layer or target.split(".", 1)[0] == "numpy":
                    found.append("%s:%d %s" % (path.name, node.lineno, target))
    assert found == []


def test_element_arithmetic_runs_on_the_tuple_rule():
    # products, orders and actions strip letter- or edge-tuple prefixes with
    # words._strip_prefix; the PrefixRel vocabulary stays with prefix codes
    banned = {"PrefixRel", "EQUAL", "X_PREFIX_OF_Y", "Y_PREFIX_OF_X",
              "INCOMPARABLE", "prefix_compare"}
    found = []
    for name in ("graphisg", "polycyclic", "thompson"):
        path = SRC / ("%s.py" % name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                used = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, u) for u in used if u in banned]
    assert found == []


def test_subcommands_do_not_reprove_theorems():
    # the finite duality theorems are re-proved by tests/conftest.py and by
    # the selftest suites; nothing else in cli.py names a re-proof
    banned = {"duality_roundtrip", "part1_isomorphism", "check_universal_property", "_boolean"}
    path = SRC / "cli.py"
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_selftest_"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, (ast.Attribute, ast.alias)):
                used = node.attr if isinstance(node, ast.Attribute) else node.name
            else:
                continue
            if used in banned:
                found.append("cli.py:%d %s" % (getattr(node, "lineno", top.lineno), used))
    assert found == []


def test_library_imports_only_what_it_uses():
    # an import its module never names costs start-up for nothing; a name
    # marked noqa: F401 is a re-export (InternalError)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append("%s:%d %s" % (path.name, alias.lineno, name))
    assert found == []
