"""The library states its invariants with raises that survive python -O, its
element layers do not import the table layers built on them, the command
line states theorems instead of re-proving them, and no function body is
written twice."""

import ast
import pathlib
import re
import textwrap
import types

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
    # words._strip_prefix; the PrefixRel vocabulary stays with prefix codes,
    # and results are built by their constructor, not by namedtuple._replace
    banned = {"PrefixRel", "EQUAL", "X_PREFIX_OF_Y", "Y_PREFIX_OF_X",
              "INCOMPARABLE", "prefix_compare", "_replace"}
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
    # the suites of stonedual.selftest; nothing in cli.py names a re-proof
    banned = {"duality_roundtrip", "part1_isomorphism", "check_universal_property", "_boolean"}
    path = SRC / "cli.py"
    found = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
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


# ---------------------------------------------------------------------------
# reachability: src/ holds what the CLI, the contract or the documented API
# reaches

ROOT = SRC.parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bindings(tree, package, modules):
    """{local name: [target]} for every import in tree that reaches the
    package, wherever it sits: a target is (module, None) for a module and
    (module, name) for a name, "__init__" being the package itself."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module == package or (node.module or "").startswith(package + "."):
                base = node.module[len(package) + 1:] or None
            else:
                continue
            for alias in node.names:
                if base is None:
                    target = (alias.name, None) if alias.name in modules else ("__init__", alias.name)
                else:
                    target = (base, alias.name)
                bound.setdefault(alias.asname or alias.name, []).append(target)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == package and alias.asname and rest in modules:
                    bound.setdefault(alias.asname, []).append((rest, None))
    return bound


def _api_entries(readme):
    """The (module, name) of each "- `module.name`" bullet under the
    README's "## Library API" heading."""
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    return re.findall(r"^- `(\w+)\.(\w+)`", section.group(1), re.M) if section else []


def unreached(src, acceptance, readme):
    """Each module-level def or class of the package in src that no root
    reaches, as "module.name (file:line)", and each README API entry that
    names no definition.

    The roots are every def and class of cli, every other module-level
    statement (so the names one tuple assignment binds, as element_ops's
    do, stand or fall together), the acceptance test's text and the
    README's API entries.  A
    reached body reaches the names it uses, each resolved in its own module:
    the module's defs, its imports, and alias.attr through an imported
    module.  A reached class reaches its methods."""
    package = src.name
    paths = {p.stem: p for p in sorted(src.glob("*.py"))}
    trees = {mod: ast.parse(p.read_text(), filename=str(p)) for mod, p in paths.items()}
    defs, todo, reached = {}, [], set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[mod, node.name] = node
                if mod == "cli":
                    reached.add((mod, node.name))
            if mod == "cli" or not isinstance(node, DEFS):
                todo.append((mod, node))
    bindings = {mod: _bindings(tree, package, paths) for mod, tree in trees.items()}
    bindings[None] = _bindings(ast.parse(acceptance), package, paths)
    todo.append((None, ast.parse(acceptance)))
    problems = []
    for mod, name in _api_entries(readme):
        if (mod, name) in defs:
            reached.add((mod, name))
            todo.append((mod, defs[mod, name]))
        else:
            problems.append("README API entry `%s.%s` names no definition" % (mod, name))

    def resolve(mod, name, seen=()):
        if (mod, name) in defs:
            return [(mod, name)]
        found = []
        for target in bindings.get(mod, {}).get(name, []):
            if target[1] is not None and target not in seen:
                found += resolve(*target, seen + (target,))
        return found

    while todo:
        mod, body = todo.pop()
        for node in ast.walk(body):
            hits = []
            if isinstance(node, ast.Name):
                hits = resolve(mod, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                for target, attr in bindings.get(mod, {}).get(node.value.id, []):
                    if attr is None:
                        hits += resolve(target, node.attr)
            for hit in hits:
                if hit not in reached:
                    reached.add(hit)
                    todo.append((hit[0], defs[hit]))
    problems += [
        "%s.%s (%s:%d)" % (mod, name, paths[mod].name, node.lineno)
        for (mod, name), node in sorted(defs.items())
        if (mod, name) not in reached
    ]
    return problems


def test_every_src_name_is_reached():
    # a def or class in src/ must be reached from the command line, named
    # by the acceptance tests, or listed under README's "Library API";
    # fixtures and reference routes that only tests call live in tests/
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert unreached(SRC, acceptance, (ROOT / "README.md").read_text()) == []


def test_reachability_flags_unreached_defs_and_stale_api_entries(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    sources = {
        "__init__": """
            class Error(Exception):
                pass
        """,
        "lib": """
            from . import Error

            def used():
                return helper()

            def helper():
                raise Error

            def tested():
                pass

            def documented():
                pass

            def unused():
                pass

            def is_cover():
                pass
        """,
        # words names is_cover only as its own closure, never lib's
        "words": """
            def ops():
                def is_cover():
                    pass
                return is_cover

            cover = ops()
        """,
        "cli": """
            from . import lib
            from .words import cover

            def main():
                return lib.used(), cover
        """,
    }
    for name, text in sources.items():
        (src / ("%s.py" % name)).write_text(textwrap.dedent(text))
    acceptance = "from pkg import lib as L\n\nL.tested()\n"
    readme = "## Library API\n\n- `lib.documented`: kept\n- `lib.missing`: gone\n\n## Next\n"
    assert unreached(src, acceptance, readme) == [
        "README API entry `lib.missing` names no definition",
        "lib.is_cover (lib.py:19)",
        "lib.unused (lib.py:16)",
    ]


def hooked_imports(sources, hooked):
    """Each (module, name) in hooked that one of sources, {module: text} of
    the package stonedual, imports by name, as "module.py: module.name"."""
    found = []
    for mod, text in sorted(sources.items()):
        for targets in _bindings(ast.parse(text), "stonedual", sources).values():
            found += ["%s.py: %s.%s" % (mod, *t) for t in targets if t in hooked]
    return found


def test_hooked_functions_are_called_through_their_module():
    # tests/conftest.py wraps each RECHECKS function in its own module; a
    # name imported from there would keep the bare function, and its calls
    # would skip their check
    import conftest

    hooked = {
        (module.__name__.rpartition(".")[2], name)
        for module, name, _ in conftest.RECHECKS
        if isinstance(module, types.ModuleType) and module.__name__.startswith("stonedual.")
    }
    assert ("finitesgp", "_boolean") in hooked and ("duality", "local_bisections") in hooked
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert hooked_imports(sources, hooked) == []
    sources["filtercomp"] += "from .finitesgp import _meet_semigroup as meets\n"
    sources["cli"] += "from stonedual.duality import local_bisections\n"
    assert hooked_imports(sources, hooked) == [
        "cli.py: duality.local_bisections",
        "filtercomp.py: finitesgp._meet_semigroup",
    ]


def test_library_imports_no_test_module():
    # fixtures and references that only tests call live in tests/, and the
    # library never reaches back for them
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                targets = [node.module]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, target) for target in targets
                      if target.split(".", 1)[0] in test_modules]
    assert found == []


# ---------------------------------------------------------------------------
# text I/O: one op namer in the command line, one line reader in src/


def op_literals(text):
    """Each string literal of text, the source of a cli.py, that names an op:
    one spelled family.subcommand, or one given as the value of an "op" key,
    as "cli.py:line literal"."""
    from stonedual import cli

    spelled = re.compile(r"(%s)\.\w+" % "|".join(cli.DISPATCH))
    tree = ast.parse(text)
    keyed = {id(v) for node in ast.walk(tree) if isinstance(node, ast.Dict)
             for k, v in zip(node.keys, node.values)
             if isinstance(k, ast.Constant) and k.value == "op"}
    named = [node for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and (id(node) in keyed or spelled.fullmatch(node.value))]
    return ["cli.py:%d %s" % (node.lineno, node.value)
            for node in sorted(named, key=lambda node: node.lineno)]


def test_cli_names_no_op_by_hand():
    # every "op" of a record comes from the run's family and subcommand
    text = (SRC / "cli.py").read_text()
    assert op_literals(text) == []
    planted = text + 'REC = {"op": "selftest"}\nNAME = "thompson.mul"\n'
    end = len(text.splitlines())
    assert op_literals(planted) == ["cli.py:%d selftest" % (end + 1),
                                    "cli.py:%d thompson.mul" % (end + 2)]


def reader_bypasses(sources, wanted):
    """Each method call c with wanted(c) in sources, {module: text} of the
    package, outside the shared line reader read_lines, as "module.py:line"."""
    found = []
    for mod, text in sorted(sources.items()):
        for top in ast.parse(text).body:
            if mod == "__init__" and getattr(top, "name", None) == "read_lines":
                continue
            found += ["%s.py:%d" % (mod, node.lineno) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and wanted(node)]
    return found


def splits_lines(call):
    return call.func.attr == "splitlines"


def reads_whole(call):
    """A whole file read into one str: .read() with no argument, or .read_text()."""
    no_args = not call.args and not call.keywords
    return call.func.attr == "read_text" or (call.func.attr == "read" and no_args)


def test_only_the_shared_reader_splits_lines():
    # tables, groupoid dumps and graphs are read through read_lines, which
    # bounds the memory of a split and numbers lines one way for all three
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert "splitlines" in sources["__init__"] and reader_bypasses(sources, splits_lines) == []
    end = len(sources["__init__"].splitlines())
    sources["__init__"] += "LINES = 'a'.splitlines()\n"
    sources["words"] = "def lines(text):\n    return text.splitlines()\n"
    assert reader_bypasses(sources, splits_lines) == ["__init__.py:%d" % (end + 1), "words.py:2"]


def test_no_input_file_is_read_whole():
    # every table and graph file goes to read_lines open, which takes it in
    # pieces and decodes them itself
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert reader_bypasses(sources, reads_whole) == []
    end = len(sources["cli"].splitlines())
    sources["cli"] += "def _read(path):\n    with open(path) as handle:\n        return handle.read()\n"
    sources["words"] = ("import pathlib\nTEXT = pathlib.Path('g').read_text()\n"
                        "HEAD = open('g').read(64)\n")
    assert reader_bypasses(sources, reads_whole) == ["cli.py:%d" % (end + 3), "words.py:2"]


# ---------------------------------------------------------------------------
# one implementation per idea: no function body is written twice


def duplicate_bodies(sources):
    """Each function of sources, {path: text}, whose body after its docstring
    has at least 2 statements and is, as an AST, the body of a function met
    before, as "path:line name = path:line name"."""
    seen, found = {}, []
    for path, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) < 2:
                continue
            key = ast.dump(ast.Module(body=body, type_ignores=[]))
            here = "%s:%d %s" % (path, node.lineno, node.name)
            if key in seen:
                found.append("%s = %s" % (here, seen[key]))
            else:
                seen[key] = here
    return found


def test_no_function_body_is_written_twice():
    # a seeded input generator, a reference route or a helper has one home,
    # which the others import; the acceptance tests keep their own text
    paths = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    sources = {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths
               if p.name != "test_acceptance.py"}
    assert duplicate_bodies(sources) == []
    # a copy under another name and docstring is still a copy; a one-line
    # body is not counted
    planted = textwrap.dedent('''
        def draw(rng, n):
            """Another docstring."""
            k = rng.randrange(n)
            return k + 1

        def one(x):
            return x
    ''')
    copy = planted.replace("draw", "pick").replace("Another", "Some")
    sources["tests/planted.py"] = copy + planted
    assert duplicate_bodies(sources) == ["tests/planted.py:10 draw = tests/planted.py:2 pick"]
