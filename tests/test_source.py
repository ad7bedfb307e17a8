"""Checks on the package's source text that no behavioural test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permstack"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_nested_functions(tree: ast.AST) -> list[str]:
    """Each function defined inside another function that names itself in
    its body, as "line name".  Such a function holds itself through its
    closure, so every call of the outer function leaves a reference cycle."""
    nested = {
        inner
        for outer in ast.walk(tree)
        if isinstance(outer, FUNCTIONS)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, FUNCTIONS)
    }
    return sorted(
        f"{fn.lineno} {fn.name}"
        for fn in nested
        if any(
            isinstance(node, ast.Name) and node.id == fn.name
            for stmt in fn.body
            for node in ast.walk(stmt)
        )
    )


def test_detector_finds_a_self_referencing_closure():
    source = "def outer():\n    def walk(k):\n        return k and walk(k - 1)\n    return walk(3)\n"
    assert self_referencing_nested_functions(ast.parse(source)) == ["2 walk"]


def test_no_nested_function_refers_to_itself():
    found = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in self_referencing_nested_functions(ast.parse(path.read_text()))
    ]
    assert found == []


def module_definitions(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level: functions, classes and
    names assigned."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def store_bases(tree: ast.AST) -> set[int]:
    """The ids of the names whose attribute is assigned, as `f` in
    `f.x = ...`: setting an attribute does not read the name."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
    }


def read_names(tree: ast.AST) -> set[str]:
    """The plain names a module reads, leaving out the bases of attribute
    stores."""
    stored = store_bases(tree)
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in stored
    }


def read_attributes(tree: ast.AST) -> set[str]:
    """The attribute names a module reads."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def loaded_names(tree: ast.AST, imports: bool) -> set[str]:
    """The names a module reads: each name and each attribute read, and,
    when `imports`, each name a from-import brings in."""
    names = read_names(tree) | read_attributes(tree)
    if imports:
        names.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        )
    return names


def test_attribute_store_is_not_a_read():
    tree = ast.parse("def f():\n    pass\n\nf.info = g\nh.x.y = 1\n")
    assert loaded_names(tree, False) == {"g", "h", "x"}


#: The module-level definitions in src/ that only the tests read, each kept
#: for a reason that names what it waits on: the inventory of oracle-only
#: code.
TESTED_ONLY = {
    "machine.py:_push_keeps_avoiding":
        "push-table oracle; the tracer reads its `cache_info` until ROADMAP 1b",
    "dynamics.py:_preimages_by_moves":
        "oracle of preimages; the tracer hooks `dynamics.reconstruct_input`,"
        " which only it calls, until ROADMAP 1b",
    "dynamics.py:is_half_increasing":
        "acceptance criterion 11's object, until ROADMAP 3 makes that criterion a suite",
}


def public_methods(tree: ast.Module) -> set[tuple[str, str]]:
    """The (class, name) of each public, non-dunder function defined in a
    top-level class body, properties included."""
    return {
        (cls.name, fn.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, FUNCTIONS) and not fn.name.startswith("_")
    }


def test_every_module_definition_is_used():
    # a definition nothing in the package reads is dead code, unless it is
    # listed above; the tests are not callers, and the package's __init__
    # re-exports names, which is not a use
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(
        *(loaded_names(tree, path.name != "__init__.py") for path, tree in trees.items())
    )
    unused = {
        f"{path.name}:{name}"
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for name in module_definitions(tree) - used
    }
    assert sorted(unused - TESTED_ONLY.keys()) == []
    # an entry that gains a caller, or is deleted, leaves the list
    assert sorted(TESTED_ONLY.keys() - unused) == []
    # a method is read as an attribute: a plain name that matches it, as
    # the builtin `reversed` would match PatternSet.reversed, does not count
    attributes = set().union(*map(read_attributes, trees.values()))
    unread = [
        f"{path.name}:{cls}.{name}"
        for path, tree in trees.items()
        for cls, name in sorted(public_methods(tree))
        if name not in attributes
    ]
    assert unread == []


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with its line; `from __future__`
    binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((a.asname or a.name, node.lineno) for a in node.names)
    return names


def test_detector_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau as t\nprint(pi)\n")
    assert sorted(imported_names(tree).keys() - read_names(tree)) == ["os", "t"]


def test_every_import_is_read():
    # __init__ imports to re-export; every other module reads what it imports
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            imported = imported_names(tree)
            unread += [
                f"{path.name}:{imported[name]} {name}"
                for name in sorted(imported.keys() - read_names(tree))
            ]
    assert unread == []


def pool_constructions(tree: ast.AST) -> list[tuple[int, bool]]:
    """The calls to ProcessPoolExecutor, by name or as an attribute: each
    one's line, and whether it is an item of a with statement."""
    with_items = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        for item in node.items
    }
    return [
        (node.lineno, id(node) in with_items)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ProcessPoolExecutor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_process_pool_is_constructed_in_one_place():
    # the fan-out is written once: every request's workers start there, in
    # a with statement, so no pool outlives the fan-out that opened it
    found = [
        (f"{path.name}:{line}", in_with)
        for path in sorted(SRC.glob("*.py"))
        for line, in_with in pool_constructions(ast.parse(path.read_text()))
    ]
    assert len(found) == 1, found
    assert found[0][1], found
