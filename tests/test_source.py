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


def loaded_names(tree: ast.AST, imports: bool) -> set[str]:
    """The names a module reads: each name loaded, each attribute, and, when
    `imports`, each name a from-import brings in."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


#: The module-level definitions in src/ that only the tests read, each kept
#: for a reason: the inventory of oracle-only code.
TESTED_ONLY = {
    "dynamics.py:_preimages_by_moves":
        "the oracle of preimages; it carries the movement-sequence calculus",
    "machine.py:is_legal_movement_sequence":
        "the shape lemma behind catalan(n-k+2), checked on every trace",
    "dynamics.py:is_half_increasing":
        "acceptance criterion 11's object, until that criterion becomes a suite",
    "words.py:reduce_patterns":
        "the reduction lemma that test_reduction_preserves_sorting checks",
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
