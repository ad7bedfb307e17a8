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
