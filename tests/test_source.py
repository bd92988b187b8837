"""Rules on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "selgrowth"


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards an output
    # must raise an error instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
