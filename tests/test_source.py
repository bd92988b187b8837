"""Rules on the package source itself."""

import ast
import importlib.util
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "selgrowth"


def _nodes():
    """(module file name, node) for every AST node of the package."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips assert statements, so a check that guards an output
    # must raise an error instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # @dataclass compiles its methods when the module is imported: a cost
    # every CLI call would pay. Records are NamedTuples or records.Record classes
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert found == []


def test_local_classes_come_only_from_the_group_enumeration():
    # FiniteGroup.local_classes builds every (D, I) pair once per group, and
    # everything else selects from it instead of building and checking its own
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "groups.py"
        and isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "LocalClass"
    ]
    assert found == []


def test_bench_trace_targets_exist():
    # the traced benchmark run wraps these by name; a deleted or renamed one
    # would only show there. bench/tracing.py is loaded by path, unchanged
    path = SRC.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, *_ in tracing.TARGETS:
        holder = importlib.import_module(f"selgrowth.{mod_name}")
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if holder is None:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    # bench/test_checkers.py checks split reduction against it
    assert callable(getattr(importlib.import_module("selgrowth"), "ap_oracle", None))
