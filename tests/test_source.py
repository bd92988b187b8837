"""Rules on the package source itself."""

import ast
import importlib
import pathlib

from oracle import REPO, bench_module

SRC = REPO / "src" / "selgrowth"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Functions and classes that nothing in src/ names but that are kept on purpose, with why.
# The benchmark's names are read from bench/ instead (see _bench_names).
LIBRARY_API = {
    "coeff_vector": "BrauerRelation.coeff_vector: the lattice tests compare relations by it",
    "degree": "BrauerRelation.degree: the dimension of the virtual representation",
    "reduction": "CurveProfile.reduction(v): the reduction data at one prime",
    "quadratic_symbol": "splitting.quadratic_symbol: the checked form of the symbol certify uses",
    "error": "cli's ArgumentParser.error: argparse calls it",
}


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


def test_only_record_refuses_assignment():
    # an immutable record derives from records.Record, the one class that
    # defines __setattr__ and __delattr__
    hooks = {"__setattr__", "__delattr__"}
    found = [
        f"{name}:{node.name}"
        for name, node in _nodes()
        if isinstance(node, ast.ClassDef) and node.name != "Record"
        for stmt in node.body
        if (isinstance(stmt, ast.FunctionDef) and stmt.name in hooks)
        or (isinstance(stmt, ast.Assign) and hooks & {getattr(t, "id", None) for t in stmt.targets})
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
    missing = []
    for mod_name, attr, *_ in bench_module("tracing").TARGETS:
        holder = importlib.import_module(f"selgrowth.{mod_name}")
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if holder is None:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    # bench/test_checkers.py checks split reduction against it
    assert callable(getattr(importlib.import_module("selgrowth"), "ap_oracle", None))


def _bench_names() -> set:
    """Names the benchmark reaches in selgrowth: the parts of each traced
    target, and each attribute its files read off the package (``sg.certify``,
    ``cli.main``, ``selgrowth.ap_oracle``)."""
    names = {part for _, attr, *_ in bench_module("tracing").TARGETS for part in attr.split(".")}
    for path in (REPO / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in ("sg", "cli", "selgrowth"):
                names.update(chain)
    return names


def _references(tree) -> set:
    """Names read in tree, as a name or an attribute, outside a def or class of that name."""
    out = set()

    def visit(node, inside):
        if isinstance(node, DEFINITIONS):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def test_every_function_is_called_from_the_package():
    # a function, method or class that no code in src/ names, other than its
    # own definition and the re-exports of __init__, is dead code there (an
    # error class that nothing raises or catches among them): a test helper
    # belongs under tests/, unless the benchmark or LIBRARY_API keeps it
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined += [
            (node.name, f"{path.name}:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS)
        ]
        if path.name != "__init__.py":
            referenced |= _references(tree)
    # an entry for a function that is gone goes too
    assert set(LIBRARY_API) <= {name for name, _ in defined}
    kept = referenced | _bench_names() | set(LIBRARY_API)
    dead = [
        f"{where} {name}"
        for name, where in defined
        if name not in kept and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def _package_imports(nodes) -> list:
    """(line, name) of each package module that these import statements load."""
    out = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("selgrowth."):
            names = [node.module.split(".")[1]]
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("selgrowth.")]
        else:
            continue
        out += [(node.lineno, name) for name in names]
    return out


def test_quotients_loads_neither_curves_nor_splitting():
    # `relations` and `tables` load quotients but run no curve or field code;
    # certify takes the profile and field that its caller built. Imports for
    # annotations only, under `if TYPE_CHECKING:`, never run
    tree = ast.parse((SRC / "quotients.py").read_text(encoding="utf-8"))
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    found = _package_imports(node for node in ast.walk(tree) if id(node) not in typing_only)
    assert [f"quotients.py:{line} {name}" for line, name in found if name in ("curves", "splitting")] == []


def test_package_init_imports_no_submodule():
    # `import selgrowth` (and so `python -m selgrowth`) loads no layer; a
    # public name imports its home module on first use
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert _package_imports(tree.body) == []
