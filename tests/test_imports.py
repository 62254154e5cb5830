"""The package modules import each other as a strict stack: every import is
at module level, the import graph has no cycle, and the search sits below
the structure, verification and CLI layers."""

import ast
import graphlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quasilab"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _imported(node: ast.AST) -> set[str]:
    """The package modules one import statement reads from."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module == "quasilab"):
        if node.module and node.module != "quasilab":
            return {node.module.split(".")[0]}
        # from . import x: a module, or a name of the package's __init__
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
    return {name.split(".")[1] for name in names if name.startswith("quasilab.")}


def _graph() -> dict[str, set[str]]:
    return {name: set().union(*(_imported(node) for node in ast.walk(tree)
                                if isinstance(node, (ast.Import, ast.ImportFrom))))
            for name, tree in MODULES.items()}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_imports_inside_a_function(name):
    for fn in ast.walk(MODULES[name]):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [node for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.{fn.name} imports at line {inner[0].lineno}"


def test_package_imports_have_no_cycle():
    list(graphlib.TopologicalSorter(_graph()).static_order())


def test_search_sits_below_structure_verification_and_cli():
    graph = _graph()
    below, todo = set(), ["search"]
    while todo:
        for dep in graph[todo.pop()] - below:
            below.add(dep)
            todo.append(dep)
    assert not below & {"structure", "verification", "cli", "__init__"}, below


def test_order_too_large_has_three_raise_sites():
    sites = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                sites += [f"{name}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                          and getattr(node.exc.func, "id", None) == "OrderTooLarge"]
    assert sorted(sites) == ["quasigroup._check_cells", "quasigroup._check_order",
                             "verification.run_verification"]


def test_cli_mirrors_no_default_bound():
    names = {node.id for node in ast.walk(MODULES["cli"]) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(MODULES["cli"]) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(MODULES["cli"]) if isinstance(node, ast.ImportFrom)
              for a in node.names}
    assert not {name for name in names if name.endswith("_MAX_ORDER")}
