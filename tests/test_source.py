"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "optdesign"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in source and never read as a name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from typing import Optional\n\nx = np.ones(1)\n")
    assert unused_imports(source) == ["line 2: math", "line 4: Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# each callable on a Model and the one function allowed to call it: every
# other path goes through that function, and so through its checks
MODEL_CALLABLES = {
    "score": "models.Model.score_matrix",
    "score_dx": "design.stacked_scores",
    "score_matrix": "design.stacked_scores",
    "analytic_local": "local.local_stack",
}


def call_sites(source: str, module: str) -> dict:
    """For each name of MODEL_CALLABLES, the functions of source that call
    an attribute of that name, as module.qualname."""
    sites = {name: [] for name in MODEL_CALLABLES}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in sites):
                sites[child.func.attr].append(".".join([module] + scope))
            visit(child, inner)

    visit(ast.parse(source), [])
    return sites


def test_scan_finds_a_second_call_site():
    source = ("def first(model, x, b):\n    return model.score(x, b)\n\n"
              "class Other:\n    def second(self, model, x, b):\n"
              "        return model.score(x, b)[0]\n")
    assert call_sites(source, "mod")["score"] == ["mod.first", "mod.Other.second"]


def test_each_model_callable_has_one_call_site():
    sites = {name: [] for name in MODEL_CALLABLES}
    for path in sorted(SRC.glob("*.py")):
        for name, found in call_sites(path.read_text(), path.stem).items():
            sites[name] += found
    assert sites == {name: [where] for name, where in MODEL_CALLABLES.items()}
