"""Source hygiene checks that need no linter: only the stdlib `ast` module."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cdnsim"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
# __init__.py imports only to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads, in source order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import json\nimport os.path\nfrom math import inf, pi as PI\nprint(os, PI)\n"
    assert unused_imports(source) == ["json", "inf"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _names(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def uncalled_functions(sources: dict[str, str], imported: set[str]) -> list[str]:
    """Public module-level functions that no module names outside the function's
    own body and that are not in `imported`, as module.function."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and named[node.name] == _names(node)[node.name] and node.name not in imported]


def test_uncalled_functions_are_found():
    sources = {"a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                    "def recursive(): recursive()\ndef tested(): pass\n",
               "b": "from a import unused\nimport a\na.used()\n"}
    assert uncalled_functions(sources, {"tested"}) == ["a.unused", "a.recursive"]


def test_every_public_function_has_a_caller():
    """A public function of the package is called somewhere in it, or imported
    by the acceptance suite; __init__ re-exports do not count."""
    acceptance = ast.parse(ACCEPTANCE.read_text())
    imported = {alias.asname or alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert uncalled_functions({p.stem: p.read_text() for p in MODULES}, imported) == []
