"""The package surface, read from the source with ``ast``: exports and imports."""
from __future__ import annotations

import ast
from pathlib import Path

import chemfv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chemfv"


def assigned(tree: ast.Module, name: str, default=None):
    """The literal value of the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return default


def imported_names(tree: ast.Module, *, relative_only: bool = False) -> set[str]:
    """Names that the module's imports bind, ``from __future__`` excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.level or not relative_only:
                names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import) and not relative_only:
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, with the strings of ``__all__`` counted as reads."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | set(assigned(tree, "__all__", []))


def test_exports_and_imports_match():
    # 1. __all__ lists exactly what __init__ imports from its submodules, so a
    #    stale entry cannot break ``from chemfv import *``.
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(chemfv.__all__) == sorted(imported_names(init, relative_only=True))
    # 2. No module imports a name it never reads, except the ``chemfv.cli``
    #    names that the bench tracer wraps there.
    traced = assigned(ast.parse((ROOT / "bench" / "child.py").read_text()), "TRACED")
    traced_in_cli = {attr for module, attr, _ in traced if module == "chemfv.cli"}
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = imported_names(tree) - used_names(tree)
        if path.stem == "cli":
            names -= traced_in_cli
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
