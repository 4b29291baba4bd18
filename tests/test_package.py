"""The package's export list and import hygiene."""

import ast
from pathlib import Path

import bnsl


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bnsl import *", namespace)
    assert len(set(bnsl.__all__)) == len(bnsl.__all__)
    for name in bnsl.__all__:
        assert namespace[name] is getattr(bnsl, name)


def _unused_imports(path):
    """Names bound by a module's top-level imports that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_top_level_imports():
    # __init__.py imports exist to re-export names, so it is left out
    root = Path(__file__).resolve().parent
    files = [p for p in sorted((root.parent / "src" / "bnsl").glob("*.py"))
             if p.name != "__init__.py"] + sorted(root.glob("*.py"))
    assert files
    assert [hit for p in files for hit in _unused_imports(p)] == []
