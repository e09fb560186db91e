"""Nothing in the package exists for the tests alone: every name it defines is read by the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gknextend"


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _references(tree: ast.Module):
    """(name, node) for every name read, attribute taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def unused_names() -> list[str]:
    """`module.name` of each definition referenced nowhere in the package outside its own body."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    refs: dict[str, list] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unused = []
    for module, tree in trees.items():
        for d in _definitions(tree):
            if d.name.startswith("__") and d.name.endswith("__"):
                continue  # dunders, the module __getattr__ among them, are called by Python
            inside = {id(n) for n in ast.walk(d)}
            if all(id(n) in inside for n in refs.get(d.name, [])):
                unused.append(f"{module}.{d.name}")
    return unused


def test_every_definition_is_referenced_in_the_package():
    assert unused_names() == []
