"""Every module-level function, class, class method and constant that
`src/fixhound` defines is named somewhere in `src/fixhound` besides its own
definition: code that only the tests call belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fixhound"


def _definitions(tree: ast.Module):
    """The names a module defines at its top level or as methods of its top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _uses(tree: ast.Module):
    """Every name a module reads, as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_source_definition_is_used_in_the_source():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _uses(tree)}
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
