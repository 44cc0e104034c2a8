"""Every module-level function, class, class method and constant that
`src/fixhound` defines is named somewhere in `src/fixhound` besides its own
definition: code that only the tests call belongs in the tests. And every
parameter of a function or lambda in `src/fixhound` is read by its body."""

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


def _unread_parameters(tree: ast.Module):
    """`function: parameter` for each parameter, but `self`, `cls` and `_`-prefixed
    names, that its function's (or lambda's) body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in params:
                if name not in read and name not in ("self", "cls") and not name.startswith("_"):
                    yield f"{getattr(node, 'name', 'lambda')}: {name}"


def test_every_parameter_is_read_by_its_function():
    unread = [
        f"{path.name}: {entry}" for path in sorted(SRC.glob("*.py")) for entry in _unread_parameters(ast.parse(path.read_text(), str(path)))
    ]
    assert unread == []


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
