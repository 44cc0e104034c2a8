"""Every module-level function, class, class method and constant that
`src/fixhound` defines is named somewhere in `src/fixhound` besides its own
definition: code that only the tests call belongs in the tests. Every
parameter of a function or lambda in `src/fixhound` is read by its body, and
every parameter with a default is passed by some call in `src/fixhound`."""

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


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) for each parameter with a default of a
    function or method; position is where a call passes it positionally
    (`self` and `cls` not counted), None for a keyword-only parameter."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            a = fn.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            if id(fn) in methods and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
                positional = positional[1:]
            for name in positional[len(positional) - len(a.defaults) :]:
                yield fn.name, name, positional.index(name)
            yield from ((fn.name, p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)


def _passed(tree: ast.Module):
    """(callee name, parameter name or position) for what each call passes;
    a `*args` passes every position and a `**kwargs` every name ("*", "**")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for i, arg in enumerate(node.args):
                yield callee, "*" if isinstance(arg, ast.Starred) else i
            yield from ((callee, kw.arg or "**") for kw in node.keywords)


def test_every_defaulted_parameter_is_set_by_src():
    # `cli.main(argv)` is the tests' entry point; the console script passes nothing.
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    passed = {entry for tree in trees for entry in _passed(tree)}
    unset = [
        f"{fn}({name})"
        for tree in trees
        for fn, name, pos in _defaulted_parameters(tree)
        if (fn, name) != ("main", "argv")
        and not {(fn, name), (fn, "**"), (fn, pos), (fn, "*")} & passed
    ]
    assert unset == []


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
