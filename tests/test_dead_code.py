"""Every private function, class, constant and method of the package has a
caller: a name that is only defined is code to delete.  Every module reads
what it imports, and every name that the package exports exists."""

import ast
from collections import Counter
from pathlib import Path

import sincov

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sincov"


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a statement binds in its module or class body."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used(node: ast.AST) -> Counter:
    """How often a node reads each name, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    )


def _unused(scope) -> list[str]:
    """The private names that scope(module) defines, as (name, defining
    statement) pairs, and that no code outside their own definition reads."""
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = sum((_used(tree) for tree in modules.values()), Counter())
    return [
        f"{module}: {name}"
        for module, tree in modules.items()
        for name, stmt in scope(tree)
        if name.startswith("_") and not name.endswith("__") and reads[name] == _used(stmt)[name]
    ]


def _top_level(tree: ast.Module):
    return [(name, stmt) for stmt in tree.body for name in _defined(stmt)]


def _class_bodies(tree: ast.Module):
    classes = [stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
    return [(name, stmt) for cls in classes for stmt in cls.body for name in _defined(stmt)]


def test_every_private_top_level_name_has_a_caller():
    unused = _unused(_top_level)
    assert not unused, f"defined but never used: {unused}"


def test_every_private_method_has_a_caller():
    unused = _unused(_class_bodies)
    assert not unused, f"defined but never used: {unused}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names that a module's top-level imports bind and no code reads."""
    imports = [stmt for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for stmt in imports
        if getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_module_reads_its_imports():
    """Except __init__.py, whose imports are the package's exports."""
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unread, f"imported but never read: {unread}"


def test_every_name_in_all_is_defined():
    """So that `from sincov import *` works."""
    missing = [name for name in sincov.__all__ if not hasattr(sincov, name)]
    assert not missing, f"in __all__ but not defined: {missing}"
