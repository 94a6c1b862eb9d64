"""Every top-level private function, class and constant of the package has a
caller: a name that is only defined is code to delete."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sincov"


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _used(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement reads, as a name or an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(stmt)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    }


def test_every_private_top_level_name_has_a_caller():
    statements = [
        (path.name, stmt, _used(stmt))
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = []
    for module, stmt, _ in statements:
        for name in _defined(stmt):
            private = name.startswith("_") and not name.endswith("__")
            if private and not any(name in used for _, other, used in statements if other is not stmt):
                unused.append(f"{module}: {name}")
    assert not unused, f"defined but never used: {unused}"
