"""Every name a module of the package imports is used in that module, and
every top-level function, class and assigned name of the package is read
somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ratlam"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _read_in_package() -> set[str]:
    """The names the package reads: loaded names, attributes and imported names."""
    read = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


@pytest.mark.parametrize("name", sorted(n for n in TREES if n != "__init__.py"))
def test_imported_names_are_used(name):
    tree = TREES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"


def test_top_level_definitions_are_used():
    read = _read_in_package()
    unused = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]
    assert not unused, f"defined but never used: {unused}"


def test_module_level_assignments_are_read():
    # dunders such as __version__ are read by tools, not by the package
    read = _read_in_package()
    unread = [
        f"{name}: {target.id}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for bound in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for target in ast.walk(bound)
        if isinstance(target, ast.Name)
        and not (target.id.startswith("__") and target.id.endswith("__"))
        and target.id not in read
    ]
    assert not unread, f"assigned but never read: {unread}"
