"""Every name a module of the package imports is used in that module, and
every top-level function, class and assigned name of the package is read
somewhere in it; every name the benchmark traces or calls exists."""

import ast
import importlib
from pathlib import Path

import pytest

from ratlam import coalgebra, gen_pair, size_bound

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ratlam"
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


def test_the_benchmark_finds_every_name_it_uses():
    # perfbench/spans.py is read, not imported: it imports the benchmark's reference
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    table = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    for module in ast.literal_eval(table["MODULES"]):
        importlib.import_module(f"ratlam.{module}")
    methods = {ast.literal_eval(k): ast.literal_eval(v)
               for k, v in zip(table["METHODS"].keys, table["METHODS"].values)}
    for key in table["TRACED"].keys:
        home, name = ast.literal_eval(key)
        owner = importlib.import_module(f"ratlam.{home}")
        if (home, name) in methods:
            owner = getattr(owner, methods[home, name])
        assert callable(getattr(owner, name, None)), f"{home}.{name}"
    # the call shape of perfbench/workloads.py, and the bound spans.py reads
    sym, elem = gen_pair()
    for enumerative in (True, False):
        conc = coalgebra.instantiate(sym)
        g = coalgebra.c_construct(conc, elem, sym.carrier if enumerative else None)
        assert len(g.nodes) <= size_bound(len(sym.carrier.schemas), conc.support_bound)
