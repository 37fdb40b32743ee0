"""An inventory of the recursion left in the package.

A function that calls itself once per level of its input raises
`RecursionError` on inputs nested about a thousand deep.  The list below may
shrink as such functions move to explicit stacks; it must not grow.
"""

import ast
from pathlib import Path

import ratlam

SELF_CALLING = {
    "terms": {"fv", "_print", "_graph_node", "_mu_term", "_truncate"},
    "boehm": {"_rename_binders"},
    "substitution": {"subst_finite"},
    "coalgebra": {"_bin_node"},  # only to depth levels ≤ 4
}


def _self_calling(source: str) -> set[str]:
    """The module-level functions in source that call themselves by bare
    name, anywhere in their body."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node))}


def test_self_calling_functions_are_the_listed_ones():
    package = Path(ratlam.__file__).parent
    found = {path.stem: _self_calling(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    assert {module: names for module, names in found.items() if names} == SELF_CALLING

