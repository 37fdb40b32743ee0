"""Pinned SHA-256 digests of the library's outputs over a seeded corpus.

Each family hashes the printed outputs of one group of operations on fixed,
seeded inputs, so a refactor that must not change any output keeps every
digest, and a failing case names the family whose bytes changed.

When an output change is intended, regenerate the digests with

    PYTHONPATH=src python tests/test_digests.py

paste the printed dictionary over DIGESTS, and record in CHANGES.md which
families changed and why.
"""

import hashlib
import io
import random
from functools import cache

import pytest

from ratlam import (
    Atom,
    BtBudget,
    OrbitSchema,
    OrbitSet,
    bt_graph,
    bt_truncate,
    c_construct,
    enumerate_support_in,
    gen_rsigma,
    graph_of,
    graph_to_coalgebra,
    head_reduce,
    instantiate,
    minimize,
    orbit_count,
    parse_term,
    print_coalgebra,
    print_graph,
    print_term,
    subst_rational,
)
from ratlam.cli import run

from conftest import (
    CORPUS,
    random_finite_term,
    random_perm,
    random_stabilized_coalgebra,
    random_symbolic_coalgebra,
    random_term_graph,
)


@cache
def _graphs():
    """Random bottom-free graphs of up to 9 nodes over 2-4 atoms, then rsigma:1..3."""
    rng = random.Random(12)
    graphs = [random_term_graph(rng, rng.randint(1, 9), rng.randint(2, 4)) for _ in range(400)]
    return graphs + [gen_rsigma(level) for level in (1, 2, 3)]


def _graph_text(g) -> str:
    return repr((g.nodes, g.root))


def _coalgebra_outputs():
    for g in _graphs():
        sym, root = graph_to_coalgebra(g)
        yield print_coalgebra(sym) + f"root {root}"


def _construct(sym, root, enumerative: bool) -> str:
    g = c_construct(instantiate(sym), root, sym.carrier if enumerative else None)
    return _graph_text(g) + print_graph(g)


def _c_construct_outputs(enumerative: bool):
    for g in _graphs():
        yield _construct(*graph_to_coalgebra(g), enumerative)
    rng = random.Random(13)
    for _ in range(300):
        yield _construct(*random_symbolic_coalgebra(rng), enumerative)


def _c_construct_stabilized_outputs():
    """Coalgebras with one stabilized orbit: the printed file and root, then
    both modes of c_construct."""
    rng = random.Random(17)
    for _ in range(200):
        sym, root = random_stabilized_coalgebra(rng)
        yield print_coalgebra(sym) + f"root {root}"
        yield _construct(sym, root, True)
        yield _construct(sym, root, False)


def _act_outputs():
    rng = random.Random(14)
    for g in _graphs():
        yield _graph_text(g.act(random_perm(rng, range(6))))


def _subst_outputs():
    graphs = [graph_of(parse_term(src)) for src in CORPUS]
    for i, t in enumerate(graphs):
        for s in graphs:
            yield print_graph(subst_rational(t, Atom(i % 3), s))


def _terms():
    rng = random.Random(15)
    return [random_finite_term(rng, 5) for _ in range(400)]


def _head_reduce_outputs():
    for t in _terms():
        yield repr(head_reduce(t, 16))


def _bt_truncate_outputs():
    for t in _terms():
        yield print_term(bt_truncate(t, BtBudget(fuel=16, depth=6)))


def _bt_graph_outputs():
    for t in _terms():
        g = bt_graph(t, BtBudget(fuel=16, states=16))
        yield "unknown" if g is None else print_graph(g)


def _enumerate_outputs():
    rng = random.Random(16)
    for _ in range(300):
        schemas = []
        for i in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            stab = [tuple(range(k))]
            r = rng.random()
            if k >= 2 and r < 0.4:
                stab.append((1, 0) + tuple(range(2, k)))
            elif k == 3 and r < 0.7:
                stab += [(1, 2, 0), (2, 0, 1)]
            schemas.append(OrbitSchema(f"o{i}", k, frozenset(stab)))
        pool = [Atom(i) for i in rng.sample(range(6), rng.randint(0, 4))]
        yield " ".join(map(str, enumerate_support_in(OrbitSet(tuple(schemas)), pool)))


_CLI = [
    ["subst", "-v", "v1", "mu r. \\v0. v0 (v1 #r)", "v0 v2"],
    ["subst", "-v", "x", "mu r. x (\\y. #r y)", "\\z. z x"],
    ["bt-graph", "(\\v0. \\v1. v1 (v0 v0 v1)) (\\v0. \\v1. v1 (v0 v0 v1))"],
    ["bt-graph", "-s", "4", "(\\x. x x) (\\x. x x)"],
    ["examples", "pair"],
    ["examples", "rsigma:2"],
]


def _cli_outputs():
    for argv in _CLI:
        out = io.StringIO()
        code = run(argv, out=out)
        yield f"{code}\n{out.getvalue()}"


FAMILIES = {
    "print_coalgebra": _coalgebra_outputs,
    "c_construct_enumerative": lambda: _c_construct_outputs(True),
    "c_construct_reachable": lambda: _c_construct_outputs(False),
    "c_construct_stabilized": _c_construct_stabilized_outputs,
    "orbit_count": lambda: (str(orbit_count(g)) for g in _graphs()),
    "minimize": lambda: (_graph_text(minimize(g)) for g in _graphs()),
    "act": _act_outputs,
    "print_graph": lambda: (print_graph(g) for g in _graphs()),
    "gen_rsigma": lambda: (_graph_text(gen_rsigma(level)) for level in (1, 2, 3)),
    "enumerate_support_in": _enumerate_outputs,
    "subst_rational": _subst_outputs,
    "head_reduce": _head_reduce_outputs,
    "bt_truncate": _bt_truncate_outputs,
    "bt_graph": _bt_graph_outputs,
    "cli": _cli_outputs,
}


def digest(family: str) -> str:
    h = hashlib.sha256()
    for text in FAMILIES[family]():
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


DIGESTS = {
    'act': '15ac287db4e853ecb9b21682d817bb74ee6ebc5146164601bdcd3bda83551ce8',
    'bt_graph': '956b5baa15503522f8fbda9b83b02002d24a68c399f58599806484caa3be6268',
    'bt_truncate': 'fb592d217dc3a4f99c50c90eb7fd7cd54063caea6989860b1c27853d89d2b788',
    'c_construct_enumerative': '91807c0592f225f9f897ffc717990f930678e0c00ee935001729795cbc34c002',
    'c_construct_reachable': '63a29656613cabb49809186a9c80cf3e7a6206a67cb42b0c30593b3f21133c3d',
    'c_construct_stabilized': '02d5c4514dc2dc3d5061d9093ea6c0ff163750fea3a5fb3ef42e32093fb25efe',
    'cli': '68c1abb89ccd7b3237dd5312917288b88022d02adcc2bc441ae1744901ea5113',
    'enumerate_support_in': '70d54b0a8a13715ae1eec2dca7312274ef2bd0930073402fc5eae1d16a70035c',
    'gen_rsigma': 'c32bbb791906fcecb5714923e35ea4701858c72890adacb316ac6f69030f4e25',
    'head_reduce': '5874f6a6f0761c959be08ceeb5716643cb4214b38792e15049c91ced0b2fa0c8',
    'minimize': 'd37707eb3ffed6490df04bf38d71a4f433bed5dda74f35754c7b4fc4b1a9b2cb',
    'orbit_count': '559b1195b94994496ca549c46fb6a274590b8f54a37400854d05b3cb30a8cb7c',
    'print_coalgebra': '0ed2201b22ea0098ee66e4853a8f000c1752bef1c157e5b3bf84fba2df2a5ed7',
    'print_graph': 'c219973b2bedd67f1696753c8800f42e9d56c9992adb26db9dc921fad60aeab0',
    'subst_rational': '224e44c0b02936f255cd3f23ccf11e4e05fcf7d33733ea5a94534896a0a4bbbe',
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_output_digest(family):
    assert digest(family) == DIGESTS[family], f"the outputs of {family} changed"


if __name__ == "__main__":
    print("DIGESTS = {")
    for family in sorted(FAMILIES):
        print(f"    {family!r}: {digest(family)!r},")
    print("}")
