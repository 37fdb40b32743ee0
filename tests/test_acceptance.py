"""End-to-end acceptance checks, one verdict line per criterion."""

import itertools
import random
import time
from math import factorial

from ratlam import (
    App,
    Atom,
    BOT,
    BtBudget,
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    Perm,
    Var,
    alpha_bisim,
    bt_graph,
    bt_truncate,
    c_construct,
    enumerate_support_in,
    gen_omega,
    gen_pair,
    gen_rsigma,
    gen_s,
    gen_u,
    graph_of,
    graph_to_coalgebra,
    orbit_count,
    parse_term,
    rsigma_count,
    size_bound,
    subst_finite,
    subst_rational,
    subtree_count,
    truncate,
)
from ratlam.coalgebra import FRESH, SymbolicCoalgebra
from ratlam.nominal import IDENTITY

from conftest import (
    CORPUS,
    alpha_eq_finite,
    concrete,
    naive_unfold,
    random_perm,
    random_symbolic_coalgebra,
    random_term_graph,
    subst_by_coalgebra,
)

S2 = frozenset({(0, 1), (1, 0)})


def _verdict(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def _coalgebra_corpus():
    """Hand-built coalgebras (incl. nontrivial stabilizers) plus 20 random ones."""
    o0 = OrbitSchema("o", 0)
    u2 = OrbitSchema("u", 2, S2)
    hand = [
        gen_pair(),
        (
            SymbolicCoalgebra(OrbitSet((o0,)), {"o": ("app", ("o", ()), ("o", ()))}),
            OrbitElement(o0, ()),
        ),
        (
            SymbolicCoalgebra(OrbitSet((o0,)), {"o": ("lam", FRESH, ("o", ()))}),
            OrbitElement(o0, ()),
        ),
        (
            SymbolicCoalgebra(OrbitSet((u2,)), {"u": ("app", ("u", (0, 1)), ("u", (0, 1)))}),
            OrbitElement(u2, (Atom(0), Atom(1))),
        ),
        (
            SymbolicCoalgebra(OrbitSet((u2,)), {"u": ("lam", FRESH, ("u", (0, 1)))}),
            OrbitElement(u2, (Atom(0), Atom(1))),
        ),
    ]
    return hand + [random_symbolic_coalgebra(random.Random(seed)) for seed in range(20)]


def test_1_permutation_family_subtree_and_orbit_counts():
    t0 = time.perf_counter()
    counts = [subtree_count(gen_rsigma(level)) for level in (1, 2, 3)]
    closed = [rsigma_count(level) for level in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    orbits = [orbit_count(gen_rsigma(level)) for level in (1, 2, 3)]
    ok = counts == closed == [3, 8, 88] and orbits == [3, 4, 5] and elapsed < 5.0
    _verdict(
        "subtree counts 3/8/88 match the closed form and orbit counts are level+2",
        ok,
        f"counts={counts} orbits={orbits} elapsed={elapsed:.2f}s",
    )


def test_2_node_count_bound():
    failures = []
    sym, root = gen_pair()
    g = c_construct(sym, root, sym.carrier)
    if not (len(g.nodes) == 9 <= size_bound(2, 2)):
        failures.append(f"pair example gave {len(g.nodes)} nodes")
    checked = 0
    for seed in range(40):
        sym, root = random_symbolic_coalgebra(random.Random(seed))
        g = c_construct(sym, root, sym.carrier)
        n = len(sym.carrier.schemas)
        if len(g.nodes) > size_bound(n, sym.support_bound):
            failures.append(f"seed {seed}: {len(g.nodes)} > bound")
        checked += 1
    ok = not failures and checked >= 20
    _verdict(
        "constructed carrier stays within n*(m+1)! (pair example: 9 <= 12)",
        ok,
        f"{checked} random coalgebras" + (f"; failures={failures}" if failures else ""),
    )


def test_3_construction_matches_naive_unfolding():
    mismatches = 0
    total = 0
    for sym, root in _coalgebra_corpus():
        g = c_construct(sym, root, sym.carrier)
        for d in range(11):
            total += 1
            if not alpha_eq_finite(truncate(g, d), naive_unfold(concrete(sym), root, d)):
                mismatches += 1
    _verdict(
        "finite construction agrees with fresh-name unfolding at depths 0..10",
        mismatches == 0,
        f"{total} comparisons, {mismatches} mismatches",
    )


def test_4_graph_coalgebra_roundtrip():
    mismatches = []
    for src in CORPUS:
        g = graph_of(parse_term(src))
        sym, root = graph_to_coalgebra(g)
        back = c_construct(sym, root)
        if not alpha_bisim(g, back):
            mismatches.append(src)
    ok = not mismatches and len(CORPUS) >= 30
    _verdict(
        "every corpus graph survives the coalgebra roundtrip",
        ok,
        f"{len(CORPUS)} terms" + (f"; failed: {mismatches}" if mismatches else ""),
    )


def test_5_substitution_commutes_with_truncation():
    from test_substitution import _commutes

    t0 = time.perf_counter()
    failures = []

    rng = random.Random(71)
    triples = 0
    while triples < 100:
        t = random_term_graph(rng)
        s = random_term_graph(rng)
        v = Atom(rng.randrange(4))
        triples += 1
        if not _commutes(t, v, s):
            failures.append(f"random triple {triples}")

    hand = [
        ("mu r. v0 #r", Atom(0), "v1"),
        ("\\v0. v2 v0", Atom(2), "v0"),
        ("mu r. \\v0. v0 (v1 #r)", Atom(1), "\\v1. v0 v1"),
    ]
    for t_src, v, s_src in hand:
        if not _commutes(graph_of(parse_term(t_src)), v, graph_of(parse_term(s_src))):
            failures.append(f"hand case {t_src}")

    t = graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))
    s = graph_of(parse_term("v2 v3"))
    v = Atom(1)
    base = subst_rational(t, v, s)
    for i, (pa, pb) in enumerate(
        [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 1), (2, 3), (3, 3), (2, 2)]
    ):
        if not alpha_bisim(base, subst_by_coalgebra(t, v, s, pa, pb)):
            failures.append(f"padding variant {i}")

    rng = random.Random(73)
    for i in range(10):
        p = random_perm(rng)
        if not alpha_bisim(subst_rational(t.act(p), p(v), s.act(p)), base.act(p)):
            failures.append(f"permutation {i}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _verdict(
        "substitution commutes with truncation, carrier padding and renaming",
        ok,
        f"100 random + 3 capture + 10 padded + 10 permuted, elapsed={elapsed:.2f}s"
        + (f"; failures={failures}" if failures else ""),
    )


def test_6_boehm_trees():
    failures = []
    g = bt_graph(gen_s(), BtBudget())
    if g is None or not alpha_bisim(g, graph_of(parse_term("mu r. \\v0. \\v1. (v0 #r) v1"))):
        failures.append("rational Böhm tree of the looping example")

    ux = App(gen_u(), Var(Atom(3)))
    if bt_graph(ux, BtBudget(states=64)) is not None:
        failures.append("growing-front term was claimed rational")
    counts = [
        subtree_count(graph_of(bt_truncate(ux, BtBudget(depth=d)))) for d in (4, 6, 8)
    ]
    if not (counts[0] < counts[1] < counts[2]):
        failures.append(f"subtree counts not strictly increasing: {counts}")

    if bt_truncate(gen_omega(), BtBudget(depth=8)) != BOT:
        failures.append("diverging term did not map to bottom")

    _verdict(
        "Böhm trees: rational loop detected, growing fronts rejected, divergence is bottom",
        not failures,
        f"front counts {counts}" + (f"; failures={failures}" if failures else ""),
    )


def test_7_nominal_laws():
    failures = []

    rng = random.Random(79)
    for _ in range(500):
        p, q, r = random_perm(rng), random_perm(rng), random_perm(rng)
        if p.compose(IDENTITY) != p or IDENTITY.compose(p) != p:
            failures.append("identity")
        if p.compose(q).compose(r) != p.compose(q.compose(r)):
            failures.append("associativity")
        if p.compose(p.inverse()) != IDENTITY:
            failures.append("inverse")

    def rand_schema(rng):
        arity = rng.randint(0, 3)
        stab = S2 if arity == 2 and rng.random() < 0.5 else None
        return OrbitSchema("s", arity, stab)

    rng = random.Random(83)
    for _ in range(500):
        schema = rand_schema(rng)
        e = OrbitElement(schema, tuple(rng.sample([Atom(i) for i in range(8)], schema.arity)))
        p = random_perm(rng)
        moved = e.act(p)
        if moved.support() != frozenset(p(a) for a in e.support()):
            failures.append("support equivariance")
        if len(moved.support()) != len(e.support()):
            failures.append("support size preservation")

    rng = random.Random(89)
    for _ in range(500):
        schema = rand_schema(rng)
        # the elements inside a pool of `arity` atoms have exactly that support
        n = len(enumerate_support_in(OrbitSet((schema,)), [Atom(i) for i in range(schema.arity)]))
        if not 1 <= n <= factorial(schema.arity):
            failures.append("factorial bound")

    rng = random.Random(97)
    for _ in range(500):
        schema = rand_schema(rng)
        pool = sorted(rng.sample([Atom(i) for i in range(6)], rng.randint(0, 4)))
        out = enumerate_support_in(OrbitSet((schema,)), pool)
        brute = []
        for t in itertools.permutations(pool, schema.arity):
            e = OrbitElement(schema, t)
            if not any(e == d for d in brute):
                brute.append(e)
        if len(out) != len(brute):
            failures.append("bounded enumeration")

    _verdict(
        "nominal laws hold on 500 randomized cases per law",
        not failures,
        f"failures={sorted(set(failures))}" if failures else "4x500 cases",
    )


def test_8_alpha_equivalence_agreement():
    t0 = time.perf_counter()
    graphs = [graph_of(parse_term(src)) for src in CORPUS]
    truncs = [[truncate(g, d) for d in range(13)] for g in graphs]
    pairs = 0
    disagreements = 0
    for i, g1 in enumerate(graphs):
        for j, g2 in enumerate(graphs):
            pairs += 1
            by_bisim = alpha_bisim(g1, g2)
            by_truncation = all(
                alpha_eq_finite(truncs[i][d], truncs[j][d]) for d in range(13)
            )
            if by_bisim != by_truncation:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and pairs >= 900 and elapsed < 60.0
    _verdict(
        "graph bisimulation agrees with depth-12 truncation comparison",
        ok,
        f"{pairs} pairs, {disagreements} disagreements, elapsed={elapsed:.2f}s",
    )
