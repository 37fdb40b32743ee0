import gc
import itertools
import random
import re

import pytest

from ratlam import (
    App,
    Atom,
    BOT,
    ConcreteCoalgebra,
    EscapesCarrier,
    FRESH,
    InvalidCoalgebra,
    Lam,
    NotASubgroup,
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    SupportTooLarge,
    SymbolicCoalgebra,
    TermGraph,
    Var,
    alpha_bisim,
    c_construct,
    gen_pair,
    gen_rsigma,
    graph_of,
    graph_to_coalgebra,
    instantiate,
    orbit_count,
    parse_coalgebra,
    parse_root,
    parse_term,
    print_coalgebra,
    rsigma_count,
    size_bound,
    subst_rational,
    subtree_count,
    swap,
    truncate,
)
from ratlam import coalgebra
from ratlam.coalgebra import _classes, _free_orders, _orbit_classes

from conftest import (
    CORPUS,
    _same_orbit_by_search,
    alpha_eq_finite,
    c_construct_by_elements,
    free_order_by_search,
    glued,
    naive_unfold,
    orbit_count_by_search,
    random_finite_term,
    random_perm,
    random_stabilized_coalgebra,
    random_symbolic_coalgebra,
    random_term_graph,
)

S2 = frozenset({(0, 1), (1, 0)})


def _single(schema, step):
    return SymbolicCoalgebra(OrbitSet((schema,)), {schema.id: step})


# ---------------------------------------------------------------------------
# Validation


def test_validate_pair():
    sym, _ = gen_pair()
    assert set(sym._step_fns) == {"var", "pair"}


def test_validate_rejects_missing_step():
    with pytest.raises(InvalidCoalgebra):
        SymbolicCoalgebra(OrbitSet((OrbitSchema("o", 1),)), {})
    # and a step for an orbit the carrier does not declare
    sym, _ = gen_pair()
    with pytest.raises(InvalidCoalgebra, match="undeclared orbit 'ghost'"):
        SymbolicCoalgebra(sym.carrier, {**sym.steps, "ghost": ("var", 0)})


def test_validate_rejects_slot_out_of_range():
    with pytest.raises(InvalidCoalgebra):
        _single(OrbitSchema("o", 1), ("var", 3))


def test_validate_rejects_non_injective_assignment():
    with pytest.raises(InvalidCoalgebra):
        _single(OrbitSchema("o", 2), ("app", ("o", (0, 0)), ("o", (0, 1))))


@pytest.mark.parametrize("step, message", [
    (("app", ("q", (0,)), ("o", (0,))), "step of 'o': target names undeclared orbit 'q'"),
    (("app", ("o", (FRESH,)), ("o", (0,))),
     "step of 'o': FRESH not allowed in an application target"),
])
def test_validate_rejects_bad_app_target(step, message):
    with pytest.raises(InvalidCoalgebra, match=f"^{re.escape(message)}$"):
        _single(OrbitSchema("o", 1), step)


def test_validate_rejects_double_fresh():
    with pytest.raises(InvalidCoalgebra):
        _single(OrbitSchema("o", 2), ("lam", FRESH, ("o", (FRESH, FRESH))))


def test_validate_rejects_binder_slot_and_fresh_in_one_body():
    a, b = OrbitSchema("a", 1), OrbitSchema("b", 2)
    with pytest.raises(InvalidCoalgebra, match="^step of 'a': binder slot 1 and FRESH both "
                                               "in the λ body$"):
        SymbolicCoalgebra(OrbitSet((a, b)), {"a": ("lam", 0, ("b", (0, FRESH))),
                                             "b": ("app", ("a", (0,)), ("a", (1,)))})
    # FRESH without the binder's slot names the binder once: the same as the slot
    sym = SymbolicCoalgebra(OrbitSet((a,)), {"a": ("lam", 0, ("a", (FRESH,)))})
    assert instantiate(sym).step_fn(OrbitElement(a, (Atom(3),)))[:2] == ("lam", Atom(3))


@pytest.mark.parametrize("view", [
    ("var",),
    ("var", "1"),
    ("var", 0, 1),
    ("app", ("o", (0,))),
    ("app", "o(1)", "o(1)"),
    ("app", ("o", [0]), ("o", (0,))),
    ("lam", FRESH, "o"),
    ("lam", "fresh", ("o", (0,))),
    ("abs", FRESH, ("o", (0,))),
    ("bot",),
    "var 1",
])
def test_validate_rejects_a_view_of_no_step_shape(view):
    with pytest.raises(InvalidCoalgebra):
        _single(OrbitSchema("o", 1), view)


@pytest.mark.parametrize("view", [
    ("var", Atom(0)),
    ("lam", Atom(0), ("o", (0,))),
    ("app", ("o", (Atom(0),)), ("o", (0,))),
])
def test_validate_rejects_an_atom_as_a_slot(view):
    # an Atom is an int, and Atom(0) == 0, but it names a variable, not a slot
    with pytest.raises(InvalidCoalgebra):
        _single(OrbitSchema("o", 1), view)


def test_stabilizer_well_definedness():
    # under the slot swap, var-of-slot-1 changes: ill-defined on the quotient
    u = OrbitSchema("u", 2, S2)
    with pytest.raises(InvalidCoalgebra):
        _single(u, ("var", 0))
    # an application into the same unordered pair is symmetric, hence fine
    _single(u, ("app", ("u", (0, 1)), ("u", (0, 1))))
    # so is abstracting a fresh name over the same unordered pair
    _single(u, ("lam", FRESH, ("u", (0, 1))))
    # and binding a slot, up to α: the swap turns λv0. w(v0) into λv1. w(v1)
    w = OrbitSchema("w", 1)
    SymbolicCoalgebra(OrbitSet((u, w)), {"u": ("lam", 0, ("w", (0,))), "w": ("var", 0)})


def test_trivial_stabilizer_runs_no_step(monkeypatch):
    step_fn = coalgebra._step_fn

    def no_step(c, schema):
        step_fn(c, schema)  # the shape and slot checks still run
        return lambda atoms: pytest.fail(f"step of {schema.id!r} ran during the check")

    monkeypatch.setattr(coalgebra, "_step_fn", no_step)
    sym, _ = graph_to_coalgebra(graph_of(parse_term(r"mu r. \x. \y. (x #r) y")))
    assert sym.carrier.schemas and all(s.trivial for s in sym.carrier)


# ---------------------------------------------------------------------------
# Instantiation


def test_instantiate_pair_steps():
    sym, root = gen_pair()
    conc = instantiate(sym)
    kind, left, right = conc.step_fn(root)
    assert kind == "app"
    assert left.atoms == (Atom(0),)
    assert right.atoms == (Atom(1),)
    var = OrbitElement(sym.carrier["var"], (Atom(7),))
    assert conc.step_fn(var) == ("var", Atom(7))


def test_instantiate_fresh_binder_is_least_fresh():
    o0 = OrbitSchema("o0", 0)
    o1 = OrbitSchema("o1", 1)
    sym = SymbolicCoalgebra(
        OrbitSet((o0, o1)),
        {"o0": ("lam", FRESH, ("o1", (FRESH,))), "o1": ("var", 0)},
    )
    conc = instantiate(sym)
    kind, binder, body = conc.step_fn(OrbitElement(o0, ()))
    assert kind == "lam"
    assert binder == Atom(0)
    assert body.atoms == (Atom(0),)
    # the whole thing unfolds to the identity function
    g = c_construct(conc, OrbitElement(o0, ()), sym.carrier)
    assert alpha_bisim(g, graph_of(parse_term(r"\x. x")))


# ---------------------------------------------------------------------------
# The finite construction


def test_size_bound_values():
    assert size_bound(2, 2) == 12
    assert size_bound(1, 0) == 1
    assert size_bound(3, 1) == 6


def test_pair_construction():
    sym, root = gen_pair()
    conc = instantiate(sym)
    g = c_construct(conc, root, sym.carrier)
    assert len(g.nodes) == 9
    assert len(g.nodes) <= size_bound(2, 2)
    assert subtree_count(g) == 3
    assert truncate(g, 2) == parse_term("v0 v1")
    reach = c_construct(conc, root)
    assert len(reach.nodes) == 3
    assert alpha_bisim(g, reach)


def test_self_loop_application():
    o = OrbitSchema("o", 0)
    sym = _single(o, ("app", ("o", ()), ("o", ())))
    g = c_construct(instantiate(sym), OrbitElement(o, ()), sym.carrier)
    assert len(g.nodes) == 1
    assert g.nodes[g.root] == ("app", g.root, g.root)


def test_binder_reuse_tower():
    o = OrbitSchema("o", 0)
    sym = _single(o, ("lam", FRESH, ("o", ())))
    g = c_construct(instantiate(sym), OrbitElement(o, ()), sym.carrier)
    assert len(g.nodes) == 1
    v0 = Atom(0)
    assert truncate(g, 3) == Lam(v0, Lam(v0, Lam(v0, BOT)))


def test_support_too_large():
    o = OrbitSchema("o", 2)
    conc = ConcreteCoalgebra(lambda e: ("var", e.atoms[0]), support_bound=1)
    with pytest.raises(SupportTooLarge):
        c_construct(conc, OrbitElement(o, (Atom(0), Atom(1))))


def test_reach_mode_rejects_a_step_target_over_the_support_bound():
    o, p = OrbitSchema("o", 1), OrbitSchema("p", 2)
    a, b = Atom(0), Atom(1)
    wide = OrbitElement(p, (a, b))
    conc = ConcreteCoalgebra(lambda e: ("app", wide, e) if e.schema is o else ("var", a),
                             support_bound=1)
    with pytest.raises(SupportTooLarge, match=r"^element p\(v0,v1\) exceeds the support bound$"):
        c_construct_by_elements(conc, OrbitElement(o, (a,)))


def test_reach_mode_needs_an_instantiated_coalgebra():
    # c_construct reads the symbolic steps, which a hand-built coalgebra lacks
    o = OrbitSchema("o", 1)
    conc = ConcreteCoalgebra(lambda e: ("var", e.atoms[0]), support_bound=1)
    with pytest.raises(ValueError, match="needs the carrier") as info:
        c_construct(conc, OrbitElement(o, (Atom(0),)))
    assert type(info.value) is ValueError
    assert c_construct_by_elements(conc, OrbitElement(o, (Atom(0),))).nodes == {0: ("var", Atom(0))}


def test_escapes_carrier():
    # a hand-built step could leave the carrier, so it has no enumerative mode
    o = OrbitSchema("o", 1)
    stray = OrbitElement(o, (Atom(9),))
    conc = ConcreteCoalgebra(lambda e: ("app", stray, stray), support_bound=1)
    with pytest.raises(ValueError, match="needs the carrier") as info:
        c_construct(conc, OrbitElement(o, (Atom(0),)), OrbitSet((o,)))
    assert type(info.value) is ValueError
    with pytest.raises(EscapesCarrier):
        c_construct_by_elements(conc, OrbitElement(o, (Atom(0),)), OrbitSet((o,)))


def test_enumerative_mode_needs_the_coalgebras_own_carrier():
    sym, root = gen_pair()
    conc = instantiate(sym)
    other = OrbitSet((*sym.carrier.schemas, OrbitSchema("extra", 1)))
    with pytest.raises(ValueError, match="needs the carrier") as info:
        c_construct(conc, root, other)
    assert type(info.value) is ValueError
    # an equal carrier built apart is the coalgebra's own
    same = OrbitSet(tuple(OrbitSchema(s.id, s.arity) for s in sym.carrier))
    assert c_construct(conc, root, same).nodes == c_construct(conc, root, sym.carrier).nodes


def test_enumerative_root_outside_the_carrier():
    sym, _ = gen_pair()
    conc = instantiate(sym)
    # an undeclared orbit, and a declared orbit's id at the wrong arity, in both modes
    for stray in (OrbitElement(OrbitSchema("stray", 1), (Atom(0),)),
                  OrbitElement(OrbitSchema("pair", 1), (Atom(0),))):
        for carrier in (sym.carrier, None):
            with pytest.raises(EscapesCarrier) as info:
                c_construct(conc, stray, carrier)
            assert info.value.elem is stray


def _with_slot_binders(rng, sym):
    """sym with some λ binders moved from FRESH to a slot of the orbit, the
    body's FRESH slot (if any) becoming that slot."""
    steps = dict(sym.steps)
    for s in sym.carrier:
        match steps[s.id]:
            case ("lam", _, (t, asg)) if s.arity and rng.random() < 0.7:
                b = rng.randrange(s.arity)
                if b not in asg:
                    asg = tuple(b if x is FRESH else x for x in asg)
                if FRESH not in asg:
                    steps[s.id] = ("lam", b, (t, asg))
    return SymbolicCoalgebra(sym.carrier, steps)


def _differential_cases():
    yield "pair", *gen_pair()
    rng = random.Random(41)
    for i in range(40):
        yield f"random-{i}", *random_symbolic_coalgebra(rng)
    for i in range(40):
        sym, root = random_symbolic_coalgebra(rng)
        yield f"slot-binders-{i}", _with_slot_binders(rng, sym), root
    for i in range(40):
        yield f"stabilized-{i}", *random_stabilized_coalgebra(rng)
    for i in range(48):
        g = random_term_graph(rng, max_nodes=rng.randint(1, 12), natoms=rng.randint(2, 5))
        yield f"roundtrip-{i}", *graph_to_coalgebra(g)
    for level in (1, 2, 3):
        yield f"rsigma-{level}", *graph_to_coalgebra(gen_rsigma(level))


def test_enumerative_mode_agrees_with_the_element_construction():
    stabilized = slot_binders = 0
    for name, sym, root in _differential_cases():
        conc = instantiate(sym)
        for carrier in (sym.carrier, None):
            g = c_construct(conc, root, carrier)
            want = c_construct_by_elements(conc, root, carrier)
            assert list(g.nodes.items()) == list(want.nodes.items()), (name, carrier)
            assert g.root == want.root, (name, carrier)
        stabilized += any(not s.trivial for s in sym.carrier)
        slot_binders += any(v[0] == "lam" and v[1] is not FRESH for v in sym.steps.values())
    assert stabilized == 40
    assert slot_binders >= 10


def test_rejects_a_step_that_is_not_a_label():
    o = OrbitSchema("o", 0)
    conc = ConcreteCoalgebra(lambda e: ("bot",), support_bound=0)
    with pytest.raises(InvalidCoalgebra):
        c_construct_by_elements(conc, OrbitElement(o, ()))


# μr. λv0. v0 (v1 r) [v1 := v0 v2]: the binder v0 is free in the replacement
_SUBST_CASE = (graph_of(parse_term("mu r. \\v0. v0 (v1 #r)")), Atom(1),
               graph_of(parse_term("v0 v2")))


def test_exact_outputs():
    a0, a1, a2, a3 = (Atom(i) for i in range(4))
    sym, root = gen_pair()
    conc = instantiate(sym)
    g = c_construct(conc, root, sym.carrier)
    assert g.nodes == {
        0: ("var", a0), 1: ("var", a1), 2: ("var", a2),
        3: ("app", 0, 1), 4: ("app", 0, 2), 5: ("app", 1, 0),
        6: ("app", 1, 2), 7: ("app", 2, 0), 8: ("app", 2, 1),
    }
    assert g.root == 3
    g = c_construct(conc, root)
    assert g.nodes == {0: ("app", 1, 2), 1: ("var", a0), 2: ("var", a1)}
    assert g.root == 0
    g = subst_rational(*_SUBST_CASE)  # so the binder is renamed to v3
    assert g.nodes == {
        0: ("lam", a3, 1), 1: ("app", 2, 3), 2: ("var", a3), 3: ("app", 4, 0),
        4: ("app", 5, 6), 5: ("var", a0), 6: ("var", a2),
    }
    assert g.root == 0


def test_construction_agrees_with_naive_unfolding():
    corpus = [gen_pair(), *(random_symbolic_coalgebra(random.Random(s)) for s in range(5))]
    for sym, root in corpus:
        conc = instantiate(sym)
        g = c_construct(conc, root, sym.carrier)
        for d in range(11):
            assert alpha_eq_finite(truncate(g, d), naive_unfold(conc, root, d))


def test_reachable_and_enumerative_modes_agree():
    for seed in range(8):
        sym, root = random_symbolic_coalgebra(random.Random(100 + seed))
        conc = instantiate(sym)
        assert alpha_bisim(c_construct(conc, root, sym.carrier), c_construct(conc, root))


# ---------------------------------------------------------------------------
# Graph -> coalgebra


def test_graph_to_coalgebra_shapes():
    sym, root = graph_to_coalgebra(graph_of(parse_term("v0 v1")))
    assert sorted(s.arity for s in sym.carrier) == [1, 1, 2]
    assert root.atoms == (Atom(0), Atom(1))

    sym1, root1 = graph_to_coalgebra(graph_of(parse_term("v3")))
    (schema,) = sym1.carrier.schemas
    assert schema.arity == 1
    assert sym1.steps[schema.id] == ("var", 0)


def test_graph_to_coalgebra_rejects_bottom():
    with pytest.raises(ValueError):
        graph_to_coalgebra(graph_of(parse_term("_|_")))


def test_graph_to_coalgebra_is_equivariant():
    # sorted slots would give `v1 v0` the step app n1(2) n2(1), `v0 v1` app n1(1) n2(2)
    rng = random.Random(13)
    cases = [(graph_of(parse_term("v0 v1")), swap(Atom(0), Atom(1)))]
    for _ in range(200):
        g = random_term_graph(rng, max_nodes=14, natoms=rng.randint(2, 5))
        cases.append((g, random_perm(rng)))
    for g, p in cases:
        sym, root = graph_to_coalgebra(g)
        sym_p, root_p = graph_to_coalgebra(g.act(p))
        assert sym_p.steps == sym.steps
        assert root_p.atoms == tuple(p(a) for a in root.atoms)


def test_roundtrip_on_sample():
    for src in CORPUS[:10]:
        g = graph_of(parse_term(src))
        sym, root = graph_to_coalgebra(g)
        back = c_construct(instantiate(sym), root)
        assert alpha_bisim(g, back)


# ---------------------------------------------------------------------------
# Example families


def test_rsigma_counts_small():
    assert rsigma_count(1) == 3
    assert rsigma_count(2) == 8
    assert rsigma_count(3) == 88
    assert subtree_count(gen_rsigma(1)) == 3
    assert subtree_count(gen_rsigma(2)) == 8
    # the generator shares every subtree: one node per distinct subtree
    assert [len(gen_rsigma(L).nodes) for L in (1, 2, 3)] == [3, 8, 88]


def _construct_pair(enumerative: bool):
    sym, root = gen_pair()
    return c_construct(instantiate(sym), root, sym.carrier if enumerative else None)


@pytest.mark.parametrize("call", [
    lambda: gen_rsigma(1),
    lambda: gen_rsigma(2),
    lambda: gen_rsigma(3),
    lambda: _construct_pair(enumerative=True),
    lambda: _construct_pair(enumerative=False),
    lambda: subst_rational(*_SUBST_CASE),
], ids=["rsigma-1", "rsigma-2", "rsigma-3", "c_construct-enum", "c_construct-reach", "subst"])
def test_coalgebra_calls_leave_no_reference_cycles(call):
    # a cycle through a recursive closure would keep the call's memo and
    # node dict alive until the cyclic collector next runs
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rsigma_rejects_bad_levels():
    with pytest.raises(ValueError):
        gen_rsigma(0)
    with pytest.raises(ValueError, match="levels must be >= 1"):
        rsigma_count(0)
    with pytest.raises(ValueError):
        gen_rsigma(5)


def test_orbit_count_examples():
    assert orbit_count(graph_of(parse_term("v0 v1"))) == 2
    assert orbit_count(gen_rsigma(1)) == 3
    assert orbit_count(gen_rsigma(2)) == 4
    assert orbit_count(gen_rsigma(3)) == 5


def _cycle(k: int) -> TermGraph:
    """k nodes c_i = v_i c_(i+1), closed into a cycle: all c_i share one orbit."""
    nodes = {i: ("app", k + i, (i + 1) % k) for i in range(k)}
    nodes.update({k + i: ("var", Atom(i + 1)) for i in range(k)})
    return TermGraph(nodes, 0)


def _spine(k: int) -> TermGraph:
    """v1 v2 … vk: the k-1 applications have k-1 different arities."""
    t = Var(Atom(1))
    for i in range(2, k + 1):
        t = App(t, Var(Atom(i)))
    return graph_of(t)


@pytest.mark.parametrize("k", range(3, 9))
def test_orbit_count_cycles_and_spines(k):
    assert orbit_count(_cycle(k)) == 2
    assert orbit_count(_spine(k)) == k


def test_orbit_count_work_on_a_cycle(monkeypatch):
    passes, refinements = [], []

    def counted_orders(*args):
        passes.append(args)
        return _free_orders(*args)

    def counted_classes(*args):
        refinements.append(args)
        return _classes(*args)

    monkeypatch.setattr(coalgebra, "_free_orders", counted_orders)
    monkeypatch.setattr(coalgebra, "_classes", counted_classes)
    g = _cycle(8)
    assert orbit_count(g) == 2
    # one free-order pass and one refinement, where trying all 8! renamings
    # per pair of subtrees takes tens of thousands of steps
    assert len(passes) == 1
    assert len(refinements) == 1


def _lam_chain(n: int) -> TermGraph:
    """n λv1s over `var v0`, the leaf inserted first: n + 1 distinct orbits."""
    nodes = {0: ("var", Atom(0))}
    nodes.update({i: ("lam", Atom(1), i - 1) for i in range(1, n + 1)})
    return TermGraph(nodes, n)


def test_orbit_count_of_a_10k_lambda_chain():
    # a search per node walks down to the leaf: quadratic on this chain
    assert orbit_count(_lam_chain(10_000)) == 10_001


def test_orbit_count_matches_renaming_search():
    rng = random.Random(4)
    for _ in range(300):
        g = random_term_graph(rng, max_nodes=14, natoms=rng.randint(2, 5))
        want = orbit_count_by_search(g)
        assert orbit_count(g) == want
        assert orbit_count(g.act(random_perm(rng))) == want


def test_orbit_classes_are_orbits_pairwise():
    # pairwise, so that two compensating errors cannot cancel in a count
    rng = random.Random(7)
    for _ in range(1000):
        g = random_term_graph(rng, max_nodes=16, natoms=rng.randint(2, 5))
        fvs = g.fv_map()
        cls = _orbit_classes(g)
        for n1, n2 in itertools.combinations(g.reachable(), 2):
            assert (cls[n1] == cls[n2]) == _same_orbit_by_search(g, fvs, n1, n2)


def test_orbit_count_rsigma_4():
    # 122,704 nodes: deep enough for any recursive traversal to hit the limit
    assert orbit_count(gen_rsigma(4)) == 6


def _order_at_root(g: TermGraph) -> tuple[Atom, ...]:
    return _free_orders(g)[g.root]


def test_free_order_skips_bound_occurrences():
    # the bound v0 is met before any free name; sorting would give (v0, v1)
    assert _order_at_root(graph_of(parse_term("(\\v0. v0) (v1 v0)"))) == (Atom(1), Atom(0))
    assert _order_at_root(graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))) == (Atom(1),)
    assert _order_at_root(graph_of(parse_term("\\v0. \\v1. v0"))) == ()


def test_free_order_is_equivariant():
    rng = random.Random(5)
    for _ in range(200):
        g = random_term_graph(rng, max_nodes=14, natoms=rng.randint(2, 5))
        p = random_perm(rng)
        fvs, orders, orders_p = g.fv_map(), _free_orders(g), _free_orders(g.act(p))
        for n in g.reachable():
            assert set(orders[n]) == fvs[n]
            assert orders_p[n] == tuple(p(a) for a in orders[n])


def test_free_orders_match_a_search_per_node():
    rng = random.Random(12)
    graphs = [gen_rsigma(k) for k in (1, 2, 3)]
    for _ in range(500):
        g = random_term_graph(rng, max_nodes=rng.randint(2, 20), natoms=rng.randint(2, 5))
        graphs += [g, glued(g)]
    for g in graphs:
        fvs, orders = g.fv_map(), _free_orders(g)
        assert orders.keys() == set(g.reachable())
        for n in g.reachable():
            assert orders[n] == free_order_by_search(g, fvs, n)


def _rename_binders(t, names, env=None):
    env = env or {}
    match t:
        case Var(a):
            return Var(env.get(a, a))
        case Lam(x, b):
            y = next(names)
            return Lam(y, _rename_binders(b, names, {**env, x: y}))
        case App(f, a):
            return App(_rename_binders(f, names, env), _rename_binders(a, names, env))
    return t


def test_free_order_is_alpha_invariant():
    rng = random.Random(6)
    for _ in range(300):
        t = random_finite_term(rng, depth=rng.randint(2, 6))
        t2 = _rename_binders(t, (Atom(i) for i in range(10, 100)))
        assert alpha_eq_finite(t, t2)
        assert _order_at_root(graph_of(t)) == _order_at_root(graph_of(t2))
    pairs = [
        ("mu r. \\v0. v0 (v1 (v2 #r))", "mu r. \\v5. v5 (v1 (v2 #r))"),
        ("\\v0. (\\v1. v0 v1) (v3 v2)", "\\v5. (\\v0. v5 v0) (v3 v2)"),
        ("mu a. \\v0. mu b. \\v1. (v0 (v2 #a)) (v1 (v3 #b))",
         "mu a. \\v6. mu b. \\v5. (v6 (v2 #a)) (v5 (v3 #b))"),
    ]
    for s1, s2 in pairs:
        g1, g2 = graph_of(parse_term(s1)), graph_of(parse_term(s2))
        assert alpha_bisim(g1, g2)
        assert _order_at_root(g1) == _order_at_root(g2)


# ---------------------------------------------------------------------------
# Text format


PAIR_TEXT = """\
orbit var arity=1 stab=trivial
orbit pair arity=2 stab=trivial
step var = var 1
step pair = app var(1) var(2)
"""


def test_parse_coalgebra_text():
    sym = parse_coalgebra(PAIR_TEXT)
    assert sym.steps["pair"] == ("app", ("var", (0,)), ("var", (1,)))
    commented = parse_coalgebra("# a pair of variables\n\n" + PAIR_TEXT.replace("\n", "\n  \n", 1))
    assert commented.steps == sym.steps and commented.carrier == sym.carrier
    root = parse_root("pair(v0,v1)", sym)
    g = c_construct(instantiate(sym), root, sym.carrier)
    assert len(g.nodes) == 9


def test_parse_coalgebra_with_stabilizer():
    text = (
        "orbit u arity=2 stab=(1 2)\n"
        "step u = app u(1,2) u(1,2)\n"
    )
    sym = parse_coalgebra(text)
    (schema,) = sym.carrier.schemas
    assert schema.stabilizer == frozenset({(0, 1), (1, 0)})


# the 3-cycle group at arity 3 and the Klein group at arity 4
STAB_TEXT = """\
orbit c arity=3 stab=(1 2 3);(1 3 2)
orbit k arity=4 stab=(1 2)(3 4);(1 3)(2 4);(1 4)(2 3)
step c = app c(1,2,3) c(2,3,1)
step k = app k(1,2,3,4) k(2,1,4,3)
"""


def test_print_parse_coalgebra_roundtrip():
    for sym in [gen_pair()[0], parse_coalgebra(PAIR_TEXT), parse_coalgebra(STAB_TEXT)]:
        back = parse_coalgebra(print_coalgebra(sym))
        assert back.steps == sym.steps
        assert [
            (s.id, s.arity, s.stabilizer) for s in back.carrier
        ] == [(s.id, s.arity, s.stabilizer) for s in sym.carrier]
    sym = parse_coalgebra(STAB_TEXT)
    assert sym.carrier["c"].stabilizer == frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
    assert len(sym.carrier["k"].stabilizer) == 4
    assert print_coalgebra(sym) == STAB_TEXT


def test_parse_root_reads_atom_names_only():
    sym = parse_coalgebra(PAIR_TEXT)
    assert parse_root("pair(v10, v0)", sym).atoms == (Atom(10), Atom(0))
    for bad in ("pair(v01,v2)", "pair(v1,x)", "pair(v-1,v2)"):
        with pytest.raises(InvalidCoalgebra, match="bad atom"):
            parse_root(bad, sym)
    with pytest.raises(InvalidCoalgebra, match="^root element names undeclared orbit 'zz'$"):
        parse_root("zz(v0)", sym)
    with pytest.raises(InvalidCoalgebra, match="^bad root element: 'pair'$"):
        parse_root("pair", sym)


def test_parse_coalgebra_rejects_garbage():
    with pytest.raises(InvalidCoalgebra):
        parse_coalgebra("nonsense line\n")
    with pytest.raises(InvalidCoalgebra):
        parse_coalgebra("step o = app var(1)\n")
    with pytest.raises(InvalidCoalgebra, match="second step"):
        parse_coalgebra(PAIR_TEXT + "step pair = app var(2) var(1)\n")
    for step, message in (
        ("app o() o(1)", "step of 'o': assignment length 0 does not match arity of 'o'"),
        ("abs 1", "bad abs step: 'step o = abs 1'"),
        ("abs 1 o(1) o(1)", "bad abs step: 'step o = abs 1 o(1) o(1)'"),
    ):
        with pytest.raises(InvalidCoalgebra, match=f"^{re.escape(message)}$"):
            parse_coalgebra(f"orbit o arity=1 stab=trivial\nstep o = {step}\n")
    # stab is `trivial` or `;`-separated products of cycles over slots 1..arity
    for stab in ("(1 3)", "(0 1)", "(1 2", "foo", "()", "trivial;(1 2)"):
        with pytest.raises(InvalidCoalgebra, match="stab member"):
            parse_coalgebra(f"orbit o arity=2 stab={stab}\nstep o = app o(1,2) o(1,2)\n")
    # a stabilizer is checked on its own line, before any later line is read
    with pytest.raises(NotASubgroup, match="^stabilizer of orbit 'c' is not a subgroup"):
        parse_coalgebra("orbit c arity=3 stab=(1 2 3)\nnonsense line\n")
