import random

from ratlam import (
    Atom,
    InTriple,
    Lam,
    Var,
    alpha_bisim,
    c_construct,
    graph_of,
    graph_to_coalgebra,
    instantiate,
    parse_term,
    size_bound,
    subst_finite,
    subst_rational,
    truncate,
)
from ratlam.coalgebra import (
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    SymbolicCoalgebra,
)
from ratlam.substitution import subst_coalgebra
from ratlam.terms import _children

from conftest import alpha_eq_finite, random_perm, random_term_graph

# ---------------------------------------------------------------------------
# Finite substitution (the oracle itself)


def test_subst_finite_basics():
    x, y, s = Atom(0), Atom(1), Var(Atom(3))
    assert subst_finite(Var(x), x, s) == s
    assert subst_finite(Lam(x, Var(x)), x, s) == Lam(x, Var(x))
    assert subst_finite(parse_term("_|_"), x, s) == parse_term("_|_")


def test_subst_finite_capture_renames_to_least_fresh():
    # (\v1. v0)[v0 := v1]  ->  \v2. v1
    t = Lam(Atom(1), Var(Atom(0)))
    got = subst_finite(t, Atom(0), Var(Atom(1)))
    assert got == Lam(Atom(2), Var(Atom(1)))


def test_subst_finite_renames_past_inner_binders():
    # (\v1. \v2. v0 v1)[v0 := v1]: the fresh name v2 is also an inner binder
    t = parse_term(r"\v1. \v2. v0 v1")
    got = subst_finite(t, Atom(0), Var(Atom(1)))
    assert alpha_eq_finite(got, parse_term(r"\v5. \v6. v1 v5"))
    assert not alpha_eq_finite(got, parse_term(r"\v2. \v2. v1 v1"))


def test_subst_finite_respects_alpha():
    from ratlam import Perm

    rng = random.Random(59)
    for _ in range(100):
        t1 = truncate(random_term_graph(rng, 4), 5)
        v = Atom(rng.randrange(4))
        s = truncate(random_term_graph(rng, 3), 4)
        # rename with a permutation fixing the free variables and v: the
        # input is alpha-equivalent, so the output must be too
        fixed = t1.support() | s.support() | {v}
        moving = [Atom(i) for i in range(8) if Atom(i) not in fixed]
        image = moving[:]
        rng.shuffle(image)
        t2 = t1.act(Perm(dict(zip(moving, image))))
        assert alpha_eq_finite(t1, t2)
        assert alpha_eq_finite(subst_finite(t1, v, s), subst_finite(t2, v, s))


# ---------------------------------------------------------------------------
# Rational substitution


def _commutes(t, v, s, max_depth=10):
    out = subst_rational(t, v, s)
    for d in range(max_depth + 1):
        direct = truncate(graph_of(subst_finite(truncate(t, d), v, truncate(s, d))), d)
        if not alpha_eq_finite(truncate(out, d), direct):
            return False
    return True


def test_subst_rational_loop_body():
    g = graph_of(parse_term("mu r. v0 #r"))
    out = subst_rational(g, Atom(0), graph_of(parse_term("v1")))
    assert alpha_bisim(out, graph_of(parse_term("mu r. v1 #r")))


def test_subst_rational_noop_when_variable_absent():
    g = graph_of(parse_term("mu r. \\v0. v0 #r"))
    out = subst_rational(g, Atom(5), graph_of(parse_term("v1")))
    assert alpha_bisim(out, g)


def test_subst_rational_avoids_capture():
    # (\v0. v2 v0)[v2 := v0] must rename the binder away from the incoming v0
    out = subst_rational(
        graph_of(parse_term("\\v0. v2 v0")), Atom(2), graph_of(parse_term("v0"))
    )
    assert alpha_bisim(out, graph_of(parse_term("\\v1. v0 v1")))


def test_subst_rational_commutation_hand_cases(monkeypatch):
    # the last three reach InTriple.act: a λ step's binder lies outside
    # c_construct's name pool, so the body is renamed into the pool
    acts = []
    act = InTriple.act
    monkeypatch.setattr(InTriple, "act", lambda self, p: acts.append(p) or act(self, p))
    cases = [
        ("mu r. v0 #r", Atom(0), "v1"),
        ("\\v0. v2 v0", Atom(2), "v0"),
        ("mu r. \\v0. v0 (v1 #r)", Atom(1), "\\v0. v0 v0"),
        ("(\\v2. \\v1. v2) (\\v0. v0) v9", Atom(8), "\\v0. v3"),
        ("v2 (\\v3. \\v2. \\v1. v3)", Atom(8), "v3"),
        ("(\\v2. \\v1. v7 v7) ((\\v0. \\v2. v0) v9)", Atom(8), "\\v0. v2"),
    ]
    for t_src, v, s_src in cases:
        assert _commutes(graph_of(parse_term(t_src)), v, graph_of(parse_term(s_src)))
    assert acts


def test_subst_rational_commutation_random():
    rng = random.Random(61)
    for _ in range(25):
        t = random_term_graph(rng)
        s = random_term_graph(rng)
        if _has_bottom(t) or _has_bottom(s):
            continue
        v = Atom(rng.randrange(4))
        assert _commutes(t, v, s, max_depth=8)


def _has_bottom(g):
    return any(label == ("bot",) for label in g.nodes.values())


def test_subst_rational_equivariance():
    rng = random.Random(67)
    t = graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))
    s = graph_of(parse_term("v2 v3"))
    v = Atom(1)
    base = subst_rational(t, v, s)
    for _ in range(10):
        p = random_perm(rng)
        lhs = subst_rational(t.act(p), p(v), s.act(p))
        assert alpha_bisim(lhs, base.act(p))


# ---------------------------------------------------------------------------
# Carrier-choice independence


def _pad(sym: SymbolicCoalgebra, arity: int) -> SymbolicCoalgebra:
    """Add an unreachable extra orbit (raising the arity maximum)."""
    extra = OrbitSchema("pad", arity)
    return SymbolicCoalgebra(
        OrbitSet(sym.carrier.schemas + (extra,)),
        {**sym.steps, "pad": ("var", 0)},
    )


def _subst_with_padding(t, v, s, pad_a=0, pad_b=0):
    sym_a, root_a = graph_to_coalgebra(t)
    sym_b, root_b = graph_to_coalgebra(s)
    if pad_a:
        sym_a = _pad(sym_a, pad_a)
    if pad_b:
        sym_b = _pad(sym_b, pad_b)
    conc = subst_coalgebra(instantiate(sym_a), instantiate(sym_b))
    return c_construct(conc, InTriple(root_a, v, root_b))


def test_carrier_choice_independence():
    t = graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))
    s = graph_of(parse_term("v2 v3"))
    v = Atom(1)
    base = subst_rational(t, v, s)
    for pad_a, pad_b in [(1, 0), (0, 1), (2, 0), (0, 3), (3, 2)]:
        assert alpha_bisim(base, _subst_with_padding(t, v, s, pad_a, pad_b))


# ---------------------------------------------------------------------------
# State-space bound


def _state_pattern(state):
    """Orbit invariant: schemas plus the atom-coincidence pattern."""
    match state:
        case OrbitElement() as e:
            atoms, tag = e.atoms, ("B", e.schema.id)
        case InTriple(elem=x, marker=w, repl=y):
            atoms = x.atoms + (w,) + y.atoms
            tag = ("T", x.schema.id, y.schema.id)
    first_seen: dict = {}
    shape = tuple(first_seen.setdefault(a, len(first_seen)) for a in atoms)
    return tag + (shape,)


def test_output_size_within_orbit_bound():
    cases = [
        ("mu r. v0 #r", Atom(0), "v1 v2"),
        ("mu r. \\v0. v0 (v1 #r)", Atom(1), "\\v0. v0 v0"),
        ("mu a. \\v0. mu b. \\v1. #a #b", Atom(0), "v0"),
    ]
    for t_src, v, s_src in cases:
        t, s = graph_of(parse_term(t_src)), graph_of(parse_term(s_src))
        sym_a, root_a = graph_to_coalgebra(t)
        sym_b, root_b = graph_to_coalgebra(s)
        conc = subst_coalgebra(instantiate(sym_a), instantiate(sym_b))
        root = InTriple(root_a, v, root_b)
        # walk the raw state space and count its orbits
        seen = {root}
        stack = [root]
        while stack:
            for child in _children(conc.step_fn(stack.pop())):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        orbits = len({_state_pattern(st) for st in seen})
        out = c_construct(conc, root)
        assert len(out.nodes) <= size_bound(orbits, conc.support_bound)
