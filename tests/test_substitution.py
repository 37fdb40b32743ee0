import ast
import random
from pathlib import Path

import pytest

from ratlam import (
    Atom,
    Lam,
    Var,
    alpha_bisim,
    gen_rsigma,
    graph_of,
    parse_term,
    print_graph,
    size_bound,
    subst_finite,
    subst_rational,
    truncate,
)
from ratlam.coalgebra import OrbitElement
from ratlam.terms import _children

from conftest import (
    CORPUS,
    InTriple,
    alpha_eq_finite,
    c_construct_by_elements,
    random_perm,
    random_term_graph,
    subst_by_coalgebra,
    substitution_states,
)

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
    # on the oracle, the last three reach InTriple.act: a λ step's binder
    # lies outside the oracle's name pool, so the body is renamed into it
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
        t, s = graph_of(parse_term(t_src)), graph_of(parse_term(s_src))
        assert _commutes(t, v, s)
        assert print_graph(subst_rational(t, v, s)) == print_graph(subst_by_coalgebra(t, v, s))
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
# Agreement with the substitution coalgebra


def _capture_cases():
    """The benchmark's capture triples, read from perfbench/workloads.py
    without importing it."""
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CAPTURE_CASES"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py defines no CAPTURE_CASES")


def _oracle_triples():
    rng = random.Random(83)
    for _ in range(2_000):
        t = random_term_graph(rng, rng.randint(1, 14), rng.randint(2, 6))
        s = random_term_graph(rng, rng.randint(1, 6), rng.randint(2, 6))
        yield t, Atom(rng.randrange(5)), s
    graphs = [graph_of(parse_term(src)) for src in CORPUS]
    for i, t in enumerate(graphs):
        for s in graphs:
            yield t, Atom(i % 3), s
    for t_src, v, s_src in _capture_cases():
        yield graph_of(parse_term(t_src)), Atom(v), graph_of(parse_term(s_src))


def test_subst_rational_prints_as_the_coalgebra_oracle():
    count, mismatches = 0, []
    for t, v, s in _oracle_triples():
        count += 1
        got, want = print_graph(subst_rational(t, v, s)), print_graph(subst_by_coalgebra(t, v, s))
        if got != want:
            mismatches.append((print_graph(t), v, print_graph(s), got, want))
    assert count == 2_000 + len(CORPUS) ** 2 + len(_capture_cases())
    assert not mismatches, mismatches[:3]


def test_subst_rational_on_rsigma_3_is_the_coalgebra_oracle():
    t, v, s = gen_rsigma(3), Atom(1), graph_of(parse_term("\\v0. v0 v9"))
    out, want = subst_rational(t, v, s), subst_by_coalgebra(t, v, s)
    assert alpha_bisim(out, want)
    assert out.nodes == want.nodes and out.root == want.root


@pytest.mark.parametrize("t_src, s_src", [("v0 _|_", "v1"), ("v1", "\\v0. _|_"),
                                          ("\\v2. v2", "mu r. _|_ #r")])
def test_subst_rational_rejects_reachable_bottom(t_src, s_src):
    # a ⊥ in s is refused even where v is not free in t, as by the oracle
    t, s = graph_of(parse_term(t_src)), graph_of(parse_term(s_src))
    for subst in (subst_rational, subst_by_coalgebra):
        with pytest.raises(ValueError, match="⊥"):
            subst(t, Atom(0), s)


# ---------------------------------------------------------------------------
# Carrier-choice independence


def test_carrier_choice_independence():
    t = graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))
    s = graph_of(parse_term("v2 v3"))
    v = Atom(1)
    base = subst_rational(t, v, s)
    for pad_a, pad_b in [(1, 0), (0, 1), (2, 0), (0, 3), (3, 2)]:
        assert alpha_bisim(base, subst_by_coalgebra(t, v, s, pad_a, pad_b))


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
        conc, root = substitution_states(t, v, s)
        # walk the raw state space and count its orbits
        seen = {root}
        stack = [root]
        while stack:
            for child in _children(conc.step_fn(stack.pop())):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        orbits = len({_state_pattern(st) for st in seen})
        out = c_construct_by_elements(conc, root)
        assert len(out.nodes) <= size_bound(orbits, conc.support_bound)
