import gc
import random

import pytest
from hypothesis import given

from ratlam import (
    App,
    Atom,
    BOT,
    Bot,
    BottomVerdict,
    BtBudget,
    HnfDecomposition,
    Lam,
    Var,
    alpha_bisim,
    bt_graph,
    bt_truncate,
    fv,
    gen_omega,
    gen_s,
    gen_u,
    graph_of,
    head_reduce,
    parse_term,
    print_graph,
    print_term,
    truncate,
)
from ratlam import boehm
from ratlam.boehm import _canonicalize, _spine, _unspine

from conftest import alpha_eq_finite, bt_truncate_by_spine, finite_terms, random_finite_term

# ---------------------------------------------------------------------------
# Head reduction


def test_head_reduce_single_beta_step():
    t = parse_term(r"(\x. x) y")
    res = head_reduce(t, fuel=1)
    assert res == HnfDecomposition((), Atom(1), ())


def test_head_reduce_omega_never_terminates():
    for fuel in (1, 16, 256):
        res = head_reduce(gen_omega(), fuel)
        assert isinstance(res, BottomVerdict)
        assert res.fuel_exhausted


def test_head_reduce_bottom_is_immediate():
    res = head_reduce(BOT, fuel=5)
    assert res == BottomVerdict(fuel_exhausted=False)


def test_head_reduce_fixpoint_combinator():
    # Y f reduces to f applied to one argument
    f = Atom(0)
    z = Atom(1)
    half = Lam(z, App(Var(f), App(Var(z), Var(z))))
    res = head_reduce(App(half, half), fuel=4)
    assert isinstance(res, HnfDecomposition)
    assert res.head == f and len(res.args) == 1 and not res.binders


def test_head_reduce_combinator_spot_checks():
    K = parse_term(r"\x. \y. x")
    S = parse_term(r"\x. \y. \z. (x z) (y z)")
    I = parse_term(r"\x. x")
    a, b = Var(Atom(10)), Var(Atom(11))
    assert head_reduce(App(App(K, a), b), 8) == HnfDecomposition((), Atom(10), ())
    assert head_reduce(App(I, a), 8) == HnfDecomposition((), Atom(10), ())
    skk = App(App(S, K), K)  # the identity
    assert head_reduce(App(skk, a), 8).head == Atom(10)


def test_hnf_reassembly():
    t = parse_term(r"\v0. \v1. v0 v1 v2")
    res = head_reduce(t, 1)
    assert alpha_eq_finite(res.term(), t)


def test_unspine_inverts_spine():
    rng = random.Random(29)
    for _ in range(500):
        t = random_finite_term(rng, 6)
        assert _unspine(*_spine(t)) == t


# ---------------------------------------------------------------------------
# Böhm tree prefixes


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        BtBudget(fuel=0)
    with pytest.raises(ValueError):
        BtBudget(depth=-1)


def test_bt_truncate_omega_is_bottom():
    for depth in (1, 4, 8):
        assert bt_truncate(gen_omega(), BtBudget(depth=depth)) == BOT


def test_bt_truncate_normal_forms_pass_through():
    assert bt_truncate(parse_term(r"\x. x"), BtBudget(depth=2)) == parse_term(r"\x. x")
    assert bt_truncate(Var(Atom(3)), BtBudget(depth=1)) == Var(Atom(3))


def test_bt_truncate_of_s():
    got4 = bt_truncate(gen_s(), BtBudget(depth=4))
    assert alpha_eq_finite(got4, parse_term(r"\v1. \v2. (_|_ _|_) v2"))
    got5 = bt_truncate(gen_s(), BtBudget(depth=5))
    assert alpha_eq_finite(got5, parse_term(r"\v1. \v2. (v1 (\v1. _|_)) v2"))


def test_bt_truncate_head_reduces_each_distinct_term_once(monkeypatch):
    # S's Böhm tree is rational over two terms, met at every depth down to 128
    calls = []
    reduce = boehm.head_reduce
    monkeypatch.setattr(boehm, "head_reduce", lambda t, fuel: calls.append(t) or reduce(t, fuel))
    bt_truncate(gen_s(), BtBudget(depth=128))
    assert len(calls) == 2


@pytest.mark.parametrize("depth, reduced, want", [(1, 1, "_|_ _|_"), (2, 2, "v0 _|_")])
def test_bt_truncate_never_head_reduces_past_the_cut(monkeypatch, depth, reduced, want):
    # the argument Ω is head-reduced only once its state lies above the cut
    calls = []
    reduce = boehm.head_reduce
    monkeypatch.setattr(boehm, "head_reduce", lambda t, fuel: calls.append(t) or reduce(t, fuel))
    got = bt_truncate(parse_term(r"v0 ((\x. x x) (\x. x x))"), BtBudget(depth=depth))
    assert (len(calls), print_term(got)) == (reduced, want)


def test_bt_truncate_agrees_with_spine_oracle():
    rng = random.Random(20)
    terms = [random_finite_term(rng, 5) for _ in range(300)]
    terms += [gen_s(), App(gen_u(), Var(Atom(3))), gen_omega()]
    for t in terms:
        for depth in (1, 2, 3, 5, 8, 10):
            for fuel in (1, 4, 16, 64):
                got = bt_truncate(t, BtBudget(fuel=fuel, depth=depth))
                assert print_term(got) == print_term(bt_truncate_by_spine(t, fuel, depth)), (t, depth, fuel)


def test_bt_truncate_is_deterministic():
    b = BtBudget(depth=6)
    assert bt_truncate(gen_s(), b) == bt_truncate(gen_s(), b)


def _refines(small, big):
    """small equals big except that some subtrees are cut to bottom."""
    if small == BOT:
        return True
    match (small, big):
        case (Var(a), Var(b)):
            return a == b
        case (Lam(x1, b1), Lam(x2, b2)):
            return x1 == x2 and _refines(b1, b2)
        case (App(f1, a1), App(f2, a2)):
            return _refines(f1, f2) and _refines(a1, a2)
        case (Bot(), Bot()):
            return True
    return False


def test_bt_truncate_fuel_monotonicity():
    for t in [gen_s(), App(gen_u(), Var(Atom(3))), parse_term(r"(\x. x x) (\y. y)")]:
        low = bt_truncate(t, BtBudget(fuel=2, depth=6))
        high = bt_truncate(t, BtBudget(fuel=64, depth=6))
        assert _refines(low, high)


def test_bt_truncate_depth_monotonicity():
    for t in [gen_s(), App(gen_u(), Var(Atom(3)))]:
        for d in range(1, 7):
            shallow = bt_truncate(t, BtBudget(depth=d))
            deep = bt_truncate(t, BtBudget(depth=d + 3))
            assert truncate(graph_of(deep), d) == shallow


# ---------------------------------------------------------------------------
# Rationality detection


def test_bt_graph_of_normal_form():
    g = bt_graph(parse_term(r"\x. x"), BtBudget())
    assert g is not None
    assert len(g.nodes) == 2
    assert alpha_bisim(g, graph_of(parse_term(r"\x. x")))


def test_bt_graph_of_bottom():
    g = bt_graph(BOT, BtBudget())
    assert g is not None
    assert list(g.nodes.values()) == [("bot",)]


def test_bt_graph_of_s_is_the_expected_loop():
    g = bt_graph(gen_s(), BtBudget())
    assert g is not None
    assert alpha_bisim(g, graph_of(parse_term("mu r. \\v0. \\v1. (v0 #r) v1")))


def test_bt_graph_names_binders_in_traversal_order():
    # each state is canonicalized with the least atoms outside its free names
    assert print_graph(bt_graph(gen_s(), BtBudget())) == "mu r0. \\v2. \\v3. v2 #r0 v3"
    t = parse_term(r"(\x. \y. y (x y)) (\z. \w. w z)")
    assert print_graph(bt_graph(t, BtBudget())) == "\\v1. v1 (\\v2. v2 v1)"


def test_bt_graph_agrees_with_bt_truncate():
    budget = BtBudget(depth=8)
    for t in [gen_s(), parse_term(r"\x. x"), parse_term(r"(\x. \y. x) (\z. z)")]:
        g = bt_graph(t, budget)
        assert g is not None
        for d in range(budget.depth + 1):
            assert alpha_eq_finite(truncate(g, d), bt_truncate(t, BtBudget(depth=max(d, 1))) if d else BOT)


@given(finite_terms)
def test_bt_graph_agrees_with_bt_truncate_on_random_terms(t):
    # `unfold` and `_truncate` of the one Böhm step agree with each other,
    # and with the spine oracle, which shares only `head_reduce` with them
    budget = BtBudget(fuel=16, depth=6, states=16)
    g = bt_graph(t, budget)
    if g is not None:
        for d in range(budget.depth + 1):
            got = truncate(g, d)
            want = bt_truncate(t, BtBudget(fuel=budget.fuel, depth=d)) if d else BOT
            assert alpha_eq_finite(got, want)
            assert alpha_eq_finite(got, bt_truncate_by_spine(t, budget.fuel, d))


@pytest.mark.parametrize("term, states", [
    (r"\x. x", 1),
    (r"x (\y. y)", 2),
    ("x y y", 2),  # the two arguments are one state
    ("x (y z) (y z) z", 3),
    (r"\x. x (\y. y x) (\z. z x)", 3),  # and so are α-equivalent ones
])
def test_bt_graph_state_budget_counts_distinct_states(term, states):
    t = parse_term(term)
    assert bt_graph(t, BtBudget(states=states)) is not None
    if states > 1:
        assert bt_graph(t, BtBudget(states=states - 1)) is None


def test_bt_graph_unknown_on_divergence():
    # fuel exhaustion is not a bottom claim, so the result is unknown
    assert bt_graph(gen_omega(), BtBudget()) is None


def test_bt_graph_unknown_on_growing_fronts():
    t = App(gen_u(), Var(Atom(3)))
    assert bt_graph(t, BtBudget(states=64)) is None


def test_bt_graph_canonicalizes_each_state_at_most_once(monkeypatch):
    # bt_graph's key returns an argument already keyed as it is, so only new
    # states and non-canonical repeats reach _canonicalize: 64 states and
    # the one that exceeds the budget
    calls = []
    canonicalize = boehm._canonicalize
    monkeypatch.setattr(boehm, "_canonicalize", lambda t: calls.append(t) or canonicalize(t))
    assert bt_graph(App(gen_u(), Var(Atom(3))), BtBudget(states=64)) is None
    assert len(calls) <= 65


@given(finite_terms)
def test_canonicalize_is_idempotent(t):
    # bt_graph's key skips canonicalizing a term it has already keyed, which
    # rests on this: a canonical term is its own canonical form, returned as
    # the same object
    c = _canonicalize(t)
    assert _canonicalize(c) == c
    assert _canonicalize(c) is c
    assert fv(c) == fv(t) and alpha_eq_finite(c, t)


@pytest.mark.parametrize("call", [
    lambda: bt_graph(gen_u(), BtBudget(states=64, fuel=64)),
    lambda: bt_graph(gen_s(), BtBudget(states=64, fuel=64)),
    lambda: bt_graph(gen_omega(), BtBudget()),
    lambda: bt_truncate(gen_u(), BtBudget()),
    lambda: _canonicalize(gen_u()),
], ids=["bt_graph-u", "bt_graph-s", "bt_graph-omega", "bt_truncate-u", "canonicalize-u"])
def test_boehm_calls_leave_no_reference_cycles(call):
    # a cycle through a recursive closure would keep the call's memo alive
    # until the cyclic collector next runs
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The example terms


def test_gen_u_free_variables():
    assert fv(gen_u()) == frozenset({Atom(2)})


def test_gen_s_is_closed():
    assert fv(gen_s()) == frozenset()


def test_gen_u_applied_head():
    res = head_reduce(App(gen_u(), Var(Atom(3))), fuel=8)
    assert isinstance(res, HnfDecomposition)
    assert res.head == Atom(3)
