import gc
import itertools
import pickle
import random
import re
import sys
import time

import pytest
from hypothesis import given

from ratlam import (
    App,
    Atom,
    BOT,
    Interner,
    Lam,
    Mu,
    Ref,
    TermGraph,
    TermSyntaxError,
    UnboundRef,
    UnguardedMu,
    Var,
    alpha_bisim,
    c_construct,
    fv,
    gen_rsigma,
    graph_of,
    graph_to_coalgebra,
    instantiate,
    minimize,
    parse_term,
    print_graph,
    print_term,
    rsigma_count,
    subst_rational,
    subtree_count,
    swap,
    truncate,
)
from ratlam import terms
from ratlam.terms import (
    _classes,
    _label_key,
    _lmap,
    _set_hash,
    _tokenize,
    is_finite,
    unfold,
)

from conftest import (
    CORPUS,
    alpha_bisim_by_fixpoint,
    alpha_eq_finite,
    bisim_check,
    finite_terms,
    fv_by_walk,
    fv_map_by_rounds,
    glued,
    literal_classes_by_rounds,
    parse_term_by_descent,
    print_graph_by_scan,
    random_finite_term,
    random_perm,
    random_term_graph,
    reach_by_closure,
    reachable_by_stack,
    rebuilt,
    same_by_walk,
    subterms,
    tokenize_by_groups,
    unfold_muterm,
)

# ---------------------------------------------------------------------------
# Finite terms: the hash, equality and free variables that Lam and App keep


@given(finite_terms)
def test_terms_built_apart_are_equal_and_hash_alike(t):
    copy = rebuilt(t)
    assert copy == t and t == copy and not copy != t
    assert hash(copy) == hash(t)
    assert pickle.loads(pickle.dumps(t)) == t


def hashed_alike(t):
    """A copy of t whose λ and application nodes all hash to 0, so that
    equality has to decide by structure alone."""
    t = rebuilt(t)
    for u in subterms(t):
        if isinstance(u, (Lam, App)):
            _set_hash(u, 0)
    return t


@given(finite_terms, finite_terms)
def test_term_equality_is_structural(s, t):
    if s == t:
        assert hash(s) == hash(t)
    for s, t in ((s, t), (hashed_alike(s), hashed_alike(t))):
        assert (s == t) == same_by_walk(s, t)
        assert (s != t) != same_by_walk(s, t)


@given(finite_terms)
def test_kept_fv_is_the_walked_fv(t):
    # the root is asked first, so every subterm below it reads a kept set
    for u in subterms(t):
        assert fv(u) == fv_by_walk(u)
    assert fv(rebuilt(t)) == fv_by_walk(t)


def test_fv_of_mu_terms():
    assert fv(parse_term(r"mu r. \v0. v0 (v1 #r)")) == frozenset({Atom(1)})
    assert fv(Mu("r", Ref("r"))) == frozenset()


def test_deep_terms_hash_and_compare_without_recursion():
    def chain(n: int, leaf: Atom):
        t = Var(leaf)
        for _ in range(n):
            t = App(Var(Atom(0)), Lam(Atom(1), t))
        return t

    s, t = chain(10_000, Atom(1)), chain(10_000, Atom(1))
    assert s is not t and hash(s) == hash(t) and s == t
    assert s != chain(10_000, Atom(2))
    with pytest.raises(AttributeError):
        s.fn = Var(Atom(2))


def test_is_finite_has_no_nesting_limit():
    app, lam, under_ref, under_mu = Var(Atom(0)), Var(Atom(0)), Ref("r"), Mu("r", Var(Atom(0)))
    for _ in range(10_000):
        app = App(Var(Atom(1)), app)
        lam = Lam(Atom(1), lam)
        under_ref = App(Var(Atom(1)), under_ref)
        under_mu = Lam(Atom(1), under_mu)
    assert is_finite(app) and is_finite(lam)
    assert not is_finite(under_ref) and not is_finite(under_mu)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_omega():
    t = parse_term(r"(\x. x x) (\x. x x)")
    x = Atom(0)
    half = Lam(x, App(Var(x), Var(x)))
    assert t == App(half, half)


def test_parse_mu_structure():
    t = parse_term("mu r. f #r")
    assert t == Mu("r", App(Var(Atom(0)), Ref("r")))


def test_parse_unicode_aliases():
    assert parse_term("λx. x") == parse_term(r"\x. x")
    assert parse_term("μr. f #r") == parse_term("mu r. f #r")
    assert parse_term("⊥") == parse_term("_|_") == BOT


def test_parse_unguarded_mu():
    with pytest.raises(UnguardedMu):
        parse_term("mu r. #r")
    with pytest.raises(UnguardedMu):
        parse_term("mu a. mu b. #a")
    # a Lam guards
    parse_term("mu r. \\x. #r")


def test_parse_unbound_ref():
    with pytest.raises(UnboundRef):
        parse_term("f #r")


def test_parse_syntax_error_has_position():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("\\x x")
    assert exc.value.position >= 0
    with pytest.raises(TermSyntaxError):
        parse_term("(x")
    with pytest.raises(TermSyntaxError):
        parse_term("x )")
    with pytest.raises(TermSyntaxError):
        parse_term("")


def test_application_is_left_associative():
    assert parse_term("v0 v1 v2") == parse_term("(v0 v1) v2")
    assert parse_term("v0 v1 v2") != parse_term("v0 (v1 v2)")


def test_lambda_body_extends_right():
    assert parse_term(r"\x. x x") == Lam(Atom(0), App(Var(Atom(0)), Var(Atom(0))))


def test_interner_numeric_names_map_directly():
    it = Interner()
    assert it.atom("v7") == Atom(7)
    assert it.atom("f") == Atom(0)
    assert it.atom("g") == Atom(1)
    assert it.atom("f") == Atom(0)


def test_interner_reserve_avoids_collisions():
    t = parse_term("f v0")  # v0 is claimed before f is assigned
    assert t == App(Var(Atom(1)), Var(Atom(0)))


def test_shared_interner_keeps_names_distinct():
    it = Interner()
    g1 = graph_of(parse_term("mu r. f #r", it))
    g2 = graph_of(parse_term("mu r. g #r", it))
    assert not alpha_bisim(g1, g2)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except TermSyntaxError as e:
        return str(e), e.position


_LEXEMES = [
    "\\", "λ", "μ", "⊥", "_|_", "_", "|", "#", "#r", ".", "(", ")", "'", "$", "{",
    "x", "f", "y2", "v", "v0", "v1", "v01", "0", "7", "mu", "mux", "mu'", " ", "  ", "\t", "\n",
]


def test_tokenize_agrees_with_the_named_group_tokenizer():
    rng = random.Random(8)
    for _ in range(5000):
        text = "".join(rng.choice(_LEXEMES) for _ in range(rng.randint(0, 12)))
        got = _tokens_or_error(_tokenize, text)
        assert got == _tokens_or_error(tokenize_by_groups, text), text


def test_tokenize_reads_long_blank_runs_in_linear_time():
    # a search from every blank of a run costs time quadratic in its length
    for text in ("v0" + " " * 5000, "v0" + " " * 5000 + "$", "v0" + " " * 5000 + "v1"):
        start = time.perf_counter()
        _tokens_or_error(_tokenize, text)
        assert time.perf_counter() - start < 0.5, text[-1]


def _parse_outcome(parse, text):
    """What a parser makes of text: its value or its exception, and the
    interner's table either way."""
    it = Interner()
    try:
        out = parse(text, it)
    except (TermSyntaxError, UnboundRef, UnguardedMu) as e:
        out = (type(e), str(e))
    return out, it.table()


_PIECES = [
    "\\x.", "λy.", "\\v1.", "\\", "mu r.", "μs.", "mu q.", "mu", "#r", "#s", "#q", "#z",
    "x", "f", "v0", "v1", "v01", "v1'", "y2", "(", ")", "_|_", "⊥", ".", "$",
    "mu r. #r", "mu s. (mu r. #s)",
]


def _soup(rng: random.Random, depth: int = 0) -> str:
    """Random μ-term text: λ and μ heads, bound and unbound #refs,
    identifiers, balanced and stray parentheses, ⊥, a stray dot and a bad
    character, joined with or without spaces."""
    parts = []
    for _ in range(rng.randint(1, 5)):
        if depth < 3 and rng.random() < 0.2:
            parts.append("(" + _soup(rng, depth + 1) + ")")
        else:
            parts.append(rng.choice(_PIECES))
    return rng.choice([" ", " ", ""]).join(parts)


def test_parse_agrees_with_descent():
    rng = random.Random(15)
    texts = CORPUS + [_soup(rng) for _ in range(20000)]
    kinds = {}
    for text in texts:
        got, want = _parse_outcome(parse_term, text), _parse_outcome(parse_term_by_descent, text)
        assert got == want, text
        kind = got[0][0] if isinstance(got[0], tuple) else "value"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert min(kinds.values()) >= 200 and len(kinds) == 4, kinds


@pytest.mark.parametrize("text, outcome", [
    ("f \\x. x", (TermSyntaxError, "expected eof, found '\\\\' (at position 2)")),
    ("(f \\x. x)", (TermSyntaxError, "expected rp, found '\\\\' (at position 3)")),
    ("mu r. #r )", (TermSyntaxError, "expected eof, found ')' (at position 9)")),
    ("()", (TermSyntaxError, "unexpected token ')' (at position 1)")),
    ("(", (TermSyntaxError, "unexpected token '' (at position 1)")),
    ("\\x.", (TermSyntaxError, "unexpected token '' (at position 3)")),
    ("mu a. (mu b. #a)", (UnguardedMu, str(UnguardedMu("a")))),
    ("#q (mu r. #r)", (UnboundRef, str(UnboundRef("q")))),
    ("mu r. mu r. #r", (UnguardedMu, str(UnguardedMu("r")))),
])
def test_parse_errors_by_name(text, outcome):
    assert _parse_outcome(parse_term, text)[0] == outcome
    assert _parse_outcome(parse_term_by_descent, text)[0] == outcome


def test_parse_mu_after_an_application():
    f, x = Atom(0), Atom(1)
    assert parse_term("f mu r. \\x. #r") == App(Var(f), Mu("r", Lam(x, Ref("r"))))


def _spine(t, kind, step):
    """The nodes of the given class from t on, following `step`, and the node
    that ends the run; by a loop, since `==` and `hash` recurse."""
    nodes = []
    while type(t) is kind:
        nodes.append(t)
        t = step(t)
    return nodes, t


def test_parse_has_no_nesting_limit():
    n = 10_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        parens = parse_term("(" * n + "v0" + ")" * n)
        apps = parse_term("(v0 " * n + "v1" + ")" * n)
        lams = parse_term("\\v1. " * n + "v0")
        mus = parse_term("mu r. \\v0. " * n + "#r")
    finally:
        sys.setrecursionlimit(limit)
    assert parens == Var(Atom(0))
    nodes, end = _spine(apps, App, lambda t: t.arg)
    assert len(nodes) == n and end == Var(Atom(1))
    assert all(t.fn == Var(Atom(0)) for t in nodes)
    nodes, end = _spine(lams, Lam, lambda t: t.body)
    assert len(nodes) == n and end == Var(Atom(0))
    assert all(t.binder == Atom(1) for t in nodes)
    nodes, end = _spine(mus, Mu, lambda t: t.body.body)
    assert len(nodes) == n and end == Ref("r")
    assert all(t.label == "r" and type(t.body) is Lam and t.body.binder == Atom(0) for t in nodes)


def test_parse_scope_lookup_is_constant_time():
    # 20,000 open μs, and a #ref to each of them: a scan of every open μ per
    # #ref takes seconds
    n = 20_000
    text = "".join(f"mu r{i}. " for i in range(n)) + "v0 " + " ".join(f"#r{i}" for i in range(n))
    start = time.perf_counter()
    t = parse_term(text)
    assert time.perf_counter() - start < 3.0
    mus, app = _spine(t, Mu, lambda t: t.body)
    assert [m.label for m in mus] == [f"r{i}" for i in range(n)]
    apps, head = _spine(app, App, lambda t: t.fn)
    assert head == Var(Atom(0))
    assert [a.arg for a in reversed(apps)] == [Ref(f"r{i}") for i in range(n)]


# ---------------------------------------------------------------------------
# Printing


def test_print_parse_idempotent_on_corpus():
    for src in CORPUS:
        once = print_term(parse_term(src))
        again = print_term(parse_term(once))
        assert once == again


def test_print_examples():
    assert print_term(parse_term(r"(\x. x x) (\x. x x)")) == r"(\v0. v0 v0) (\v0. v0 v0)"
    assert print_term(parse_term("v0 (v1 v2)")) == "v0 (v1 v2)"
    assert print_term(parse_term("v0 v1 v2")) == "v0 v1 v2"
    assert print_term(BOT) == "_|_"
    assert str(parse_term(r"\x. x v1")) == r"\v0. v0 v1"
    g = graph_of(parse_term(r"mu r. v0 (\v1. #r)"))
    assert str(g) == r"mu r0. v0 (\v1. #r0)"
    assert repr(g) == r"TermGraph<mu r0. v0 (\v1. #r0)>"


def test_print_graph_roundtrip():
    for src in CORPUS:
        g = graph_of(parse_term(src))
        g2 = graph_of(parse_term(print_graph(g)))
        # the unfoldings are literally equal, not merely alpha-equivalent
        for d in (4, 8):
            assert truncate(g, d) == truncate(g2, d)


def test_print_graph_names_the_nodes_with_two_in_edges_from_reachable_nodes():
    x, v = Atom(0), ("var", Atom(0))
    # node 2 is unreachable, so its edges into the root and the leaf add no μ
    assert print_graph(TermGraph({0: ("lam", x, 1), 1: v, 2: ("app", 0, 1)}, 0)) == r"\v0. v0"
    # the root's entry counts as an in-edge
    assert print_graph(TermGraph({0: ("lam", x, 0)}, 0)) == r"mu r0. \v0. #r0"
    # two edges from one node; a forward edge leaves the #ref outside its μ
    assert print_graph(TermGraph({0: ("app", 1, 1), 1: v}, 0)) == "(mu r0. v0) #r0"


# ---------------------------------------------------------------------------
# Graphs


def test_graph_of_examples():
    assert len(graph_of(parse_term("x")).nodes) == 1
    g = graph_of(parse_term("mu r. f #r"))
    assert len(g.nodes) == 2
    root_label = g.nodes[g.root]
    assert root_label[0] == "app" and root_label[2] == g.root  # self-loop on the right


def test_graph_of_shared_uplink_example():
    g = graph_of(parse_term("mu a. \\v0. ((mu b. \\v0. #b) (mu c. v0 #c))"))
    assert len(g.reachable()) == 5


def test_graph_validation():
    v = ("var", Atom(0))
    with pytest.raises(ValueError, match=r"^node 0 references missing node 1$"):
        TermGraph({0: ("lam", Atom(0), 1)}, 0)
    with pytest.raises(ValueError, match=r"^node 0 references missing node 2$"):
        TermGraph({0: ("app", 2, 1), 1: v}, 0)
    with pytest.raises(ValueError, match=r"^node 0 references missing node 2$"):
        TermGraph({0: ("app", 1, 2), 1: v}, 0)
    with pytest.raises(ValueError, match=r"^root node missing$"):
        TermGraph({0: v}, 1)


@pytest.mark.parametrize("nodes, bad", [
    ({0: ("app", 1, 2), 1: ("var", Atom(0)), 2: ("const", "c")}, 2),
    ({0: ("lam", Atom(1))}, 0),
    ({0: ("app", 0)}, 0),
    ({0: ("var", Atom(0), 0)}, 0),
    ({0: ("bot", 0)}, 0),
    ({0: None}, 0),
    ({0: "var"}, 0),
], ids=["unknown-kind", "lam-without-child", "app-with-one-child", "var-with-child",
        "bot-with-child", "none", "string"])
def test_graph_rejects_malformed_labels(nodes, bad):
    with pytest.raises(ValueError, match=rf"^node {bad}: malformed label {re.escape(repr(nodes[bad]))}$"):
        TermGraph(nodes, 0)


_LABELS = [("var", Atom(0)), ("bot",), ("lam", Atom(1), 3), ("app", 2, 5)]


@pytest.mark.parametrize("label", _LABELS, ids=[label[0] for label in _LABELS])
def test_lmap_is_a_functor(label):
    p, q = swap(Atom(0), Atom(1)), swap(Atom(1), Atom(2))
    f, g = (lambda c: c + 1), (lambda c: 2 * c)
    assert _lmap(label) == _lmap(label, lambda a: a, lambda c: c) == label
    assert (_lmap(_lmap(label, p, f), q, g)
            == _lmap(label, lambda a: q(p(a)), lambda c: g(f(c))))


def test_graph_act_and_support():
    rng = random.Random(43)
    for _ in range(50):
        g = random_term_graph(rng)
        p = random_perm(rng)
        assert g.act(p).support() == frozenset(p(a) for a in g.support())


# ---------------------------------------------------------------------------
# The corecursive unfold


def _own_step(g: TermGraph):
    """A graph's own coalgebra: a node is a state labelled by its label."""
    return lambda n, child: _lmap(g.nodes[n], child=child)


def _unfold_graphs():
    rng = random.Random(29)
    graphs = [random_term_graph(rng, rng.randint(1, 9)) for _ in range(300)]
    return graphs + [gen_rsigma(levels) for levels in (1, 2, 3)]


def test_unfold_of_a_graphs_own_coalgebra_is_the_graph():
    for g in _unfold_graphs():
        u = unfold(g.root, _own_step(g))
        assert len(u.nodes) == len(g.reachable())
        assert print_graph(u) == print_graph(g)


def test_unfold_numbers_states_breadth_first_from_the_root():
    for g in _unfold_graphs():
        order = [g.root]
        for n in order:  # a breadth-first queue, read while it grows
            for c in terms._children(g.nodes[n]):
                if c not in order:
                    order.append(c)
        ids = {n: i for i, n in enumerate(order)}
        u = unfold(g.root, _own_step(g))
        assert u.root == 0
        assert u.nodes == {i: _lmap(g.nodes[n], child=ids.__getitem__) for n, i in ids.items()}


def test_unfold_keeps_the_ids_of_pre_numbered_states():
    # enumerative c_construct numbers every key first; its node ids follow
    rng = random.Random(31)
    for g in _unfold_graphs():
        states = list(g.nodes)
        rng.shuffle(states)
        pos = {n: i for i, n in enumerate(states)}
        u = unfold(g.root, _own_step(g), states)
        assert u.root == pos[g.root]
        assert u.nodes == {i: _lmap(g.nodes[n], child=pos.__getitem__)
                           for i, n in enumerate(states)}
        # with only some states numbered first, each keeps its id and its tree
        some = states[:rng.randint(0, len(states))]
        u = unfold(g.root, _own_step(g), some)
        assert len(u.nodes) == len({m for n in [*some, g.root]
                                    for m in TermGraph(g.nodes, n).reachable()})
        for i, n in enumerate(some):
            assert truncate(TermGraph(u.nodes, i), 6) == truncate(TermGraph(g.nodes, n), 6)


_SUBST_T, _SUBST_S = graph_of(parse_term(CORPUS[4])), graph_of(parse_term(CORPUS[6]))
_COALGEBRA, _ROOT = graph_to_coalgebra(gen_rsigma(2))
_CONCRETE = instantiate(_COALGEBRA)


@pytest.mark.parametrize("call", [
    lambda: unfold(0, _own_step(gen_rsigma(2))),
    lambda: subst_rational(_SUBST_T, Atom(0), _SUBST_S),
    lambda: subst_rational(gen_rsigma(2), Atom(1), _SUBST_S),
    lambda: c_construct(_CONCRETE, _ROOT),
    lambda: c_construct(_CONCRETE, _ROOT, _COALGEBRA.carrier),
], ids=["unfold", "subst_rational", "subst_rational-rsigma", "c_construct-reach",
        "c_construct-enum"])
def test_unfold_calls_leave_no_reference_cycles(call):
    # a closure handed to unfold that reached itself would keep the call's
    # state table alive until the cyclic collector next runs
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Truncation


def test_truncate_examples():
    assert truncate(graph_of(parse_term("mu r. v0 #r")), 0) == BOT
    assert truncate(graph_of(parse_term("mu r. v0 #r")), 2) == App(
        Var(Atom(0)), App(BOT, BOT)
    )
    assert truncate(graph_of(Var(Atom(0))), 5) == Var(Atom(0))
    reaches_bot = TermGraph({0: ("app", 1, 2), 1: ("bot",), 2: ("var", Atom(0))}, 0)
    assert truncate(reaches_bot, 3) == App(BOT, Var(Atom(0)))


def test_truncate_coherence():
    for src in CORPUS:
        g = graph_of(parse_term(src))
        for d in range(12):
            assert truncate(graph_of(truncate(g, d + 1)), d) == truncate(g, d)


def test_unfold_muterm_agrees_with_graph_truncation():
    for src in CORPUS:
        t = parse_term(src)
        g = graph_of(t)
        for d in range(13):
            assert unfold_muterm(t, d) == truncate(g, d)


# ---------------------------------------------------------------------------
# Alpha-equivalence


def test_alpha_eq_finite_examples():
    assert alpha_eq_finite(parse_term(r"\x. x"), parse_term(r"\y. y"))
    assert not alpha_eq_finite(parse_term(r"\v0. v1"), parse_term(r"\v1. v1"))
    t = App(BOT, Var(Atom(0)))
    assert alpha_eq_finite(t, t)
    assert not alpha_eq_finite(BOT, Var(Atom(0)))


def test_alpha_bisim_examples():
    g = graph_of(parse_term("mu r. v0 #r"))
    assert alpha_bisim(g, g)
    assert alpha_bisim(
        graph_of(parse_term("mu r. \\v0. v0 #r")),
        graph_of(parse_term("mu r. \\v1. v1 #r")),
    )
    assert not alpha_bisim(
        graph_of(parse_term("mu r. v0 #r")), graph_of(parse_term("mu r. v1 #r"))
    )


def test_alpha_bisim_same_perm_invariance():
    rng = random.Random(47)
    graphs = [graph_of(parse_term(src)) for src in CORPUS[:12]]
    for _ in range(30):
        g1, g2 = rng.choice(graphs), rng.choice(graphs)
        p = random_perm(rng)
        assert alpha_bisim(g1, g2) == alpha_bisim(g1.act(p), g2.act(p))


def test_alpha_bisim_computes_each_fv_map_once(monkeypatch):
    calls = []
    fv_map = TermGraph.fv_map

    def counted(g):
        calls.append(g)
        return fv_map(g)

    monkeypatch.setattr(TermGraph, "fv_map", counted)
    g1 = graph_of(parse_term("mu r. \\v0. v0 (v1 #r)"))
    g2 = graph_of(parse_term("mu r. \\v5. v5 (v1 #r)"))
    assert alpha_bisim(g1, g2)
    assert calls == [g1]


def _random_graph(rng: random.Random, n: int) -> TermGraph:
    """Any labels over n nodes, ⊥ included, and a root drawn at random, so
    that some nodes are unreachable."""
    atoms = [Atom(i) for i in range(3)]
    nodes = {}
    for i in rng.sample(range(n), n):
        kind = rng.choice(("var", "bot", "lam", "lam", "app", "app"))
        if kind == "var":
            nodes[i] = ("var", rng.choice(atoms))
        elif kind == "bot":
            nodes[i] = ("bot",)
        elif kind == "lam":
            nodes[i] = ("lam", rng.choice(atoms), rng.randrange(n))
        else:
            nodes[i] = ("app", rng.randrange(n), rng.randrange(n))
    return TermGraph(nodes, rng.randrange(n))


def test_fv_map_agrees_with_rounds():
    rng = random.Random(71)
    graphs = [_random_graph(rng, rng.randint(1, 12)) for _ in range(600)]
    graphs += [gen_rsigma(levels) for levels in (1, 2, 3)]
    # a λ-chain inserted root first: each sweep settles one more node
    chain = {i: ("lam", Atom(1), i + 1) for i in range(1_999)}
    graphs.append(TermGraph({**chain, 1_999: ("var", Atom(0))}, 0))
    seen = set()
    for g in graphs:
        got = g.fv_map()
        assert list(got.items()) == list(fv_map_by_rounds(g).items())
        if len(g.reachable()) < len(g.nodes):
            seen.add("unreachable")
        for label in g.nodes.values():
            if label[0] == "bot":
                seen.add("bot")
            elif label[0] == "lam":
                seen.add("binder free" if label[1] in got[label[2]] else "binder not free")
    assert seen == {"unreachable", "bot", "binder free", "binder not free"}


def test_alpha_bisim_renaming_allows_free_variable_bijection():
    g1 = graph_of(parse_term("mu r. v0 #r"))
    g2 = graph_of(parse_term("mu r. v1 #r"))
    fv1, fv2 = g1.fv_map(), g2.fv_map()
    for rho, want in (({(Atom(0), Atom(1))}, True), ({(Atom(0), Atom(0))}, False)):
        assert bisim_check(g1, g2, fv1, fv2, set(), g1.root, g2.root, frozenset(rho)) == want


def _relabeled(rng: random.Random, g: TermGraph, name: dict) -> TermGraph:
    """g with its node ids shuffled and every atom, binders and leaves alike,
    renamed through `name`, which need not be injective.  Nodes keep g's
    insertion order."""
    ids = list(g.nodes)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return TermGraph({new[n]: _lmap(l, lambda a: name.get(a, a), new.__getitem__)
                      for n, l in g.nodes.items()}, new[g.root])


def test_alpha_bisim_agrees_with_fixpoint():
    rng = random.Random(83)
    atoms = [Atom(i) for i in range(4)]
    answers = []
    for _ in range(20_000):
        g1 = random_term_graph(rng, max_nodes=8)
        if rng.random() < 0.1:
            g1 = TermGraph({**g1.nodes, rng.choice(list(g1.nodes)): ("bot",)}, g1.root)
        if rng.random() < 0.7:
            g2 = _relabeled(rng, g1, {a: rng.choice(atoms) for a in atoms})
        else:
            g2 = random_term_graph(rng, max_nodes=8)
        for a, b in ((g1, g2), (g2, g1)):
            want = alpha_bisim_by_fixpoint(a, b)
            assert alpha_bisim(a, b) == want, (a.nodes, a.root, b.nodes, b.root)
            answers.append(want)
    assert 0.2 < sum(answers) / len(answers) < 0.8


def _lambda_free(g: TermGraph) -> TermGraph:
    """g with every λ node turned into an application of its body to itself."""
    return TermGraph({n: ("app", l[2], l[2]) if l[0] == "lam" else l
                      for n, l in g.nodes.items()}, g.root)


def test_alpha_bisim_agrees_with_fixpoint_without_binders():
    # with no λ, alpha_bisim never reads a free name: every pair is checked
    # under the empty map, against the oracle's injections on free names
    rng = random.Random(101)
    answers = []
    for _ in range(3_000):
        g = _lambda_free(random_term_graph(rng, max_nodes=8))
        p = random_perm(rng, range(4))
        pool = [g, glued(g), g.act(p), glued(g).act(p), _relabeled(rng, g, {}),
                _lambda_free(random_term_graph(rng, max_nodes=8))]
        a, b = rng.choice(pool), rng.choice(pool)
        want = alpha_bisim_by_fixpoint(a, b)
        assert alpha_bisim(a, b) == want, (a.nodes, a.root, b.nodes, b.root)
        answers.append(want)
    assert 0.2 < sum(answers) / len(answers) < 0.8


@pytest.mark.parametrize("s, t, want", [
    (r"\v0. \v1. v0", r"\v0. \v0. v0", False),  # the inner binder captures v0
    ("_|_", "_|_", True),
    ("_|_", "v0", False),
    # v0 is bound below the λ on the left and free on the right: the pair of
    # roots is reached again under a different map
    (r"mu r. v0 (\v0. #r)", r"mu r. v0 (\v1. #r)", False),
    (r"mu r. \v0. v0 (\v1. #r)", r"mu r. \v2. v2 (\v3. #r)", True),
])
def test_alpha_bisim_named_cases(s, t, want):
    g1, g2 = graph_of(parse_term(s)), graph_of(parse_term(t))
    for a, b in ((g1, g2), (g2, g1)):
        assert alpha_bisim(a, b) == alpha_bisim_by_fixpoint(a, b) == want


def _holding_bijections(g1: TermGraph, g2: TermGraph, n1: int, n2: int, fv1, fv2) -> list:
    """The bijections fv(n1) → fv(n2) under which the oracle finds n1 and n2
    α-equivalent."""
    dom = sorted(fv1[n1])
    return [image for image in itertools.permutations(sorted(fv2[n2]))
            if len(image) == len(dom)
            and bisim_check(g1, g2, fv1, fv2, set(), n1, n2, frozenset(zip(dom, image)))]


def test_a_node_pair_admits_at_most_one_free_name_bijection():
    # a subtree of a λ-tree has no nontrivial stabilizer, which lets
    # alpha_bisim keep one map per node pair
    rng = random.Random(89)
    cases = []
    for i in range(400):
        g1 = random_term_graph(rng, max_nodes=9) if i % 2 else graph_of(random_finite_term(rng))
        g2 = g1.act(random_perm(rng, range(4))) if rng.random() < 0.7 else random_term_graph(rng)
        cases.append((g1, g2, g1.reachable()))
    # every permutation of four names is realized by some subtree of rsigma:3
    rsigma = gen_rsigma(3)
    cases.append((rsigma, rsigma, [rsigma.root]))
    held = {}
    for g1, g2, starts in cases:
        fv1, fv2 = g1.fv_map(), g2.fv_map()
        for n1 in starts:
            for n2 in g2.reachable():
                holding = _holding_bijections(g1, g2, n1, n2, fv1, fv2)
                assert len(holding) <= 1, (g1.nodes, n1, g2.nodes, n2, holding)
                if holding:
                    held[len(fv1[n1])] = held.get(len(fv1[n1]), 0) + 1
    assert held[2] >= 100 and held[3] >= 40 and held[4] >= 24


def test_alpha_bisim_has_no_nesting_limit():
    n, v1, v2 = 10_000, Atom(1), Atom(2)
    rename = {v1: Atom(3), v2: Atom(4)}
    # a λ-chain inserted leaves first, since fv_map needs a sweep per node on
    # a chain inserted root first; its leaf is bound by the λ right above it
    chain = TermGraph({0: ("var", v1), **{i: ("lam", (v2, v1)[i % 2], i - 1) for i in range(1, n)}},
                      n - 1)
    wrong_leaf = TermGraph({**chain.nodes, 0: ("var", v2)}, chain.root)
    # a ring of λs closed by an application whose argument is bound in the ring
    ring = {n: ("var", v1), n - 1: ("app", n, 0)}
    ring.update({i: ("lam", (v1, v2)[i % 2], i + 1) for i in reversed(range(n - 1))})
    ring = TermGraph(ring, 0)
    rng = random.Random(97)
    rsigma = gen_rsigma(4)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        assert alpha_bisim(chain, _relabeled(rng, chain, rename))
        assert not alpha_bisim(chain, _relabeled(rng, wrong_leaf, rename))
        assert alpha_bisim(ring, _relabeled(rng, ring, rename))
    finally:
        sys.setrecursionlimit(limit)
    assert alpha_bisim(rsigma, _relabeled(rng, rsigma, {}))
    assert not alpha_bisim(rsigma, rsigma.act(swap(v1, v2)))


# ---------------------------------------------------------------------------
# Subtree counting and minimization


def test_subtree_count_examples():
    assert subtree_count(graph_of(parse_term("v0 v1"))) == 3
    assert subtree_count(graph_of(parse_term("mu r. v0 #r"))) == 2
    assert subtree_count(graph_of(parse_term("v0"))) == 1


def test_subtree_count_is_literal_not_alpha():
    # the two lambdas differ only by bound-variable name
    g = graph_of(parse_term(r"(\v0. v0) (\v1. v1)"))
    assert subtree_count(g) == 5


def _brute_force_subtrees(g: TermGraph) -> int:
    nodes = g.reachable()
    depth = 2 * len(nodes) + 2
    return len({truncate(TermGraph(g.nodes, n), depth) for n in nodes})


def test_subtree_count_against_per_node_truncations():
    for src in CORPUS:
        g = graph_of(parse_term(src))
        if len(g.reachable()) <= 5:
            assert subtree_count(g) == _brute_force_subtrees(g)
    rng = random.Random(53)
    for _ in range(50):
        g = random_term_graph(rng)
        assert subtree_count(g) == _brute_force_subtrees(g)


def test_minimize():
    for src in CORPUS:
        g = graph_of(parse_term(src))
        m = minimize(g)
        assert len(m.reachable()) == subtree_count(g) == subtree_count(m)
        for d in (4, 10):
            assert truncate(m, d) == truncate(g, d)


def test_reachable_is_the_preorder_of_a_stack_search():
    # carrier order, and so the numbering of enumerative c_construct, follows it
    rng = random.Random(73)
    seen = set()
    for _ in range(600):
        g = _random_graph(rng, rng.randint(1, 12))
        for h in (g, glued(g)):
            order = h.reachable()
            assert order == reachable_by_stack(h)
            reach = reach_by_closure(h)
            kids = [c for n in order for c in terms._children(h.nodes[n])]
            if any(n in reach[n] for n in order):
                seen.add("cycle")
            if len(set(kids)) < len(kids):
                seen.add("shared")
            if len(order) < len(h.nodes):
                seen.add("unreachable")
    assert seen == {"cycle", "shared", "unreachable"}


def test_graph_core_agrees_with_reference_algorithms():
    rng = random.Random(67)
    for _ in range(400):
        g = random_term_graph(rng, 12)
        for h in (g, glued(g)):
            order = h.reachable()
            assert order == reachable_by_stack(h)
            cls = _classes(h, lambda n: _label_key(h.nodes[n]))
            numbered: dict[int, int] = {}
            got = {n: numbered.setdefault(cls[n], len(numbered)) for n in order}
            assert got == literal_classes_by_rounds(h)
            assert print_graph(h) == print_graph_by_scan(h)
            # the nodes that reach no cycle are hash-consed, numbered before
            # every class of the refined part
            reach = reach_by_closure(h)
            finite = {n for n in order if not any(m in reach[m] for m in reach[n] | {n})}
            k = len({cls[n] for n in finite})
            assert {cls[n] for n in finite} == set(range(k))
            assert all(cls[n] >= k for n in order if n not in finite)
    for levels in (1, 2, 3):
        g = gen_rsigma(levels)
        assert print_graph(g) == print_graph_by_scan(g)


def test_classes_computes_each_nodes_children_once(monkeypatch):
    # the postorder loop records each reachable node's children, and every
    # later step reads them from there
    g = gen_rsigma(3)
    reachable = len(g.reachable())
    calls = []
    children = terms._children
    monkeypatch.setattr(terms, "_children", lambda label: calls.append(label) or children(label))
    assert subtree_count(g) == rsigma_count(3)
    assert len(calls) == reachable


def test_subtree_count_rsigma_4():
    assert subtree_count(gen_rsigma(4)) == rsigma_count(4)


def _chain(n: int) -> TermGraph:
    """An application spine of n - 1 nodes whose arguments are one shared leaf."""
    nodes = {i: ("app", i + 1, n - 1) for i in range(n - 2)}
    nodes[n - 2] = ("app", n - 1, n - 1)
    nodes[n - 1] = ("var", Atom(0))
    return TermGraph(nodes, 0)


def _ring(k: int) -> TermGraph:
    """k applications in one cycle, each with its own leaf; one leaf differs,
    so no two ring nodes have equal unfoldings."""
    nodes = {i: ("app", k + i, (i + 1) % k) for i in range(k)}
    nodes.update({k + i: ("var", Atom(int(i == 0))) for i in range(k)})
    return TermGraph(nodes, 0)


def test_graph_core_scales_to_10k_nodes():
    chain, ring = _chain(10_000), _ring(5_000)
    assert subtree_count(chain) == len(minimize(chain).nodes) == 10_000
    assert subtree_count(ring) == len(minimize(ring).nodes) == 5_002
    # one call each way; neither graph has a λ, so neither call computes the
    # ring's fv_map, whose sweeps carry a name one ring node further per sweep
    rng = random.Random(89)
    for g, leaf in ((chain, 9_999), (ring, 5_001)):
        copy = _relabeled(rng, g, {})
        assert alpha_bisim(copy, g)
        assert not alpha_bisim(TermGraph({**g.nodes, leaf: ("var", Atom(2))}, g.root), copy)


def test_alpha_bisim_computes_no_fv_map_without_binders(monkeypatch):
    calls = []
    fv_map = TermGraph.fv_map
    monkeypatch.setattr(TermGraph, "fv_map", lambda g: calls.append(g) or fv_map(g))
    rng = random.Random(103)
    for g in (gen_rsigma(3), _chain(200), _ring(100)):
        copy = _relabeled(rng, g, {})
        assert alpha_bisim(g, copy) and alpha_bisim(copy, g)
    assert calls == []
