"""Shared corpus and random generators for the test suite."""

import itertools
import random
import re
from collections import deque
from dataclasses import dataclass

from hypothesis import strategies as st

from ratlam import (
    App,
    Atom,
    BOT,
    Bot,
    BottomVerdict,
    ConcreteCoalgebra,
    EscapesCarrier,
    FRESH,
    Interner,
    InvalidCoalgebra,
    Lam,
    Mu,
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    Perm,
    Ref,
    SupportTooLarge,
    SymbolicCoalgebra,
    TermGraph,
    TermSyntaxError,
    UnboundRef,
    UnguardedMu,
    Var,
    abstraction_eq,
    enumerate_support_in,
    fresh_atom,
    fresh_atoms,
    graph_to_coalgebra,
    head_reduce,
    instantiate,
    print_term,
    swap,
)
from ratlam.orbits import apply_slot_perm
from ratlam.terms import (
    FiniteTerm,
    MuTerm,
    _children,
    _label_key,
    _lmap,
    minimize,
)

# A corpus of small mu-terms.  Every identifier is written as an explicit
# v<index> so that parsing with independent interners never collapses two
# names.  All terms are bottom-free (so they convert to coalgebras) and every
# graph is small enough that depth-12 truncations distinguish inequivalent
# unfoldings.
CORPUS = [
    "mu r. v0 #r",
    "mu r. v0 (v0 #r)",
    "mu a. \\v0. ((mu b. \\v0. #b) (mu c. v0 #c))",
    "mu r. (\\v0. (\\v1. #r) v1) v0",
    "mu a. \\v0. mu b. \\v1. #a #b",
    "v0",
    "v0 v1",
    "\\v0. v0",
    "\\v0. \\v1. v0",
    "\\v0. \\v1. v1",
    "(\\v0. v0 v0) (\\v0. v0 v0)",
    "mu r. \\v0. v0 #r",
    "mu r. \\v1. v1 #r",
    "mu r. v1 #r",
    "mu r. #r #r",
    "mu r. \\v0. #r",
    "mu r. v0 (v1 #r)",
    "mu r. (#r v0) v1",
    "\\v0. mu r. v0 #r",
    "mu r. (\\v0. v0) #r",
    "mu r. \\v0. v0 (v1 #r)",
    "v0 (v1 v2)",
    "(v0 v1) v2",
    "\\v0. v1",
    "\\v1. v1",
    "mu r. v0 (#r #r)",
    "mu a. v0 (mu b. v1 (#a #b))",
    "\\v2. v2 (mu r. v2 #r)",
    "mu r. (\\v0. #r) v0",
    "mu r. (mu s. v0 #s) #r",
    "\\v0. v0 v0",
    "mu r. \\v0. \\v1. #r",
    "v3",
    "mu r. v2 (v2 (v2 #r))",
    "\\v0. (\\v1. v0 v1) v2",
]


def random_perm(rng: random.Random, indices=range(8)) -> Perm:
    pool = [Atom(i) for i in indices]
    image = pool[:]
    rng.shuffle(image)
    return Perm(dict(zip(pool, image)))


def random_finite_term(rng: random.Random, depth: int = 4):
    atoms = [Atom(i) for i in range(4)]
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(atoms)) if rng.random() < 0.85 else BOT
    kind = rng.random()
    if kind < 0.4:
        return Lam(rng.choice(atoms), random_finite_term(rng, depth - 1))
    return App(random_finite_term(rng, depth - 1), random_finite_term(rng, depth - 1))


def random_term_graph(rng: random.Random, max_nodes: int = 5, natoms: int = 4) -> TermGraph:
    """A random bottom-free term graph; cycles are fine since Var nodes are leaves."""
    n = rng.randint(1, max_nodes)
    atoms = [Atom(i) for i in range(natoms)]
    nodes = {}
    for i in range(n):
        kind = rng.random()
        if kind < 0.35 or n == 1:
            nodes[i] = ("var", rng.choice(atoms))
        elif kind < 0.6:
            nodes[i] = ("lam", rng.choice(atoms), rng.randrange(n))
        else:
            nodes[i] = ("app", rng.randrange(n), rng.randrange(n))
    return TermGraph(nodes, 0)


def random_symbolic_coalgebra(rng: random.Random):
    """A random valid coalgebra (trivial stabilizers) plus a root element."""
    n = rng.randint(1, 4)
    arities = [rng.randint(0, 3) for _ in range(n)]
    if all(a == 0 for a in arities):
        arities[0] = rng.randint(1, 3)
    schemas = [OrbitSchema(f"o{i}", arities[i]) for i in range(n)]

    def injective_slots(source_arity: int, count: int):
        return tuple(rng.sample(range(source_arity), count))

    steps = {}
    for i, k in enumerate(arities):
        choices = []
        if k >= 1:
            choices.append("var")
        app_targets = [j for j in range(n) if arities[j] <= k]
        if app_targets:
            choices.append("app")
        abs_targets = [j for j in range(n) if arities[j] <= k + 1]
        if abs_targets:
            choices.append("abs")
        kind = rng.choice(choices)
        if kind == "var":
            steps[f"o{i}"] = ("var", rng.randrange(k))
        elif kind == "app":
            lt = rng.choice(app_targets)
            rt = rng.choice(app_targets)
            steps[f"o{i}"] = (
                "app",
                (f"o{lt}", injective_slots(k, arities[lt])),
                (f"o{rt}", injective_slots(k, arities[rt])),
            )
        else:
            t = rng.choice(abs_targets)
            j = arities[t]
            use_fresh = j == k + 1 or (j >= 1 and rng.random() < 0.5)
            if use_fresh:
                src = injective_slots(k, j - 1)
                pos = rng.randrange(j)
                asg = src[:pos] + (FRESH,) + src[pos:]
            else:
                asg = injective_slots(k, j)
            steps[f"o{i}"] = ("lam", FRESH, (f"o{t}", asg))

    sym = SymbolicCoalgebra(OrbitSet(tuple(schemas)), steps)
    root_idx = rng.choice([i for i in range(n)])
    root = OrbitElement(schemas[root_idx], tuple(Atom(j) for j in range(arities[root_idx])))
    return sym, root


def random_stabilized_coalgebra(rng: random.Random):
    """A random valid coalgebra in which one orbit has a nontrivial stabilizer
    (a swap of two slots, or the rotations of three), plus a root element of
    that orbit at a random atom tuple.  A candidate that cannot be built as a
    `SymbolicCoalgebra` is drawn again."""
    while True:
        sym, _ = random_symbolic_coalgebra(rng)
        big = [s for s in sym.carrier if s.arity >= 2]
        if not big:
            continue
        s = rng.choice(big)
        if s.arity == 3 and rng.random() < 0.5:
            stab = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        else:
            g = list(range(s.arity))
            i, j = rng.sample(range(s.arity), 2)
            g[i], g[j] = g[j], g[i]
            stab = {tuple(range(s.arity)), tuple(g)}
        schemas = tuple(OrbitSchema(x.id, x.arity, frozenset(stab)) if x is s else x
                        for x in sym.carrier)
        try:
            cand = SymbolicCoalgebra(OrbitSet(schemas), sym.steps)
        except InvalidCoalgebra:
            continue
        atoms = tuple(Atom(a) for a in rng.sample(range(6), s.arity))
        return cand, OrbitElement(cand.carrier[s.id], atoms)


def glued(g: TermGraph) -> TermGraph:
    """Two disjoint copies of g under one application root: every cycle of g
    has a bisimilar twin in another strongly connected component."""
    off = max(g.nodes) + 1
    nodes = dict(g.nodes)
    for n, label in g.nodes.items():
        match label:
            case ("lam", x, b):
                nodes[n + off] = ("lam", x, b + off)
            case ("app", f, a):
                nodes[n + off] = ("app", f + off, a + off)
            case _:
                nodes[n + off] = label
    nodes[2 * off] = ("app", g.root, g.root + off)
    return TermGraph(nodes, 2 * off)


# ---------------------------------------------------------------------------
# Reference algorithms for the graph core, for small graphs: a preorder on its
# own stack for TermGraph.reachable, rounds that allocate a set per node for
# TermGraph.fv_map, round-based refinement for ratlam.terms._classes under the
# literal key, and a print_graph that places its μs by in-degrees, the
# transitive closure and a recursive scan rather than by the nodes that
# ratlam.terms._search pops twice.


def reachable_by_stack(g: TermGraph) -> list[int]:
    """Preorder from the root, children in order: pop a node, skip it if seen,
    else record it and push its children in reverse."""
    seen: list[int] = []
    stack = [g.root]
    visited = set()
    while stack:
        n = stack.pop()
        if n in visited:
            continue
        visited.add(n)
        seen.append(n)
        stack.extend(reversed(_children(g.nodes[n])))
    return seen


def literal_classes_by_rounds(g: TermGraph) -> dict[int, int]:
    """Round-based partition refinement over all reachable nodes; classes are
    numbered by first occurrence in preorder."""
    order = reachable_by_stack(g)
    cls = {n: _label_key(g.nodes[n]) for n in order}
    while True:
        sig = {
            n: (cls[n], tuple(cls[c] for c in _children(g.nodes[n]))) for n in order
        }
        renum: dict[tuple, int] = {}
        new = {}
        for n in order:
            if sig[n] not in renum:
                renum[sig[n]] = len(renum)
            new[n] = renum[sig[n]]
        if new == cls:
            return new
        cls = new


def fv_map_by_rounds(g: TermGraph) -> dict[int, frozenset[Atom]]:
    """Free variables per node: rounds over every node, one match per label
    and a new set per node, until a round changes nothing."""
    fvs: dict[int, frozenset[Atom]] = {n: frozenset() for n in g.nodes}
    changed = True
    while changed:
        changed = False
        for n, label in g.nodes.items():
            match label:
                case ("var", a):
                    new = frozenset({a})
                case ("bot",):
                    new = frozenset()
                case ("lam", x, b):
                    new = fvs[b] - {x}
                case ("app", f, a):
                    new = fvs[f] | fvs[a]
            if new != fvs[n]:
                fvs[n] = new
                changed = True
    return fvs


def reach_by_closure(g: TermGraph) -> dict[int, set[int]]:
    """The nodes each reachable node reaches by one or more edges, from the
    transitive closure."""
    order = reachable_by_stack(g)
    reach: dict[int, set[int]] = {n: set(_children(g.nodes[n])) for n in order}
    changed = True
    while changed:
        changed = False
        for n in order:
            new = set(reach[n])
            for c in list(reach[n]):
                new |= reach.get(c, set())
            if new != reach[n]:
                reach[n] = new
                changed = True
    return reach


def cyclic_nodes_by_closure(g: TermGraph) -> set[int]:
    """Nodes that can reach themselves."""
    reach = reach_by_closure(g)
    return {n for n in reach if n in reach[n]}


def print_graph_by_scan(g: TermGraph) -> str:
    """ratlam.terms.print_graph, with a μ on each shared or cyclic node that a
    first printing pass re-enters."""
    order = reachable_by_stack(g)
    indeg: dict[int, int] = {n: 0 for n in order}
    for n in order:
        for c in _children(g.nodes[n]):
            if c in indeg:
                indeg[c] += 1
    cyclic = cyclic_nodes_by_closure(g)
    candidates = {n for n in order if indeg[n] > 1 or n in cyclic}

    used: set[int] = set()
    emitted: set[int] = set()

    def scan(n: int):
        if n in candidates and n in emitted:
            used.add(n)
            return
        emitted.add(n)
        for c in _children(g.nodes[n]):
            scan(c)

    scan(g.root)
    labels = {n: f"r{i}" for i, n in enumerate(n for n in order if n in used)}

    emitted = set()

    def go(n: int):
        if n in labels and n in emitted:
            return Ref(labels[n])
        emitted.add(n)
        match g.nodes[n]:
            case ("var", a):
                body = Var(a)
            case ("bot",):
                body = BOT
            case ("lam", x, b):
                body = Lam(x, go(b))
            case ("app", f, a):
                body = App(go(f), go(a))
        if n in labels:
            return Mu(labels[n], body)
        return body

    return print_term(go(g.root))


# ---------------------------------------------------------------------------
# Reference for ratlam.terms.alpha_bisim: the greatest fixpoint over (node,
# node, injection) triples, by recursion with an assumption set, checking the
# domain, image and injectivity of the injection at every state.


def alpha_bisim_by_fixpoint(g1: TermGraph, g2: TermGraph) -> bool:
    fv1, fv2 = g1.fv_map(), g2.fv_map()
    rho0 = frozenset((a, a) for a in fv1[g1.root])
    return bisim_check(g1, g2, fv1, fv2, set(), g1.root, g2.root, rho0)


def bisim_check(g1: TermGraph, g2: TermGraph, fv1: dict, fv2: dict, assumed: set[tuple],
                n1: int, n2: int, rho: frozenset[tuple[Atom, Atom]]) -> bool:
    """Whether the unfoldings at n1 and n2 are α-equivalent under rho, a set
    of (g1 name, g2 name) pairs: assume-and-check with the assumptions kept
    in `assumed`, sound and complete because the candidate injection is
    determined at every state."""
    state = (n1, n2, rho)
    if state in assumed:
        return True
    dom = frozenset(a for a, _ in rho)
    img = {b for _, b in rho}
    if dom != fv1[n1] or img != fv2[n2] or len(img) != len(rho):
        return False
    assumed.add(state)
    rmap = dict(rho)
    match (g1.nodes[n1], g2.nodes[n2]):
        case (("var", a), ("var", b)):
            return rmap[a] == b
        case (("bot",), ("bot",)):
            return True
        case (("app", f1, a1), ("app", f2, a2)):
            return (bisim_check(g1, g2, fv1, fv2, assumed, f1, f2, _restrict(rho, fv1[f1]))
                    and bisim_check(g1, g2, fv1, fv2, assumed, a1, a2, _restrict(rho, fv1[a1])))
        case (("lam", x1, b1), ("lam", x2, b2)):
            pairs = {(a, b) for a, b in rho if a in fv1[b1] and a != x1}
            if any(b == x2 for _, b in pairs):
                return False  # free name would be captured
            if x1 in fv1[b1]:
                pairs.add((x1, x2))
            return bisim_check(g1, g2, fv1, fv2, assumed, b1, b2, frozenset(pairs))
        case _:
            return False


def _restrict(rho: frozenset[tuple[Atom, Atom]], dom: frozenset[Atom]):
    return frozenset((a, b) for a, b in rho if a in dom)


# ---------------------------------------------------------------------------
# Reference for ratlam.coalgebra.orbit_count: the k! renaming search.


def orbit_count_by_search(g: TermGraph) -> int:
    """Orbits among the distinct subtrees, trying every bijection between the
    sorted free names of a candidate and those of each representative."""
    gm = minimize(g)
    fvs = gm.fv_map()
    reps: list[int] = []
    for n in gm.reachable():
        if not any(_same_orbit_by_search(gm, fvs, n, r) for r in reps):
            reps.append(n)
    return len(reps)


def _same_orbit_by_search(g: TermGraph, fvs, n1: int, n2: int) -> bool:
    a1, a2 = sorted(fvs[n1]), sorted(fvs[n2])
    if len(a1) != len(a2):
        return False
    if g.nodes[n1][0] != g.nodes[n2][0]:
        return False
    return any(
        bisim_check(g, g, fvs, fvs, set(), n1, n2, frozenset(zip(a1, image)))
        for image in itertools.permutations(a2)
    )


# ---------------------------------------------------------------------------
# Reference for ratlam.orbits.canonical_tuples: every k-permutation of the
# pool, kept when it is the least of its stabilizer class.


def canonical_tuples_by_filter(schema: OrbitSchema, pool) -> list[tuple]:
    """The canonical tuples over the sorted `pool`, in lexicographic order:
    the k-permutations of a sorted pool come in that order, and each is kept
    when no stabilizer member maps it to a smaller tuple."""
    return [t for t in itertools.permutations(pool, schema.arity)
            if all(apply_slot_perm(g, t) >= t for g in schema.stabilizer)]


# ---------------------------------------------------------------------------
# Reference for ratlam.coalgebra._free_orders: one search per node.


def free_order_by_search(g: TermGraph, fvs, n: int) -> tuple[Atom, ...]:
    """The free names of n's unfolding in order of first free occurrence,
    breadth first with children in order.

    The search runs on states (node m, the names of fv(n) ∩ fv(m) not bound
    on the path), each visited once: two positions with the same state have
    the same free occurrences below them, and the first of the two in
    breadth-first order reaches each of them first.  Intersecting with fv of
    each node on the way drops a name at its binder, since a λ's binder is
    not free in the λ.  A state whose name set is empty can add nothing and
    is dropped, so every var state dequeued is a free occurrence.  The search
    stops once every free name is found.
    """
    found: dict[Atom, None] = {}
    seen = {(n, fvs[n])}
    queue = deque(seen)
    while queue and len(found) < len(fvs[n]):
        m, free = queue.popleft()
        label = g.nodes[m]
        if label[0] == "var":
            found[label[1]] = None
        for c in _children(label):
            state = (c, free & fvs[c])
            if state[1] and state not in seen:
                seen.add(state)
                queue.append(state)
    return tuple(found)


# ---------------------------------------------------------------------------
# References for the hash, equality and free variables that Lam and App keep:
# the same answers by walking the term.  `finite_terms` draws random finite
# terms over four atoms.

_small_atoms = st.builds(Atom, st.integers(min_value=0, max_value=3))
finite_terms = st.recursive(
    st.builds(Var, _small_atoms) | st.just(BOT),
    lambda sub: st.builds(Lam, _small_atoms, sub) | st.builds(App, sub, sub),
    max_leaves=16,
)


def fv_by_walk(t: FiniteTerm) -> frozenset[Atom]:
    match t:
        case Var(a):
            return frozenset({a})
        case Bot():
            return frozenset()
        case Lam(x, b):
            return fv_by_walk(b) - {x}
        case App(f, a):
            return fv_by_walk(f) | fv_by_walk(a)


def same_by_walk(s: FiniteTerm, t: FiniteTerm) -> bool:
    """Structural equality, field by field."""
    match (s, t):
        case (Var(a), Var(b)):
            return a == b
        case (Bot(), Bot()):
            return True
        case (Lam(x, b), Lam(y, c)):
            return x == y and same_by_walk(b, c)
        case (App(f1, a1), App(f2, a2)):
            return same_by_walk(f1, f2) and same_by_walk(a1, a2)
    return False


def rebuilt(t: FiniteTerm) -> FiniteTerm:
    """A copy of t that shares no Var, Lam or App object with it."""
    match t:
        case Var(a):
            return Var(a)
        case Lam(x, b):
            return Lam(x, rebuilt(b))
        case App(f, a):
            return App(rebuilt(f), rebuilt(a))
    return t


def subterms(t: FiniteTerm) -> list[FiniteTerm]:
    """Every subterm occurrence, in preorder."""
    match t:
        case Lam(_, b):
            return [t, *subterms(b)]
        case App(f, a):
            return [t, *subterms(f), *subterms(a)]
    return [t]


# ---------------------------------------------------------------------------
# Reference for ratlam.terms.alpha_bisim on finite terms: structural
# α-equivalence, by abstraction equality at each binder.


def alpha_eq_finite(t1: FiniteTerm, t2: FiniteTerm) -> bool:
    """α-equivalence of finite λ⊥-terms; ⊥ is equal only to ⊥."""
    match (t1, t2):
        case (Var(a), Var(b)):
            return a == b
        case (Bot(), Bot()):
            return True
        case (App(f1, a1), App(f2, a2)):
            return alpha_eq_finite(f1, f2) and alpha_eq_finite(a1, a2)
        case (Lam(x1, b1), Lam(x2, b2)):
            return abstraction_eq(x1, b1, x2, b2, eq=alpha_eq_finite)
        case _:
            return False


# ---------------------------------------------------------------------------
# Unfolding oracles: μ-terms by substituting Mu bodies for refs (for graph_of +
# truncate), coalgebras with globally fresh binder names (for c_construct), and
# the element-by-element construction in both modes of c_construct.


def unfold_muterm(t: MuTerm, depth: int) -> FiniteTerm:
    """Unfold by substituting Mu bodies for refs, cutting at the given depth."""

    def go(t: MuTerm, env: dict[str, MuTerm], d: int) -> FiniteTerm:
        if d <= 0:
            return BOT
        match t:
            case Mu(l, b):
                return go(b, {**env, l: t}, d)
            case Ref(l):
                return go(env[l], env, d)
            case Var(_) | Bot():
                return t
            case Lam(x, b):
                return Lam(x, go(b, env, d - 1))
            case App(f, a):
                return App(go(f, env, d - 1), go(a, env, d - 1))

    return go(t, {}, depth)


def naive_unfold(conc: ConcreteCoalgebra, root, depth: int) -> FiniteTerm:
    """Corecursive unfolding with globally fresh binder names; truncates at depth.

    It never reuses a binder name, so it exercises none of c_construct's
    name-pool bookkeeping.
    """
    top = max(root.support(), default=-1)
    counter = itertools.count(top + conc.support_bound + 2)

    def go(e, d: int) -> FiniteTerm:
        if d <= 0:
            return BOT
        match conc.step_fn(e):
            case ("var", a):
                return Var(a)
            case ("app", l, r):
                return App(go(l, d - 1), go(r, d - 1))
            case ("lam", v, body):
                u = Atom(next(counter))
                return Lam(u, go(body.act(swap(v, u)), d - 1))

    return go(root, depth)


def c_construct_by_elements(conc: ConcreteCoalgebra, root, carrier: OrbitSet | None = None) -> TermGraph:
    """Reference for ratlam.c_construct, element by element: each node is an
    `OrbitElement`, and its step is taken through `conc.step_fn`, its λ
    binder renamed to the name pool W's least name fresh for the element.
    With a carrier, the nodes are every carrier element supported in W, and
    a step target outside them is an `EscapesCarrier`; without one, they are
    the elements reachable from the root, numbered breadth first, each
    checked against the support bound.  It needs only the step function, so
    it also unfolds coalgebras built by hand."""
    m = conc.support_bound
    if len(root.support()) > m:
        raise SupportTooLarge(root)
    pad = fresh_atoms(root.support(), m + 1 - len(root.support()))
    W = frozenset(root.support()) | frozenset(pad)

    ids: dict = {}
    nodes: dict[int, tuple] = {}
    pending: deque = deque()

    def node_id(e, from_step: bool = True):
        if (i := ids.get(e)) is not None:
            return i
        if len(e.support()) > m:
            raise SupportTooLarge(e)
        if from_step and carrier is not None:
            raise EscapesCarrier(e)
        ids[e] = len(ids)
        pending.append(e)
        return ids[e]

    if carrier is None:
        node_id(root, from_step=False)
    else:
        for e in enumerate_support_in(carrier, W):
            node_id(e, from_step=False)
        if root not in ids:
            raise EscapesCarrier(root)

    while pending:
        e = pending.popleft()
        match step := conc.step_fn(e):
            case ("lam", v, body):
                w = min(W - e.support())
                step = ("lam", w, body if v == w else body.act(swap(v, w)))
            case ("var", _) | ("app", _, _):
                pass
            case _:
                raise InvalidCoalgebra(f"unknown concrete step {step!r}")
        nodes[ids[e]] = _lmap(step, child=node_id)

    return TermGraph(nodes, ids[root])


# ---------------------------------------------------------------------------
# Reference for ratlam.subst_rational: the substitution coalgebra on B + A×V×B
# over the coalgebras of the two graphs, materialized by the reachable
# element-by-element construction.


@dataclass(frozen=True)
class InTriple:
    """A state of the A×V×B summand: the element being rewritten, the
    variable marker and the replacement element."""

    elem: object
    marker: Atom
    repl: object

    def support(self) -> frozenset[Atom]:
        return self.elem.support() | {self.marker} | self.repl.support()

    def act(self, p: Perm) -> "InTriple":
        return InTriple(self.elem.act(p), p(self.marker), self.repl.act(p))


def subst_coalgebra(a: ConcreteCoalgebra, b: ConcreteCoalgebra) -> ConcreteCoalgebra:
    """The coalgebra on B + A×V×B whose behavior is substitution.

    The B summand is B's own elements, with B's own steps; every other state
    is an `InTriple`.
    """

    def step_fn(state):
        if not isinstance(state, InTriple):
            return b.step_fn(state)
        x, w, y = state.elem, state.marker, state.repl
        match step := a.step_fn(x):
            case ("var", u):
                return b.step_fn(y) if u == w else step
            case ("lam", u, x2):
                # rename the abstraction representative away from the
                # marker and the replacement before pairing (strength)
                u2 = fresh_atom({w} | y.support() | x.support())
                return ("lam", u2, InTriple(x2.act(swap(u, u2)), w, y))
            case ("app", x1, x2):
                return ("app", InTriple(x1, w, y), InTriple(x2, w, y))
        raise TypeError(f"step of {x!r} is not a λ-tree label: {step!r}")

    return ConcreteCoalgebra(step_fn, a.support_bound + 1 + b.support_bound)


def padded(sym: SymbolicCoalgebra, arity: int) -> SymbolicCoalgebra:
    """sym with one more orbit, unreachable, of the given arity: a larger
    carrier that raises the support bound when the arity is the largest."""
    extra = OrbitSchema("pad", arity)
    return SymbolicCoalgebra(
        OrbitSet(sym.carrier.schemas + (extra,)),
        {**sym.steps, "pad": ("var", 0)},
    )


def substitution_states(t: TermGraph, v: Atom, s: TermGraph, pad_a: int = 0, pad_b: int = 0):
    """The substitution coalgebra of t and s, each coalgebra padded with an
    unreachable orbit of arity pad_a or pad_b when that is nonzero, and its
    root state."""
    sym_a, root_a = graph_to_coalgebra(t)
    sym_b, root_b = graph_to_coalgebra(s)
    if pad_a:
        sym_a = padded(sym_a, pad_a)
    if pad_b:
        sym_b = padded(sym_b, pad_b)
    return subst_coalgebra(instantiate(sym_a), instantiate(sym_b)), InTriple(root_a, v, root_b)


def subst_by_coalgebra(t: TermGraph, v: Atom, s: TermGraph, pad_a: int = 0,
                       pad_b: int = 0) -> TermGraph:
    """t[v := s] as the reachable construction of the substitution coalgebra."""
    return c_construct_by_elements(*substitution_states(t, v, s, pad_a, pad_b))


# ---------------------------------------------------------------------------
# Reference for ratlam.boehm.bt_truncate: one head reduction per argument, the
# depth of every constructor of the head normal form counted from its spine.


def bt_truncate_by_spine(term: FiniteTerm, fuel: int, depth: int, cur: int = 0) -> FiniteTerm:
    if cur >= depth:
        return BOT
    res = head_reduce(term, fuel)
    if isinstance(res, BottomVerdict):
        return BOT
    n, m = len(res.binders), len(res.args)
    out: FiniteTerm = Var(res.head) if cur + n + m < depth else BOT
    for i, arg in enumerate(res.args):
        app_depth = cur + n + m - 1 - i
        if app_depth >= depth:
            out = BOT
        else:
            out = App(out, bt_truncate_by_spine(arg, fuel, depth, app_depth + 1))
    for j in range(n - 1, -1, -1):
        if cur + j >= depth:
            out = BOT
        else:
            out = Lam(res.binders[j], out)
    return out


# ---------------------------------------------------------------------------
# Reference for ratlam.terms.parse_term: a tokenizer that matches one named
# group at each position, recursive descent, then a second, recursive walk
# that checks every #ref is bound and every μ guarded.


_TOKEN = re.compile(
    r"\s*(?:(?P<lam>\\|λ)|(?P<mu>μ|\bmu\b)|(?P<bot>⊥|_\|_)"
    r"|(?P<ref>#[a-zA-Z][a-zA-Z0-9']*)|(?P<ident>[a-zA-Z][a-zA-Z0-9']*)"
    r"|(?P<dot>\.)|(?P<lp>\()|(?P<rp>\)))"
)


def tokenize_by_groups(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise TermSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, interner: Interner):
        self.tokens = tokens
        self.i = 0
        self.interner = interner

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise TermSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def term(self) -> MuTerm:
        kind, _, _ = self.peek()
        if kind == "lam":
            self.next()
            name = self.expect("ident")[1]
            self.expect("dot")
            return Lam(self.interner.atom(name), self.term())
        return self.application()

    def application(self) -> MuTerm:
        t = self.atom_term()
        while self.peek()[0] in ("ident", "bot", "ref", "lp", "mu"):
            t = App(t, self.atom_term())
        return t

    def atom_term(self) -> MuTerm:
        kind, value, pos = self.next()
        if kind == "ident":
            return Var(self.interner.atom(value))
        if kind == "bot":
            return BOT
        if kind == "ref":
            return Ref(value[1:])
        if kind == "mu":
            label = self.expect("ident")[1]
            self.expect("dot")
            return Mu(label, self.term())
        if kind == "lp":
            t = self.term()
            self.expect("rp")
            return t
        raise TermSyntaxError(f"unexpected token {value!r}", pos)


def check_muterm(t: MuTerm, bound: frozenset[str] = frozenset(), guarded: frozenset[str] = frozenset()):
    """Check that refs are bound and every mu is guarded by a Lam or App."""
    match t:
        case Mu(l, b):
            check_muterm(b, bound | {l}, guarded - {l})
        case Ref(l):
            if l not in bound:
                raise UnboundRef(l)
            if l not in guarded:
                raise UnguardedMu(l)
        case Lam(_, b):
            check_muterm(b, bound, bound)
        case App(f, a):
            check_muterm(f, bound, bound)
            check_muterm(a, bound, bound)
        case _:
            pass


def parse_term_by_descent(text: str, interner: Interner | None = None) -> MuTerm:
    if interner is None:
        interner = Interner()
    interner.reserve(text)
    p = _Parser(tokenize_by_groups(text), interner)
    t = p.term()
    p.expect("eof")
    check_muterm(t)
    return t
