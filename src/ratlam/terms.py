"""Finite λ⊥-terms, μ-term syntax, rational term graphs and α-equivalence.

α-equivalence is decided on term graphs, by a search over node pairs on an
explicit stack that decides it for the infinite unfoldings, so it has no
nesting limit; a finite term is compared through its graph.  `graph_of`,
`print_graph`, `truncate`, `print_term` and a node's first `fv` still recurse.
`unfold` is the corecursion principle: the finite graph of the states a
step function reaches from a root.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable

from .nominal import Atom, Perm, fresh_atom

# ---------------------------------------------------------------------------
# Term syntax


class _Term:
    """What every finite term and μ-term shares: its support is its free
    variables, and it prints as μ-term syntax."""

    __slots__ = ()

    def support(self) -> frozenset[Atom]:
        return fv(self)

    def __str__(self):
        return print_term(self)


@dataclass(frozen=True)
class Bot(_Term):
    def act(self, p: Perm) -> "Bot":
        return self


BOT = Bot()


class _Node(_Term):
    """What Var, Lam and App share.  A node is hashed once, when it is
    built, from fields whose hashes are already known, so hashing never walks
    a term; `fv` keeps a Lam or App node's free variables when first asked.
    Equality stops at shared subterms and at unequal hashes.  Nodes are
    immutable, as the dataclass terms are; the kept hash relies on it."""

    __slots__ = ("_hash", "_fv")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return _same(self, other)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Var(_Node):
    __slots__ = __match_args__ = ("atom",)

    def __init__(self, atom: Atom):
        _set_atom(self, atom)
        _set_hash(self, hash((atom,)))

    def act(self, p: Perm) -> "Var":
        return Var(p(self.atom))


class Lam(_Node):
    __slots__ = __match_args__ = ("binder", "body")

    def __init__(self, binder: Atom, body: "MuTerm"):
        _set_binder(self, binder)
        _set_body(self, body)
        _set_hash(self, hash((binder, body)))
        _set_fv(self, None)

    def act(self, p: Perm) -> "Lam":
        return Lam(p(self.binder), self.body.act(p))


class App(_Node):
    __slots__ = __match_args__ = ("fn", "arg")

    def __init__(self, fn: "MuTerm", arg: "MuTerm"):
        _set_fn(self, fn)
        _set_arg(self, arg)
        _set_hash(self, hash((fn, arg)))
        _set_fv(self, None)

    def act(self, p: Perm) -> "App":
        return App(self.fn.act(p), self.arg.act(p))


# The slots' own setters, which the frozen `__setattr__` leaves for `__init__`.
_set_hash, _set_fv, _set_atom = _Node._hash.__set__, _Node._fv.__set__, Var.atom.__set__
_set_binder, _set_body = Lam.binder.__set__, Lam.body.__set__
_set_fn, _set_arg = App.fn.__set__, App.arg.__set__


def _same(s: _Node, t) -> bool:
    """Structural equality, on an explicit stack."""
    todo = [(s, t)]
    while todo:
        s, t = todo.pop()
        if s is t:
            continue
        if type(s) is not type(t):
            return False
        if type(s) is Lam:
            if s._hash != t._hash or s.binder != t.binder:
                return False
            todo.append((s.body, t.body))
        elif type(s) is App:
            if s._hash != t._hash:
                return False
            todo += (s.arg, t.arg), (s.fn, t.fn)
        elif type(s) is Var:
            if s.atom != t.atom:
                return False
        elif s != t:
            return False
    return True


@dataclass(frozen=True)
class Mu(_Term):
    label: str
    body: "MuTerm"


@dataclass(frozen=True)
class Ref(_Term):
    label: str


FiniteTerm = Var | Bot | Lam | App
MuTerm = Var | Bot | Lam | App | Mu | Ref


def fv(t: MuTerm) -> frozenset[Atom]:
    """Free variables; μ-references contribute nothing by themselves.  A Lam
    or App node keeps its set, so asking again costs O(1)."""
    match t:
        case Var(a):
            return frozenset({a})
        case Lam(x, b, _fv=None):
            _set_fv(t, fv(b) - {x})
        case App(f, a, _fv=None):
            _set_fv(t, fv(f) | fv(a))
        case _Node():
            pass
        case Bot() | Ref(_):
            return frozenset()
        case Mu(_, b):
            return fv(b)
        case _:
            raise TypeError(f"not a term: {t!r}")
    return t._fv


def is_finite(t: MuTerm) -> bool:
    """True iff no μ or #ref occurs in t; on an explicit stack."""
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is Lam:
            todo.append(t.body)
        elif type(t) is App:
            todo += t.fn, t.arg
        elif type(t) is Mu or type(t) is Ref:
            return False
    return True


# ---------------------------------------------------------------------------
# Parsing


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundRef(ValueError):
    def __init__(self, label: str):
        super().__init__(f"reference #{label} is not enclosed by a matching mu")
        self.label = label


class UnguardedMu(ValueError):
    def __init__(self, label: str):
        super().__init__(f"mu {label} is unguarded: a reference occurs under no constructor")
        self.label = label


# Exactly the names an `Atom` prints as: no leading zero.
_ATOM_NAME = re.compile(r"v(0|[1-9][0-9]*)")
_ATOM_WORD = re.compile(rf"\b{_ATOM_NAME.pattern}\b")


class Interner:
    """Maps identifiers to atoms.

    Identifiers spelled as an atom prints, v0, v1, ..., map to that atom
    directly; any other identifier, v01 included, gets the least atom index
    not yet in use.  Sharing one interner across several parses keeps
    distinct names distinct.
    """

    def __init__(self):
        self._by_name: dict[str, Atom] = {}
        self._used: set[int] = set()

    def reserve(self, text: str):
        """Pre-claim every atom name occurring in text."""
        self._used.update(map(int, _ATOM_WORD.findall(text)))

    def atom(self, name: str) -> Atom:
        if name in self._by_name:
            return self._by_name[name]
        m = _ATOM_NAME.fullmatch(name)
        a = Atom(int(m.group(1))) if m else fresh_atom(self._used)
        self._used.add(a)
        self._by_name[name] = a
        return a

    def table(self) -> dict[str, Atom]:
        return dict(self._by_name)


# One group per token kind, in `_KINDS` order; μ before identifiers, so `mu'` is μ then `'`.
# The last group takes any other character, so `finditer` never has to search ahead.
_TOKEN = re.compile(
    r"\s*(?:(\\|λ)|(μ|\bmu\b)|(⊥|_\|_)"
    r"|(#[a-zA-Z][a-zA-Z0-9']*)|([a-zA-Z][a-zA-Z0-9']*)|(\.)|(\()|(\))|(\S))"
)
_KINDS = (None, "lam", "mu", "bot", "ref", "ident", "dot", "lp", "rp", None)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text.rstrip()):  # trailing blanks would match nothing
        kind = _KINDS[i := m.lastindex]
        if kind is None:
            raise TermSyntaxError(f"unexpected character {m[i]!r}", m.start())
        tokens.append((kind, m[i], m.start(i)))
    tokens.append(("eof", "", len(text)))
    return tokens


def _expect(token: tuple, kind: str) -> str:
    found, value, pos = token
    if found != kind:
        raise TermSyntaxError(f"expected {kind}, found {value!r}", pos)
    return value


def parse_term(text: str, interner: Interner | None = None) -> MuTerm:
    """Read a μ-term in one pass over its tokens, on an explicit stack.

    A group is the whole text, closed by eof; a parenthesis, closed by rp; or
    a μ after an application, as in `f mu r. …`, closed with its enclosing
    group.  It holds its λ/μ binder prefix, the application read so far and
    the label of a bare #ref, one that no λ or application guards yet.  A
    #ref that no enclosing μ binds, and a μ closing over a bare #ref to
    itself, are errors; they are recorded as found and the first is raised at
    the end of input, so a syntax error anywhere wins.  Nesting depth is
    bounded by memory, not by the recursion limit.
    """
    if interner is None:
        interner = Interner()
    interner.reserve(text)
    tokens = iter(_tokenize(text))
    scope: dict[str, int] = {}  # label → number of open μs with that label
    errors: list[ValueError] = []
    stack = [["eof", [], None, None]]  # [closer, binders, application, bare label]
    for kind, value, pos in tokens:
        group = stack[-1]
        if kind == "mu" or kind == "lam" and group[2] is None:
            name = _expect(next(tokens), "ident")
            _expect(next(tokens), "dot")
            if kind == "lam":
                name = interner.atom(name)
            else:
                scope[name] = scope.get(name, 0) + 1
                if group[2] is not None:  # a μ argument opens a group of its own
                    stack.append(group := [None, [], None, None])
            group[1].append(name)
            continue
        if kind == "lp":
            stack.append(["rp", [], None, None])
            continue
        bare = None
        if kind == "ident":
            t = Var(interner.atom(value))
        elif kind == "bot":
            t = BOT
        elif kind == "ref":
            t = Ref(bare := value[1:])
            if not scope.get(bare):
                errors.append(UnboundRef(bare))
        elif group[2] is None:
            raise TermSyntaxError(f"unexpected token {value!r}", pos)
        else:  # the application ends: close groups up to a parenthesis or the text
            while True:
                closer, binders, t, bare = stack.pop()
                for b in reversed(binders):
                    if type(b) is str:  # a μ label; a λ binder is an Atom
                        scope[b] -= 1
                        if bare == b:
                            errors.append(UnguardedMu(b))
                        t = Mu(b, t)
                    else:
                        t, bare = Lam(b, t), None
                if closer is not None:
                    break
                stack[-1][2:] = App(stack[-1][2], t), None
            if closer != kind:
                raise TermSyntaxError(f"expected {closer}, found {value!r}", pos)
            if kind == "eof":
                if errors:
                    raise errors[0]
                return t
            group = stack[-1]
        group[2:] = (t, bare) if group[2] is None else (App(group[2], t), None)


# ---------------------------------------------------------------------------
# Pretty printing (ASCII form of the same grammar)


def print_term(t: MuTerm) -> str:
    return _print(t, "top")


def _print(t: MuTerm, ctx: str) -> str:
    # ctx: 'top' (binder bodies), 'fn' (left of application), 'arg'
    match t:
        case Var(a):
            return str(a)
        case Bot():
            return "_|_"
        case Ref(l):
            return f"#{l}"
        case Lam(x, b):
            s = f"\\{x}. {_print(b, 'top')}"
            return s if ctx == "top" else f"({s})"
        case Mu(l, b):
            s = f"mu {l}. {_print(b, 'top')}"
            return s if ctx == "top" else f"({s})"
        case App(f, a):
            s = f"{_print(f, 'fn')} {_print(a, 'arg')}"
            return f"({s})" if ctx == "arg" else s
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Term graphs


class TermGraph:
    """A rooted finite system of Var/Bot/Lam/App nodes with child references.

    Node labels are tuples: ('var', Atom) | ('bot',) | ('lam', Atom, nid)
    | ('app', nid, nid).  The graph is the finite representation of the
    rational λ-tree obtained as its infinite unfolding.
    """

    def __init__(self, nodes: dict[int, tuple], root: int):
        # the labels `_children` accepts, each child checked as it is read
        for nid, label in nodes.items():
            match label:
                case ("app", f, a):
                    if f not in nodes:
                        raise ValueError(f"node {nid} references missing node {f}")
                    if a not in nodes:
                        raise ValueError(f"node {nid} references missing node {a}")
                case ("lam", _, b):
                    if b not in nodes:
                        raise ValueError(f"node {nid} references missing node {b}")
                case ("var", _) | ("bot",):
                    pass
                case _:
                    raise ValueError(f"node {nid}: malformed label {label!r}")
        if root not in nodes:
            raise ValueError("root node missing")
        self.nodes = dict(nodes)
        self.root = root

    def reachable(self) -> list[int]:
        """The nodes reachable from the root, in depth-first preorder with
        children in order: the order in which `_dfs` enters them.  One loop
        on an explicit stack pops a node, skips it if seen, else records it
        and pushes its children in reverse."""
        nodes, seen = self.nodes, {}
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen[n] = None
            label = nodes[n]
            if label[0] == "app":
                stack += label[2], label[1]
            elif label[0] == "lam":
                stack.append(label[2])
        return list(seen)

    def fv_map(self) -> dict[int, frozenset[Atom]]:
        """Free variables per node: least fixpoint of the structural equations.

        Sweeps run in insertion order until one changes nothing.  A node
        reuses a child's set when the union or the binder removal adds
        nothing, and keeps its own set while a sweep finds it equal.  A chain
        inserted root first gains one node per sweep: quadratic time.
        """
        empty = frozenset()
        fvs = {n: frozenset(label[1:]) if label[0] == "var" else empty
               for n, label in self.nodes.items()}
        changed = True
        while changed:
            changed = False
            for n, label in self.nodes.items():
                kind = label[0]
                if kind == "app":
                    f, a = fvs[label[1]], fvs[label[2]]
                    new = f if a <= f else a if f <= a else f | a
                elif kind == "lam":
                    new = fvs[label[2]]
                    if label[1] in new:
                        new = new - {label[1]}
                else:
                    continue
                old = fvs[n]
                if new is not old and new != old:
                    fvs[n] = new
                    changed = True
        return fvs

    def support(self) -> frozenset[Atom]:
        return self.fv_map()[self.root]

    def act(self, p: Perm) -> "TermGraph":
        """Rename every atom occurrence, binders and leaves alike."""
        return TermGraph({n: _lmap(l, p) for n, l in self.nodes.items()}, self.root)

    def __str__(self):
        return print_graph(self)

    def __repr__(self):
        return f"TermGraph<{print_graph(self)}>"


def _children(label: tuple) -> tuple[int, ...]:
    """The children of a label; a label of no λ-tree kind and arity is a ValueError."""
    match label:
        case ("lam", _, b):
            return (b,)
        case ("app", f, a):
            return (f, a)
        case ("var", _) | ("bot",):
            return ()
    raise ValueError(f"malformed label {label!r}")


def _lmap(label: tuple, name: Callable = lambda a: a, child: Callable = lambda c: c) -> tuple:
    """The λ-tree functor L X = V + [V]X + X×X on maps: `name` on the label's
    atoms, `child` on its children.  Graph labels, step views and concrete
    steps are all elements of some L X.  ⊥ is returned as it is."""
    match label:
        case ("var", a):
            return ("var", name(a))
        case ("lam", x, b):
            return ("lam", name(x), child(b))
        case ("app", f, a):
            return ("app", child(f), child(a))
    return label


def unfold(root, step: Callable, states=()) -> TermGraph:
    """The corecursion principle: the graph of the hashable states reached
    from `root` and the given `states`, one node each.  A state is labelled
    `step(state, child)`, a graph label whose children are `child(s)`, the
    node id of state s.  States are numbered as first met: `states` in
    order, then `root`, then the rest breadth first, on one queue that the
    loop reads while it grows, so nothing recurses."""
    ids = {s: i for i, s in enumerate(states)}
    queue = list(ids)

    def child(s):
        if (i := ids.get(s)) is None:
            i = ids[s] = len(queue)
            queue.append(s)
        return i

    root = child(root)
    return TermGraph(dict(enumerate([step(s, child) for s in queue])), root)


def graph_of(t: MuTerm) -> TermGraph:
    """One node per constructor; μ nodes are elided into back references."""
    nodes: dict[int, tuple] = {}
    root = _graph_node(t, {}, nodes, itertools.count())
    return TermGraph(nodes, root)


def _graph_node(t: MuTerm, env: dict[str, int], nodes: dict[int, tuple], counter,
                nid: int | None = None) -> int:
    if isinstance(t, Ref):
        return env[t.label]
    if nid is None:
        nid = next(counter)
    match t:
        case Mu(l, b):
            return _graph_node(b, {**env, l: nid}, nodes, counter, nid)
        case Var(a):
            nodes[nid] = ("var", a)
        case Bot():
            nodes[nid] = ("bot",)
        case Lam(x, b):
            nodes[nid] = ("lam", x, _graph_node(b, env, nodes, counter))
        case App(f, a):
            nodes[nid] = ("app", _graph_node(f, env, nodes, counter),
                          _graph_node(a, env, nodes, counter))
    return nid


def print_graph(g: TermGraph) -> str:
    """Print a graph as a μ-term.

    One depth-first search from the root, children in order, finds the nodes
    it reaches a second time.  Each gets one μ at its first visit, labelled
    r0, r1, ... in preorder, and a #ref at every later one.  A #ref reached
    by a back edge, to a node still on the search path, lies inside its μ.
    One reached by a forward or cross edge, to a node in an earlier sibling
    branch that the search has finished, lies outside it, and the term does
    not parse back.  O(n) time and memory in the n reachable nodes.
    """
    order: list[int] = []
    shared: set[int] = set()
    for kind, n, m in _dfs(g):
        if kind == _ENTER:
            order.append(n)
        elif kind == _EDGE:
            shared.add(m)
    labels = {n: f"r{i}" for i, n in enumerate(n for n in order if n in shared)}
    return print_term(_mu_term(g, g.root, labels, set()))


def _mu_term(g: TermGraph, n: int, labels: dict[int, str], emitted: set[int]) -> MuTerm:
    if n in labels and n in emitted:
        return Ref(labels[n])
    emitted.add(n)
    match g.nodes[n]:
        case ("var", a):
            body: MuTerm = Var(a)
        case ("bot",):
            body = BOT
        case ("lam", x, b):
            body = Lam(x, _mu_term(g, b, labels, emitted))
        case ("app", f, a):
            body = App(_mu_term(g, f, labels, emitted), _mu_term(g, a, labels, emitted))
    return Mu(labels[n], body) if n in labels else body


_ENTER, _EDGE = range(2)


def _dfs(g: TermGraph):
    """Depth-first search from the root, children in order, on an explicit stack.

    Yields (_ENTER, n, None) when n is first reached and (_EDGE, n, c) for
    each edge n → c whose target was reached before.  The stack holds the
    edges still to follow as flat child, parent int pairs, the parent on top
    and a node's first edge above its second: popping an edge to a new node
    pushes that node's edges, so its whole search runs before its next
    sibling's edge is read.  No iterator or tuple stays alive per node on the
    search path, which is as deep as the graph.
    """
    nodes = g.nodes
    seen = set()
    stack = [g.root, None]
    while stack:
        n = stack.pop()
        c = stack.pop()
        if c in seen:
            yield _EDGE, n, c
            continue
        seen.add(c)
        yield _ENTER, c, None
        label = nodes[c]
        if label[0] == "app":
            stack += label[2], c, label[1], c
        elif label[0] == "lam":
            stack += label[2], c


# ---------------------------------------------------------------------------
# Truncation


def truncate(g: TermGraph, depth: int) -> FiniteTerm:
    """Cut the unfolding at the given depth, replacing cut subtrees by ⊥.

    The root sits at depth 0, so truncate(·, 0) is ⊥.
    """
    nodes = g.nodes
    return _truncate(lambda n, child: nodes[n], g.root, depth, {})


def _identity(s):
    return s


def _truncate(step: Callable[..., tuple], n, d: int, memo: dict) -> FiniteTerm:
    """Cut the tree from state n at depth d.  `step` is an `unfold` step,
    asked with `child` the identity, so a label's children are states; a
    state is labelled only if it lies above the cut."""
    if d <= 0:
        return BOT
    key = (n, d)
    if key in memo:
        return memo[key]
    match step(n, _identity):
        case ("var", a):
            out: FiniteTerm = Var(a)
        case ("bot",):
            out = BOT
        case ("lam", x, b):
            out = Lam(x, _truncate(step, b, d - 1, memo))
        case ("app", f, a):
            out = App(_truncate(step, f, d - 1, memo), _truncate(step, a, d - 1, memo))
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# α-equivalence of unfoldings: reachability over node pairs


def alpha_bisim(g1: TermGraph, g2: TermGraph) -> bool:
    """True iff the infinite unfoldings of g1 and g2 are α-equivalent.

    Walks node pairs from the roots on an explicit stack, each with a map from
    g1's free names to g2's, starting from the identity.  A λ pair maps its
    binders to each other and fails on capture; a var pair needs its names to
    correspond.  Every free occurrence is reached, so only g1's free names are
    needed.  A subtree of a λ-tree has no nontrivial stabilizer, so at most
    one map holds at a node pair: a pair is visited once, and a second map
    that differs on the node's free names means False.  The stack is three
    parallel lists, of g1 nodes, g2 nodes and maps, so no pending pair is a
    tuple that holds a dict and stays tracked by the cyclic collector.
    """
    fv1, nodes1, nodes2 = g1.fv_map(), g1.nodes, g2.nodes
    seen: dict[tuple[int, int], dict[Atom, Atom]] = {}
    todo1, todo2, maps = [g1.root], [g2.root], [{a: a for a in fv1[g1.root]}]
    while todo1:
        n1, n2, rho = todo1.pop(), todo2.pop(), maps.pop()
        pair = n1, n2
        if (old := seen.get(pair)) is not None:
            if old is not rho and any(old[a] != rho[a] for a in fv1[n1]):
                return False
            continue
        seen[pair] = rho
        l1, l2 = nodes1[n1], nodes2[n2]
        kind = l1[0]
        if kind != l2[0]:
            return False
        if kind == "app":
            todo1 += l1[1], l1[2]
            todo2 += l2[1], l2[2]
            maps += rho, rho
        elif kind == "lam":
            x1, b1, x2 = l1[1], l1[2], l2[1]
            body = fv1[b1]
            if any(rho[a] == x2 for a in body if a != x1):
                return False  # a free name would be captured
            if x1 in body and rho.get(x1) != x2:
                rho = {**rho, x1: x2}
            todo1.append(b1)
            todo2.append(l2[2])
            maps.append(rho)
        elif kind == "var" and rho[l1[1]] != l2[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Partition refinement; subtree counting and minimization


def _classes(g: TermGraph, key: Callable[[int], tuple]) -> dict[int, int]:
    """Greatest bisimulation under equality of key(n), as node → class.

    Two keys are in use: the literal key, `_label_key` of the node's label,
    gives literal equality of unfoldings (`subtree_count`, `minimize`); the
    slot key of `coalgebra._orbit_classes` gives orbit equivalence.

    One depth-first postorder loop on an explicit stack records each node's
    children once and classes the nodes at their exit.  There, a node whose
    children all have a class reaches no cycle, so its unfolding is finite:
    it gets its final class at once, hash-consed from its key and its
    children's classes.  Any other node reaches a cycle, because a child
    without a class is still on the search path or reaches a cycle itself.
    At its exit it joins the block of its key plus the classes of its finite
    children; once the search ends, these blocks are numbered past the
    finite classes, which keeps them apart from every finite class.  Blocks
    are split until the members of each block agree on their children's
    blocks.  A split moves every part but the largest to a new block and
    re-examines only the predecessors of moved nodes (Hopcroft's smaller
    half), so a node moves O(log n) times and the whole costs O(n log n)
    for the n reachable nodes.

    The search path is as deep as the graph, and the cyclic collector walks
    every container that stays alive, so nothing here keeps a container per
    node.  The search stack holds node ids: entering a node pushes it back,
    then the exit marker None, then its children, last child first; popping
    the marker exits the node below it.  Predecessors are one linked list
    per node, threaded through two flat lists, `pred` and `after`, in the
    order of the edges.  Only a block of two or more nodes keeps a member
    set, since a block of one never splits, and a part of one node is a
    1-tuple, not a list.
    """
    nodes = g.nodes
    cls: dict[int, int] = {}
    consed: dict[tuple, int] = {}
    infinite: list[int] = []
    kids_of: dict[int, tuple[int, ...]] = {}
    block: dict[int, int] = {}
    seeds: dict[tuple, int] = {}
    first: list[int] = []  # block → its first member
    multi: dict[int, set[int]] = {}  # block of two or more → its members
    stack = [g.root]
    while stack:
        n = stack.pop()
        if n is None:
            n = stack.pop()
            sig = tuple(map(cls.get, kids_of[n]))
            if None not in sig:
                cls[n] = consed.setdefault((key(n), sig), len(consed))
                continue
            infinite.append(n)
            b = block[n] = seeds.setdefault((key(n), sig), len(seeds))
            if b == len(first):
                first.append(n)
            elif b in multi:
                multi[b].add(n)
            else:
                multi[b] = {first[b], n}
        elif n not in kids_of:
            kids_of[n] = kids = _children(nodes[n])
            stack += n, None
            stack += kids[::-1]
    base = len(consed)
    block = {n: b + base for n, b in block.items()}
    multi = {b + base: ms for b, ms in multi.items()}

    # head[c] is c's first edge; edge e runs from pred[e], and after[e] is
    # the next edge into the same node, or -1.  Threaded back to front, each
    # list reads in the order of the edges.
    head: dict[int, int] = {}
    pred: list[int] = []
    after: list[int] = []
    for n in reversed(infinite):
        for c in reversed(kids_of[n]):
            if c in block:
                after.append(head.get(c, -1))
                head[c] = len(pred)
                pred.append(n)
    fresh = itertools.count(base + len(seeds))
    dirty = set(infinite)
    while dirty:
        touched: dict[int, dict[tuple, tuple[int] | list[int]]] = {}
        for n in dirty:
            b = block[n]
            if len(multi.get(b, ())) > 1:
                if (groups := touched.get(b)) is None:
                    groups = touched[b] = {}
                sig = tuple(map(block.get, kids_of[n]))
                part = groups.get(sig)
                if part is None:
                    groups[sig] = (n,)
                elif type(part) is tuple:
                    groups[sig] = [part[0], n]
                else:
                    part.append(n)
        moved: list[int] = []
        for b, groups in touched.items():
            ms = multi[b]
            parts = sorted(groups.values(), key=len)
            rest = len(ms) - sum(map(len, parts))
            if rest == 0 and len(parts) == 1:
                continue
            keep = parts.pop() if len(parts[-1]) > rest else None
            if keep is not None and rest:
                # the untouched members are fewer than the largest part: move them
                parts.append(list(ms.difference(keep, *parts)))
            for part in parts:
                nb = next(fresh)
                if len(part) > 1:
                    multi[nb] = set(part)
                ms.difference_update(part)
                for n in part:
                    block[n] = nb
                moved += part
        dirty = set()
        for n in moved:
            e = head.get(n, -1)
            while e >= 0:
                dirty.add(pred[e])
                e = after[e]
    cls.update(block)
    return cls


def _label_key(label: tuple) -> tuple:
    """The label without its children; one shared ("app",), not a slice per node."""
    return ("app",) if label[0] == "app" else label[:2]


def subtree_count(g: TermGraph) -> int:
    """Number of distinct subtrees of the unfolding, as literal labeled trees.

    Costs one `_classes`: O(n log n) in the reachable nodes.
    """
    return len(set(_classes(g, lambda n: _label_key(g.nodes[n])).values()))


def minimize(g: TermGraph) -> TermGraph:
    """Merge nodes with literally equal unfoldings; one node per subtree."""
    labels = g.nodes
    cls = _classes(g, lambda n: _label_key(labels[n]))
    nodes: dict[int, tuple] = {}
    for n, c in cls.items():
        if c not in nodes:
            label = labels[n]
            if label[0] == "app":
                label = ("app", cls[label[1]], cls[label[2]])
            elif label[0] == "lam":
                label = ("lam", label[1], cls[label[2]])
            nodes[c] = label
    return TermGraph(nodes, cls[g.root])
