"""Orbit-finite coalgebras for the λ-tree functor and the finite construction.

A symbolic coalgebra gives the structure map schema-wise: each orbit gets a
step view, a λ-tree label over its slots, read once into a function of an
atom tuple whose children are keys `(schema id, canonical atom tuple)`.
`c_construct` is `terms.unfold` over these keys on a name pool of size m+1:
a finite term graph that unfolds to the represented rational λ-tree.
`instantiate` returns the coalgebra itself; it remains because the
benchmark in `perfbench/` passes its result to `c_construct`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from math import factorial
from operator import itemgetter
from typing import Callable

from .nominal import Atom, fresh_atoms
from .orbits import (
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    apply_slot_perm,
    canonical_tuples,
    slot_identity,
)
from .terms import _ATOM_NAME, TermGraph, _classes, _lmap, unfold

# FRESH marker in step views
FRESH = None


@dataclass(frozen=True)
class SymbolicCoalgebra:
    """An orbit-finite coalgebra given schema-wise.

    Each orbit's step is a λ-tree label over its slots, with a target
    `(schema id, assignment)` where a graph label has a node id:
    `("var", slot)`, `("lam", slot | FRESH, target)` or
    `("app", target, target)`.  An assignment gives, for each slot of the
    target, a slot of the orbit, or FRESH for the λ's binder.

    The steps are checked when the coalgebra is built, and each orbit's step
    function is kept for `c_construct`.  `support_bound` is the largest
    arity, which bounds the support of every element.
    """

    carrier: OrbitSet
    steps: dict[str, tuple]
    support_bound: int = field(init=False, repr=False, compare=False)
    _step_fns: dict[str, Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "support_bound", max((s.arity for s in self.carrier), default=0))
        object.__setattr__(self, "_step_fns", _steps(self))


class InvalidCoalgebra(ValueError):
    pass


class SupportTooLarge(ValueError):
    def __init__(self, elem):
        super().__init__(f"element {elem} exceeds the support bound")
        self.elem = elem


class EscapesCarrier(ValueError):
    def __init__(self, elem):
        super().__init__(f"step target {elem} lies outside the restricted carrier")
        self.elem = elem


# ---------------------------------------------------------------------------
# Validation


def _check_target(c: SymbolicCoalgebra, schema: OrbitSchema, target: tuple,
                  allow_fresh: bool) -> tuple[OrbitSchema, tuple]:
    """The target's schema and assignment, after checking them."""
    sid, assignment = target
    try:
        target_schema = c.carrier[sid]
    except KeyError:
        raise InvalidCoalgebra(
            f"step of {schema.id!r}: target names undeclared orbit {sid!r}") from None
    if len(assignment) != target_schema.arity:
        raise InvalidCoalgebra(
            f"step of {schema.id!r}: assignment length {len(assignment)} "
            f"does not match arity of {sid!r}"
        )
    slots = assignment
    if FRESH in assignment:
        if not allow_fresh:
            raise InvalidCoalgebra(
                f"step of {schema.id!r}: FRESH not allowed in an application target")
        slots = [s for s in assignment if s is not FRESH]
        if len(assignment) - len(slots) > 1:
            raise InvalidCoalgebra(f"step of {schema.id!r}: more than one FRESH slot")
    k = schema.arity
    for s in slots:
        if type(s) is not int:
            raise InvalidCoalgebra(f"step of {schema.id!r}: {s!r} in an assignment is not a slot")
        if not 0 <= s < k:
            raise InvalidCoalgebra(f"step of {schema.id!r}: slot {s + 1} out of range")
    if len(set(slots)) != len(slots):
        raise InvalidCoalgebra(f"step of {schema.id!r}: assignment not injective")
    return target_schema, assignment


def _step_fn(c: SymbolicCoalgebra, schema: OrbitSchema) -> Callable:
    """The schema's step view, checked for shape and slots, as a function
    `step(t, pool, child)` of a concrete atom tuple t, with the target orbits
    looked up once.  Each child is `child` of a key `(schema id, canonical
    atom tuple)`.  A λ binds the least name w of `pool` outside t, and its
    body reads w at position k = |t| of t + (w,), wherever the view names
    the binder: its slot, or FRESH."""
    # a slot is a plain int: an Atom is an int, but not a slot
    match c.steps[schema.id]:
        case ("var", src) if type(src) is int:
            if src not in range(schema.arity):
                raise InvalidCoalgebra(f"step of {schema.id!r}: slot {src + 1} out of range")
            return lambda t, pool, child: ("var", t[src])
        case ("app", (str(), tuple()) as left, (str(), tuple()) as right):
            ls, lslots = _check_target(c, schema, left, allow_fresh=False)
            rs, rslots = _check_target(c, schema, right, allow_fresh=False)
            lid, left = ls.id, _picker(ls, lslots)
            rid, right = rs.id, _picker(rs, rslots)
            return lambda t, pool, child: ("app", child((lid, left(t))), child((rid, right(t))))
        case ("lam", b, (str(), tuple()) as body) if b is FRESH or type(b) is int:
            if b is not FRESH and b not in range(schema.arity):
                raise InvalidCoalgebra(
                    f"step of {schema.id!r}: binder slot {b + 1} out of range")
            bs, slots = _check_target(c, schema, body, allow_fresh=True)
            if b is not FRESH and b in slots and FRESH in slots:
                raise InvalidCoalgebra(
                    f"step of {schema.id!r}: binder slot {b + 1} and FRESH both in the λ body")
            k = schema.arity
            bid, body = bs.id, _picker(bs, [k if s is FRESH or s == b else s for s in slots])

            def lam(t, pool, child):
                v = min(pool.difference(t))
                return ("lam", v, child((bid, body(t + (v,)))))

            return lam
        case view:
            raise InvalidCoalgebra(f"step of {schema.id!r} is not a step view: {view!r}")


def _picker(schema: OrbitSchema, slots) -> Callable:
    """The function from an atom tuple t to `schema`'s canonical tuple of
    the atoms at `slots` of t."""
    match slots:
        case []:
            pick = lambda t: ()
        case [s]:
            pick = lambda t: (t[s],)
        case _:
            pick = itemgetter(*slots)
    return pick if schema.trivial else lambda t: schema.canonical(pick(t))


def _steps(c: SymbolicCoalgebra) -> dict[str, Callable]:
    """Each orbit's `_step_fn`, after checking that every orbit has exactly
    one step and that it is well-defined under every non-identity stabilizer
    member.  Both sides of the check bind the same name, outside the tuple,
    so equal labels are equal steps."""
    if stray := c.steps.keys() - {schema.id for schema in c.carrier}:
        raise InvalidCoalgebra(f"step for undeclared orbit {min(stray)!r}")
    as_key = lambda key: key  # children stay keys
    steps = {}
    for schema in c.carrier:
        if schema.id not in c.steps:
            raise InvalidCoalgebra(f"orbit {schema.id!r} has no step")
        step = steps[schema.id] = _step_fn(c, schema)
        if schema.trivial:
            continue  # the identity agrees with itself
        # well-definedness on the stabilizer quotient, checked exhaustively
        base = tuple(Atom(i) for i in range(schema.arity))
        pool = frozenset(base + (Atom(schema.arity),))
        s0 = step(base, pool, as_key)
        for g in schema.stabilizer - {slot_identity(schema.arity)}:
            if step(apply_slot_perm(g, base), pool, as_key) != s0:
                raise InvalidCoalgebra(
                    f"step of {schema.id!r} is not well-defined under stabilizer {g}"
                )
    return steps


def instantiate(c: SymbolicCoalgebra) -> SymbolicCoalgebra:
    """`c` itself, which `c_construct` reads.  It remains for the callers in
    `perfbench/`, which pass its result to `c_construct` and read its
    `support_bound`."""
    return c


# ---------------------------------------------------------------------------
# The finite-representation construction


def size_bound(n: int, m: int) -> int:
    """Bound on the number of elements supported inside an (m+1)-atom pool."""
    return n * factorial(m + 1)


def c_construct(c: SymbolicCoalgebra, root, carrier: OrbitSet | None = None) -> TermGraph:
    """Materialize the behavior of an element as a finite term graph.

    With m the support bound of `c`, the name pool W is the support of the
    root padded with least fresh atoms to m+1 names, so every element has
    some name in W fresh for it.  The graph is `unfold` over keys
    `(schema id, canonical atom tuple)` over W, each labelled by its orbit's
    step on that tuple, with a λ binding W's least name outside the tuple.
    With a carrier given, which must be the coalgebra's own, the
    states are every such key, numbered first by orbit in carrier order and
    then by tuple; without one, they are the keys reachable from the root,
    numbered breadth first.
    """
    m = c.support_bound
    if len(root.support()) > m:
        raise SupportTooLarge(root)
    if carrier is not None and carrier != c.carrier:
        raise ValueError("c_construct needs the carrier of the coalgebra it reads")
    sid = root.schema.id
    if sid not in c.carrier or c.carrier[sid] != root.schema:
        raise EscapesCarrier(root)
    pad = fresh_atoms(root.support(), m + 1 - len(root.support()))
    W = frozenset(root.support()) | frozenset(pad)
    steps, keys = c._step_fns, ()
    if carrier is not None:
        pool = sorted(W)
        keys = [(s.id, t) for s in carrier for t in canonical_tuples(s, pool)]
    return unfold((sid, root.canonical()), lambda key, child: steps[key[0]](key[1], W, child),
                  keys)


# ---------------------------------------------------------------------------
# Term graph -> symbolic coalgebra (one orbit per node)


def graph_to_coalgebra(g: TermGraph) -> tuple[SymbolicCoalgebra, OrbitElement]:
    """Present a term graph as an orbit-finite coalgebra plus a root element.

    Each reachable node n becomes one trivial-stabilizer orbit `n<n>` whose
    slots are the node's free names in `_free_orders` order.  That order is
    equivariant, so renaming the graph renames only the root element.
    """
    slots = _free_orders(g)
    order = list(slots)  # the reachable nodes, in preorder
    ids = {n: f"n{n}" for n in order}
    steps: dict[str, tuple] = {}
    for n in order:
        view = _step_view(g.nodes[n], slots[n], slots, ids)
        if view == ("bot",):
            raise ValueError("⊥ nodes have no step in the λ-tree functor")
        steps[ids[n]] = view
    carrier = OrbitSet(tuple(OrbitSchema(ids[n], len(slots[n])) for n in order))
    root = OrbitElement(carrier[ids[g.root]], slots[g.root])
    return SymbolicCoalgebra(carrier, steps), root


def _step_view(label: tuple, slots: tuple[Atom, ...], child_slots: dict,
               ids: dict[int, str]) -> tuple:
    """A graph node's label as a step view over `slots`, its free names.

    A child c becomes the target `(ids.get(c), the positions in slots of
    child_slots[c])`, and a λ's binder, which is not free in the λ, is FRESH.
    A ⊥ label has no step view and is returned as it is.
    """
    pos = {a: i for i, a in enumerate(slots)}
    if label[0] == "lam":
        pos[label[1]] = FRESH
    return _lmap(label, pos.__getitem__,
                 lambda c: (ids.get(c), tuple([pos[a] for a in child_slots[c]])))


# ---------------------------------------------------------------------------
# Example generators


def gen_pair() -> tuple[SymbolicCoalgebra, OrbitElement]:
    """Two orbits: single variables, and ordered pairs of distinct variables."""
    var = OrbitSchema("var", 1)
    pair = OrbitSchema("pair", 2)
    carrier = OrbitSet((var, pair))
    steps = {"var": ("var", 0), "pair": ("app", ("var", (0,)), ("var", (1,)))}
    return SymbolicCoalgebra(carrier, steps), OrbitElement(pair, (Atom(0), Atom(1)))


def gen_rsigma(levels: int) -> TermGraph:
    """The family of application-only trees whose subtrees realize every
    permutation of m = 2^(levels-1) variables; root at the identity."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > 4:
        raise ValueError("levels > 4 is not desk-scale")
    m = 2 ** (levels - 1)
    base = tuple(range(1, m + 1))  # atom indices: an Atom is built only in a var label

    nodes: dict[int, tuple] = {}
    counter = itertools.count()
    fronts = list(itertools.permutations(base))
    r_id = {f: next(counter) for f in fronts}
    h_id = {f: next(counter) for f in fronts}

    # no f is in bin_memo yet: it holds only fronts shorter than m
    bin_memo: dict[tuple[int, ...], int] = {}
    for f in fronts:
        transposed = (f[1], f[0]) + f[2:] if m >= 2 else f
        rotated = f[1:] + f[:1]
        nodes[h_id[f]] = ("app", r_id[transposed], r_id[rotated])
        nodes[r_id[f]] = ("app", h_id[f], _bin_node(f, bin_memo, nodes, counter))

    return TermGraph(nodes, r_id[base])


def _bin_node(front: tuple[int, ...], memo: dict, nodes: dict, counter) -> int:
    """The balanced application tree over front's variables, for a front not
    yet in memo; subtrees are shared through memo, ids drawn in preorder."""
    nid = memo[front] = next(counter)
    if len(front) == 1:
        nodes[nid] = ("var", Atom(front[0]))
    else:
        h = len(front) // 2
        left, right = front[:h], front[h:]
        nodes[nid] = ("app",
                      memo[left] if left in memo else _bin_node(left, memo, nodes, counter),
                      memo[right] if right in memo else _bin_node(right, memo, nodes, counter))
    return nid


def rsigma_count(levels: int) -> int:
    """Closed form for the number of distinct subtrees of gen_rsigma."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    m = 2 ** (levels - 1)
    return 2 * factorial(m) + sum(
        factorial(m) // factorial(m - 2 ** (i - 1)) for i in range(1, levels + 1)
    )


# ---------------------------------------------------------------------------
# Orbit counting on term graphs


def orbit_count(g: TermGraph) -> int:
    """Number of orbits among the distinct subtrees of g's unfolding.

    Two subtrees are in the same orbit iff some renaming of their free
    variables makes them α-equivalent.  That is the coarsest partition stable
    under the node's step view over its `_free_orders` slots, as
    `graph_to_coalgebra` presents it with the targets' orbits left to the
    refinement: the kind, each child's free order written as positions in
    the node's own, FRESH for a λ's binder.  A renaming carries the free
    orders along, so orbits are stable; in a stable partition, mapping one
    node's order onto the other's is an α-bisimulation.  Cost: one
    `_free_orders` pass plus one O(n log n) refinement.
    """
    return len(set(_orbit_classes(g).values()))


def _orbit_classes(g: TermGraph) -> dict[int, int]:
    """Orbit equivalence on the reachable nodes, by the step view over the
    `_free_orders` slots that `graph_to_coalgebra` uses, as node → class."""
    orders = _free_orders(g)
    # no target ids: the refinement keys on the children's classes instead
    return _classes(g, lambda n: _step_view(g.nodes[n], orders[n], orders, {}))


def _free_orders(g: TermGraph) -> dict[int, tuple[Atom, ...]]:
    """For each reachable node, the free names of its unfolding in order of
    first free occurrence, breadth first with children in order.

    One backward breadth-first search from every var node at once, over
    (node, name) pairs: level d holds the pairs whose nearest free occurrence
    lies d edges down.  Level d+1 reads level d once per child position,
    first across the edges into child 0, then into child 1, so a node appends
    its names of depth d+1 in the order of their leftmost occurrence; a λ
    skips its own binder.  Cost: O(Σ |fv(n)|) over the reachable nodes.
    """
    found: dict[int, dict[Atom, None]] = {}
    # per child position: child → [(parent, names, binder)]
    into_fn: dict[int, list] = {}
    into_arg: dict[int, list] = {}
    level = []
    nodes = g.nodes
    for n in g.reachable():
        label = nodes[n]
        names = found[n] = {}
        kind = label[0]
        if kind == "app":
            edge = (n, names, None)
            into_fn.setdefault(label[1], []).append(edge)
            into_arg.setdefault(label[2], []).append(edge)
        elif kind == "lam":
            into_fn.setdefault(label[2], []).append((n, names, label[1]))
        elif kind == "var":
            names[label[1]] = None
            level.append((n, label[1]))
    while level:
        deeper = []
        for edges in (into_fn, into_arg):
            for c, a in level:
                for n, names, binder in edges.get(c, ()):
                    if a not in names and (binder is None or a != binder):
                        names[a] = None
                        deeper.append((n, a))
        level = deeper
    return {n: tuple(names) for n, names in found.items()}


# ---------------------------------------------------------------------------
# Text format


_ORBIT_RE = re.compile(r"orbit\s+(\S+)\s+arity=(\d+)\s+stab=(.+)")
_STEP_RE = re.compile(r"step\s+(\S+)\s*=\s*(var|app|abs)\s*(.*)")
_TARGET_RE = re.compile(r"(\S+?)\(([^)]*)\)")
_CYCLES_RE = re.compile(r"(\s*\(\s*[0-9]+(\s+[0-9]+)*\s*\))+\s*")


def _parse_slot_perm(text: str, sid: str, arity: int) -> tuple[int, ...]:
    """A product of cycles over the 1-based slots, as a slot permutation."""
    if not _CYCLES_RE.fullmatch(text):
        raise InvalidCoalgebra(f"orbit {sid!r}: stab member {text!r} is not a product of cycles")
    perm = list(range(arity))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        entries = [int(x) - 1 for x in cyc.split()]
        if any(src not in range(arity) for src in entries):
            raise InvalidCoalgebra(f"orbit {sid!r}: stab member {text!r} names a slot "
                                   f"outside 1..{arity}")
        for i, src in enumerate(entries):
            perm[src] = entries[(i + 1) % len(entries)]
    return tuple(perm)


def _parse_target(sid: str, text: str) -> tuple:
    slots = [s.strip() for s in text.split(",")] if text.strip() else []
    return sid, tuple([FRESH if s == "fresh" else int(s) - 1 for s in slots])


def parse_coalgebra(text: str) -> SymbolicCoalgebra:
    schemas: list[OrbitSchema] = []
    steps: dict[str, tuple] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _ORBIT_RE.fullmatch(line):
            sid, arity, stab = m.group(1), int(m.group(2)), m.group(3).strip()
            if stab == "trivial":
                schema = OrbitSchema(sid, arity)
            else:
                perms = {_parse_slot_perm(p, sid, arity) for p in stab.split(";")}
                perms.add(tuple(range(arity)))
                schema = OrbitSchema(sid, arity, frozenset(perms))
            schemas.append(schema)
        elif m := _STEP_RE.fullmatch(line):
            sid, kind, rest = m.group(1), m.group(2), m.group(3).strip()
            if sid in steps:
                raise InvalidCoalgebra(f"second step for orbit {sid!r}: {line!r}")
            if kind == "var":
                steps[sid] = ("var", int(rest) - 1)
            elif kind == "app":
                targets = _TARGET_RE.findall(rest)
                if len(targets) != 2:
                    raise InvalidCoalgebra(f"bad app step: {line!r}")
                steps[sid] = ("app", _parse_target(*targets[0]), _parse_target(*targets[1]))
            else:
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise InvalidCoalgebra(f"bad abs step: {line!r}")
                binder = FRESH if parts[0] == "fresh" else int(parts[0]) - 1
                if not (tm := _TARGET_RE.fullmatch(parts[1])):
                    raise InvalidCoalgebra(f"bad abs step: {line!r}")
                steps[sid] = ("lam", binder, _parse_target(*tm.groups()))
        else:
            raise InvalidCoalgebra(f"unrecognized line: {line!r}")
    return SymbolicCoalgebra(OrbitSet(tuple(schemas)), steps)


def _target_str(target: tuple) -> str:
    sid, assignment = target
    return f"{sid}({','.join('fresh' if s is FRESH else str(s + 1) for s in assignment)})"


def _cycles_str(g: tuple[int, ...]) -> str:
    """A slot permutation as a product of cycles over the 1-based slots,
    each cycle from its least slot, in order of those."""
    out, seen = "", set()
    for i in range(len(g)):
        if g[i] != i and i not in seen:
            cyc = [i]
            while g[cyc[-1]] != i:
                cyc.append(g[cyc[-1]])
            seen.update(cyc)
            out += f"({' '.join(str(s + 1) for s in cyc)})"
    return out


def print_coalgebra(c: SymbolicCoalgebra) -> str:
    lines = []
    for s in c.carrier:
        ident = tuple(range(s.arity))
        stab = ";".join(_cycles_str(g) for g in sorted(s.stabilizer) if g != ident)
        lines.append(f"orbit {s.id} arity={s.arity} stab={stab or 'trivial'}")
    for s in c.carrier:
        match c.steps[s.id]:
            case ("var", src):
                lines.append(f"step {s.id} = var {src + 1}")
            case ("app", left, right):
                lines.append(f"step {s.id} = app {_target_str(left)} {_target_str(right)}")
            case ("lam", b, body):
                binder = "fresh" if b is FRESH else b + 1
                lines.append(f"step {s.id} = abs {binder} {_target_str(body)}")
    return "\n".join(lines) + "\n"


def parse_root(text: str, c: SymbolicCoalgebra) -> OrbitElement:
    m = _TARGET_RE.fullmatch(text.strip())
    if not m:
        raise InvalidCoalgebra(f"bad root element: {text!r}")
    sid, atoms = m.group(1), m.group(2)
    if sid not in c.carrier:
        raise InvalidCoalgebra(f"root element names undeclared orbit {sid!r}")
    names = [a.strip() for a in atoms.split(",")] if atoms.strip() else []
    parsed = []
    for name in names:
        am = _ATOM_NAME.fullmatch(name)
        if not am:
            raise InvalidCoalgebra(f"bad atom {name!r} in root element")
        parsed.append(Atom(int(am.group(1))))
    return OrbitElement(c.carrier[sid], tuple(parsed))
