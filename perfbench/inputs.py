"""Seeded input generators.  Graphs use integer atoms; the workloads convert
them to the program's ``Atom`` before use.  Nothing here calls ratlam."""

from __future__ import annotations

import itertools
import random

# ---------------------------------------------------------------------------
# Graph families for the size ladders


def chain(n: int, leaf_atom: int) -> tuple[dict, int]:
    """n nodes: an application spine (through the function position) whose
    every argument is the one shared leaf.  Inserted root first."""
    leaf = n - 1
    nodes = {i: ("app", i + 1, leaf) for i in range(n - 2)}
    nodes[n - 2] = ("app", leaf, leaf)
    nodes[leaf] = ("var", leaf_atom)
    return nodes, 0


def ring(n: int, atoms: tuple[int, int]) -> tuple[dict, int]:
    """n nodes: n/2 applications in a ring closed by one back edge, each with
    its own leaf; leaves alternate between two atoms."""
    k = n // 2
    nodes = {i: ("app", k + i, (i + 1) % k) for i in range(k)}
    for i in range(k):
        nodes[k + i] = ("var", atoms[i % 2])
    return nodes, 0


WINDOW = 6


def random_graph(n: int, rng: random.Random, natoms: int = 3, bot: bool = True):
    """About n nodes: a spine of n/2 abstractions and applications (each
    spine node's first child is the next one), whose second children are
    fresh leaves or spine nodes at most WINDOW away in either direction,
    which makes sharing and cycles.  The window keeps the cost of a graph
    close to that of any other graph of its size."""
    s = max(2, n // 2)
    nodes: dict[int, tuple] = {}
    extra = itertools.count(s)

    def leaf() -> int:
        nid = next(extra)
        if bot and rng.random() < 0.1:
            nodes[nid] = ("bot",)
        else:
            nodes[nid] = ("var", rng.randrange(natoms))
        return nid

    for i in range(s):
        first = i + 1 if i + 1 < s else None
        if rng.random() < 0.35:
            nodes[i] = ("lam", rng.randrange(natoms), first if first is not None else leaf())
        else:
            near = rng.randrange(max(0, i - WINDOW), min(s, i + WINDOW + 1))
            second = leaf() if rng.random() < 0.5 else near
            nodes[i] = ("app", first if first is not None else leaf(), second)
    return nodes, 0


def rsigma(levels: int) -> tuple[dict, int]:
    """The permutation family: r_f = h_f (bin f), h_f = r_(swap f) r_(rotate f)
    over all orderings f of m = 2^(levels-1) atoms; root at the identity."""
    m = 2 ** (levels - 1)
    base = tuple(range(1, m + 1))
    fronts = list(itertools.permutations(base))
    count = itertools.count()
    r_id = {f: next(count) for f in fronts}
    h_id = {f: next(count) for f in fronts}
    nodes: dict[int, tuple] = {}
    bins: dict[tuple, int] = {}

    def bin_node(front):
        if front not in bins:
            nid = bins[front] = next(count)
            if len(front) == 1:
                nodes[nid] = ("var", front[0])
            else:
                h = len(front) // 2
                nodes[nid] = ("app", bin_node(front[:h]), bin_node(front[h:]))
        return bins[front]

    for f in fronts:
        swapped = (f[1], f[0]) + f[2:] if m >= 2 else f
        nodes[h_id[f]] = ("app", r_id[swapped], r_id[f[1:] + f[:1]])
        nodes[r_id[f]] = ("app", h_id[f], bin_node(f))
    return nodes, r_id[base]


def cycle(k: int) -> tuple[dict, int]:
    """k ring nodes c_i = v_i c_(i+1), closed into a cycle."""
    nodes = {i: ("app", k + i, (i + 1) % k) for i in range(k)}
    for i in range(k):
        nodes[k + i] = ("var", i + 1)
    return nodes, 0


def spine(k: int) -> tuple[dict, int]:
    """The finite left spine v1 v2 … vk."""
    nodes = {0: ("var", 1)}
    top = 0
    for i in range(2, k + 1):
        leaf = len(nodes)
        nodes[leaf] = ("var", i)
        nodes[leaf + 1] = ("app", top, leaf)
        top = leaf + 1
    return nodes, top


def relabel(nodes: dict, root: int, atom_map: dict):
    """The same graph with node ids in reverse order and atoms renamed."""
    new_ids = {n: len(nodes) - i for i, n in enumerate(nodes)}
    am = atom_map

    def rn(lab):
        if lab[0] == "var":
            return ("var", am.get(lab[1], lab[1]))
        if lab[0] == "lam":
            return ("lam", am.get(lab[1], lab[1]), new_ids[lab[2]])
        if lab[0] == "app":
            return ("app", new_ids[lab[1]], new_ids[lab[2]])
        return lab

    return {new_ids[n]: rn(lab) for n, lab in nodes.items()}, new_ids[root]


# ---------------------------------------------------------------------------
# Random orbit-finite coalgebras in the text format


def random_coalgebra(rng: random.Random, n: int = 5) -> tuple[str, str]:
    """n trivial-stabilizer orbits of arity at most 2 with random steps, plus
    a padded copy of orbit o0 (arity 2) whose two extra slots are unused and
    swapped by its stabilizer; the root lies in the padded orbit.  Returns
    (text, root schema id); the root arity is 4."""
    arity = {f"o{i}": rng.randrange(0, 3) for i in range(n)}
    arity["o0"] = 2
    ids = list(arity)
    steps = {}
    for sid, k in arity.items():
        kinds = (["var"] if k else []) + ["app", "abs"]
        kind = rng.choice(kinds)
        if kind == "var":
            steps[sid] = f"var {rng.randrange(k) + 1}"
        elif kind == "app":
            parts = []
            for _ in range(2):
                t = rng.choice([t for t in ids if arity[t] <= k])
                parts.append(f"{t}({_slots(rng.sample(range(k), arity[t]))})")
            steps[sid] = "app " + " ".join(parts)
        else:
            t = rng.choice([t for t in ids if arity[t] <= k + 1])
            pool = list(range(k)) + [None]
            asg = rng.sample(pool, arity[t])
            steps[sid] = f"abs fresh {t}({_slots(asg)})"
    lines = [f"orbit {sid} arity={a} stab=trivial" for sid, a in arity.items()]
    lines.append("orbit p0 arity=4 stab=(3 4)")
    lines += [f"step {sid} = {st}" for sid, st in steps.items()]
    # the padded orbit behaves as o0: the same step on the first two slots
    lines.append(f"step p0 = {steps['o0']}")
    return "\n".join(lines) + "\n", "p0"


def _slots(asg) -> str:
    return ",".join("fresh" if s is None else str(s + 1) for s in asg)


# ---------------------------------------------------------------------------
# μ-terms as text


def print_ast(t) -> str:
    """Print ('var', name) | ('bot',) | ('ref', label) | ('lam', name, b)
    | ('mu', label, b) | ('app', f, a) in the grammar's conventions."""

    def go(t, ctx):
        tag = t[0]
        if tag == "var":
            return t[1]
        if tag == "bot":
            return "_|_"
        if tag == "ref":
            return "#" + t[1]
        if tag in ("lam", "mu"):
            s = (f"\\{t[1]}. " if tag == "lam" else f"mu {t[1]}. ") + go(t[2], "top")
            return s if ctx == "top" else f"({s})"
        s = f"{go(t[1], 'fn')} {go(t[2], 'arg')}"
        return f"({s})" if ctx == "arg" else s

    return go(t, "top")


FREE_NAMES = ("v0", "v1", "v2", "y", "z")
BINDER_NAMES = ("x", "y", "f", "v1", "v3", "w")


def random_muterm(rng: random.Random, depth: int, mu: bool = True, bot: bool = True):
    """A guarded, closed-under-μ random term of at most the given depth."""
    labels = itertools.count()

    def gen(d, scope, guarded, binders):
        r = rng.random()
        if d <= 0 or r < 0.15:
            if guarded and rng.random() < 0.3:
                return ("ref", rng.choice(sorted(guarded)))
            if bot and rng.random() < 0.05:
                return ("bot",)
            if binders and rng.random() < 0.7:
                return ("var", rng.choice(binders))
            return ("var", rng.choice(FREE_NAMES))
        if r < 0.4:
            x = rng.choice(BINDER_NAMES)
            return ("lam", x, gen(d - 1, scope, scope, binders + [x]))
        if mu and r < 0.5:
            label = f"r{next(labels)}"
            return ("mu", label, gen(d, scope | {label}, guarded, binders))
        return ("app", gen(d - 1, scope, scope, binders), gen(d - 1, scope, scope, binders))

    return gen(depth, frozenset(), frozenset(), [])


def alpha_variant(t, names):
    """Rename every binder to a fresh name from ``names`` (scoped)."""

    def go(t, env):
        tag = t[0]
        if tag == "var":
            return ("var", env.get(t[1], t[1]))
        if tag == "lam":
            x = next(names)
            return ("lam", x, go(t[2], {**env, t[1]: x}))
        if tag == "mu":
            return ("mu", t[1], go(t[2], env))
        if tag == "app":
            return ("app", go(t[1], env), go(t[2], env))
        return t

    return go(t, {})


def unroll(t):
    """Unroll the outermost μ once: μr.B becomes B[#r := μr.B].  The binders
    of B must not capture free names of μr.B (use an α-variant first)."""
    if t[0] != "mu":
        if t[0] == "lam":
            return ("lam", t[1], unroll(t[2]))
        if t[0] == "app":
            return ("app", unroll(t[1]), t[2])
        return t
    label, whole = t[1], t

    def go(b):
        tag = b[0]
        if tag == "ref" and b[1] == label:
            return whole
        if tag == "mu" and b[1] == label:
            return b
        if tag in ("lam", "mu"):
            return (tag, b[1], go(b[2]))
        if tag == "app":
            return ("app", go(b[1]), go(b[2]))
        return b

    return go(t[2])


def leaves(t, path=()):
    """Paths to the leaves of an AST."""
    tag = t[0]
    if tag in ("var", "bot", "ref"):
        yield path
    elif tag in ("lam", "mu"):
        yield from leaves(t[2], path + (2,))
    else:
        yield from leaves(t[1], path + (1,))
        yield from leaves(t[2], path + (2,))


def replace_at(t, path, new):
    if not path:
        return new
    i = path[0]
    parts = list(t)
    parts[i] = replace_at(t[i], path[1:], new)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Finite λ-terms for Böhm trees


def church(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"f ({body})"
    return f"(\\f. \\x. {body})"


CHURCH_OPS = {
    "plus": "(\\m. \\n. \\f. \\x. m f (n f x))",
    "times": "(\\m. \\n. \\f. m (n f))",
    "exp": "(\\m. \\n. n m)",
    "succ": "(\\n. \\f. \\x. f (n f x))",
}


def church_expr(rng: random.Random) -> str:
    op = rng.choice(sorted(CHURCH_OPS))
    if op == "succ":
        return f"{CHURCH_OPS[op]} {church(rng.randrange(0, 5))}"
    a, b = rng.randrange(0, 4), rng.randrange(0, 4 if op != "exp" else 3)
    return f"{CHURCH_OPS[op]} {church(a)} {church(b)}"


def random_redex_term(rng: random.Random) -> str:
    """A random finite term with head redexes: (λx. M) N1 … Nk."""
    head = ("lam", rng.choice(BINDER_NAMES), random_muterm(rng, 4, mu=False))
    t = head
    for _ in range(rng.randrange(1, 3)):
        t = ("app", t, random_muterm(rng, 2, mu=False))
    return print_ast(t)


def _fix(f: str) -> str:
    half = f"(\\z. {f} (z z))"
    return f"{half} {half}"


S_TERM = _fix("(\\g. \\x. \\y. x g y)")
U_TERM = _fix("(\\g. \\x. x (g (x v2)))")
OMEGA = "(\\x. x x) (\\x. x x)"
CAPTURE_REPRO = "(\\v0. \\v1. \\v2. v0 v1) v1"
DEEP_APPLICATION = "(v0 " * 600 + "v1" + ")" * 600
