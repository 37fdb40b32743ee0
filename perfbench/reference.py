"""Reference checker owned by the benchmark.

Everything here is an independent re-implementation: it reads the public
shapes of ratlam values (TermGraph ``nodes``/``root`` labels and the finite
term dataclasses) by duck typing and imports nothing from ratlam.

Trees are compared in de Bruijn form, cut at a depth: ``('v', i)`` is a bound
variable (0 = innermost binder), ``('f', a)`` a free atom index, ``('l', b)``
an abstraction, ``('a', f, x)`` an application and ``BOT`` both ⊥ and the cut.
Every traversal of an input-sized structure uses an explicit stack; only
depth-bounded unfoldings recurse.
"""

from __future__ import annotations

import re
from collections import deque
from math import factorial

BOT = ("b",)

# Expected counts, written down rather than computed.
RSIGMA_SUBTREES = {1: 3, 2: 8, 3: 88, 4: 122704}
RSIGMA_ORBITS = {1: 3, 2: 4, 3: 5}  # level + 2


def cycle_orbits(k: int) -> int:
    """k-cycle: every ring node is a rotation of every other, all leaves alike."""
    return 2


def spine_orbits(k: int) -> int:
    """k-spine: the k-1 prefixes have pairwise different arities, plus the leaves."""
    return k


class ReadError(ValueError):
    pass


def idx(a) -> int:
    return a if type(a) is int else a.index


def children(label: tuple) -> tuple:
    if label[0] == "app":
        return label[1:]
    if label[0] == "lam":
        return (label[2],)
    return ()


def reachable(nodes, root) -> list:
    seen, order, stack = {root}, [], [root]
    while stack:
        n = stack.pop()
        order.append(n)
        for c in children(nodes[n]):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return order


# ---------------------------------------------------------------------------
# Reading the printed μ-term grammar


_TOKEN = re.compile(
    r"\s*(?:(?P<lam>\\|λ)|(?P<mu>μ|\bmu\b)|(?P<bot>⊥|_\|_)"
    r"|(?P<ref>#[a-zA-Z][a-zA-Z0-9']*)|(?P<ident>[a-zA-Z][a-zA-Z0-9']*)"
    r"|(?P<dot>\.)|(?P<lp>\()|(?P<rp>\)))"
)


class Interner:
    """Name → atom index: ``v<digits>`` is that atom, other names take the
    least index not yet used; every ``v<digits>`` of a text is reserved
    before that text is read."""

    def __init__(self):
        self.table: dict[str, int] = {}
        self.used: set[int] = set()

    def reserve(self, text: str):
        for m in re.finditer(r"\bv(\d+)\b", text):
            self.used.add(int(m.group(1)))

    def atom(self, name: str) -> int:
        if name in self.table:
            return self.table[name]
        m = re.fullmatch(r"v(\d+)", name)
        if m:
            i = int(m.group(1))
        else:
            i = 0
            while i in self.used:
                i += 1
        self.used.add(i)
        self.table[name] = i
        return i


def _tokens(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ReadError(f"bad character at {pos}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    out.append(("eof", ""))
    return out


def read_muterm(text: str, interner: Interner | None = None):
    """Read a μ-term into ``(nodes, root)`` with integer atoms.

    A μ becomes a node that takes the label of its body; a reference is that
    node.  Unbound references and unguarded μs are errors, as in the grammar.
    """
    if interner is None:
        interner = Interner()
    interner.reserve(text)
    toks = _tokens(text)
    nodes: dict[int, tuple | None] = {}
    env: dict[str, list[int]] = {}

    def new(label):
        nodes[len(nodes)] = label
        return len(nodes) - 1

    alias: dict[int, int] = {}

    def resolve(t):
        while t in alias:
            t = alias[t]
        return t

    # a context: [kind, binders, items]; kind is top | paren | implicit
    stack = [["top", [], []]]

    def reduce(ctx) -> int:
        _, binders, items = ctx
        if not items:
            raise ReadError("empty term")
        t = items[0]
        for x in items[1:]:
            t = new(("app", t, x))
        for b in reversed(binders):
            if b[0] == "lam":
                t = new(("lam", b[1], t))
            else:
                _, label, p = b
                if t == p:
                    raise ReadError(f"unguarded mu {label}")
                if nodes[t] is None:
                    alias[p] = t  # μr.#s with s an enclosing μ: r names s's node
                else:
                    nodes[p] = nodes[t]
                env[label].pop()
                t = resolve(p)
        return t

    i = 0

    def binder_name():
        nonlocal i
        if toks[i][0] != "ident" or toks[i + 1][0] != "dot":
            raise ReadError("expected a binder name and a dot")
        name = toks[i][1]
        i += 2
        return name

    while True:
        kind, value = toks[i]
        i += 1
        ctx = stack[-1]
        if kind == "lam":
            if ctx[2]:
                raise ReadError("abstraction in argument position")
            ctx[1].append(("lam", interner.atom(binder_name())))
        elif kind == "mu":
            label = binder_name()
            p = new(None)
            env.setdefault(label, []).append(p)
            if ctx[2]:
                stack.append(["implicit", [("mu", label, p)], []])
            else:
                ctx[1].append(("mu", label, p))
        elif kind == "ident":
            ctx[2].append(new(("var", interner.atom(value))))
        elif kind == "bot":
            ctx[2].append(new(("bot",)))
        elif kind == "ref":
            if not env.get(value[1:]):
                raise ReadError(f"unbound reference {value}")
            ctx[2].append(env[value[1:]][-1])
        elif kind == "lp":
            stack.append(["paren", [], []])
        elif kind in ("rp", "eof"):
            while stack[-1][0] == "implicit":
                t = reduce(stack.pop())
                stack[-1][2].append(t)
            want = "paren" if kind == "rp" else "top"
            if stack[-1][0] != want:
                raise ReadError(f"unbalanced {kind}")
            t = reduce(stack.pop())
            if kind == "eof":
                return nodes, t
            stack[-1][2].append(t)
        else:
            raise ReadError(f"unexpected {kind}")


# ---------------------------------------------------------------------------
# De Bruijn unfoldings


def _bound(a: int, env: tuple):
    for i in range(len(env) - 1, -1, -1):
        if env[i] == a:
            return ("v", len(env) - 1 - i)
    return ("f", a)


def unfold(nodes, root, depth: int, subst=None):
    """The unfolding of a graph cut at ``depth`` (root at depth 0).

    With ``subst = (v, s_nodes, s_root)`` every free occurrence of atom v is
    replaced by the unfolding of the second graph: capture-free substitution,
    since free names never meet bound indices.
    """
    memo: dict = {}

    def go(n, d, env):
        if d <= 0:
            return BOT
        key = (n, d, env)
        r = memo.get(key)
        if r is not None:
            return r
        lab = nodes[n]
        tag = lab[0]
        if tag == "var":
            r = _bound(idx(lab[1]), env)
            if subst is not None and r == ("f", subst[0]):
                r = unfold(subst[1], subst[2], d)
        elif tag == "bot":
            r = BOT
        elif tag == "lam":
            r = ("l", go(lab[2], d - 1, env + (idx(lab[1]),)))
        else:
            r = ("a", go(lab[1], d - 1, env), go(lab[2], d - 1, env))
        memo[key] = r
        return r

    return go(root, depth, ())


def unfold_term(t, depth: int):
    """The same for a finite term dataclass (Var / Bot / Lam / App)."""
    memo: dict = {}

    def go(t, d, env):
        if d <= 0:
            return BOT
        key = (id(t), d, env)
        r = memo.get(key)
        if r is not None:
            return r
        kind = type(t).__name__
        if kind == "Var":
            r = _bound(idx(t.atom), env)
        elif kind == "Bot":
            r = BOT
        elif kind == "Lam":
            r = ("l", go(t.body, d - 1, env + (idx(t.binder),)))
        elif kind == "App":
            r = ("a", go(t.fn, d - 1, env), go(t.arg, d - 1, env))
        else:
            raise ReadError(f"not a finite term: {kind}")
        memo[key] = r
        return r

    return go(t, depth, ())


def unfold_text(text: str, depth: int, interner: Interner | None = None):
    nodes, root = read_muterm(text, interner)
    return unfold(nodes, root, depth)


# ---------------------------------------------------------------------------
# Free variables and literal subtrees


def free_vars(nodes) -> dict:
    """Least fixpoint of the free-variable equations, by worklist."""
    preds: dict = {n: [] for n in nodes}
    for n, lab in nodes.items():
        for c in children(lab):
            preds[c].append(n)
    fv = {n: frozenset() for n in nodes}
    work = deque(nodes)
    queued = set(nodes)
    while work:
        n = work.popleft()
        queued.discard(n)
        lab = nodes[n]
        if lab[0] == "var":
            new = frozenset((idx(lab[1]),))
        elif lab[0] == "lam":
            new = fv[lab[2]] - {idx(lab[1])}
        elif lab[0] == "app":
            new = fv[lab[1]] | fv[lab[2]]
        else:
            new = frozenset()
        if new != fv[n]:
            fv[n] = new
            for p in preds[n]:
                if p not in queued:
                    queued.add(p)
                    work.append(p)
    return fv


def _label_key(lab):
    if lab[0] in ("var", "lam"):
        return (lab[0], idx(lab[1]))
    return (lab[0],)


def literal_subtrees(nodes, root) -> int:
    """Distinct subtrees of the unfolding, as literally labelled trees."""
    order = reachable(nodes, root)
    cls = _renumber({n: _label_key(nodes[n]) for n in order})
    count = len(set(cls.values()))
    while True:
        new = _renumber({
            n: (cls[n],) + tuple(cls[c] for c in children(nodes[n])) for n in order
        })
        c2 = len(set(new.values()))
        if c2 == count:
            return count
        cls, count = new, c2


def _renumber(sig: dict) -> dict:
    ids: dict = {}
    return {n: ids.setdefault(s, len(ids)) for n, s in sig.items()}


# ---------------------------------------------------------------------------
# Head reduction and Böhm-tree prefixes on de Bruijn terms


def _shift(t, d: int, c: int):
    tag = t[0]
    if tag == "v":
        return ("v", t[1] + d) if t[1] >= c else t
    if tag == "l":
        return ("l", _shift(t[1], d, c + 1))
    if tag == "a":
        return ("a", _shift(t[1], d, c), _shift(t[2], d, c))
    return t


def _subst(t, j: int, s):
    tag = t[0]
    if tag == "v":
        return s if t[1] == j else t
    if tag == "l":
        return ("l", _subst(t[1], j + 1, _shift(s, 1, 0)))
    if tag == "a":
        return ("a", _subst(t[1], j, s), _subst(t[2], j, s))
    return t


def beta(body, arg):
    """(λ. body) arg, capture-free by construction."""
    return _shift(_subst(body, 0, _shift(arg, 1, 0)), -1, 0)


def head_reduce(t, fuel: int):
    """Same fuel semantics as the program: one unit per contracted head redex.

    Returns ``('hnf', n_binders, head, args)`` or ``('bot', fuel_exhausted)``.
    """
    while True:
        n = 0
        while t[0] == "l":
            t = t[1]
            n += 1
        args = []
        while t[0] == "a":
            args.append(t[2])
            t = t[1]
        args.reverse()
        if t[0] in ("v", "f"):
            return ("hnf", n, t, args)
        if t[0] == "b":
            return ("bot", False)
        if fuel <= 0:
            return ("bot", True)
        fuel -= 1
        r = beta(t[1], args[0])
        for a in args[1:]:
            r = ("a", r, a)
        for _ in range(n):
            r = ("l", r)
        t = r


def bt_truncate(t, fuel: int, depth: int):
    """Depth-bounded Böhm-tree prefix with the program's depth accounting."""

    def rec(term, cur):
        if cur >= depth:
            return BOT
        res = head_reduce(term, fuel)
        if res[0] == "bot":
            return BOT
        _, n, head, args = res
        m = len(args)
        out = head if cur + n + m < depth else BOT
        for i, arg in enumerate(args):
            app_depth = cur + n + m - 1 - i
            out = BOT if app_depth >= depth else ("a", out, rec(arg, app_depth + 1))
        for j in range(n - 1, -1, -1):
            out = BOT if cur + j >= depth else ("l", out)
        return out

    return rec(t, 0)


# ---------------------------------------------------------------------------
# Orbit-finite coalgebras in the text format


_ORBIT = re.compile(r"orbit\s+(\S+)\s+arity=(\d+)\s+stab=(.+)")
_STEP = re.compile(r"step\s+(\S+)\s*=\s*(var|app|abs)\s*(.*)")
_TARGET = re.compile(r"(\S+?)\(([^)]*)\)")


def _slots(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(None if p.strip() == "fresh" else int(p) - 1 for p in text.split(","))


def read_coalgebra(text: str):
    """``({id: (arity, stabilizer size)}, {id: step})`` from the text format."""
    orbits, steps = {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _ORBIT.fullmatch(line):
            arity, stab = int(m.group(2)), m.group(3).strip()
            orbits[m.group(1)] = (arity, 1 if stab == "trivial" else _group_size(stab, arity))
        elif m := _STEP.fullmatch(line):
            sid, kind, rest = m.group(1), m.group(2), m.group(3).strip()
            if kind == "var":
                steps[sid] = ("var", int(rest) - 1)
            elif kind == "app":
                (ls, la), (rs, ra) = _TARGET.findall(rest)
                steps[sid] = ("app", (ls, _slots(la)), (rs, _slots(ra)))
            else:
                b, tgt = rest.split(None, 1)
                tm = _TARGET.fullmatch(tgt.strip())
                steps[sid] = ("abs", None if b == "fresh" else int(b) - 1,
                              (tm.group(1), _slots(tm.group(2))))
        else:
            raise ReadError(f"bad coalgebra line {line!r}")
    return orbits, steps


def _group_size(stab: str, arity: int) -> int:
    """Order of the slot-permutation group generated by the listed cycles."""
    gens = []
    for part in stab.split(";"):
        perm = list(range(arity))
        for cyc in re.findall(r"\(([^)]*)\)", part):
            e = [int(x) - 1 for x in cyc.split()]
            for i, s in enumerate(e):
                perm[s] = e[(i + 1) % len(e)]
        gens.append(tuple(perm))
    group = {tuple(range(arity))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(g[h[i]] for i in range(arity))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return len(group)


def coalgebra_unfold(steps, schema: str, atoms: tuple, depth: int):
    """Unfold an element with globally fresh binder names, cut at depth."""
    fresh = iter(range(10**9, 2 * 10**9))

    def go(sid, atoms, d, env):
        if d <= 0:
            return BOT
        step = steps[sid]
        if step[0] == "var":
            return _bound(atoms[step[1]], env)
        if step[0] == "app":
            (ls, la), (rs, ra) = step[1], step[2]
            return ("a", go(ls, tuple(atoms[s] for s in la), d - 1, env),
                    go(rs, tuple(atoms[s] for s in ra), d - 1, env))
        _, b, (ts, asg) = step
        v = next(fresh) if b is None else atoms[b]
        body = tuple(v if s is None else atoms[s] for s in asg)
        return ("l", go(ts, body, d - 1, env + (v,)))

    return go(schema, tuple(atoms), depth, ())


def enumerated_size(orbits: dict) -> int:
    """Elements supported in a pool of m+1 names, m the largest arity."""
    m = max((a for a, _ in orbits.values()), default=0)
    return sum(factorial(m + 1) // factorial(m + 1 - a) // g for a, g in orbits.values())


def size_bound(n_orbits: int, m: int) -> int:
    return n_orbits * factorial(m + 1)
