"""The three workloads.  ``WORKLOADS[name](lib, rng, workdir)`` makes the
inputs of one pass and returns its requests; a run repeats the pass.

A request is one user-level query: ``run(*prepare())`` is timed, then
``check(result, want)`` returns ``None`` or a failure label, where ``want``
is the reference value that ``expect()`` computes once, untimed, before the
measured passes.  ``prepare`` builds fresh argument objects, so per-object
caches such as ``TermGraph._fv`` never carry over between requests.
"""

from __future__ import annotations

import io
import itertools
from contextlib import redirect_stderr
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import inputs as gen
import reference as ref

# Failure labels for the defects the program is known to have; any other
# label makes the run incorrect.
KNOWN_DEFECTS = {
    "print-unparseable": "print_graph emits a #ref outside the scope of its mu",
    "subst-capture": "subst_finite captures a variable; reached through head reduction",
    "recursion-limit": "a recursive traversal exceeds the default recursion limit",
    "memory-cap": "the request ran into the address-space cap",
    "time-cap": "the request ran into the per-request alarm",
}

# Exceptions of the program's parser, raised when a printed term is read back.
PARSE_ERRORS = ("UnboundRef", "UnguardedMu", "TermSyntaxError")


@dataclass
class Request:
    op: str
    family: str
    size: int
    run: Callable
    check: Callable
    expect: Callable = lambda: None
    prepare: Callable = tuple
    reads_printed: bool = False  # a parse error here means print_graph emitted it


def prog_graph(lib, nodes: dict, root: int):
    """Integer-atom labels → the program's labels, as (nodes, root)."""
    A = lib.nominal.Atom

    def conv(lab):
        if lab[0] in ("var", "lam"):
            return (lab[0], A(lab[1])) + lab[2:]
        return lab

    return {n: conv(lab) for n, lab in nodes.items()}, root


def call(module, name):
    """Call module.name at request time, so a traced replacement is seen."""
    return lambda *a: getattr(module, name)(*a)


def same_tree(label, depth):
    """Check that a result graph unfolds to the wanted tree."""
    return lambda out, want: None if ref.unfold(out.nodes, out.root, depth) == want else label


class GraphRef:
    """Reference values of one input graph, computed on first use."""

    def __init__(self, nodes, root, depth, subtrees=None):
        self.nodes, self.root, self.depth = nodes, root, depth
        if subtrees is not None:
            self.subtrees = subtrees

    @cached_property
    def tree(self):
        return ref.unfold(self.nodes, self.root, self.depth)

    @cached_property
    def fv(self):
        return ref.free_vars(self.nodes)

    @cached_property
    def subtrees(self):
        return ref.literal_subtrees(self.nodes, self.root)

    def copy(self, A):
        """An α-equivalent copy with other node ids: every atom that is never
        free at the root is swapped with an unused one (equivariance)."""
        if not hasattr(self, "_copy"):
            used = {ref.idx(l[1]) for l in self.nodes.values() if l[0] in ("var", "lam")}
            amap = {A(a): A(1000 + i) for i, a in enumerate(sorted(used - self.fv[self.root]))}
            self._copy = gen.relabel(self.nodes, self.root, amap)
        return self._copy


# ---------------------------------------------------------------------------
# graph-ladder


LADDER_DEPTH = 12
CHAIN_SIZES = (50, 100, 200, 400)
RING_SIZES = (48, 96, 192, 384)  # n/2 ring nodes, an even number
RANDOM_SIZES = (25, 50, 100, 200)
RANDOM_PER_RUNG = 16


def graph_ladder(lib, rng, workdir):
    T, A = lib.terms, lib.nominal.Atom
    inputs = []
    for n in CHAIN_SIZES:
        inputs.append(("chain", n, *prog_graph(lib, *gen.chain(n, rng.randrange(8))), n))
    for n in RING_SIZES:
        atoms = tuple(rng.sample(range(8), 2))
        inputs.append(("ring", n, *prog_graph(lib, *gen.ring(n, atoms)), 4))
    for n in RANDOM_SIZES:
        for _ in range(RANDOM_PER_RUNG):
            nodes, root = prog_graph(lib, *gen.random_graph(n, rng))
            inputs.append(("random", len(nodes), nodes, root, None))
    for level in (1, 2, 3, 4):
        g = lib.coalgebra.gen_rsigma(level)
        inputs.append((f"rsigma:{level}", len(g.nodes), g.nodes, g.root,
                       ref.RSIGMA_SUBTREES[level]))

    def roundtrip(g):
        text = T.print_graph(g)
        return text, T.alpha_bisim(g, T.graph_of(T.parse_term(text)))

    def check_print(out, want):
        text, verdict = out
        try:
            same = ref.unfold_text(text, LADDER_DEPTH) == want
        except ref.ReadError:
            return "print-unparseable"
        return None if verdict and same else "wrong-output:print_graph"

    def check_min(out, want):
        count, tree = want
        ok = len(out.nodes) == count and ref.unfold(out.nodes, out.root, LADDER_DEPTH) == tree
        return None if ok else "wrong-output:minimize"

    def check_trunc(out, want):
        return None if ref.unfold_term(out, LADDER_DEPTH + 1) == want else "wrong-output:truncate"

    requests = []
    for family, size, nodes, root, subtrees in inputs:
        g = GraphRef(nodes, root, LADDER_DEPTH, subtrees)

        def fresh(nodes=nodes, root=root):
            return (T.TermGraph(nodes, root),)

        def pair(nodes=nodes, root=root, g=g):
            return T.TermGraph(nodes, root), T.TermGraph(*g.copy(A))

        ops = [
            ("fv_map", lambda g: g.fv_map(), fresh, lambda g=g: g.fv,
             lambda out, want: None if {n: frozenset(map(ref.idx, s)) for n, s in out.items()}
             == want else "wrong-output:fv_map"),
            ("subtree_count", call(T, "subtree_count"), fresh, lambda g=g: g.subtrees,
             lambda out, want: None if out == want else "wrong-output:subtree_count"),
            ("minimize", call(T, "minimize"), fresh, lambda g=g: (g.subtrees, g.tree), check_min),
            ("print_graph", roundtrip, fresh, lambda g=g: g.tree, check_print),
            ("alpha_bisim", call(T, "alpha_bisim"), pair, lambda g=g, A=A: g.copy(A) and True,
             lambda out, want: None if out is want else "wrong-output:alpha_bisim"),
            ("truncate", lambda g: T.truncate(g, LADDER_DEPTH), fresh, lambda g=g: g.tree,
             check_trunc),
        ]
        for op, run, prepare, expect, check in ops:
            requests.append(Request(op, family, size, run, check, expect, prepare,
                                    reads_printed=op == "print_graph"))
    return requests


# ---------------------------------------------------------------------------
# orbit-coalgebra


ORBIT_DEPTH = 10
ORBIT_KS = (3, 4, 5, 6, 7, 8)
ROUNDTRIP_SIZES = (8, 12, 16, 24, 32, 48)
ROUNDTRIPS_PER_SIZE = 8
N_COALGEBRAS = 80
N_SUBST = 40
CAPTURE_CASES = (
    ("\\v1. v0 v1", 0, "v1"),
    ("\\v1. \\v2. v0 v1 v2", 0, "v2 v1"),
    ("mu r. \\v1. v0 (#r v1)", 0, "v1 v2"),
    ("mu r. v0 (\\v0. #r)", 0, "\\v1. v1 v0"),
)


def orbit_coalgebra(lib, rng, workdir):
    T, C, S, A = lib.terms, lib.coalgebra, lib.substitution, lib.nominal.Atom
    requests = []

    def fresh_of(nodes, root):
        return lambda: (T.TermGraph(nodes, root),)

    counted = [(f"rsigma:{L}", L, C.gen_rsigma(L), ref.RSIGMA_ORBITS[L]) for L in (1, 2, 3)]
    for k in ORBIT_KS:
        counted.append(("cycle", k, T.TermGraph(*prog_graph(lib, *gen.cycle(k))),
                        ref.cycle_orbits(k)))
        counted.append(("spine", k, T.TermGraph(*prog_graph(lib, *gen.spine(k))),
                        ref.spine_orbits(k)))
    for family, size, g, want in counted:
        requests.append(Request(
            "orbit_count", family, size, call(C, "orbit_count"),
            lambda out, want: None if out == want else "wrong-output:orbit_count",
            lambda want=want: want, fresh_of(g.nodes, g.root)))

    # graph → coalgebra → graph round trips
    graphs = [("random", *prog_graph(lib, *gen.random_graph(n, rng, bot=False)))
              for n in ROUNDTRIP_SIZES for _ in range(ROUNDTRIPS_PER_SIZE)]
    for L in (2, 3):
        g = C.gen_rsigma(L)
        graphs.append((f"rsigma:{L}", g.nodes, g.root))

    def roundtrip_want(g):
        arities = [len(g.fv[n]) for n in ref.reachable(g.nodes, g.root)]
        return ref.enumerated_size({i: (a, 1) for i, a in enumerate(arities)}), g.tree

    def check_roundtrip(out, want):
        count, tree = want
        if count is not None and len(out.nodes) != count:
            return "wrong-output:c_construct"
        return same_tree("wrong-output:c_construct", ORBIT_DEPTH)(out, tree)

    for family, nodes, root in graphs:
        g = GraphRef(nodes, root, ORBIT_DEPTH)
        for enumerative in (False, True):
            def run(graph, enumerative=enumerative):
                sym, elem = C.graph_to_coalgebra(graph)
                conc = C.instantiate(sym)
                return C.c_construct(conc, elem, sym.carrier if enumerative else None)

            def expect(g=g, enumerative=enumerative):
                count, tree = roundtrip_want(g)
                return (count if enumerative else None), tree

            op = "roundtrip-enum" if enumerative else "roundtrip-reach"
            requests.append(Request(op, family, len(nodes), run, check_roundtrip, expect,
                                    fresh_of(nodes, root)))

    # random coalgebra files, one orbit with a nontrivial stabilizer
    def check_coalgebra(out, want):
        bound, count, tree = want
        n = len(out.nodes)
        if n > bound or (count is not None and n != count):
            return "wrong-output:c_construct"
        return same_tree("wrong-output:c_construct", ORBIT_DEPTH)(out, tree)

    for _ in range(N_COALGEBRAS):
        text, schema = gen.random_coalgebra(rng)
        atoms = rng.sample(range(12), 4)
        sym = C.parse_coalgebra(text)
        elem = C.parse_root(f"{schema}({','.join(f'v{a}' for a in atoms)})", sym)
        for enumerative in (False, True):
            def run(sym=sym, elem=elem, enumerative=enumerative):
                conc = C.instantiate(sym)
                return C.c_construct(conc, elem, sym.carrier if enumerative else None)

            def expect(text=text, schema=schema, atoms=atoms, enumerative=enumerative):
                orbits, steps = ref.read_coalgebra(text)
                m = max(a for a, _ in orbits.values())
                return (ref.size_bound(len(orbits), m),
                        ref.enumerated_size(orbits) if enumerative else None,
                        ref.coalgebra_unfold(steps, schema, atoms, ORBIT_DEPTH))

            op = "c_construct-enum" if enumerative else "c_construct-reach"
            requests.append(Request(op, "coalgebra", 4, run, check_coalgebra, expect))

    # corecursive substitution on random triples and capture cases
    triples = []
    for _ in range(N_SUBST):
        t = gen.random_graph(14, rng, bot=False)
        s = gen.random_graph(6, rng, bot=False)
        triples.append(("random", t, rng.randrange(3), s))
    for t_text, v, s_text in CAPTURE_CASES:
        triples.append(("capture", ref.read_muterm(t_text), v, ref.read_muterm(s_text)))
    for family, (tn, tr), v, (sn, sr) in triples:
        tg, sg = prog_graph(lib, tn, tr), prog_graph(lib, sn, sr)

        def prepare(tg=tg, sg=sg):
            return T.TermGraph(*tg), T.TermGraph(*sg)

        def run(t, s, v=v):
            return S.subst_rational(t, A(v), s)

        requests.append(Request(
            "subst_rational", family, len(tn), run,
            same_tree("wrong-output:subst_rational", ORBIT_DEPTH),
            lambda tn=tn, tr=tr, v=v, sn=sn, sr=sr:
                ref.unfold(tn, tr, ORBIT_DEPTH, subst=(v, sn, sr)),
            prepare))
    return requests


# ---------------------------------------------------------------------------
# cli-mix


CLI_DEPTH = 10
ALPHA_DEPTH = 16  # beyond two nested term depths: one #ref unfolding is visible
BIG = 10**6  # unfolding depth that never cuts a finite term
N_TERMS = 80  # print and parse
N_EACH = 40  # truncate, alpha-eq, subtrees
N_SUBST_CLI = 30
N_BT = 80
N_BT_GRAPH = 15
N_COALGEBRA_FILES = 30


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n") if out else []


def _read_unfold(text, depth, want, unreadable):
    try:
        same = ref.unfold_text(text, depth) == want
    except ref.ReadError:
        return unreadable
    return None if same else "wrong-output"


def printed_graph(rc, out, want):
    """First output line was printed by print_graph: unreadable is the known defect."""
    lines = _lines(out)
    if rc != 0 or not lines:
        return "wrong-output"
    return _read_unfold(lines[0], CLI_DEPTH, want, "print-unparseable")


def exact(rc, out, want):
    return None if (rc, out) == want else "wrong-output"


def cli_mix(lib, rng, workdir):
    requests = []
    files = itertools.count()

    def add(kind, argv, check, expect, family="mu", size=0, printed=False):
        def prepare():
            return io.StringIO(), io.StringIO()

        def run(out, err):
            with redirect_stderr(err):
                rc = lib.cli.run(argv, out=out)
            return rc, out.getvalue()

        verdicts = {}

        def checked(result, want):
            # outputs repeat from pass to pass; check each distinct one once
            if result not in verdicts:
                verdicts[result] = check(*result, want)
            return verdicts[result]

        requests.append(Request(f"cli:{kind}", family, size, run, checked, expect, prepare,
                                reads_printed=printed))

    def write(text: str) -> str:
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"input{next(files)}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def term(depth=None, **kw):
        return gen.print_ast(gen.random_muterm(rng, depth or rng.randrange(2, 6), **kw))

    # print / parse: canonical form plus the name-interning header
    def print_want(text):
        it = ref.Interner()
        tree = ref.unfold_text(text, CLI_DEPTH, it)
        return [f"# {n} = v{a}" for n, a in it.table.items() if n != f"v{a}"], tree

    def check_print(rc, out, want):
        header, tree = want
        lines = _lines(out)
        if rc != 0 or not lines or lines[:-1] != header:
            return "wrong-output"
        return _read_unfold(lines[-1], CLI_DEPTH, tree, "wrong-output")

    for i in range(N_TERMS):
        text = term()
        argv = ["parse", write(text)] if i % 4 == 0 else ["print", text]
        add(argv[0], argv, check_print, lambda text=text: print_want(text))
    add("print", ["print", gen.DEEP_APPLICATION], check_print,
        lambda: print_want(gen.DEEP_APPLICATION), "deep-application", 600)

    # truncate
    for _ in range(N_EACH):
        text, d = term(), rng.randrange(1, 9)
        add("truncate", ["truncate", "-d", str(d), text],
            lambda rc, out, want, d=d: "wrong-output" if rc else
            _read_unfold(out.strip(), d + 1, want, "wrong-output"),
            lambda text=text, d=d: ref.unfold_text(text, d))

    # alpha-eq: α-variants (some unrolled once) are equal, visible mutations are
    # not.  Renaming a binder is no α-conversion when a #ref under it brings a
    # free occurrence of the old name back into its scope; such a variant
    # differs within ALPHA_DEPTH, and the verdict follows the unfoldings.
    names = (f"a{i}" for i in itertools.count())

    def unfold_pair(t1, t2, depth=CLI_DEPTH):
        it = ref.Interner()
        return ref.unfold_text(t1, depth, it), ref.unfold_text(t2, depth, it)

    def alpha_want(t1, t2):
        u1, u2 = unfold_pair(t1, t2, ALPHA_DEPTH)
        return (0, "true\n") if u1 == u2 else (1, "false\n")

    for i in range(N_EACH):
        ast = gen.random_muterm(rng, rng.randrange(2, 6))
        if i % 2 == 0:
            other = gen.alpha_variant(ast, names)
            if i % 4 == 0:
                other = gen.unroll(other)
        else:
            # a leaf replaced by a free name, where the change is visible
            for _ in range(50):
                other = gen.replace_at(ast, rng.choice(list(gen.leaves(ast))),
                                       ("var", rng.choice(gen.FREE_NAMES)))
                u1, u2 = unfold_pair(gen.print_ast(ast), gen.print_ast(other))
                if u1 != u2:
                    break
            else:
                continue
        t1, t2 = gen.print_ast(ast), gen.print_ast(other)
        add("alpha-eq", ["alpha-eq", t1, t2], exact, lambda t1=t1, t2=t2: alpha_want(t1, t2))

    # subtrees
    for _ in range(N_EACH):
        text = term()
        add("subtrees", ["subtrees", text], exact,
            lambda text=text: (0, f"{ref.literal_subtrees(*ref.read_muterm(text))}\n"))

    # subst (⊥ has no step in the λ-tree functor, so substitution inputs avoid it)
    def subst_want(var, t1, t2):
        it = ref.Interner()
        v = it.atom(var)
        n1, r1 = ref.read_muterm(t1, it)
        n2, r2 = ref.read_muterm(t2, it)
        return ref.unfold(n1, r1, CLI_DEPTH, subst=(v, n2, r2))

    for _ in range(N_SUBST_CLI):
        t1, t2, var = term(bot=False), term(3, bot=False), rng.choice(("v0", "v1", "v2"))
        add("subst", ["subst", "-v", var, t1, t2], printed_graph,
            lambda var=var, t1=t1, t2=t2: subst_want(var, t1, t2), printed=True)

    # bt: Church arithmetic, random redexes and the capture reproduction
    def check_bt(rc, out, want):
        # a Böhm-tree prefix that differs from the capture-free reference
        verdict = "wrong-output" if rc else _read_unfold(out.strip(), BIG, want, "unreadable")
        return "subst-capture" if verdict == "wrong-output" and not rc else verdict

    def bt(text, d, f, family):
        add("bt", ["bt", "-d", str(d), "-f", str(f), text], check_bt,
            lambda: ref.bt_truncate(ref.unfold_text(text, BIG), f, d), family)

    for i in range(N_BT):
        church = i % 2 == 0
        bt(gen.church_expr(rng) if church else gen.random_redex_term(rng),
           rng.randrange(4, 11), rng.choice((8, 16, 32, 64)), "church" if church else "random")
    bt(gen.CAPTURE_REPRO, 8, 64, "capture-repro")

    # bt-graph: a rational Böhm tree; a non-rational one and Ω are unknown
    for i in range(N_BT_GRAPH):
        fuel, states = rng.choice((32, 64)), rng.choice((48, 64))
        argv = ["bt-graph", "-s", str(states), "-f", str(fuel)]
        if i % 3 == 0:
            add("bt-graph", argv + [gen.S_TERM], printed_graph,
                lambda fuel=fuel: ref.bt_truncate(ref.unfold_text(gen.S_TERM, BIG),
                                                  fuel, CLI_DEPTH), "S", printed=True)
        else:
            text = f"({gen.U_TERM}) v3" if i % 3 == 1 else gen.OMEGA
            add("bt-graph", argv + [text], exact, lambda: (0, "unknown\n"),
                "U" if i % 3 == 1 else "omega")

    # c-construct on coalgebra files written at set-up
    def check_construct(rc, out, want):
        tail, tree = want
        lines = _lines(out)
        if len(lines) != 2 or lines[1] != tail:
            return "wrong-output"
        return printed_graph(rc, out, tree)

    def construct_want(text, schema, atoms):
        orbits, steps = ref.read_coalgebra(text)
        m = max(a for a, _ in orbits.values())
        tail = f"nodes={ref.enumerated_size(orbits)} bound={ref.size_bound(len(orbits), m)}"
        return tail, ref.coalgebra_unfold(steps, schema, atoms, CLI_DEPTH)

    for _ in range(N_COALGEBRA_FILES):
        text, schema = gen.random_coalgebra(rng)
        atoms = rng.sample(range(10), 4)
        root = f"{schema}({','.join(f'v{a}' for a in atoms)})"
        add("c-construct", ["c-construct", write(text), root], check_construct,
            lambda text=text, schema=schema, atoms=atoms: construct_want(text, schema, atoms),
            "coalgebra", 4, printed=True)

    # examples and bench
    def check_pair(rc, out, want):
        lines = _lines(out)
        _, steps = ref.read_coalgebra("\n".join(lines[:-1]))
        tree = ref.coalgebra_unfold(steps, "pair", (0, 1), CLI_DEPTH)
        ok = rc == 0 and lines[-1] == "root pair(v0,v1)" and tree == want
        return None if ok else "wrong-output"

    def check_finite(rc, out, want):
        return "wrong-output" if rc else _read_unfold(out.strip(), BIG, want, "wrong-output")

    for _ in range(2):
        add("examples", ["examples", "pair"], check_pair,
            lambda: ("a", ("f", 0), ("f", 1)), "pair")
        for name, text in (("u", gen.U_TERM), ("s", gen.S_TERM)):
            add("examples", ["examples", name], check_finite,
                lambda text=text: ref.unfold_text(text, BIG), name)
        for level in (1, 2, 3):
            add("examples", ["examples", f"rsigma:{level}"], printed_graph,
                lambda level=level: ref.unfold(*gen.rsigma(level), CLI_DEPTH),
                f"rsigma:{level}", level, printed=True)
            c = ref.RSIGMA_SUBTREES[level]
            add("bench", ["bench", "rsigma", str(level)], exact,
                lambda c=c: (0, f"{c} {c} ok\n"), f"rsigma:{level}", level)
    return requests


WORKLOADS = {
    "graph-ladder": graph_ladder,
    "orbit-coalgebra": orbit_coalgebra,
    "cli-mix": cli_mix,
}
