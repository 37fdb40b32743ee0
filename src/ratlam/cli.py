"""Command-line front end: every operation, scriptable and byte-deterministic.

Exit codes: 0 success (or true), 1 semantic false, 2 usage / parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .boehm import BtBudget, bt_graph, bt_truncate, gen_s, gen_u
from .coalgebra import (
    c_construct,
    gen_pair,
    gen_rsigma,
    parse_coalgebra,
    parse_root,
    print_coalgebra,
    rsigma_count,
    size_bound,
)
from .substitution import subst_rational
from .terms import (
    Interner,
    TermGraph,
    TermSyntaxError,
    UnboundRef,
    UnguardedMu,
    alpha_bisim,
    graph_of,
    is_finite,
    parse_term,
    print_graph,
    print_term,
    subtree_count,
    truncate,
)


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")


def _parse(text: str, interner: Interner):
    try:
        return parse_term(text, interner)
    except (TermSyntaxError, UnboundRef, UnguardedMu) as e:
        raise CliError(f"parse error: {e}")


def _parse_finite(text: str, interner: Interner):
    t = _parse(text, interner)
    if not is_finite(t):
        raise CliError("this command needs a finite term (no mu / #refs)")
    return t


def _intern_header(interner: Interner, out) -> None:
    for name, atom in interner.table().items():
        if name != str(atom):
            print(f"# {name} = {atom}", file=out)


def _graph(text: str, interner: Interner) -> TermGraph:
    return graph_of(_parse(text, interner))


def _rsigma(level: int) -> TermGraph:
    try:
        return gen_rsigma(level)
    except ValueError as e:
        raise CliError(f"bad rsigma level {level}: {e}")


def _budget(**limits: int) -> BtBudget:
    try:
        return BtBudget(**limits)
    except ValueError as e:
        raise CliError(str(e))


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Built on the first `run`, not at import; parsing leaves the parsers unchanged."""
    ap = argparse.ArgumentParser(prog="ratlam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a file (or - for stdin) and echo canonical form")
    p.add_argument("source")
    p = sub.add_parser("print", help="parse a term argument and echo canonical form")
    p.add_argument("term")
    p = sub.add_parser("truncate", help="cut the unfolding at depth N")
    p.add_argument("-d", "--depth", type=int, required=True)
    p.add_argument("term")
    p = sub.add_parser("alpha-eq", help="α-equivalence of two (possibly infinite) terms")
    p.add_argument("term1")
    p.add_argument("term2")
    about = "count the literal subtrees of the unfolding as written (α-variants count apart)"
    p = sub.add_parser("subtrees", help=about, description=about)
    p.add_argument("term")
    p = sub.add_parser("subst", help="substitute: TERM1[ATOM := TERM2]")
    p.add_argument("-v", "--var", required=True)
    p.add_argument("term1")
    p.add_argument("term2")
    p = sub.add_parser("bt", help="Böhm tree prefix of a finite term")
    p.add_argument("-d", "--depth", type=int, default=8)
    p.add_argument("-f", "--fuel", type=int, default=64)
    p.add_argument("term")
    p = sub.add_parser("bt-graph", help="Böhm tree as a μ-term, if detectably rational")
    p.add_argument("-s", "--states", type=int, default=64)
    p.add_argument("-f", "--fuel", type=int, default=64)
    p.add_argument("term")
    p = sub.add_parser("c-construct", help="materialize a coalgebra element as a μ-term")
    p.add_argument("coalgfile")
    p.add_argument("root")
    p = sub.add_parser("examples", help="emit a built-in example: pair | rsigma:L | u | s")
    p.add_argument("name")
    p = sub.add_parser("bench", help="subtree count vs closed form")
    p.add_argument("family", choices=["rsigma"])
    p.add_argument("level", type=int)
    return ap, sub.choices


def _parse_args(argv):
    ap, commands = _parser()
    if argv and argv[0] in commands:  # straight to the subparser that `ap` would hand it to
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:  # leftover arguments go to `ap`, which reports them
            args.command = argv[0]
            return args
    return ap.parse_args(argv)


def run(argv, out=None) -> int:
    """Run one command in-process and return its exit code; `out` defaults
    to the current `sys.stdout`."""
    if out is None:
        out = sys.stdout
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    interner = Interner()
    try:
        match args.command:
            case "parse":
                text = print_term(_parse(_read_source(args.source), interner))
                _intern_header(interner, out)
                print(text, file=out)
            case "print":
                text = print_term(_parse(args.term, interner))
                _intern_header(interner, out)
                print(text, file=out)
            case "truncate":
                g = _graph(args.term, interner)
                print(print_term(truncate(g, args.depth)), file=out)
            case "alpha-eq":
                g1 = _graph(args.term1, interner)
                g2 = _graph(args.term2, interner)
                eq = alpha_bisim(g1, g2)
                print("true" if eq else "false", file=out)
                return 0 if eq else 1
            case "subtrees":
                print(subtree_count(_graph(args.term, interner)), file=out)
            case "subst":
                v = interner.atom(args.var)
                g1 = _graph(args.term1, interner)
                g2 = _graph(args.term2, interner)
                try:
                    g = subst_rational(g1, v, g2)
                except ValueError:
                    raise CliError("subst needs terms without ⊥")
                print(print_graph(g), file=out)
            case "bt":
                t = _parse_finite(args.term, interner)
                budget = _budget(fuel=args.fuel, depth=args.depth)
                print(print_term(bt_truncate(t, budget)), file=out)
            case "bt-graph":
                t = _parse_finite(args.term, interner)
                budget = _budget(fuel=args.fuel, states=args.states)
                g = bt_graph(t, budget)
                print("unknown" if g is None else print_graph(g), file=out)
            case "c-construct":
                try:
                    sym = parse_coalgebra(_read_source(args.coalgfile))
                    root = parse_root(args.root, sym)
                    g = c_construct(sym, root, sym.carrier)
                except ValueError as e:
                    raise CliError(f"invalid coalgebra: {e}")
                n = len(sym.carrier.schemas)
                print(print_graph(g), file=out)
                print(f"nodes={len(g.nodes)} bound={size_bound(n, sym.support_bound)}", file=out)
            case "examples":
                _examples(args.name, out)
            case "bench":
                g = _rsigma(args.level)
                got, want = subtree_count(g), rsigma_count(args.level)
                print(f"{got} {want} {'ok' if got == want else 'MISMATCH'}", file=out)
                return 0 if got == want else 1
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except RecursionError:  # each command prints only once its result is complete
        print("error: term nested too deeply (recursion limit reached)", file=sys.stderr)
        return 2
    return 0


def _examples(name: str, out) -> None:
    if name == "pair":
        sym, root = gen_pair()
        out.write(print_coalgebra(sym))
        print(f"root {root}", file=out)
    elif name.startswith("rsigma:"):
        try:
            level = int(name.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad rsigma level in {name!r}")
        print(print_graph(_rsigma(level)), file=out)
    elif name == "u":
        print(print_term(gen_u()), file=out)
    elif name == "s":
        print(print_term(gen_s()), file=out)
    else:
        raise CliError(f"unknown example {name!r} (try pair | rsigma:L | u | s)")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
