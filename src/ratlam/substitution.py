"""Capture-avoiding substitution: finite oracle and corecursive rational version.

The rational version runs the substitution coalgebra on states that are
either an element of the replacement coalgebra, or a triple (element being
rewritten, variable marker, replacement element), and materializes the
behavior of the root triple with the finite construction in reachable mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nominal import Atom, Perm, fresh_atom, swap
from .coalgebra import ConcreteCoalgebra, c_construct, graph_to_coalgebra, instantiate
from .terms import App, Bot, FiniteTerm, Lam, TermGraph, Var, fv


# ---------------------------------------------------------------------------
# Finite terms (oracle)


def subst_finite(t: FiniteTerm, v: Atom, s: FiniteTerm) -> FiniteTerm:
    """t[v := s], capture-avoiding; binders renamed to least fresh atoms.

    A subterm the substitution leaves alone is returned as the same object,
    and the `fv` checks read the sets the terms keep."""
    match t:
        case Var(a):
            return s if a == v else t
        case Bot():
            return t
        case App(f, a):
            f2, a2 = subst_finite(f, v, s), subst_finite(a, v, s)
            return t if f2 is f and a2 is a else App(f2, a2)
        case Lam(x, b):
            if x == v or v not in fv(b):
                return t
            if x in fv(s):
                x2 = fresh_atom(fv(b) | fv(s) | {v})
                # a swap also renames the binders of b, so x2 cannot be captured
                b = b.act(swap(x, x2))
                x = x2
            return Lam(x, subst_finite(b, v, s))
    raise TypeError(f"not a finite term: {t!r}")


# ---------------------------------------------------------------------------
# Substitution states


@dataclass(frozen=True)
class InTriple:
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


def subst_rational(t: TermGraph, v: Atom, s: TermGraph) -> TermGraph:
    """Substitution on rational trees via the corecursive construction."""
    sym_a, root_a = graph_to_coalgebra(t)
    sym_b, root_b = graph_to_coalgebra(s)
    conc = subst_coalgebra(instantiate(sym_a), instantiate(sym_b))
    return c_construct(conc, InTriple(root_a, v, root_b))
