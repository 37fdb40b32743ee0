"""Capture-avoiding substitution: on finite terms, for head reduction, and a
corecursive version on rational terms.

A term graph is a coalgebra on pairs of a node and the images of its free
names.  The rational version is `terms.unfold` of t[v := s] over these
states of t and s, each reached state a node of the result.
"""

from __future__ import annotations

from .nominal import Atom, fresh_atom, fresh_atoms, swap
from .coalgebra import _free_orders
from .terms import App, Bot, FiniteTerm, Lam, TermGraph, Var, _lmap, fv, unfold


# ---------------------------------------------------------------------------
# Finite terms


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
# Rational terms


def subst_rational(t: TermGraph, v: Atom, s: TermGraph) -> TermGraph:
    """t[v := s] on rational trees, as `unfold` over graph states.

    A state is (input, node, the images of the node's free names in
    `_free_orders` order), input 0 being t and 1 being s; the root state is
    t's root with fv(t) mapped to itself.  A state's support is its images,
    and for a t-state also v and fv(s).  A λ binds the least name of the
    pool W outside its state's support, where W is fv(t) ∪ {v} ∪ fv(s)
    padded with least fresh atoms to m+1 names and m bounds every support.
    A t-var whose image is v takes the label of s's root with fv(s) mapped
    to itself, its λ binder still chosen for the t-state.  `unfold` numbers
    the states breadth first.  A ⊥ reachable in either input is a
    `ValueError`.
    """
    graphs, orders = (t, s), (_free_orders(t), _free_orders(s))
    if any(g.nodes[n] == ("bot",) for g, order in zip(graphs, orders) for n in order):
        raise ValueError("⊥ nodes have no step in the λ-tree functor")
    fv_s = orders[1][s.root]
    live = frozenset(orders[0][t.root]).union((v,), fv_s)
    m = max(map(len, orders[0].values())) + 1 + max(map(len, orders[1].values()))
    pool = sorted(live.union(fresh_atoms(live, m + 1 - len(live))))

    def step(state, child):
        side, n, images = state
        label, env = graphs[side].nodes[n], dict(zip(orders[side][n], images))
        support = (*images, v, *fv_s) if side == 0 else images
        if side == 0 and label[0] == "var" and env[label[1]] == v:
            side, label, env = 1, s.nodes[s.root], dict(zip(fv_s, fv_s))
        if label[0] == "lam":
            env[label[1]] = next(a for a in pool if a not in support)
        return _lmap(label, env.__getitem__,
                     lambda c: child((side, c, tuple([env[a] for a in orders[side][c]]))))

    return unfold((0, t.root, orders[0][t.root]), step)
