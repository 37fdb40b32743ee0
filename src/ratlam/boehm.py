"""Fuel-bounded head reduction, Böhm-tree prefixes and rationality detection.

The Böhm tree is read off one step, `_bt_step`, over states (c, k): the
k-th constructor of the head normal form of the term c.  A Böhm-tree prefix
is `terms._truncate` of that step, and a rational Böhm tree is its
`terms.unfold` with every term made α-canonical.  Whether a term has a
head normal form is only semi-decidable, so every operation takes an
explicit budget; running out of fuel is a value (⊥ / unknown), never an
error.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .nominal import Atom, fresh_atom
from .substitution import subst_finite
from .terms import App, Bot, FiniteTerm, Lam, TermGraph, Var, _truncate, fv, unfold


@dataclass(frozen=True)
class HnfDecomposition:
    """λx1…λxn. y N1 … Nm, split into binders, head variable and arguments."""

    binders: tuple[Atom, ...]
    head: Atom
    args: tuple[FiniteTerm, ...]

    def term(self) -> FiniteTerm:
        return _unspine(self.binders, Var(self.head), self.args)


@dataclass(frozen=True)
class BottomVerdict:
    fuel_exhausted: bool


@dataclass(frozen=True)
class BtBudget:
    fuel: int = 64
    depth: int = 8
    states: int = 64

    def __post_init__(self):
        if self.fuel <= 0 or self.depth <= 0 or self.states <= 0:
            raise ValueError("budget components must be positive")


def _spine(t: FiniteTerm) -> tuple[tuple[Atom, ...], FiniteTerm, list[FiniteTerm]]:
    """Strip λx1…λxn and the application spine: t = λxs. head N1…Nm."""
    binders = []
    while isinstance(t, Lam):
        binders.append(t.binder)
        t = t.body
    args: list[FiniteTerm] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return tuple(binders), t, args


def _unspine(binders, head: FiniteTerm, args) -> FiniteTerm:
    """The inverse of `_spine`: λbinders. head args[0] … args[-1]."""
    for a in args:
        head = App(head, a)
    for x in reversed(binders):
        head = Lam(x, head)
    return head


def head_reduce(t: FiniteTerm, fuel: int) -> HnfDecomposition | BottomVerdict:
    """Contract the head redex until a head normal form or the fuel runs out."""
    while True:
        binders, head, args = _spine(t)
        match head:
            case Var(a):
                return HnfDecomposition(binders, a, tuple(args))
            case Bot():
                return BottomVerdict(fuel_exhausted=False)
            case Lam(x, b):
                # head is a redex: (λx.b) args[0] args[1:] under the binders
                if fuel <= 0:
                    return BottomVerdict(fuel_exhausted=True)
                fuel -= 1
                t = _unspine(binders, subst_finite(b, x, args[0]), args[1:])
            case _:
                raise TypeError(f"not a finite term: {head!r}")


def bt_truncate(t: FiniteTerm, budget: BtBudget) -> FiniteTerm:
    """Depth-bounded prefix of the Böhm tree, ⊥ at cuts and dead ends:
    `_truncate` of `_bt_step` from the state (t, 0), where an argument N
    becomes the state (N, 0).  `_truncate` meets a term once per depth it
    occurs at, and `_bt_step` head-reduces each distinct term once; an
    argument at or past the cut is never head-reduced."""
    return _truncate(_bt_step(budget.fuel, lambda a: (a, 0), {}), (t, 0), budget.depth, {})


def _bt_step(fuel: int, arg: Callable[[FiniteTerm], tuple], hnfs: dict) -> Callable:
    """The Böhm coalgebra as an `unfold` step over states (c, k): the k-th
    constructor, counted from the outside, of the head normal form
    h = λx1…λxn. y N1…Nm of the term c, or ⊥ if c has none within `fuel`.
    c is head-reduced the first time one of its states is labelled, unless
    `hnfs` has its result already, and the result is kept there.  An
    argument N becomes the state `arg(N)`."""

    def step(state, child):
        c, k = state
        if (h := hnfs.get(c)) is None:
            h = hnfs[c] = head_reduce(c, fuel)
        if isinstance(h, BottomVerdict):
            return ("bot",)
        n, m = len(h.binders), len(h.args)
        if k < n:
            return ("lam", h.binders[k], child((c, k + 1)))
        if k < n + m:
            return ("app", child((c, k + 1)), child(arg(h.args[n + m - 1 - k])))
        return ("var", h.head)

    return step


def _canonicalize(t: FiniteTerm) -> FiniteTerm:
    """Rename binders to the least atoms outside fv(t), in traversal order.

    α-equivalent terms with the same free variables get identical results,
    which makes canonical forms usable as state keys.  It is idempotent, and a
    canonical term comes back as the same object: a subterm whose binders
    and free names all stay is returned as it is.
    """
    taken = fv(t)
    names = (Atom(i) for i in itertools.count() if i not in taken)
    return _rename_binders(t, {}, names)


def _rename_binders(t: FiniteTerm, bound: dict[Atom, Atom], names: Iterator[Atom]) -> FiniteTerm:
    match t:
        case Var(a):
            a2 = bound.get(a, a)
            return t if a2 == a else Var(a2)
        case Bot():
            return t
        case App(f, a):
            f2, a2 = _rename_binders(f, bound, names), _rename_binders(a, bound, names)
            return t if f2 is f and a2 is a else App(f2, a2)
        case Lam(x, b):
            x2 = next(names)
            b2 = _rename_binders(b, {**bound, x: x2}, names)
            return t if x2 == x and b2 is b else Lam(x2, b2)
    raise TypeError(f"not a finite term: {t!r}")


class _Unknown(Exception):
    """A Böhm state ran out of fuel, or the states ran past the budget."""


def bt_graph(t: FiniteTerm, budget: BtBudget) -> TermGraph | None:
    """Try to build the Böhm tree as a finite graph; None means unknown.

    The graph is `unfold` of `_bt_step`, the step that `bt_truncate` cuts,
    over states (c, k) of α-canonical terms c (free atoms stay concrete),
    numbered breadth first.  `key` turns an argument term into the state
    (c, 0) of its canonical form c, so a recurring one becomes a back edge.
    Each canonical term is head-reduced and counted against
    `budget.states` when it is first keyed; constructors are not counted.
    Every key is canonical, and `_canonicalize` is idempotent, so an
    argument already keyed as it is needs no canonicalizing: each state is
    canonicalized once.  The answer is None exactly when more than
    `budget.states` canonical terms are reachable or one of them runs out of
    fuel, whatever the visiting order; the Böhm tree may still be rational —
    this is a semi-decision.
    """
    hnfs: dict[FiniteTerm, HnfDecomposition | BottomVerdict] = {}

    def key(t: FiniteTerm) -> tuple:
        if t not in hnfs and (t := _canonicalize(t)) not in hnfs:
            if len(hnfs) >= budget.states:
                raise _Unknown
            h = hnfs[t] = head_reduce(t, budget.fuel)
            if isinstance(h, BottomVerdict) and h.fuel_exhausted:
                raise _Unknown  # honest unknown, not a ⊥ claim
        return t, 0

    try:
        return unfold(key(t), _bt_step(budget.fuel, key, hnfs))
    except _Unknown:
        return None


# ---------------------------------------------------------------------------
# Example terms


def _y_of(f: FiniteTerm) -> FiniteTerm:
    """(λz. f (z z)) (λz. f (z z)) for a term f."""
    z = fresh_atom(fv(f))
    half = Lam(z, App(f, App(Var(z), Var(z))))
    return App(half, half)


def gen_u() -> FiniteTerm:
    """The fixed point of λg.λx. x (g (x y)); finite, but its Böhm tree has
    ever-growing leaf fronts and is not rational.  y stays free."""
    g, x, y = Atom(0), Atom(1), Atom(2)
    f = Lam(g, Lam(x, App(Var(x), App(Var(g), App(Var(x), Var(y))))))
    return _y_of(f)


def gen_s() -> FiniteTerm:
    """The fixed point of λg.λx.λy. x g y; closed, with a rational Böhm tree."""
    g, x, y = Atom(0), Atom(1), Atom(2)
    f = Lam(g, Lam(x, Lam(y, App(App(Var(x), Var(g)), Var(y)))))
    return _y_of(f)


def gen_omega() -> FiniteTerm:
    """(λx. x x) (λx. x x): no head normal form at all."""
    x = Atom(0)
    half = Lam(x, App(Var(x), Var(x)))
    return App(half, half)
