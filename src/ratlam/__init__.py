"""Rational λ-trees modulo α-equivalence as finite coalgebras over nominal sets."""

from .nominal import (
    Atom,
    Perm,
    abstraction_eq,
    fresh_atom,
    fresh_atoms,
    swap,
)
from .orbits import (
    ArityMismatch,
    NotASubgroup,
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    enumerate_support_in,
)
from .terms import (
    BOT,
    App,
    Bot,
    Interner,
    Lam,
    Mu,
    Ref,
    TermGraph,
    TermSyntaxError,
    UnboundRef,
    UnguardedMu,
    Var,
    alpha_bisim,
    fv,
    graph_of,
    minimize,
    parse_term,
    print_graph,
    print_term,
    subtree_count,
    truncate,
)
from .coalgebra import (
    FRESH,
    EscapesCarrier,
    InvalidCoalgebra,
    SupportTooLarge,
    SymbolicCoalgebra,
    c_construct,
    gen_pair,
    gen_rsigma,
    graph_to_coalgebra,
    instantiate,
    orbit_count,
    parse_coalgebra,
    parse_root,
    print_coalgebra,
    rsigma_count,
    size_bound,
)
from .substitution import subst_finite, subst_rational
from .boehm import (
    BottomVerdict,
    BtBudget,
    HnfDecomposition,
    bt_graph,
    bt_truncate,
    gen_omega,
    gen_s,
    gen_u,
    head_reduce,
)

__version__ = "0.1.0"
