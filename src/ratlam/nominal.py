"""Atoms, finite permutations and the basic name-symmetry machinery.

Everything else in the package is built on top of the two capabilities
defined here: acting on a value with a finite permutation of names, and
computing the (finite) support of a value.
"""

from __future__ import annotations

from typing import Iterable


class Atom(int):
    """A variable name v_i from the countable universe, ordered by index.

    An atom is the int i, so hashing, equality and ordering run at C speed.
    `Atom(1) == 1` and the two hash alike: a set or dict that mixes atoms
    with other ints, such as node ids or slot indices, merges them.
    """

    __slots__ = ()

    def __new__(cls, index: int):
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"atom index must be an int, not {type(index).__name__}")
        if index < 0:
            raise ValueError("atom index must be a natural number")
        return super().__new__(cls, index)

    @property
    def index(self) -> int:
        return int(self)

    def __str__(self):
        return f"v{int(self)}"

    def __repr__(self):
        return f"Atom({int(self)})"


class Perm:
    """A finite permutation of atoms, stored as its non-fixpoint graph.

    The stored map contains no fixpoints and its domain equals its image,
    so equality of permutations is equality of these maps.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[Atom, Atom] | None = None):
        m = {a: b for a, b in (mapping or {}).items() if a != b}
        # a finite map whose key set equals its value set is injective
        if set(m.keys()) != set(m.values()):
            raise ValueError("not a permutation: domain and image differ")
        self._map = m

    def __call__(self, a: Atom) -> Atom:
        return self._map.get(a, a)

    def __eq__(self, other):
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    @property
    def moved(self) -> frozenset[Atom]:
        return frozenset(self._map)

    def is_identity(self) -> bool:
        return not self._map

    def inverse(self) -> "Perm":
        return Perm({b: a for a, b in self._map.items()})

    def compose(self, other: "Perm") -> "Perm":
        """self after other: (p.compose(q))(a) == p(q(a))."""
        atoms = self.moved | other.moved
        return Perm({a: self(other(a)) for a in atoms})

    def cycles(self) -> list[tuple[Atom, ...]]:
        seen: set[Atom] = set()
        out = []
        for a in sorted(self._map):
            if a in seen:
                continue
            cyc = [a]
            seen.add(a)
            b = self(a)
            while b != a:
                cyc.append(b)
                seen.add(b)
                b = self(b)
            out.append(tuple(cyc))
        return out

    def __str__(self):
        if self.is_identity():
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles())

    def __repr__(self):
        return f"Perm<{self}>"


IDENTITY = Perm()


def swap(a: Atom, b: Atom) -> Perm:
    """The transposition exchanging a and b; swap(a, a) is the identity."""
    if a == b:
        return IDENTITY
    return Perm({a: b, b: a})


def fresh_atom(avoid: Iterable[Atom]) -> Atom:
    """The least atom not in avoid."""
    return fresh_atoms(avoid, 1)[0]


def fresh_atoms(avoid: Iterable[Atom], n: int) -> list[Atom]:
    """The n least atoms outside avoid, in increasing order."""
    taken = set(avoid)
    out: list[Atom] = []
    i = 0
    while len(out) < n:
        if i not in taken:
            out.append(Atom(i))
        i += 1
    return out


def abstraction_eq(v1: Atom, x1, v2: Atom, x2, eq=None) -> bool:
    """Equality of binder/body pairs: <v1>x1 == <v2>x2.

    Decided by swapping both binders to a single fresh witness and comparing
    the bodies.  The condition is independent of which fresh witness is
    chosen, so the least one is used.  The comparison defaults to ==, but a
    custom equality (e.g. alpha-equivalence of terms) can be supplied.
    """
    if eq is None:
        eq = lambda a, b: a == b
    z = fresh_atom({v1, v2} | x1.support() | x2.support())
    return eq(x1.act(swap(v1, z)), x2.act(swap(v2, z)))
