"""Finite presentations of orbit-finite nominal sets.

A single orbit is presented by an arity k and a subgroup of the symmetric
group on the k slot positions; an element is an injective k-tuple of atoms,
taken modulo that stabilizer.  Support, action, equality and bounded-support
enumeration are all directly computable from this presentation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter

from .nominal import Atom, Perm

# A slot permutation on {0..k-1}, stored as the tuple of images.
SlotPerm = tuple[int, ...]


class NotASubgroup(ValueError):
    def __init__(self, schema_id: str, reason: str):
        super().__init__(f"stabilizer of orbit {schema_id!r} is not a subgroup: {reason}")
        self.schema_id = schema_id


class ArityMismatch(ValueError):
    pass


def slot_identity(k: int) -> SlotPerm:
    return tuple(range(k))


def slot_compose(g: SlotPerm, h: SlotPerm) -> SlotPerm:
    """g after h."""
    return tuple(g[h[i]] for i in range(len(g)))


def slot_inverse(g: SlotPerm) -> SlotPerm:
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple(inv)


def apply_slot_perm(g: SlotPerm, t: tuple) -> tuple:
    return tuple(t[g[i]] for i in range(len(g)))


@functools.cache
def _identity_group(arity: int) -> frozenset[SlotPerm]:
    """The stabilizer of every trivial schema of this arity, one shared object."""
    return frozenset({slot_identity(arity)})


@dataclass(frozen=True, init=False, slots=True)
class OrbitSchema:
    """One orbit: injective `arity`-tuples of atoms modulo `stabilizer`.

    `trivial` records that the stabilizer is the identity alone, so that
    every tuple is its own class.  Any other stabilizer is checked to be a
    group of slot permutations when the schema is built, and its members are
    kept as `itemgetter`s in `_getters` for `canonical`."""

    id: str
    arity: int
    stabilizer: frozenset[SlotPerm]
    trivial: bool = field(init=False, repr=False, compare=False)
    _getters: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, id: str, arity: int, stabilizer: frozenset[SlotPerm] | None = None):
        identity = _identity_group(arity)
        trivial = stabilizer is None or stabilizer == identity
        if trivial:
            stabilizer = identity
        else:
            for g in stabilizer:
                if len(g) != arity or sorted(g) != list(range(arity)):
                    raise NotASubgroup(id, f"{g} is not a permutation of the slots")
            if slot_identity(arity) not in stabilizer:
                raise NotASubgroup(id, "identity missing")
            for g in stabilizer:
                if slot_inverse(g) not in stabilizer:
                    raise NotASubgroup(id, f"inverse of {g} missing")
                for h in stabilizer:
                    if slot_compose(g, h) not in stabilizer:
                        raise NotASubgroup(id, f"composite of {g} and {h} missing")
        _set_id(self, id)
        _set_arity(self, arity)
        _set_stabilizer(self, stabilizer)
        _set_trivial(self, trivial)
        # a nontrivial group moves two slots, so each getter returns a tuple
        _set_getters(self, () if trivial else tuple(itemgetter(*g) for g in stabilizer))

    def canonical(self, atoms: tuple) -> tuple:
        """The lexicographically least tuple in the stabilizer class of `atoms`."""
        return atoms if self.trivial else min([g(atoms) for g in self._getters])


# The slots' own setters, which the frozen `__setattr__` leaves for `__init__`.
_set_id, _set_arity, _set_stabilizer, _set_trivial, _set_getters = (
    getattr(OrbitSchema, name).__set__ for name in OrbitSchema.__slots__)


@dataclass(frozen=True)
class OrbitSet:
    schemas: tuple[OrbitSchema, ...]
    _by_id: dict[str, OrbitSchema] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id = {s.id: s for s in self.schemas}
        if len(by_id) != len(self.schemas):
            raise ValueError("schema ids must be pairwise distinct")
        object.__setattr__(self, "_by_id", by_id)

    def __getitem__(self, schema_id: str) -> OrbitSchema:
        return self._by_id[schema_id]

    def __contains__(self, schema_id: str) -> bool:
        return schema_id in self._by_id

    def __iter__(self):
        return iter(self.schemas)


class OrbitElement:
    """A schema together with an injective atom tuple, modulo the stabilizer.

    Equality and hashing go through the canonical representative: the
    lexicographically least tuple in the stabilizer class, which under a
    trivial stabilizer is the tuple itself.  The hash is computed once, when
    the element is built.
    """

    __slots__ = ("schema", "atoms", "_canon", "_hash")

    def __init__(self, schema: OrbitSchema, atoms: tuple[Atom, ...]):
        atoms = tuple(atoms)
        if len(atoms) != schema.arity:
            raise ArityMismatch(
                f"orbit {schema.id!r} expects {schema.arity} atoms, got {len(atoms)}"
            )
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom tuple entries must be pairwise distinct")
        self.schema = schema
        self.atoms = atoms
        self._canon = schema.canonical(atoms)
        self._hash = hash((schema.id, self._canon))

    def canonical(self) -> tuple[Atom, ...]:
        return self._canon

    def __eq__(self, other):
        return (
            isinstance(other, OrbitElement)
            and self.schema.id == other.schema.id
            and self._canon == other._canon
        )

    def __hash__(self):
        return self._hash

    def support(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    def act(self, p: Perm) -> "OrbitElement":
        return OrbitElement(self.schema, tuple(p(a) for a in self.atoms))

    def __str__(self):
        return f"{self.schema.id}({','.join(map(str, self.atoms))})"

    def __repr__(self):
        return f"OrbitElement<{self}>"


def canonical_tuples(schema: OrbitSchema, pool):
    """The canonical tuples of the schema's elements supported inside the
    sorted atom `pool`, in lexicographic order.

    Under a trivial stabilizer these are all the k-permutations of the pool.
    Otherwise, whether a tuple of distinct atoms is the least of its class
    depends only on the relative order of its atoms, so the canonical orders
    ("shapes") of range(k) are found once, k!·|G| slot-permutation steps,
    and each is laid over every k-subset of the pool, which is then sorted:
    O(C(|pool|, k) · s) tuples for s shapes, with no test per tuple."""
    k = schema.arity
    if schema.trivial:
        return itertools.permutations(pool, k)
    shapes = [itemgetter(*p) for p in itertools.permutations(range(k))
              if p == schema.canonical(p)]
    return sorted(shape(c) for c in itertools.combinations(pool, k) for shape in shapes)


def enumerate_support_in(s: OrbitSet, atoms) -> list[OrbitElement]:
    """All elements supported inside the given atom pool, duplicate-free.

    Order is deterministic: schemas in presentation order, elements by
    canonical tuple.
    """
    pool = sorted(set(atoms))
    return [OrbitElement(schema, t) for schema in s.schemas for t in canonical_tuples(schema, pool)]
