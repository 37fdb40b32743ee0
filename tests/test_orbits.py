import itertools
import random
from math import factorial

import pytest

from ratlam import (
    ArityMismatch,
    Atom,
    NotASubgroup,
    OrbitElement,
    OrbitSchema,
    OrbitSet,
    enumerate_support_in,
)
from ratlam.orbits import apply_slot_perm, canonical_tuples, slot_compose, slot_identity

from conftest import canonical_tuples_by_filter, random_perm

S2 = frozenset({(0, 1), (1, 0)})
S3 = frozenset(itertools.permutations(range(3)))


def test_validate_accepts_trivial_and_full_stabilizers():
    OrbitSet((OrbitSchema("v", 1), OrbitSchema("p", 2, S2), OrbitSchema("t", 3, S3)))


def test_trivial_schemas_of_one_arity_share_their_stabilizer():
    a, b = OrbitSchema("a", 3), OrbitSchema("b", 3, frozenset({(0, 1, 2)}))
    assert a.stabilizer is b.stabilizer == frozenset({(0, 1, 2)})
    assert a.trivial and b.trivial
    assert OrbitSchema("a", 3, frozenset({(0, 1, 2)})) == a != b
    assert hash(OrbitSchema("a", 3, frozenset({(0, 1, 2)}))) == hash(a)
    assert OrbitSchema("a", 2).stabilizer == frozenset({(0, 1)})


def test_validate_rejects_non_closed_stabilizer():
    # {id, (1 2 3)} misses the inverse rotation
    with pytest.raises(NotASubgroup, match="inverse of"):
        OrbitSchema("c", 3, frozenset({(0, 1, 2), (1, 2, 0)}))


@pytest.mark.parametrize("stab, reason", [
    ({(1, 0, 2), (0, 2, 1)}, "identity missing"),
    ({(0, 1, 2), (1, 0, 2), (0, 2, 1)}, "composite of"),
    ({(0, 1, 2), (0, 1)}, "not a permutation of the slots"),
    ({(0, 1, 2), (0, 1, 1)}, "not a permutation of the slots"),
    (set(), "identity missing"),
])
def test_schema_with_a_stabilizer_that_is_no_subgroup_is_not_built(stab, reason):
    message = f"^stabilizer of orbit 'c' is not a subgroup: .*{reason}"
    with pytest.raises(NotASubgroup, match=message):
        OrbitSchema("c", 3, frozenset(stab))


def test_validate_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        OrbitSet((OrbitSchema("a", 1), OrbitSchema("a", 2)))


def test_orbit_set_looks_up_schemas_by_id():
    a, b = OrbitSchema("a", 1), OrbitSchema("b", 2)
    s = OrbitSet((a, b))
    assert s["a"] is a and s["b"] is b
    with pytest.raises(KeyError):
        s["c"]


def test_element_requires_injective_tuple_of_right_arity():
    s = OrbitSchema("p", 2)
    with pytest.raises(ValueError):
        OrbitElement(s, (Atom(0), Atom(0)))
    with pytest.raises(ArityMismatch):
        OrbitElement(s, (Atom(0),))


def test_elem_eq_examples():
    unordered = OrbitSchema("u", 2, S2)
    ordered = OrbitSchema("o", 2)
    assert OrbitElement(unordered, (Atom(0), Atom(1))) == OrbitElement(
        unordered, (Atom(1), Atom(0))
    )
    assert OrbitElement(ordered, (Atom(0), Atom(1))) != OrbitElement(
        ordered, (Atom(1), Atom(0))
    )
    e = OrbitElement(ordered, (Atom(3), Atom(5)))
    assert e == e
    assert repr(OrbitElement(OrbitSchema("pair", 2), (Atom(0), Atom(1)))) == "OrbitElement<pair(v0,v1)>"
    # different schemas never compare equal
    assert OrbitElement(ordered, (Atom(0), Atom(1))) != OrbitElement(
        OrbitSchema("o2", 2), (Atom(0), Atom(1))
    )


def test_canonical_representative_is_lex_least():
    u = OrbitSchema("u", 2, S2)
    assert OrbitElement(u, (Atom(4), Atom(1))).canonical() == (Atom(1), Atom(4))


def test_enumerate_support_in_counts():
    W = [Atom(0), Atom(1), Atom(2)]
    assert len(enumerate_support_in(OrbitSet((OrbitSchema("o", 2),)), W)) == 6
    assert len(enumerate_support_in(OrbitSet((OrbitSchema("u", 2, S2),)), W)) == 3
    assert len(enumerate_support_in(OrbitSet((OrbitSchema("q", 4),)), W)) == 0


def test_enumerate_support_in_is_deterministic_and_duplicate_free():
    s = OrbitSet((OrbitSchema("u", 2, S2), OrbitSchema("v", 1)))
    W = [Atom(2), Atom(0), Atom(1)]
    out1 = enumerate_support_in(s, W)
    out2 = enumerate_support_in(s, list(reversed(W)))
    assert out1 == out2
    assert len(set(out1)) == len(out1)


def test_canonical_tuples_are_the_least_of_their_class():
    a0, a1, a2 = (Atom(i) for i in range(3))
    pool = [a0, a1, a2]
    assert list(canonical_tuples(OrbitSchema("u", 2, S2), pool)) == [(a0, a1), (a0, a2), (a1, a2)]
    assert list(canonical_tuples(OrbitSchema("o", 2), pool)) == list(itertools.permutations(pool, 2))
    rot = OrbitSchema("r", 3, frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}))
    assert list(canonical_tuples(rot, pool)) == [(a0, a1, a2), (a0, a2, a1)]
    assert rot.canonical((a2, a0, a1)) == (a0, a1, a2)
    assert rot.canonical((a2, a1, a0)) == (a0, a2, a1)


def _generated(gens, k: int) -> frozenset:
    """The group of slot permutations on k slots that `gens` generate."""
    group, todo = {slot_identity(k)}, [slot_identity(k)]
    while todo:
        x = todo.pop()
        for g in gens:
            if (y := slot_compose(g, x)) not in group:
                group.add(y)
                todo.append(y)
    return frozenset(group)


def _two_generated_subgroups(k: int) -> set[frozenset]:
    """Every <g, h>, as the join of two cyclic subgroups, each given by one
    of its generators."""
    cyclic = {_generated([g], k): g for g in itertools.permutations(range(k))}
    pairs = itertools.combinations_with_replacement(cyclic.values(), 2)
    return {_generated(gens, k) for gens in pairs}


def test_canonical_tuples_match_the_filter_on_two_generated_stabilizers():
    rng = random.Random(44)
    cases = 0
    for k in range(2, 6):
        for n, stab in enumerate(sorted(_two_generated_subgroups(k), key=sorted)):
            schema = OrbitSchema(f"g{n}", k, stab)
            for size in range(8):
                pool = sorted(Atom(i) for i in rng.sample(range(10), size))
                assert list(canonical_tuples(schema, pool)) == canonical_tuples_by_filter(schema, pool)
                cases += 1
    assert cases == 8 * (2 + 6 + 30 + 156)  # every subgroup of S2..S5 is 2-generated


def test_canonical_tuples_of_the_padded_benchmark_orbit():
    # arity 4, slots 3 and 4 swapped, over 5 atoms: 5 subsets x 12 orders
    schema = OrbitSchema("p0", 4, frozenset({(0, 1, 2, 3), (0, 1, 3, 2)}))
    pool = [Atom(i) for i in (1, 3, 4, 7, 9)]
    out = list(canonical_tuples(schema, pool))
    assert out == canonical_tuples_by_filter(schema, pool)
    assert len(out) == 60 and all(t[2] < t[3] for t in out)


def test_canonical_is_the_least_image_under_the_stabilizer():
    rng = random.Random(45)
    groups = [(k, stab) for k in (2, 3, 4) for stab in _two_generated_subgroups(k)]
    for _ in range(500):
        k, stab = rng.choice(groups)
        schema = OrbitSchema("s", k, stab)
        atoms = tuple(Atom(i) for i in rng.sample(range(9), k))
        assert schema.canonical(atoms) == min(apply_slot_perm(g, atoms) for g in stab)


def _random_schema(rng: random.Random) -> OrbitSchema:
    arity = rng.randint(0, 3)
    if arity == 2 and rng.random() < 0.4:
        stab = S2
    elif arity == 3 and rng.random() < 0.3:
        stab = rng.choice(
            [S3, frozenset({(0, 1, 2), (1, 0, 2)}), frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})]
        )
    else:
        stab = None
    return OrbitSchema("s", arity, stab)


def _random_element(rng: random.Random, schema: OrbitSchema) -> OrbitElement:
    pool = [Atom(i) for i in range(8)]
    return OrbitElement(schema, tuple(rng.sample(pool, schema.arity)))


def test_action_preserves_support_size():
    rng = random.Random(23)
    for _ in range(200):
        schema = _random_schema(rng)
        e = _random_element(rng, schema)
        p = random_perm(rng)
        assert len(e.act(p).support()) == len(e.support())


def test_support_equivariance_elements():
    rng = random.Random(29)
    for _ in range(200):
        schema = _random_schema(rng)
        e = _random_element(rng, schema)
        p = random_perm(rng)
        assert e.act(p).support() == frozenset(p(a) for a in e.support())


def test_count_same_support_never_exceeds_factorial():
    rng = random.Random(31)
    for _ in range(200):
        schema = _random_schema(rng)
        # elements inside a pool of `arity` atoms have exactly that support
        support = [Atom(i) for i in range(schema.arity)]
        c = len(enumerate_support_in(OrbitSet((schema,)), support))
        assert c == factorial(schema.arity) // len(schema.stabilizer)
        assert 1 <= c <= factorial(schema.arity)


def test_enumeration_matches_brute_force():
    rng = random.Random(37)
    for _ in range(100):
        schema = _random_schema(rng)
        w = rng.randint(0, 4)
        pool = sorted(rng.sample([Atom(i) for i in range(6)], w))
        out = enumerate_support_in(OrbitSet((schema,)), pool)
        # brute force: every injective tuple, deduplicated by pairwise ==
        distinct = []
        for t in itertools.permutations(pool, schema.arity):
            e = OrbitElement(schema, t)
            if not any(e == d for d in distinct):
                distinct.append(e)
        assert len(out) == len(distinct)
        for e in distinct:
            assert any(e == o for o in out)


def test_enumeration_yields_canonical_tuples_in_increasing_order():
    rng = random.Random(38)
    for _ in range(200):
        drawn = [_random_schema(rng) for _ in range(rng.randint(1, 3))]
        schemas = tuple(OrbitSchema(f"s{i}", s.arity, s.stabilizer) for i, s in enumerate(drawn))
        pool = rng.sample([Atom(i) for i in range(6)], rng.randint(0, 4))
        out = enumerate_support_in(OrbitSet(schemas), pool)
        assert all(e.atoms == e.canonical() for e in out)
        parts = [[e for e in out if e.schema is schema] for schema in schemas]
        assert out == [e for part in parts for e in part]  # schemas in presentation order
        for schema, part in zip(schemas, parts):
            assert all(a.atoms < b.atoms for a, b in zip(part, part[1:]))
            assert set(part) == {OrbitElement(schema, t)
                                 for t in itertools.permutations(pool, schema.arity)}


def test_elem_eq_act_invariant():
    rng = random.Random(41)
    for _ in range(200):
        schema = _random_schema(rng)
        e1 = _random_element(rng, schema)
        e2 = _random_element(rng, schema)
        p = random_perm(rng)
        assert (e1 == e2) == (e1.act(p) == e2.act(p))


def test_elem_eq_and_hash_follow_schema_id_and_least_tuple():
    rng = random.Random(43)
    for _ in range(500):
        s1 = _random_schema(rng)
        s2 = rng.choice([s1, OrbitSchema("t", s1.arity, s1.stabilizer)])
        pool = [Atom(i) for i in range(s1.arity + 1)]
        t1, t2 = (tuple(rng.sample(pool, s1.arity)) for _ in range(2))
        e1, e2 = OrbitElement(s1, t1), OrbitElement(s2, t2)
        least1 = min(apply_slot_perm(g, t1) for g in s1.stabilizer)
        least2 = min(apply_slot_perm(g, t2) for g in s2.stabilizer)
        same = s1.id == s2.id and least1 == least2
        assert (e1 == e2) == same
        assert (hash(e1) == hash(e2)) == same
