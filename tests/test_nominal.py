import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratlam import (
    App,
    Atom,
    Lam,
    Perm,
    Var,
    abstraction_eq,
    fresh_atom,
    fresh_atoms,
    fv,
    swap,
)
from ratlam.nominal import IDENTITY

from conftest import alpha_eq_finite, random_finite_term, random_perm

atoms = st.builds(Atom, st.integers(min_value=0, max_value=7))


@st.composite
def perms(draw):
    pool = [Atom(i) for i in range(8)]
    image = draw(st.permutations(pool))
    return Perm(dict(zip(pool, image)))


def test_atom_ordering_and_printing():
    assert Atom(0) < Atom(1) < Atom(10)
    assert sorted([Atom(10), Atom(2), Atom(9)]) == [Atom(2), Atom(9), Atom(10)]
    assert str(Atom(3)) == "v3" and f"{Atom(3)}" == "v3"
    assert repr(Atom(3)) == "Atom(3)"
    assert repr((Atom(0), ("var", Atom(12)))) == "(Atom(0), ('var', Atom(12)))"
    assert Atom(2) == Atom(2)


def test_atom_is_an_int():
    a = Atom(7)
    assert a.index == 7 and type(a.index) is int
    assert a == 7 and hash(a) == hash(7)
    assert Atom(a) == a and type(Atom(a)) is Atom


def test_atom_rejects_negative_index():
    with pytest.raises(ValueError):
        Atom(-1)


@pytest.mark.parametrize("index", ["3", 1.0, True])
def test_atom_rejects_non_ints(index):
    with pytest.raises(TypeError):
        Atom(index)


def test_swap_basics():
    a, b = Atom(0), Atom(1)
    assert swap(a, a) == IDENTITY
    assert swap(a, b)(a) == b
    assert swap(a, b)(b) == a
    assert swap(a, b).compose(swap(a, b)) == IDENTITY


def test_compose_worked_example():
    # swap(v0,v1) after swap(v1,v2) sends v2 to v0
    a, b, c = Atom(0), Atom(1), Atom(2)
    p = swap(a, b).compose(swap(b, c))
    assert p(c) == a
    assert p(a) == b
    assert p(b) == c


def test_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm({Atom(0): Atom(1)})  # domain != image
    with pytest.raises(ValueError):
        Perm({Atom(0): Atom(2), Atom(1): Atom(2), Atom(2): Atom(0)})  # not injective


@given(perms(), perms())
def test_equal_perms_hash_alike(p, q):
    assert hash(p.compose(q)) == hash(p.compose(q).inverse().inverse())
    assert hash(p.compose(p.inverse())) == hash(IDENTITY)
    assert hash(swap(Atom(0), Atom(1))) == hash(swap(Atom(1), Atom(0)))
    assert len({p.compose(q), q.inverse().compose(p.inverse()).inverse()}) == 1


def test_perm_cycle_printing():
    p = Perm({Atom(0): Atom(1), Atom(1): Atom(0), Atom(2): Atom(3), Atom(3): Atom(2)})
    assert str(p) == "(v0 v1)(v2 v3)"
    assert repr(p) == "Perm<(v0 v1)(v2 v3)>"
    assert str(IDENTITY) == "id"


@given(perms())
def test_identity_laws(p):
    assert p.compose(IDENTITY) == p
    assert IDENTITY.compose(p) == p
    assert p.compose(p.inverse()) == IDENTITY


@given(perms(), perms(), perms())
def test_associativity(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


@given(perms(), perms(), atoms)
def test_compose_pointwise(p, q, a):
    assert p.compose(q)(a) == p(q(a))


def test_fresh_atom_is_least_unused():
    assert fresh_atom([]) == Atom(0)
    assert fresh_atom([Atom(0), Atom(2)]) == Atom(1)
    assert fresh_atoms([Atom(1)], 3) == [Atom(0), Atom(2), Atom(3)]


def test_is_fresh():
    x, y = Atom(0), Atom(1)
    assert Atom(5) not in App(Var(x), Var(y)).support()
    assert x in Var(x).support()
    assert x not in Lam(x, Var(x)).support()  # bound occurrence not in support


def test_abstraction_eq_examples():
    x, y = Atom(0), Atom(1)
    assert abstraction_eq(x, Var(x), y, Var(y))
    assert not abstraction_eq(x, Var(y), y, Var(x))
    assert abstraction_eq(x, App(Var(x), Var(y)), Atom(2), App(Var(Atom(2)), Var(y)))


def test_abstraction_eq_witness_independence():
    rng = random.Random(7)
    for _ in range(200):
        v1, v2 = Atom(rng.randrange(4)), Atom(rng.randrange(4))
        x1 = random_finite_term(rng, 3)
        x2 = random_finite_term(rng, 3)
        expected = abstraction_eq(v1, x1, v2, x2, eq=alpha_eq_finite)
        avoid = {v1, v2} | x1.support() | x2.support()
        for z in fresh_atoms(avoid, 3):
            got = alpha_eq_finite(x1.act(swap(v1, z)), x2.act(swap(v2, z)))
            assert got == expected


def test_abstraction_eq_is_equivalence():
    rng = random.Random(11)
    samples = [
        (Atom(rng.randrange(3)), random_finite_term(rng, 2)) for _ in range(12)
    ]
    eq = lambda a, b: alpha_eq_finite(a, b)
    for v, x in samples:
        assert abstraction_eq(v, x, v, x, eq=eq)
    for (v1, x1) in samples:
        for (v2, x2) in samples:
            assert abstraction_eq(v1, x1, v2, x2, eq=eq) == abstraction_eq(
                v2, x2, v1, x1, eq=eq
            )


def test_abstraction_eq_act_invariant():
    # <p(v)>(p.x) equals <v>x pushed through p
    rng = random.Random(13)
    for _ in range(100):
        p = random_perm(rng)
        v1, v2 = Atom(rng.randrange(4)), Atom(rng.randrange(4))
        x1, x2 = random_finite_term(rng, 3), random_finite_term(rng, 3)
        before = abstraction_eq(v1, x1, v2, x2, eq=alpha_eq_finite)
        after = abstraction_eq(p(v1), x1.act(p), p(v2), x2.act(p), eq=alpha_eq_finite)
        assert before == after


@settings(max_examples=200)
@given(perms(), st.integers(min_value=0, max_value=5))
def test_support_equivariance_finite_terms(p, seed):
    t = random_finite_term(random.Random(seed), 4)
    assert fv(t.act(p)) == frozenset(p(a) for a in fv(t))


def test_support_law_finite_terms():
    rng = random.Random(17)
    for _ in range(200):
        t = random_finite_term(rng, 4)
        moving = [Atom(i) for i in range(8) if Atom(i) not in t.support()]
        rng.shuffle(moving)
        p = Perm(dict(zip(sorted(moving), moving)))
        assert alpha_eq_finite(t.act(p), t)
