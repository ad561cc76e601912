import random

import pytest

from crossed_poisson.scalars import Cyclotomic, root_of_unity
from crossed_poisson.polyvec import (
    PolyVectorField,
    StructurePair,
    UnsupportedStructureError,
    BracketEngine,
    act,
    average,
    conjugate_swap,
    gen_bracket_b_pi,
    gen_bracket_pi_pi,
    is_invariant,
    is_poisson,
    is_real,
    koszul_differential,
    poisson_differential,
    pr,
    p_scale,
    schouten,
    wedge_insert,
    wedge_sort,
)

from conftest import gamma1_group, random_pvf, trivial_group, z2_group


def test_wedge_utilities():
    assert wedge_sort((2, 0, 1)) == (1, (0, 1, 2))
    assert wedge_sort((1, 0)) == (-1, (0, 1))
    assert wedge_sort((1, 1)) == (0, None)
    assert wedge_insert(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_insert(1, (1, 3)) == (0, None)


def test_single_canonicalizes_wedge_order():
    G = trivial_group(3)
    a = PolyVectorField.single(G, 0, (0, 0, 1), (1, 0), 1)
    b = PolyVectorField.single(G, 0, (0, 0, 1), (0, 1), -1)
    assert a == b


# -- action --------------------------------------------------------------------

def test_act_koszul_example_group():
    # on K^2 with the sign flip: x1 (x) e1 is invariant
    G = z2_group()
    X = PolyVectorField.single(G, 0, (1, 0), (0,), 1)
    assert act(1, X) == X
    assert is_invariant(X)
    # x1 (x) e2 picks up no sign change either ((-1)*(-1)); x1 (x) 1 flips
    Y = PolyVectorField.single(G, 0, (1, 0), (), 1)
    assert act(1, Y) == -Y
    assert not is_invariant(Y)


def test_act_is_a_homomorphism():
    G = gamma1_group()
    rng = random.Random(11)
    for _ in range(6):
        X = random_pvf(G, rng)
        g = rng.randrange(G.order)
        h = rng.randrange(G.order)
        assert act(g, act(h, X)) == act(G.mul[g][h], X)
        assert act(0, X) == X


def test_average_is_invariant_projector():
    G = gamma1_group()
    rng = random.Random(5)
    X = random_pvf(G, rng, nterms=5)
    A = average(X)
    assert is_invariant(A)
    assert average(A) == A


def test_reality_involution():
    # swap (x1 <-> x2) plays conjugation on a 2d space
    G = z2_group()
    i = root_of_unity(4)
    X = (PolyVectorField.single(G, 0, (1, 0), (0,), i)
         + PolyVectorField.single(G, 0, (0, 1), (1,), -i))
    assert is_real(X, (1, 0))
    Y = PolyVectorField.single(G, 0, (1, 0), (0,), i)
    assert not is_real(Y, (1, 0))
    assert conjugate_swap(conjugate_swap(X, (1, 0)), (1, 0)) == X


# -- Koszul differential ---------------------------------------------------------

def test_koszul_frozen_example():
    # at the sign flip on K^2: 1 (x) e1  |->  -2 x2 (x) e1^e2
    G = z2_group()
    X = PolyVectorField.single(G, 1, (0, 0), (0,), 1)
    expect = PolyVectorField.single(G, 1, (0, 1), (0, 1), -2)
    assert koszul_differential(X) == expect


def test_koszul_squares_to_zero():
    for G in (z2_group(), gamma1_group()):
        rng = random.Random(17)
        for _ in range(6):
            X = random_pvf(G, rng, nterms=4, max_deg=2)
            assert koszul_differential(koszul_differential(X)).is_zero()


def test_koszul_vanishes_at_identity_label():
    G = gamma1_group()
    X = PolyVectorField.single(G, 0, (1, 0, 0, 0), (0, 2), 3)
    assert koszul_differential(X).is_zero()


# -- Schouten bracket -------------------------------------------------------------

def test_schouten_of_bivector_with_euler_like_field_vanishes():
    G = trivial_group(2)
    biv = PolyVectorField.single(G, 0, (0, 0), (0, 1), 1)
    W = (PolyVectorField.single(G, 0, (1, 0), (0,), 1)
         + PolyVectorField.single(G, 0, (0, 1), (1,), -1))
    assert schouten(biv, W).is_zero()


def test_schouten_vector_on_function_is_directional_derivative():
    G = trivial_group(3)
    # X = x2 d/dx1, f = x1 x3 -> X(f) = x2 x3
    X = PolyVectorField.single(G, 0, (0, 1, 0), (0,), 1)
    f = PolyVectorField.single(G, 0, (1, 0, 1), (), 1)
    expect = PolyVectorField.single(G, 0, (0, 1, 1), (), 1)
    assert schouten(X, f) == expect


def test_schouten_divergence_sign_convention():
    # schouten(theta0 theta1, f1 theta0 + f2 theta1) = (d0 f1 + d1 f2) theta0 theta1
    G = trivial_group(2)
    biv = PolyVectorField.single(G, 0, (0, 0), (0, 1), 1)
    W = (PolyVectorField.single(G, 0, (2, 0), (0,), 1)      # f1 = x^2
         + PolyVectorField.single(G, 0, (1, 1), (1,), 1))   # f2 = xy
    expect = (PolyVectorField.single(G, 0, (1, 0), (0, 1), 2)
              + PolyVectorField.single(G, 0, (1, 0), (0, 1), 1))
    assert schouten(biv, W) == expect


def test_schouten_graded_antisymmetry():
    G = trivial_group(3)
    rng = random.Random(23)
    for (da, db) in ((1, 1), (1, 2), (2, 2), (2, 3), (0, 2)):
        A = random_pvf(G, rng, nterms=3, wedge_deg=da)
        B = random_pvf(G, rng, nterms=3, wedge_deg=db)
        sign = -1 if ((da - 1) * (db - 1)) % 2 == 0 else 1
        assert schouten(A, B) == schouten(B, A).scale(
            Cyclotomic.rational(G.M, sign))


def test_schouten_graded_jacobi():
    G = trivial_group(3)
    rng = random.Random(29)
    for (da, db, dc) in ((1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 1)):
        A = random_pvf(G, rng, nterms=2, wedge_deg=da, max_deg=2)
        B = random_pvf(G, rng, nterms=2, wedge_deg=db, max_deg=2)
        C = random_pvf(G, rng, nterms=2, wedge_deg=dc, max_deg=2)
        lhs = schouten(A, schouten(B, C))
        rhs = schouten(schouten(A, B), C)
        extra = schouten(B, schouten(A, C))
        if ((da - 1) * (db - 1)) % 2 == 1:
            extra = -extra
        assert lhs == rhs + extra


def test_schouten_multiplies_labels():
    G = z2_group()
    A = PolyVectorField.single(G, 1, (0, 0), (0, 1), 1)
    B = PolyVectorField.single(G, 1, (1, 0), (0,), 1)
    S = schouten(A, B)
    assert S.labels() == [0]


# -- generalized brackets ----------------------------------------------------------

def heisenberg_like_pair(broken=False):
    """pi for [x,y] = z (Jacobi) or [x,y] = z, [y,z] = y (fails Jacobi)."""
    G = trivial_group(3)
    pi = PolyVectorField.single(G, 0, (0, 0, 1), (0, 1), 1)
    if broken:
        pi = pi + PolyVectorField.single(G, 0, (0, 1, 0), (1, 2), 1)
    return StructurePair(G, pi=pi)


def test_gen_bracket_vanishes_for_jacobi_bracket():
    assert gen_bracket_pi_pi(heisenberg_like_pair()).is_zero()


def test_gen_bracket_frozen_failure():
    # for [x,y] = z, [y,z] = y the obstruction is -2 x3 (x) e1^e2^e3
    pair = heisenberg_like_pair(broken=True)
    out = gen_bracket_pi_pi(pair)
    expect = PolyVectorField.single(pair.group, 0, (0, 0, 1), (0, 1, 2), -2)
    assert out == expect


def test_gen_bracket_b_pi_frozen():
    pair = heisenberg_like_pair(broken=True)
    b = PolyVectorField.single(pair.group, 0, (0, 0, 0), (0, 1), 1)
    pair2 = StructurePair(pair.group, pi=pair.pi, b=b)
    out = gen_bracket_b_pi(pair2)
    expect = PolyVectorField.single(pair.group, 0, (0, 0, 0), (0, 1, 2), -2)
    assert out == expect


def test_trilinear_is_alternating():
    G = gamma1_group()
    rng = random.Random(31)
    pi = random_pvf(G, rng, nterms=5, max_deg=0, wedge_deg=2)
    # make it linear
    terms = {}
    for (gi, e, w), c in pi.terms.items():
        e = list(e)
        e[rng.randrange(G.dim)] += 1
        terms[(gi, tuple(e), w)] = c
    pi = PolyVectorField(G, terms)
    eng = BracketEngine(pi)
    outer = eng.slots(pi)
    for (a, b, c) in ((0, 1, 2), (0, 2, 3), (1, 2, 3)):
        T = eng.trilinear(outer, a, b, c)
        T_swap = eng.trilinear(outer, b, a, c)
        T_cyc = eng.trilinear(outer, b, c, a)
        for label, poly in T.items():
            assert T_swap.get(label, {}) == p_scale(
                poly, Cyclotomic.rational(G.M, -1))
            assert T_cyc.get(label, {}) == poly
        assert set(T_swap) == set(T)


def test_nonlinear_inner_slot_rejected():
    G = trivial_group(3)
    quad = {((0, (2, 0, 0), (0, 1))): Cyclotomic.one(G.M)}
    with pytest.raises(UnsupportedStructureError):
        BracketEngine(PolyVectorField(G, quad))
    with pytest.raises(UnsupportedStructureError):
        StructurePair(G, pi=PolyVectorField(G, quad))


# -- projection and Poisson predicates ----------------------------------------------

def test_pr_at_reflection_label():
    G = z2_group()
    # constant full wedge at the flip survives
    X = PolyVectorField.single(G, 1, (0, 0), (0, 1), 1)
    assert pr(X) == X
    # linear coefficients die (fixed space is 0)
    Y = PolyVectorField.single(G, 1, (1, 0), (0, 1), 1)
    assert pr(Y).is_zero()
    # missing normal direction dies
    Z = PolyVectorField.single(G, 1, (0, 0), (0,), 1)
    assert pr(Z).is_zero()


def test_pr_is_identity_at_identity_label():
    G = gamma1_group()
    rng = random.Random(37)
    X = random_pvf(G, rng, nterms=4)
    Xe = X.restrict_label(0)
    assert pr(Xe) == Xe


def test_pr_is_idempotent():
    G = gamma1_group()
    rng = random.Random(41)
    for _ in range(4):
        X = random_pvf(G, rng, nterms=5)
        P = pr(X)
        assert pr(P) == P


def test_is_poisson_z2_constant():
    G = z2_group()
    b = PolyVectorField.single(G, 1, (0, 0), (0, 1), -1)
    pair = StructurePair(G, b=b, w_b=1)
    rep = is_poisson(pair)
    assert rep.ok and rep.invariant


def test_is_poisson_flags_noninvariance():
    G = z2_group()
    pi = PolyVectorField.single(G, 0, (1, 0), (0, 1), 1)
    rep = is_poisson(StructurePair(G, pi=pi))
    assert not rep.invariant
    assert not rep.ok


def test_poisson_differential_frozen_divergence():
    # Pi = -theta0 theta1 at the flip label; X = x^2 d0 + y d1;
    # differential must be the constant part of the divergence at the flip label
    G = z2_group()
    b = PolyVectorField.single(G, 1, (0, 0), (0, 1), -1)
    pair = StructurePair(G, b=b, w_b=1)
    X = (PolyVectorField.single(G, 0, (2, 0), (0,), 1)
         + PolyVectorField.single(G, 0, (0, 1), (1,), 1))
    out = poisson_differential(pair, X)
    expect = PolyVectorField.single(G, 1, (0, 0), (0, 1), 1)
    assert out == expect


def test_poisson_differential_of_center_candidate_vanishes():
    # linear Heisenberg-like structure at the identity only: z is central
    pair = heisenberg_like_pair()
    z = PolyVectorField.single(pair.group, 0, (0, 0, 1), (), 1)
    assert poisson_differential(pair, z).is_zero()
