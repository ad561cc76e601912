import random
from itertools import combinations, permutations

import pytest

from crossed_poisson import catalog
from crossed_poisson.groups import generate
from crossed_poisson.scalars import Cyclotomic, Q, root_of_unity
from crossed_poisson.polyvec import (
    LinearSubstitution,
    PolyVectorField,
    StructurePair,
    UnsupportedStructureError,
    BracketEngine,
    act,
    average,
    gen_bracket_b_pi,
    gen_bracket_pi_pi,
    is_invariant,
    is_poisson,
    koszul_differential,
    orbit_sum,
    poisson_differential,
    pr,
    p_mul,
    schouten,
    wedge_insert,
    wedge_sort,
    _det,
)

from conftest import gamma1_group, random_pvf, trivial_group, z2_group
from oracles import ReferenceBracket, conjugate_swap, is_real, p_scale, reference_bracket


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


def test_orbit_sum_is_the_sum_of_the_moved_fields():
    G = gamma1_group()
    rng = random.Random(17)
    for _ in range(4):
        X = random_pvf(G, rng, nterms=5)
        elements = rng.sample(range(G.order), rng.randint(0, G.order))
        want = PolyVectorField.zero(G)
        for g in elements:
            want = want + act(g, X)
        assert PolyVectorField(G, orbit_sum(X, elements)) == want
    assert average(X).scale(G.order) == PolyVectorField(G, orbit_sum(X, range(G.order)))


# -- the memoized substitutions against a plain loop -----------------------------

def _plain_transform(group, terms, poly_mat, wedge_mat, label_map):
    """x_i -> row i of poly_mat by repeated p_mul, e_i -> column i of
    wedge_mat by the determinant of each minor, with nothing kept."""
    m, M = group.dim, group.M
    units = [tuple(int(j == k) for k in range(m)) for j in range(m)]
    lin = [{units[j]: a for j, a in enumerate(row) if a} for row in poly_mat]
    out = PolyVectorField.zero(group)
    for (gi, expo, wedge), c in terms.items():
        poly = {(0,) * m: c}
        for i, p in enumerate(expo):
            for _ in range(p):
                poly = p_mul(poly, lin[i])
        for T in combinations(range(m), len(wedge)):
            d = _det([[wedge_mat[t][s] for s in wedge] for t in T], M)
            out = out + PolyVectorField(
                group, {(label_map(gi), e, T): pc * d for e, pc in poly.items()})
    return out


def _plain_act(g, X):
    G = X.group
    return _plain_transform(G, X.terms, G.matrix(g), G.matrix_inv(g),
                            lambda gi: G.conjugate_index(g, gi))


def _plain_average(X):
    G = X.group
    total = PolyVectorField.zero(G)
    for g in range(G.order):
        total = total + _plain_act(g, X)
    return total.scale(Cyclotomic.rational(G.M, Q(1, G.order)))


def _plain_pr(X):
    G = X.group
    m = G.dim
    out = PolyVectorField.zero(G)
    for gi in X.labels():
        geo = G.geometry(gi)
        s = m - geo.codim
        ad = _plain_transform(G, X.restrict_label(gi).terms, geo.basis,
                              geo.basis_inv, lambda g: g)
        keep = {(g, e, w): c for (g, e, w), c in ad.terms.items()
                if not any(e[s:]) and set(range(s, m)) <= set(w)}
        out = out + _plain_transform(G, keep, geo.basis_inv, geo.basis,
                                     lambda g: g)
    return out


def flip_group():
    return generate([[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], 4)


@pytest.mark.parametrize("make_group", [gamma1_group, z2_group, flip_group])
def test_memoized_transforms_match_plain_loop(make_group):
    G = make_group()
    rng = random.Random(G.order * 100 + G.dim)
    for _ in range(5):
        X = random_pvf(G, rng, nterms=5, max_deg=3)
        for g in range(G.order):
            assert act(g, X) == _plain_act(g, X)
        assert average(X) == _plain_average(X)
        assert pr(X) == _plain_pr(X)


def test_flip_adapted_basis_is_not_the_identity():
    # the reference test above needs pr to change coordinates at the flip
    G = flip_group()
    one, zero = Cyclotomic.one(4), Cyclotomic.zero(4)
    ident = [[one if r == c else zero for c in range(3)] for r in range(3)]
    assert [list(row) for row in G.geometry(1).basis] != ident


def test_memoized_images_are_not_shared_with_results():
    G = gamma1_group()
    rng = random.Random(3)
    X = random_pvf(G, rng, nterms=5, max_deg=3)
    for op in (lambda F: act(1, F), average, pr):
        first, expected = op(X), op(X)
        for key in list(first.terms):
            first.terms[key] = first.terms[key] + Cyclotomic.one(G.M)
        first.terms[(0, (0, 0, 0, 0), ())] = Cyclotomic.one(G.M)
        assert op(X) == expected
    assert act(1, X) == _plain_act(1, X)
    assert pr(X) == _plain_pr(X)


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


def _linear_2field(group, rng, nterms):
    """A random field of wedge degree 2 whose terms are linear."""
    terms = {}
    for (gi, e, w), c in random_pvf(group, rng, nterms=nterms, max_deg=0,
                                    wedge_deg=2).terms.items():
        e = list(e)
        e[rng.randrange(group.dim)] += 1
        terms[(gi, tuple(e), w)] = c
    return PolyVectorField(group, terms)


def test_trilinear_is_alternating():
    G = gamma1_group()
    rng = random.Random(31)
    pi = _linear_2field(G, rng, 5)
    ref = ReferenceBracket(pi)
    outer = ref.slots(pi)
    for (a, b, c) in ((0, 1, 2), (0, 2, 3), (1, 2, 3)):
        T = ref.trilinear(outer, a, b, c)
        T_swap = ref.trilinear(outer, b, a, c)
        T_cyc = ref.trilinear(outer, b, c, a)
        for label, poly in T.items():
            assert T_swap.get(label, {}) == p_scale(
                poly, Cyclotomic.rational(G.M, -1))
            assert T_cyc.get(label, {}) == poly
        assert set(T_swap) == set(T)


@pytest.mark.parametrize("make_group", [
    gamma1_group,
    lambda: catalog.gamma_n_family(2, 1).group,
    lambda: trivial_group(4),
    lambda: trivial_group(5),
], ids=["gamma1", "gamma2", "trivial4", "trivial5"])
def test_bracket_kernel_matches_slot_evaluation(make_group):
    G = make_group()
    rng = random.Random(7)
    for _ in range(50):
        pi = _linear_2field(G, rng, rng.randint(1, 8))
        outer = random_pvf(G, rng, nterms=rng.randint(1, 6), max_deg=3,
                           wedge_deg=2)
        eng = BracketEngine(pi)
        assert eng.bracket(pi) == reference_bracket(pi, pi)
        assert eng.bracket(outer) == reference_bracket(pi, outer)


def test_bracket_rejects_outer_terms_that_are_not_2fields():
    G = gamma1_group()
    eng = BracketEngine(_linear_2field(G, random.Random(3), 4))
    for wedge in ((1,), (0, 1, 2)):
        outer = PolyVectorField.single(G, 0, (1, 0, 0, 0), wedge, 1)
        with pytest.raises(UnsupportedStructureError):
            eng.bracket(outer)


def test_bracket_against_zero_field_vanishes():
    G = gamma1_group()
    rng = random.Random(5)
    eng = BracketEngine(PolyVectorField.zero(G))
    for _ in range(5):
        outer = random_pvf(G, rng, nterms=5, max_deg=3, wedge_deg=2)
        assert eng.bracket(outer).is_zero()


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


def test_cancelling_products_store_no_zero():
    M = 4
    one = Cyclotomic.one(M)
    x0_plus_x1 = {(1, 0): one, (0, 1): one}
    x0_minus_x1 = {(1, 0): one, (0, 1): -one}
    prod = p_mul(x0_plus_x1, x0_minus_x1)
    assert prod == {(2, 0): one, (0, 2): -one}
    # x0 -> x0 + x1 and x1 -> x0 - x1, so x0 x1 -> (x0 + x1)(x0 - x1)
    r = [[Cyclotomic.rational(M, a) for a in row] for row in ((1, 1), (1, -1))]
    w = [[Cyclotomic.rational(M, a) for a in row] for row in ((1, 0), (1, 1))]
    sub = LinearSubstitution(r, w)
    assert sub.monomial((1, 1)) == prod
    # column 1 of w is (0, 1): the minor on row 0 is zero and not kept
    assert sub.wedge((1,)) == {(1,): one}
    assert sub.wedge((0, 1)) == {(0, 1): one}
    for img in (prod, sub.monomial((2, 1)), sub.monomial((1, 2)), sub.wedge((0,))):
        assert all(v for v in img.values())


def test_wedge2_holds_the_minors_of_its_two_vectors():
    # u ^ v is the image of e_0 ^ e_1 under the matrix with columns u and v
    G = gamma1_group()
    M, m = G.M, G.dim
    rng = random.Random(19)
    ident = [list(row) for row in G.matrix(0)]

    def vector(density):
        return [Cyclotomic.rational(M, rng.randint(-2, 2)) * root_of_unity(M, rng.randrange(M))
                if rng.random() < density else Cyclotomic.zero(M) for _ in range(m)]

    for density in (1.0, 0.4) * 5:
        u, v = vector(density), vector(density)
        minors = LinearSubstitution(ident, [[a, b] for a, b in zip(u, v)]).wedge((0, 1))
        want = {(3, (0,) * m, T): d for T, d in minors.items()}
        assert PolyVectorField.wedge2(G, 3, u, v).terms == want
    row = G.matrix(1)[0]
    assert not PolyVectorField.wedge2(G, 0, row, row)


def _leibniz_minor(mat, rows, cols, M):
    total = Cyclotomic.zero(M)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        term = Cyclotomic.one(M)
        for r, c in zip(rows, perm):
            term = term * mat[r][cols[c]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


@pytest.mark.parametrize("kind", ["dense", "sparse", "monomial", "zero_column"])
def test_wedge_minors_skip_zero_rows_and_keep_the_order_of_all_row_sets(kind):
    # wedge draws its row sets T only from the rows with an entry in a column
    # of w; the images must equal the minors over every T, in the same order
    M, n = 4, 5
    rng = random.Random(kind)

    def entry(density):
        if rng.random() >= density:
            return Cyclotomic.zero(M)
        return Cyclotomic.rational(M, rng.choice((1, -1, 2, 3))) * root_of_unity(M, rng.randrange(M))

    if kind == "monomial":
        perm = rng.sample(range(n), n)
        mat = [[root_of_unity(M, rng.randrange(M)) if j == perm[i] else Cyclotomic.zero(M)
                for j in range(n)] for i in range(n)]
    else:
        density = 1.0 if kind == "dense" else 0.3
        mat = [[entry(density) for _ in range(n)] for _ in range(n)]
        if kind == "zero_column":
            for row in mat:
                row[2] = Cyclotomic.zero(M)
    sub = LinearSubstitution(mat, mat)
    for k in range(n + 1):
        for w in combinations(range(n), k):
            want = {}
            for T in combinations(range(n), k):
                d = _leibniz_minor(mat, T, w, M)
                if d:
                    want[T] = d
            assert list(sub.wedge(w).items()) == list(want.items())
