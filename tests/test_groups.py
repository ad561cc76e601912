import random

import pytest

from crossed_poisson.scalars import Cyclotomic, root_of_unity
from crossed_poisson import linalg
from crossed_poisson.groups import GroupOrderError, MatrixGroup, generate


def z2_group(M=4):
    return generate([[[-1, 0], [0, -1]]], M)


def gamma1_group():
    # order-6 group on (z1, z2, zbar1, zbar2): a diagonal rotation by a cube
    # root and a coordinate swap, conductor 12 so i is available too
    M = 12
    r = root_of_unity(M, 4)      # primitive cube root
    rb = root_of_unity(M, 8)
    z = Cyclotomic.zero(M)
    o = Cyclotomic.one(M)
    alpha = [[r, z, z, z], [z, rb, z, z], [z, z, rb, z], [z, z, z, r]]
    beta = [[z, o, z, z], [o, z, z, z], [z, z, z, o], [z, z, o, z]]
    return generate([alpha, beta], M)


def test_z2_basics():
    G = z2_group()
    assert G.order == 2
    assert G.codim_class_counts() == {0: 1, 2: 1}
    geo = G.geometry(1)
    assert geo.codim == 2
    assert geo.fixed == []
    assert len(geo.normal) == 2


def test_gamma1_structure():
    G = gamma1_group()
    assert G.order == 6
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert G.codim_class_counts() == {0: 1, 2: 1, 4: 1}
    for i in range(G.order):
        cls = next(c for c in G.conjugacy_classes() if i in c)
        assert len(cls) * len(G.centralizer(i)) == G.order


def test_gamma1_reflection_geometry():
    # the swap beta has fixed line z1 = z2 (and conjugates); its normal space
    # must contain the antisymmetric directions (1,-1,0,0) and (0,0,1,-1)
    G = gamma1_group()
    beta = G.gen_indices[1]
    geo = G.geometry(beta)
    assert geo.codim == 2
    M = G.M

    def in_span(vecs, v):
        A = [list(w) for w in vecs]
        return linalg.rank(A) == linalg.rank(A + [list(v)])

    one = Cyclotomic.one(M)
    zero = Cyclotomic.zero(M)
    assert in_span(geo.normal, [one, -one, zero, zero])
    assert in_span(geo.normal, [zero, zero, one, -one])
    assert in_span(geo.fixed, [one, one, zero, zero])


def test_mul_table_matches_matrix_products():
    # substitution matrices compose contravariantly, so the matrix of i*j
    # is mat(j) mat(i)
    G = gamma1_group()
    rng = random.Random(3)
    for _ in range(15):
        i = rng.randrange(G.order)
        j = rng.randrange(G.order)
        prod = linalg.mat_mul([list(r) for r in G.matrix(j)],
                              [list(r) for r in G.matrix(i)])
        prod = tuple(tuple(row) for row in prod)
        assert G.mul[i][j] == G.index[prod]
        assert G.mul[i][G.inv[i]] == 0


def test_words_round_trip():
    G = gamma1_group()
    for i in range(G.order):
        assert G.element_from_word(G.word_str(i)) == i
    assert G.element_from_word("e") == 0
    assert G.element_from_word("g0^-1") == G.inv[G.gen_indices[0]]


def test_averaged_form_is_identity_for_unitary_groups():
    G = gamma1_group()
    H = G.hermitian_form()
    ident = linalg.identity_matrix(G.M, G.dim)
    assert linalg.mat_eq(H, ident)


def test_order_bound_enforced():
    M = 12
    z = root_of_unity(M)
    zero = Cyclotomic.zero(M)
    with pytest.raises(GroupOrderError):
        generate([[[z, zero], [zero, z]]], M, max_order=5)


def test_non_invertible_generators_are_refused():
    with pytest.raises(ValueError, match="generator 1 is not invertible"):
        generate([[[-1, 0], [0, -1]], [[1, 2], [2, 4]]], 1)
    # the closure of the zero matrix is the monoid {I, 0}: 0 has no inverse
    ident = ((Cyclotomic.one(1), Cyclotomic.zero(1)),
             (Cyclotomic.zero(1), Cyclotomic.one(1)))
    zero = ((Cyclotomic.zero(1),) * 2,) * 2
    with pytest.raises(ValueError, match="no inverse"):
        MatrixGroup(1, 2, (ident, zero), [1], ((), (0,)), [[1], [1]])


def test_codim_is_a_class_function():
    G = gamma1_group()
    for cls in G.conjugacy_classes():
        codims = {G.codim(i) for i in cls}
        assert len(codims) == 1
