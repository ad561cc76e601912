import pytest

from conftest import (
    order6_rotation_group,
    permutation_group_on_doubled_space,
    s3_on_a2_roots,
    shear_reflection_group,
)
from crossed_poisson.scalars import Cyclotomic, root_of_unity
from crossed_poisson import catalog, linalg
from crossed_poisson.groups import GroupOrderError, generate
from oracles import (
    averaged_hermitian_form,
    centralizer,
    codim_class_counts,
    gamma_minus_one,
    identity_matrix,
    mat_eq,
    reference_normal,
)


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
    assert codim_class_counts(G) == {0: 1, 2: 1}
    geo = G.geometry(1)
    assert geo.codim == 2
    # the fixed space is zero, so the projector onto it is too
    assert all(not a for row in geo.projector for a in row)
    assert len(geo.normal) == 2


def test_gamma1_structure():
    G = gamma1_group()
    assert G.order == 6
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert codim_class_counts(G) == {0: 1, 2: 1, 4: 1}
    for i in range(G.order):
        cls = next(c for c in G.conjugacy_classes() if i in c)
        assert len(cls) * len(centralizer(G, i)) == G.order


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
    # the projector onto the fixed space keeps the line z1 = z2, zbar1 =
    # zbar2 and kills the normal space
    def project(v):
        return [row[0] for row in linalg.mat_mul(geo.projector, [[a] for a in v])]

    assert project([one, one, zero, zero]) == [one, one, zero, zero]
    assert project([zero, zero, one, one]) == [zero, zero, one, one]
    for v in geo.normal:
        assert not any(project(v))


def test_mul_table_matches_matrix_products():
    # substitution matrices compose contravariantly, so the matrix of i*j
    # is mat(j) mat(i); every entry of mul and inv is pinned
    for G in (gamma1_group(), catalog.gamma_n_family(2, 1).group,
              permutation_group_on_doubled_space(3, False),
              permutation_group_on_doubled_space(3, True)):
        ident = identity_matrix(G.M, G.dim)
        mats = [[list(r) for r in G.matrix(i)] for i in range(G.order)]
        for i in range(G.order):
            for j in range(G.order):
                prod = tuple(map(tuple, linalg.mat_mul(mats[j], mats[i])))
                assert G.mul[i][j] == G.index[prod]
            assert mat_eq(linalg.mat_mul(mats[i], mats[G.inv[i]]), ident)


def test_words_round_trip():
    G = gamma1_group()
    for i in range(G.order):
        assert G.element_from_word(G.word_str(i)) == i
    assert G.element_from_word("e") == 0
    assert G.element_from_word("g0^-1") == G.inv[G.gen_indices[0]]
    # powers are taken modulo the group order, so a huge exponent is cheap
    assert G.element_from_word("g0^1000000000001") == G.element_from_word(
        f"g0^{1000000000001 % G.order}")


def _non_orthogonal_groups():
    """Groups whose averaged hermitian form is not the identity, so their
    normal spaces are not the euclidean complements of the fixed spaces."""
    def blocks(a, b):
        return [ra + [0, 0] for ra in a] + [[0, 0] + rb for rb in b]

    swap, turn = [[0, 1], [1, 0]], [[0, -1], [1, -1]]
    return [
        s3_on_a2_roots(),
        generate([blocks(swap, swap), blocks(turn, [[-1, 1], [-1, 0]])], 1),
        shear_reflection_group(),
        order6_rotation_group(),
    ]


def test_normal_space_is_the_image_of_gamma_minus_one():
    G = gamma1_group()
    assert mat_eq(averaged_hermitian_form(G), identity_matrix(G.M, G.dim))
    skewed = _non_orthogonal_groups()
    for G in skewed:
        assert not mat_eq(averaged_hermitian_form(G), identity_matrix(G.M, G.dim))
    groups = [permutation_group_on_doubled_space(n, signed)
              for n, signed in ((3, False), (4, False), (2, True), (3, True))]
    groups += [catalog.gamma_n_family(n, 1).group for n in (1, 2)]
    groups += [catalog.cyclic_qmoyal(n).group for n in (3, 6)]
    for G in groups + skewed:
        for i in range(G.order):
            normal = G.geometry(i).normal
            assert normal == reference_normal(G, i)
            columns = [list(col) for col in zip(*gamma_minus_one(G, i))]
            image_rank = linalg.rank(columns)
            for v in normal:
                assert linalg.rank(columns + [v]) == image_rank


def test_order_bound_enforced():
    M = 12
    z = root_of_unity(M)
    zero = Cyclotomic.zero(M)
    with pytest.raises(GroupOrderError):
        generate([[[z, zero], [zero, z]]], M, max_order=5)


def test_non_invertible_generators_are_refused():
    with pytest.raises(ValueError, match="generator 1 is not invertible"):
        generate([[[-1, 0], [0, -1]], [[1, 2], [2, 4]]], 1)
    # the closure of the zero matrix would be the monoid {I, 0}
    with pytest.raises(ValueError, match="generator 0 is not invertible"):
        generate([[[0, 0], [0, 0]]], 1)


def test_codim_is_a_class_function():
    G = gamma1_group()
    for cls in G.conjugacy_classes():
        codims = {G.codim(i) for i in cls}
        assert len(codims) == 1
