import random

from crossed_poisson import catalog
from crossed_poisson.scalars import Cyclotomic, root_of_unity
from crossed_poisson.groups import generate
from crossed_poisson.polyvec import PolyVectorField


def trivial_group(m=3, M=4):
    ident = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    return generate([ident], M)


def z2_group(M=4):
    return generate([[[-1, 0], [0, -1]]], M)


def gamma1_group():
    M = 12
    r = root_of_unity(M, 4)
    rb = root_of_unity(M, 8)
    z = Cyclotomic.zero(M)
    o = Cyclotomic.one(M)
    alpha = [[r, z, z, z], [z, rb, z, z], [z, z, rb, z], [z, z, z, r]]
    beta = [[z, o, z, z], [o, z, z, z], [z, z, z, o], [z, z, o, z]]
    return generate([alpha, beta], M)


# non-monomial groups, whose averaged hermitian form is not the identity, so the
# normal space of an element need not be the euclidean complement of its fixed
# space

def s3_on_a2_roots():
    """S3 in the basis of the A2 roots."""
    return generate([[[0, 1], [1, 0]], [[0, -1], [1, -1]]], 1)


def shear_reflection_group():
    return generate([[[1, 1], [0, -1]]], 1)


def order6_rotation_group():
    return generate([[[0, -1], [1, 1]]], 6)


def _doubled_permutations(n, signed):
    def doubled(images):
        # images[i] = (j, sign): coordinate i is sent to sign * coordinate j
        out = [[0] * (2 * n) for _ in range(2 * n)]
        for i, (j, sign) in enumerate(images):
            out[i][j] = out[n + i][n + j] = sign
        return out

    gens = [doubled([(1, 1), (0, 1)] + [(i, 1) for i in range(2, n)]),
            doubled([((i + 1) % n, 1) for i in range(n)])]
    if signed:
        gens.append(doubled([(0, -1)] + [(i, 1) for i in range(1, n)]))
    return gens


def permutation_group_on_doubled_space(n, signed):
    """S_n, or with signed=True the signed permutations B_n, acting on
    C^n + C^n by one matrix on both summands.  These matrices are
    orthogonal, so the second summand is the dual of the first."""
    return generate(_doubled_permutations(n, signed), 1)


def doubled_form(n):
    """The standard symplectic form pairing C^n with the second summand."""
    m = 2 * n
    return [[int(j == i + n) - int(i == j + n) for j in range(m)] for i in range(m)]


def conjugated_s3_pair():
    """The symplectic reflection pair of S3 on C^3 + C^3, c = 1, with each
    generator g replaced by P g P^-1 and the form by P^-T Omega P^-1, for a
    unimodular integer P: a non-abelian group of matrices that are not
    monomial, so classes have several members and the action mixes
    monomials."""
    def mul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]

    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    # with this P the engine's basis fields list their terms in the order of
    # every-label seeding; with its transpose they are the same fields, but
    # five of C^2's at cap 2 list their terms at non-representative labels
    # in another order, which the ordered basis comparison would refuse
    N = [[0] * 6 for _ in range(6)]
    N[1][0] = N[5][3] = N[0][2] = 1
    P = [[a + b for a, b in zip(r, s)] for r, s in zip(ident, N)]
    # N^3 = 0, so P^-1 = 1 - N + N^2
    Pinv = [[a - b + c for a, b, c in zip(r, s, t)]
            for r, s, t in zip(ident, N, mul(N, N))]
    assert mul(P, Pinv) == ident
    G = generate([mul(mul(P, g), Pinv) for g in _doubled_permutations(3, False)], 1)
    PinvT = [list(col) for col in zip(*Pinv)]
    omega = mul(mul(PinvT, doubled_form(3)), Pinv)
    return catalog.symplectic_reflection(G, omega, 1).structure


def random_pvf(group, rng, nterms=4, max_deg=2, wedge_deg=None):
    m, M = group.dim, group.M
    terms = {}
    for _ in range(nterms):
        gi = rng.randrange(group.order)
        expo = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            expo[rng.randrange(m)] += 1
        k = wedge_deg if wedge_deg is not None else rng.randint(0, m)
        if k > m:
            k = m
        wedge = tuple(sorted(rng.sample(range(m), k)))
        c = Cyclotomic(M, [rng.randint(-3, 3) for _ in range(2)])
        if c:
            key = (gi, tuple(expo), wedge)
            terms[key] = terms.get(key, Cyclotomic.zero(M)) + c
    return PolyVectorField(group, terms)


def sl2_order3_pair():
    """sl2 with an order-3 automorphism of its adjoint action that is no
    monomial matrix, so group averaging mixes monomials."""
    G = generate([[[0, -1, 0], [-1, 1, 1], [0, -2, -1]]], 1, max_order=3)
    return catalog.lie_poisson_family(
        G, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}, 1).structure
