import random

import pytest

from conftest import random_pvf, z2_group
from crossed_poisson.scalars import Cyclotomic, HScalar, Q, root_of_unity
from crossed_poisson import catalog, linalg, pbw
from crossed_poisson.qmoyal import OrderMismatchError, QPoly
from oracles import (
    identity_matrix,
    mat_eq,
    reference_kernel_basis,
    reference_mat_inv,
)


def _r(M, a):
    return Cyclotomic.rational(M, a)


def test_rank_and_kernel_over_gaussian_rationals():
    M = 4
    i = root_of_unity(4)
    A = [
        [_r(M, 1), i, _r(M, 0)],
        [i, _r(M, -1), _r(M, 0)],  # = i * row0
        [_r(M, 0), _r(M, 0), _r(M, 2)],
    ]
    assert linalg.rank(A) == 2
    ker = linalg.kernel_basis(A, 3, M)
    assert len(ker) == 1
    v = ker[0]
    assert all(not x for x in linalg.mat_vec(A, v))


def _sparse_system(A, b):
    rows = [{j: a for j, a in enumerate(row) if a} for row in A]
    return rows, {i: bi for i, bi in enumerate(b) if bi}


def _dense(x, m, M):
    return [x.get(j, Cyclotomic.zero(M)) for j in range(m)]


def _witness_holds(y, A, b, M):
    """y^T A = 0 and y^T b != 0, on the dense A and b."""
    zero = Cyclotomic.zero(M)
    yA = [sum((y[i] * A[i][j] for i in y), zero) for j in range(len(A[0]))]
    return not any(yA) and bool(sum((y[i] * b[i] for i in y), zero))


def test_solve_consistent_and_inconsistent():
    M = 4
    A = [[_r(M, 1), _r(M, 2)], [_r(M, 2), _r(M, 4)]]
    b_ok = [_r(M, 3), _r(M, 6)]
    x, y, rank = linalg.solve(*_sparse_system(A, b_ok), 2)
    assert y is None and rank == 1
    assert x == {0: _r(M, 3)}
    assert linalg.mat_vec(A, _dense(x, 2, M)) == b_ok
    b_bad = [_r(M, 3), _r(M, 7)]
    x, y, rank = linalg.solve(*_sparse_system(A, b_bad), 2)
    assert x is None and rank == 1
    # 2 * row 0 - row 1 cancels A and leaves 6 - 7 on the right
    assert y == {0: _r(M, -2), 1: _r(M, 1)}
    assert _witness_holds(y, A, b_bad, M)


def _random_scalar(rng, M):
    d = len(Cyclotomic.zero(M).c)
    while True:
        c = Cyclotomic(M, [rng.randint(-3, 3) for _ in range(d)])
        if c:
            return c


def _sparse_matrix(rng, M, n, m, density=0.15):
    zero = Cyclotomic.zero(M)
    A = [[_random_scalar(rng, M) if rng.random() < density else zero
          for _ in range(m)] for _ in range(n)]
    if n > 2 and rng.random() < 0.5:
        # a dependent row, so that rank falls short of the row count
        i, j = rng.sample(range(n - 1), 2)
        a, b = _random_scalar(rng, M), _random_scalar(rng, M)
        A[-1] = [a * x + b * y for x, y in zip(A[i], A[j])]
    return A


def _invertible_matrix(rng, M, n):
    """A permuted product of sparse unit-lower and upper-triangular factors."""
    zero, one = Cyclotomic.zero(M), Cyclotomic.one(M)
    L = [[one if i == j else (_random_scalar(rng, M)
                              if j < i and rng.random() < 0.3 else zero)
          for j in range(n)] for i in range(n)]
    U = [[_random_scalar(rng, M) if i == j or (j > i and rng.random() < 0.3)
          else zero for j in range(n)] for i in range(n)]
    A = linalg.mat_mul(L, U)
    rng.shuffle(A)
    return A


def _sympy_rational(M, A):
    import sympy
    return sympy.Matrix([[sympy.Rational(str(a.rational_value())) for a in row]
                         for row in A])


def test_random_matrices_match_rank_nullity(seed=7):
    rng = random.Random(seed)
    seen = {"consistent": 0, "inconsistent": 0}
    for M in (1, 3, 4, 12):
        zero = Cyclotomic.zero(M)
        for _ in range(25):
            n, m = rng.randint(1, 12), rng.randint(1, 10)
            A = _sparse_matrix(rng, M, n, m)
            r = linalg.rank(A)
            ker = linalg.kernel_basis(A, m, M)
            assert r + len(ker) == m
            for v in ker:
                assert all(x.is_zero() for x in linalg.mat_vec(A, v))
            if rng.random() < 0.5:
                x0 = [_random_scalar(rng, M) if rng.random() < 0.5 else zero
                      for _ in range(m)]
                b = linalg.mat_vec(A, x0)
            else:
                b = [_random_scalar(rng, M) if rng.random() < 0.3 else zero
                     for _ in range(n)]
            x, y, rank = linalg.solve(*_sparse_system(A, b), m)
            assert rank == r
            aug_rank = linalg.rank([row + [bi] for row, bi in zip(A, b)])
            if x is not None:
                seen["consistent"] += 1
                assert y is None and aug_rank == r
                x = _dense(x, m, M)
                assert linalg.mat_vec(A, x) == b
            else:
                seen["inconsistent"] += 1
                assert aug_rank == r + 1
                # the witness combines the rows to 0 = nonzero
                assert _witness_holds(y, A, b, M)
            if M == 1:
                S = _sympy_rational(M, [row + [bi] for row, bi in zip(A, b)])
                R, pivots = S.rref()
                assert r == len([c for c in pivots if c < m])
                assert (x is None) == (m in pivots)
                if x is not None:
                    want = [0] * m
                    for k, c in enumerate(pivots):
                        want[c] = R[k, m]
                    assert [str(a.rational_value()) for a in x] == \
                        [str(w) for w in want]
                nulls = _sympy_rational(M, A).nullspace()
                assert [[str(a.rational_value()) for a in v] for v in ker] == \
                    [[str(w) for w in v] for v in nulls]
    assert seen["consistent"] > 10 and seen["inconsistent"] > 10


def test_mat_inv_inverts_and_refuses_singular(seed=11):
    rng = random.Random(seed)
    for M in (1, 3, 4, 12):
        for _ in range(6):
            n = rng.randint(1, 6)
            A = _invertible_matrix(rng, M, n)
            inv = linalg.mat_inv(A, M)
            assert mat_eq(linalg.mat_mul(inv, A), identity_matrix(M, n))
            if n > 1:
                a = _random_scalar(rng, M)
                A[0] = [a * x for x in A[1]]
                with pytest.raises(ValueError):
                    linalg.mat_inv(A, M)


def test_back_substitution_equals_the_reduced_echelon_form(seed=13):
    # kernel_basis and mat_inv read back-substituted solutions; each is the
    # unique one with its free columns fixed, so it equals the reduced
    # echelon reading entry for entry
    rng = random.Random(seed)
    for M in (1, 3, 4, 12):
        one, zero = Cyclotomic.one(M), Cyclotomic.zero(M)
        for _ in range(20):
            n, m = rng.randint(1, 10), rng.randint(1, 9)
            A = _sparse_matrix(rng, M, n, m, density=0.3)
            ker = linalg.kernel_basis(A, m, M)
            assert ker == reference_kernel_basis(A, m, M)
            pivots = linalg._echelon([linalg._sparse(r) for r in A], m)[0].pivots
            free = [f for f in range(m) if f not in pivots]
            assert len(ker) == len(free)
            for f, v in zip(free, ker):
                assert [v[g] for g in free] == [one if g == f else zero for g in free]
        for _ in range(6):
            A = _invertible_matrix(rng, M, rng.randint(1, 6))
            assert linalg.mat_inv(A, M) == reference_mat_inv(A, M)
    assert linalg.kernel_basis([], 2, 4) == reference_kernel_basis([], 2, 4)


# -- the sparse sum ------------------------------------------------------------

@pytest.mark.parametrize("value", [
    Cyclotomic(12, [1, -2, 0, 3]),
    HScalar(12, [Cyclotomic.rational(12, 2), Cyclotomic.zero(12), root_of_unity(12)]),
], ids=["cyclotomic", "hscalar"])
def test_add_into_keeps_nonzero_entries_only(value):
    vec = {}
    linalg.add_into(vec, "k", value)
    assert vec == {"k": value}
    linalg.add_into(vec, "k", value)
    assert vec == {"k": value + value}
    linalg.add_into(vec, "k", -(value + value))
    assert vec == {}
    linalg.add_into(vec, "k", value - value)
    assert vec == {}
    linalg.add_into(vec, "other", value)
    linalg.add_into(vec, "k", -value)
    assert vec == {"other": value, "k": -value}


def test_span_rows_hold_no_zero():
    M = 4
    one, i = Cyclotomic.one(M), root_of_unity(M)
    span = linalg.Span()
    assert span.insert({0: one, 1: i})
    # reducing against the first row cancels keys 0 and 1
    assert span.insert({0: one, 1: i, 2: one, 3: i})
    assert not span.insert({0: i, 1: -one, 2: i, 3: -one})
    rows = span.rows()
    assert rows == [{0: one, 1: i}, {2: one, 3: i}]
    assert all(v for row in rows for v in row.values())


# -- the term container and the scalar conversions -----------------------------

def _plain_sum(a, b, sign):
    out = {k: a.get(k, 0) + sign * b.get(k, 0) for k in set(a) | set(b)}
    return {k: v for k, v in out.items() if v}


def test_terms_containers_and_scalar_conversions():
    rng = random.Random(7)
    G = z2_group()
    alg = pbw.DeformedAlgebra(catalog.z2_constant(1).structure)
    h = HScalar.h_power(alg.M, 1)

    def nc(n):
        out = alg.zero()
        for _ in range(n):
            out = out + alg.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                     rng.randrange(2), h + rng.randint(-2, 2))
        return out

    h12 = HScalar.h_power(12, 1)

    def qp(n):
        return QPoly(3, {(rng.randint(0, 2), rng.randint(0, 2), rng.randrange(3)):
                         h12 + rng.randint(-2, 2) for _ in range(n)})

    makers = [lambda n: random_pvf(G, rng, nterms=n), nc, qp]
    for make in makers:
        for _ in range(5):
            x, w = make(6), make(2)
            y = w - x        # x + y cancels every term of x that w lacks
            assert (x + y).terms == _plain_sum(x.terms, y.terms, 1)
            assert (x - y).terms == _plain_sum(x.terms, y.terms, -1)
            assert x + y == w
            assert (x - x).terms == {} and not (x - x)
            assert x.scale(0).terms == {} and x.scale(0).is_zero()
            assert (-x).terms == _plain_sum({}, x.terms, -1)
            assert x.scale(2).terms == _plain_sum(x.terms, x.terms, 1)
    with pytest.raises(OrderMismatchError):
        QPoly.one(2) + QPoly.one(3)

    z4, z12 = root_of_unity(4), root_of_unity(12)
    for value, expect in ((3, Cyclotomic.rational(12, 3)),
                          (Q(1, 2), Cyclotomic.rational(12, Q(1, 2))),
                          (z12, z12), (z4, root_of_unity(12, 3))):
        assert Cyclotomic.of(12, value) == expect
        assert HScalar.of(12, value) == HScalar.const(expect)
    assert HScalar.of(12, h12) is h12
    with pytest.raises(ValueError, match="cannot embed"):
        Cyclotomic.of(4, z12)
    with pytest.raises(ValueError, match="cannot embed"):
        HScalar.of(4, z12)
    with pytest.raises(ValueError, match="conductor mismatch"):
        HScalar.of(12, HScalar.one(4))
