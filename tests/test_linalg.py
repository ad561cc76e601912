import random

import pytest

from crossed_poisson.scalars import Cyclotomic, root_of_unity
from crossed_poisson import linalg


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


def test_solve_consistent_and_inconsistent():
    M = 4
    A = [[_r(M, 1), _r(M, 2)], [_r(M, 2), _r(M, 4)]]
    b_ok = [_r(M, 3), _r(M, 6)]
    x, bad, rank = linalg.solve(A, b_ok, M)
    assert not bad and rank == 1
    assert linalg.mat_vec(A, x) == b_ok
    b_bad = [_r(M, 3), _r(M, 7)]
    x, bad, rank = linalg.solve(A, b_bad, M)
    assert x is None and bad and rank == 1


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
            x, bad, rank = linalg.solve(A, b, M)
            assert rank == r
            aug_rank = linalg.rank([row + [bi] for row, bi in zip(A, b)])
            if x is not None:
                seen["consistent"] += 1
                assert not bad and aug_rank == r
                assert linalg.mat_vec(A, x) == b
            else:
                seen["inconsistent"] += 1
                assert aug_rank == r + 1
                # the zero reading of x violates exactly the reported rows
                assert bad == [i for i, bi in enumerate(b) if bi != zero]
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
            assert linalg.mat_eq(linalg.mat_mul(inv, A),
                                 linalg.identity_matrix(M, n))
            if n > 1:
                a = _random_scalar(rng, M)
                A[0] = [a * x for x in A[1]]
                with pytest.raises(ValueError):
                    linalg.mat_inv(A, M)
