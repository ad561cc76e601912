"""Exact sparse linear algebra over a cyclotomic field.

A sparse vector is a dict {key: Cyclotomic} holding nonzero entries only;
keys are column indices for the matrices here and term keys for the cochain
spaces of cohom.  Every elimination runs on one Span: each inserted vector is
reduced against the stored ones and, if anything is left, stored under its
smallest key, its pivot.  Pivots are therefore taken in column order, so the
pivot columns of a matrix are its first independent columns, and a solution
read with the free variables at zero is the one the reduced row echelon form
gives.  Dense matrices (lists of lists) are accepted at the public entry
points and converted row by row.
"""

from __future__ import annotations

from .scalars import Cyclotomic


def identity_matrix(M, n):
    one = Cyclotomic.one(M)
    zero = Cyclotomic.zero(M)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return []
    zero = Cyclotomic.zero(A[0][0].M)
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            s = zero
            for t in range(k):
                a = Ai[t]
                if a:
                    s = s + a * B[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(A, v):
    zero = Cyclotomic.zero(v[0].M) if v else None
    out = []
    for row in A:
        s = zero
        for a, x in zip(row, v):
            if a and x:
                s = s + a * x
        out.append(s)
    return out


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


class Span:
    """A growing echelon span of sparse vectors.

    pivots maps each pivot key to (vector, meta, inverse of the vector's entry
    at the pivot); the vector's other keys are all larger than its pivot.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def size(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Clear the pivot keys off vec, smallest first; returns (residue, combo).

        The residue is empty or leads at a key that is no pivot; combo lists
        (meta, c) for each stored vector subtracted c times.
        """
        vec = dict(vec)
        combo = []
        pivots = self.pivots
        while vec:
            lead = min(vec)
            hit = pivots.get(lead)
            if hit is None:
                break
            row, meta, inv = hit
            c = vec[lead] * inv
            for key, v in row.items():
                s = vec.get(key)
                s = -v * c if s is None else s - v * c
                if s:
                    vec[key] = s
                elif key in vec:
                    del vec[key]
            combo.append((meta, c))
        return vec, combo

    def insert(self, vec, meta=None):
        """Returns True if vec enlarged the span."""
        residue, _ = self.reduce(vec)
        if not residue:
            return False
        lead = min(residue)
        self.pivots[lead] = (residue, meta, residue[lead].invert())
        return True

    def coordinates(self, vec):
        """Express vec over the inserted metas; None if outside the span."""
        residue, combo = self.reduce(vec)
        if residue:
            return None
        return combo

    def rows(self):
        """The stored vectors in pivot order."""
        return [self.pivots[lead][0] for lead in sorted(self.pivots)]


def _sparse(row):
    return {j: a for j, a in enumerate(row) if a}


def _echelon(rows, ncols):
    """Eliminate a list of sparse rows; returns (span, rank).

    Each pivot's meta is the index of the row it came from.  rank counts the
    pivots in columns below ncols; a row may carry entries at ncols and past
    it (a right-hand side, an identity block), whose pivots are not counted.
    """
    span = Span()
    for i, row in enumerate(rows):
        span.insert(row, i)
    return span, sum(1 for c in span.pivots if c < ncols)


def _reduced(span):
    """The reduced echelon rows {pivot: row}: 1 at the pivot, 0 at the others."""
    out = {}
    for lead in sorted(span.pivots, reverse=True):
        row, _, inv = span.pivots[lead]
        row = {key: v * inv for key, v in row.items()}
        for c in [c for c in row if c != lead and c in out]:
            f = row[c]
            for key, v in out[c].items():
                s = row.get(key)
                s = -v * f if s is None else s - v * f
                if s:
                    row[key] = s
                elif key in row:
                    del row[key]
        out[lead] = row
    return out


def rank(A):
    if not A:
        return 0
    return _echelon([_sparse(r) for r in A], len(A[0]))[1]


def mat_inv(A, M):
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(A)
    one = Cyclotomic.one(M)
    zero = Cyclotomic.zero(M)
    aug = []
    for i, row in enumerate(A):
        r = _sparse(row)
        r[n + i] = one
        aug.append(r)
    span, r = _echelon(aug, n)
    if r != n:
        raise ValueError("singular matrix")
    R = _reduced(span)
    return [[R[i].get(n + j, zero) for j in range(n)] for i in range(n)]


def kernel_basis(A, ncols, M):
    """Basis of the right kernel of A (rows may be empty; ncols required).

    One vector per free column f, with 1 at f and 0 at the other free columns.
    """
    zero = Cyclotomic.zero(M)
    one = Cyclotomic.one(M)
    R = _reduced(_echelon([_sparse(r) for r in A], ncols)[0]) if A else {}
    basis = []
    for f in range(ncols):
        if f in R:
            continue
        v = [zero] * ncols
        v[f] = one
        for c, row in R.items():
            a = row.get(f)
            if a:
                v[c] = -a
        basis.append(v)
    return basis


def solve(A, b, M):
    """Solve A x = b exactly with one elimination; returns (x, bad_rows, rank).

    rank is the rank of A.  On a consistent system x is the solution with
    every free variable at zero and bad_rows is empty.  On an inconsistent
    one x is None and bad_rows lists the rows with a nonzero right-hand side:
    the reduced echelon form of [A | b] has a pivot in the right-hand column
    and clears it from every other row, so its reading of x is zero, and
    these are the equations that reading violates.
    """
    if not A:
        return [], [], 0
    ncols = len(A[0])
    aug = []
    for row, bi in zip(A, b):
        r = _sparse(row)
        if bi:
            r[ncols] = bi
        aug.append(r)
    span, r = _echelon(aug, ncols)
    if r < span.size:
        return None, [i for i, bi in enumerate(b) if bi], r
    zero = Cyclotomic.zero(M)
    x = [zero] * ncols
    for lead in sorted(span.pivots, reverse=True):
        row, _, inv = span.pivots[lead]
        s = row.get(ncols, zero)
        for c, a in row.items():
            if c != lead and c < ncols and x[c]:
                s = s - a * x[c]
        x[lead] = s * inv
    return x, [], r
