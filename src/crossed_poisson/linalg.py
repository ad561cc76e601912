"""Exact sparse linear algebra over a cyclotomic field.

A sparse vector is a dict {key: Cyclotomic} holding nonzero entries only;
keys are column indices for the matrices here and term keys for the cochain
spaces of cohom.  add_into is the one sparse sum that keeps this rule, for
Cyclotomic and HScalar values alike; the polynomial, field, normal-form and
star-product sums of the other modules go through it too, and Terms writes
their +, -, negation and scaling once.

Every elimination runs on one Span: each inserted vector is reduced against
the stored ones and, if anything is left, stored under its smallest key, its
pivot.  Pivots are therefore taken in column order, so the pivot columns of a
matrix are its first independent columns, and a solution read with the free
variables at zero is the one the reduced row echelon form gives.

A linear system is a list of sparse rows {column: value} with a sparse
right-hand side {row: value}; solve reads it as it is.  Dense matrices (lists
of lists) appear only in the small m x m helpers rank, kernel_basis, mat_inv
and mat_mul, whose callers hold group and basis matrices.
"""

from __future__ import annotations

from .scalars import Cyclotomic


def add_into(vec, key, v):
    """Add v at key of the sparse dict vec, deleting the key if the sum is zero.

    v may be any value with + and truthiness; a zero v at an absent key
    stores nothing.
    """
    s = vec.get(key)
    s = v if s is None else s + v
    if s:
        vec[key] = s
    elif key in vec:
        del vec[key]


class Terms:
    """A finite sum of terms: terms maps each key to a nonzero coefficient.

    Subclasses list their context (a group, an algebra, a cyclic order) in
    their own __slots__, validate outside input in their constructors, and
    supply two hooks: _check_same, which raises if another sum cannot meet
    this one, and _coeff, which reads a scalar as a coefficient.  Results
    are built by _like, which copies the context and trusts that the dict
    holds no zero value, as no dict that add_into built does.
    """

    __slots__ = ("terms",)

    def _like(self, terms):
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _check_same(self, other):
        """Raise if other cannot be summed with self; the base accepts any."""

    def _coeff(self, c):
        raise NotImplementedError

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_into(out, key, c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, c):
        """Multiply every coefficient by c; products of nonzero values over a
        field, or of nonzero hbar-polynomials over one, are nonzero."""
        c = self._coeff(c)
        if not c:
            return self._like({})
        return self._like({key: v * c for key, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)


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
        (meta, c) for each stored vector subtracted c times.  The leads only
        grow, so each stored vector appears in combo at most once.
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
            neg = -c
            for key, v in row.items():
                add_into(vec, key, v * neg)
            combo.append((meta, c))
        return vec, combo

    def insert(self, vec, meta=None):
        """Store what is left of vec after reduction and return it; None if
        vec lay in the span already."""
        residue, _ = self.reduce(vec)
        if not residue:
            return None
        lead = min(residue)
        self.pivots[lead] = (residue, meta, residue[lead].invert())
        return residue

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

    Each pivot's meta is (index of the row it came from, the combo that
    reduced the row), which names only rows stored before it.  rank counts the
    pivots in columns below ncols; a row may carry entries at ncols and past
    it (a right-hand side, an identity block), whose pivots are not counted.
    """
    span = Span()
    for i, row in enumerate(rows):
        residue, combo = span.reduce(row)
        if residue:
            lead = min(residue)
            span.pivots[lead] = (residue, (i, combo), residue[lead].invert())
    return span, sum(1 for c in span.pivots if c < ncols)


def _source_rows(meta, one):
    """A stored vector of _echelon as a sum {row index: coeff} of input rows.

    It is its row minus its combo of earlier stored vectors, so unfolding the
    latest pending row first has every term of a row in before it unfolds.
    """
    i, combo = meta
    y, pending, combos = {}, {i: one}, {i: combo}
    while pending:
        k = max(pending)
        a = pending.pop(k)
        y[k] = a
        for (j, combo_j), c in combos[k]:
            combos[j] = combo_j
            add_into(pending, j, -(a * c))
    return y


def _back_substitute(span, x, rhs):
    """Fill x, which holds the free columns' values (absent ones read as
    zero), with the pivot values solving the stored rows against the column
    rhs (None: homogeneous), last pivot first, as a stored row holds only
    columns past its pivot.  That unique solution is the one the reduced
    row echelon form gives."""
    for lead in sorted(span.pivots, reverse=True):
        row, _, inv = span.pivots[lead]
        v = row.get(rhs)
        for c, a in row.items():
            if c in x:
                t = -(a * x[c])
                v = t if v is None else v + t
        if v:
            x[lead] = v * inv
    return x


def rank(A):
    if not A:
        return 0
    return _echelon([_sparse(r) for r in A], len(A[0]))[1]


def mat_inv(A, M):
    """Exact inverse of a square matrix; raises ValueError if singular."""
    n = len(A)
    one, zero = Cyclotomic.one(M), Cyclotomic.zero(M)
    aug = [{**_sparse(row), n + i: one} for i, row in enumerate(A)]
    span, r = _echelon(aug, n)
    if r != n:
        raise ValueError("singular matrix")
    # column j of the inverse solves A x = e_j, the identity block's column
    cols = [_back_substitute(span, {}, n + j) for j in range(n)]
    return [[cols[j].get(i, zero) for j in range(n)] for i in range(n)]


def kernel_basis(A, ncols, M):
    """Basis of the right kernel of A (rows may be empty; ncols required).

    One vector per free column f, with 1 at f and 0 at the other free columns.
    """
    zero, one = Cyclotomic.zero(M), Cyclotomic.one(M)
    span = _echelon([_sparse(r) for r in A], ncols)[0] if A else Span()
    basis = []
    for f in range(ncols):
        if f not in span.pivots:
            x = _back_substitute(span, {f: one}, None)
            basis.append([x.get(c, zero) for c in range(ncols)])
    return basis


def solve(rows, rhs, ncols):
    """Solve rows x = rhs with one elimination; returns (x, y, rank).

    rows are sparse rows {column: value} over columns below ncols, rhs is
    {row index: nonzero value}, and rank is the rank of the rows.  On a
    consistent system x is {column: value}, the solution with every free
    variable at zero, and y is None.  On an inconsistent one x is None and y
    is a witness {row index: coeff} with y^T rows = 0 and y^T rhs != 0 (one
    exists by the Fredholm alternative): the rows whose combination the
    elimination reduced to a pivot in the right-hand column.
    """
    aug = [{**row, ncols: rhs[i]} if i in rhs else row
           for i, row in enumerate(rows)]
    span, r = _echelon(aug, ncols)
    hit = span.pivots.get(ncols)
    if hit is not None:
        _, meta, inv = hit
        return None, _source_rows(meta, Cyclotomic.one(inv.M)), r
    return _back_substitute(span, {}, ncols), None, r
