"""Truncated Poisson cohomology of crossed-product structures.

Cochains live in the labeled representative spaces (restricted coefficients
tensor tangent wedges tensor the full normal wedge, summed over group
labels, then group-averaged).  The differential brackets a cochain with the
structure field and projects back.  Everything is assembled degree by
degree as exact matrices over Q(zeta_M), so kernels, images, and quotient
dimensions are exact at any polynomial degree cap.

The cap bookkeeping: the structure fields in scope have linear or constant
coefficients, so the differential never raises polynomial degree and lowers
it by at most one.  To report cohomology through degree d it is enough to
assemble every space through degree d + 1.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import Cyclotomic
from .linalg import Span
from .polyvec import (
    PolyVectorField,
    average,
    is_poisson,
    poisson_differential,
    pr,
)


class UnsupportedDegreeError(ValueError):
    """Raised for cochain degrees the truncated assembly does not cover."""


def _monomials(m, cap):
    """Exponent tuples in m variables of total degree <= cap, ordered."""
    out = []

    def rec(prefix, left):
        if len(prefix) == m - 1:
            for t in range(left + 1):
                out.append(tuple(prefix) + (t,))
            return
        for t in range(left + 1):
            rec(prefix + [t], left - t)

    if m == 0:
        return [()]
    rec([], cap)
    out.sort(key=lambda e: (sum(e), e))
    return out


def _vectorize(field):
    return dict(field.terms)


class TruncatedComplex:
    """Exact matrices of the structure differential through cochain degree 3.

    bases[j] lists the representative fields spanning the degree-j cochain
    space through the polynomial cap; matrices[j] holds the differential
    C^j -> C^{j+1} column by column as {row: coeff} dictionaries.  Building
    the complex asserts that consecutive matrices compose to zero.
    """

    def __init__(self, pair, poly_cap):
        report = is_poisson(pair)
        if not report.ok:
            raise ValueError("structure pair is not Poisson on the representative space")
        self.pair = pair
        self.group = pair.group
        self.poly_cap = poly_cap
        self.bases = []
        self.degrees = []
        self._spans = []
        for j in range(4):
            fields, degs, span = self._representative_basis(j)
            self.bases.append(fields)
            self.degrees.append(degs)
            self._spans.append(span)
        self.matrices = [self._matrix(j) for j in range(3)]
        for j in (0, 1):
            self._assert_square_zero(j)

    def _representative_basis(self, j):
        group = self.group
        m = group.dim
        fields, degs = [], []
        span = Span()
        for gi in range(group.order):
            for wedge in combinations(range(m), j):
                for expo in _monomials(m, self.poly_cap):
                    raw = PolyVectorField.single(group, gi, expo, wedge, 1)
                    image = pr(average(raw))
                    if image.is_zero():
                        continue
                    if span.insert(_vectorize(image), meta=len(fields)):
                        fields.append(image)
                        degs.append(sum(expo))
        return fields, degs, span

    def _matrix(self, j):
        target = self._spans[j + 1]
        cols = []
        for field in self.bases[j]:
            img = poisson_differential(self.pair, field)
            if img.is_zero():
                cols.append({})
                continue
            combo = target.coordinates(_vectorize(img))
            if combo is None:
                raise RuntimeError("differential left the assembled space")
            col = {}
            for meta, c in combo:
                col[meta] = col[meta] + c if meta in col else c
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def _assert_square_zero(self, j):
        first, second = self.matrices[j], self.matrices[j + 1]
        for col in first:
            acc = {}
            for row, c in col.items():
                for row2, c2 in second[row].items():
                    s = acc.get(row2)
                    s = c * c2 if s is None else s + c * c2
                    if s:
                        acc[row2] = s
                    elif row2 in acc:
                        del acc[row2]
            if acc:
                raise RuntimeError("the assembled differential does not square to zero")

    def _field_from_source(self, j, combo):
        out = PolyVectorField.zero(self.group)
        for idx, c in combo:
            out = out + self.bases[j][idx].scale(c)
        return out

    def cohomology(self, k, d):
        """Kernel, image, and quotient data for cochain degree k through cap d."""
        if not 0 <= k <= 2:
            raise UnsupportedDegreeError("cochain degree must be 0, 1, or 2")
        if d > self.poly_cap - 1:
            raise ValueError("cap exceeds the assembled window")
        # cocycles among sources of degree <= d
        kernel_fields = []
        mat = self.matrices[k]
        span = Span()
        for idx, field in enumerate(self.bases[k]):
            if self.degrees[k][idx] > d:
                continue
            col = {("img", r): c for r, c in mat[idx].items()}
            col[("src", idx)] = _one(self.group)
            span.insert(col)
        for residue in span.rows():
            if any(tag == "img" for tag, _ in residue):
                continue
            combo = [(idx, c) for (_tag, idx), c in residue.items()]
            kernel_fields.append(self._field_from_source(k, combo))
        # boundaries landing in degree <= d, from sources one degree higher
        image_fields = []
        if k > 0:
            high = Span()
            for idx, field in enumerate(self.bases[k - 1]):
                img = poisson_differential(self.pair, field)
                if img.is_zero():
                    continue
                col = {}
                for key, c in _vectorize(img).items():
                    tag = "hi" if sum(key[1]) > d else "lo"
                    col[(tag, key)] = c
                col[("src", idx)] = _one(self.group)
                high.insert(col)
            for residue in high.rows():
                if any(tag == "hi" for tag, _ in residue):
                    continue
                vec = {key: c for (tag, key), c in residue.items() if tag == "lo"}
                if vec:
                    image_fields.append(PolyVectorField(self.group, vec))
        # quotient representatives: cocycles independent modulo the boundaries
        mod = Span()
        for field in image_fields:
            mod.insert(_vectorize(field))
        representatives = []
        for field in kernel_fields:
            if mod.insert(_vectorize(field)):
                representatives.append(field)
        return CohomologyReport(
            degree=k,
            poly_cap=d,
            kernel_basis=kernel_fields,
            image_basis=image_fields,
            representatives=representatives,
        )


def _one(group):
    return Cyclotomic.one(group.M)


def _label_dims(fields):
    out = {}
    labels = sorted({gi for f in fields for gi in f.labels()})
    for gi in labels:
        span = Span()
        for f in fields:
            span.insert(_vectorize(f.restrict_label(gi)))
        out[gi] = span.size
    return out


class CohomologyReport:
    """Exact bases for cocycles, boundaries, and the quotient at one degree."""

    __slots__ = ("degree", "poly_cap", "kernel_basis", "image_basis", "representatives")

    def __init__(self, degree, poly_cap, kernel_basis, image_basis, representatives):
        self.degree = degree
        self.poly_cap = poly_cap
        self.kernel_basis = kernel_basis
        self.image_basis = image_basis
        self.representatives = representatives

    @property
    def dim_kernel(self):
        return len(self.kernel_basis)

    @property
    def dim_image(self):
        return len(self.image_basis)

    @property
    def dimension(self):
        return len(self.representatives)

    def kernel_label_dims(self):
        return _label_dims(self.kernel_basis)

    def image_label_dims(self):
        return _label_dims(self.image_basis)

    def __repr__(self):
        return (
            f"CohomologyReport(degree={self.degree}, cap={self.poly_cap}, "
            f"dim={self.dimension} = {self.dim_kernel} - {self.dim_image})"
        )


def h_truncated(pair, k, d):
    """Cohomology of the structure differential at cochain degree k, cap d."""
    if not 0 <= k <= 2:
        raise UnsupportedDegreeError("cochain degree must be 0, 1, or 2")
    return TruncatedComplex(pair, d + 1).cohomology(k, d)


def compare_h0(pair, d):
    """Dimensions of degree-0 cohomology for the pair and for its identity part.

    For abelian groups the two agree; the comparison is computed, not
    assumed.
    """
    full = h_truncated(pair, 0, d).dimension
    restricted = type(pair)(
        pair.group,
        pi=pair.pi.restrict_label(0),
        b=pair.b.restrict_label(0),
        w_pi=pair.w_pi,
        w_b=pair.w_b,
        reality_swap=pair.reality_swap,
    )
    identity_only = h_truncated(restricted, 0, d).dimension
    return full, identity_only
