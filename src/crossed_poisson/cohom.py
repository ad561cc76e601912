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

The degree bookkeeping: H^k reads the cochain spaces of degrees k - 1, k and
k + 1 and the maps between them, so h_truncated builds the complex only up
to top = k + 1.  The relation d o d = 0 is asserted on every pair of built
maps, and for top = 1, where only one map exists, by applying the
differential once more to each of its images.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import Cyclotomic
from .linalg import Span, add_into
from .polyvec import (
    PolyVectorField,
    average,
    is_poisson,
    poisson_differential,
    pr,
)


class UnsupportedDegreeError(ValueError):
    """Raised for cochain degrees the truncated assembly does not cover."""


class NotPoissonError(ValueError):
    """The pair is not Poisson; report is the PoissonReport that says why."""

    def __init__(self, report):
        self.report = report
        super().__init__("structure pair is not Poisson on the representative space")


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


_NOT_SQUARE_ZERO = "the assembled differential does not square to zero"


class TruncatedComplex:
    """Exact matrices of the structure differential through cochain degree top.

    bases[j] lists the representative fields spanning the degree-j cochain
    space through the polynomial cap, for j = 0 .. top; matrices[j] holds the
    differential C^j -> C^{j+1} column by column as {row: coeff}
    dictionaries, for j = 0 .. top - 1.  The default top = 3 builds the whole
    complex; cohomology(k, d) needs top >= k + 1.

    Building the complex asserts d o d = 0: on matrices j and j + 1 for every
    j < top - 1, and for top = 1 by applying the differential to each
    nonzero image of bases[0], which needs no basis in degree 2.
    """

    def __init__(self, pair, poly_cap, top=3):
        if not 1 <= top <= 3:
            raise UnsupportedDegreeError("the complex is built through degree 1, 2, or 3")
        report = is_poisson(pair)
        if not report.ok:
            raise NotPoissonError(report)
        self.pair = pair
        self.group = pair.group
        self.poly_cap = poly_cap
        self.top = top
        self.bases = []
        self.degrees = []
        self._spans = []
        for j in range(top + 1):
            fields, degs, span = self._representative_basis(j)
            self.bases.append(fields)
            self.degrees.append(degs)
            self._spans.append(span)
        self._images = {}   # degree j: the differential of each field of bases[j]
        self.matrices = [self._matrix(j) for j in range(top)]
        for j in range(top - 1):
            self._assert_square_zero(j)
        if top == 1:
            for img in self._images[0]:
                if not img.is_zero() and not poisson_differential(pair, img).is_zero():
                    raise RuntimeError(_NOT_SQUARE_ZERO)

    def _representative_basis(self, j):
        group = self.group
        m = group.dim
        fields, degs = [], []
        span = Span()
        # seeds at the class representatives span every average: a seed at
        # another member averages to a combination of the averages of seeds
        # of its degrees at the representative, its class's smallest label
        for gi in (cls[0] for cls in group.conjugacy_classes()):
            # a wedge shorter than the codimension holds no full normal
            # wedge, so pr kills every seed at this label
            if group.geometry(gi).codim > j:
                continue
            for wedge in combinations(range(m), j):
                for expo in _monomials(m, self.poly_cap):
                    # pr commutes with the group action, so projecting the
                    # seed first skips the averaging of seeds pr kills
                    seed = pr(PolyVectorField.single(group, gi, expo, wedge, 1))
                    if seed.is_zero():
                        continue
                    image = average(seed)
                    if image.is_zero():
                        continue
                    # the stored row, not the image, is the basis field:
                    # span coordinates are taken over the stored rows
                    row = span.insert(image.terms, meta=len(fields))
                    if row is not None:
                        fields.append(image._like(row))
                        degs.append(sum(expo))
        return fields, degs, span

    def _matrix(self, j):
        target = self._spans[j + 1]
        images = self._images[j] = [poisson_differential(self.pair, field)
                                    for field in self.bases[j]]
        cols = []
        for img in images:
            if img.is_zero():
                cols.append({})
                continue
            combo = target.coordinates(img.terms)
            if combo is None:
                raise RuntimeError("differential left the assembled space")
            cols.append(dict(combo))   # one entry per meta, each nonzero
        return cols

    def _assert_square_zero(self, j):
        first, second = self.matrices[j], self.matrices[j + 1]
        for col in first:
            acc = {}
            for row, c in col.items():
                for row2, c2 in second[row].items():
                    add_into(acc, row2, c * c2)
            if acc:
                raise RuntimeError(_NOT_SQUARE_ZERO)

    def _field_from_source(self, j, combo):
        out = PolyVectorField.zero(self.group)
        for idx, c in combo:
            out = out + self.bases[j][idx].scale(c)
        return out

    def cohomology(self, k, d):
        """Kernel, image, and quotient data for cochain degree k through cap d."""
        if not 0 <= k <= 2:
            raise UnsupportedDegreeError("cochain degree must be 0, 1, or 2")
        if k + 1 > self.top:
            raise ValueError(f"degree {k} needs the complex through degree {k + 1}; "
                             f"it was built through degree {self.top}")
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
            col[("src", idx)] = Cyclotomic.one(self.group.M)
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
            for img in self._images[k - 1]:
                high.insert({("hi" if sum(key[1]) > d else "lo", key): c
                             for key, c in img.terms.items()})
            for residue in high.rows():
                if all(tag == "lo" for tag, _ in residue):
                    image_fields.append(PolyVectorField(
                        self.group, {key: c for (_, key), c in residue.items()}))
        # quotient representatives: cocycles independent modulo the boundaries
        mod = Span()
        for field in image_fields:
            mod.insert(field.terms)
        representatives = []
        for field in kernel_fields:
            if mod.insert(field.terms):
                representatives.append(field)
        return CohomologyReport(
            degree=k,
            poly_cap=d,
            kernel_basis=kernel_fields,
            image_basis=image_fields,
            representatives=representatives,
        )


def _label_dims(fields):
    out = {}
    labels = sorted({gi for f in fields for gi in f.labels()})
    for gi in labels:
        span = Span()
        for f in fields:
            span.insert(f.restrict_label(gi).terms)
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
    return TruncatedComplex(pair, d + 1, top=k + 1).cohomology(k, d)

