"""Truncated Poisson cohomology of crossed-product structures.

Cochains live in the labeled representative spaces (restricted coefficients
tensor tangent wedges tensor the full normal wedge, summed over group
labels), and are invariant: polyvec.invariant_basis builds each space from
the projected monomial fields at the class representatives.  The
differential brackets a cochain with the structure field and projects back.
Kernels, images, and quotients come from exact sparse elimination over
Q(zeta_M), at any polynomial degree cap.

The cap bookkeeping: the structure fields in scope have linear or constant
coefficients, so the differential never raises polynomial degree and lowers
it by at most one.  To report cohomology through degree d it is enough to
assemble every space through degree d + 1.

The degree bookkeeping: the cocycles of degree k are the linear relations
among the images of C^k's sources, which no choice of coordinates on C^{k+1}
changes, so C^{k+1} is never built.  h_truncated builds C^{k-1} and C^k
alone, the boundaries being the images of C^{k-1}.  The relation d o d = 0 is
asserted on the composite C^{k-1} -> C^k -> C^{k+1} through C^k's span of
components at the representatives, and at k = 0 by applying the differential
once more to each image of C^0.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, combinations_with_replacement

from .scalars import Cyclotomic
from .linalg import Span, add_into
from .polyvec import (
    PolyVectorField,
    invariant_basis,
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
    """Exponent tuples in m variables of total degree <= cap, by degree and
    then lexicographically."""
    # sorted index multisets, never the (cap+1)^m box; within a degree they
    # come in descending lex order of their exponents, hence the reversal
    out = []
    for deg in range(cap + 1):
        block = []
        for idx in combinations_with_replacement(range(m), deg):
            expo = [0] * m
            for i in idx:
                expo[i] += 1
            block.append(tuple(expo))
        out += reversed(block)
    return out


_NOT_SQUARE_ZERO = "the assembled differential does not square to zero"


def _combine(group, fields, combo):
    """The field sum of c * fields[idx] over the (idx, c) pairs of combo."""
    terms = {}
    for idx, c in combo:
        for key, v in fields[idx].terms.items():
            add_into(terms, key, v * c)
    return PolyVectorField(group, terms)


class TruncatedComplex:
    """The two cochain spaces H^k reads at cap d, with the differential of
    each of their fields.

    bases lists the representative fields of C^{k-1} (when k > 0) and then
    those of C^k, both through the polynomial cap d + 1, at which C^k holds
    every image of C^{k-1}; degrees and images run alongside, giving each
    field's polynomial degree and its differential.

    Building the complex asserts d o d = 0 on the composite H^k reads: for
    k > 0 each image of C^{k-1} is written over C^k's span by its components
    at the representatives, the same combination of C^k's fields must
    rebuild the whole image, which a non-invariant image cannot, and that
    combination of C^k's images must vanish; for k = 0 the differential is
    applied to each image of C^0.
    """

    def __init__(self, pair, k, d):
        if not 0 <= k <= 2:
            raise UnsupportedDegreeError("cochain degree must be 0, 1, or 2")
        report = is_poisson(pair)
        if not report.ok:
            raise NotPoissonError(report)
        self.pair = pair
        self.group = pair.group
        self.k = k
        self.d = d
        self.poly_cap = d + 1
        self.monomials = _monomials(self.group.dim, self.poly_cap)
        self.bases, self.degrees, self.images = [], [], []
        for j in range(max(k - 1, 0), k + 1):
            _, fields, degs, span = invariant_basis(self.group, partial(self._seeds, j))
            self.bases.append(fields)
            self.degrees.append(degs)
            self.images.append([poisson_differential(pair, f) for f in fields])
        if k == 0:
            for img in self.images[0]:
                if not img.is_zero() and not poisson_differential(pair, img).is_zero():
                    raise RuntimeError(_NOT_SQUARE_ZERO)
            return
        # span is C^k's, the last one built
        reps = {cls[0] for cls in self.group.conjugacy_classes()}
        for img in self.images[0]:
            if img.is_zero():
                continue
            combo = span.coordinates({key: c for key, c in img.terms.items()
                                      if key[0] in reps})
            if combo is None or _combine(self.group, self.bases[1], combo) != img:
                raise RuntimeError("differential left the assembled space")
            if not _combine(self.group, self.images[1], combo).is_zero():
                raise RuntimeError(_NOT_SQUARE_ZERO)

    def _seeds(self, j, h):
        """(projected monomial field, its polynomial degree) at h, degree j."""
        group = self.group
        # a wedge shorter than the codimension holds no full normal wedge,
        # so pr kills every seed at this label
        if group.geometry(h).codim > j:
            return
        for wedge in combinations(range(group.dim), j):
            for expo in self.monomials:
                # pr commutes with the group action, so projecting the seed
                # first skips the sums of seeds pr kills
                yield pr(PolyVectorField.single(group, h, expo, wedge, 1)), sum(expo)

    def cohomology(self):
        """Kernel, image, and quotient data for cochain degree k through cap d."""
        k, d = self.k, self.d
        # cocycles among the C^k sources of degree <= d: the relations among
        # their images, read off a span of (image terms, source tag) rows
        span = Span()
        for idx, (img, deg) in enumerate(zip(self.images[-1], self.degrees[-1])):
            if deg > d:
                continue
            col = {("img", key): c for key, c in img.terms.items()}
            col[("src", idx)] = Cyclotomic.one(self.group.M)
            span.insert(col)
        kernel_fields = [_combine(self.group, self.bases[-1],
                                  [(idx, c) for (_, idx), c in residue.items()])
                         for residue in span.rows()
                         if all(tag == "src" for tag, _ in residue)]
        # boundaries landing in degree <= d, from sources one degree higher
        image_fields = []
        if k > 0:
            high = Span()
            for img in self.images[0]:
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
    return TruncatedComplex(pair, k, d).cohomology()
