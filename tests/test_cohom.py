import itertools

import pytest

from conftest import sl2_order3_pair, z2_group
from crossed_poisson import catalog, linalg
from crossed_poisson.scalars import Cyclotomic, Q
from crossed_poisson.polyvec import (
    PolyVectorField,
    StructurePair,
    average,
    poisson_differential,
    pr,
)
from crossed_poisson.cohom import (
    CohomologyReport,
    TruncatedComplex,
    UnsupportedDegreeError,
    h_truncated,
)
from oracles import compare_h0, max_poly_degree


def z2_constant_pair():
    return catalog.z2_constant(1).structure


def r3_pair(variant):
    return catalog.z2_r3_linear(variant).structure


def reflection_pair():
    G = z2_group()
    return catalog.symplectic_reflection(G, [[0, 1], [-1, 0]], {1: 1}).structure


# -- independent dimension oracles -------------------------------------------

def parity_counts(nvars, cap, parity_vars):
    """Monomials of total degree <= cap split by the parity of the listed
    variables' partial degree; returns (even, odd)."""
    even = odd = 0
    for expo in itertools.product(range(cap + 1), repeat=nvars):
        if sum(expo) > cap:
            continue
        if sum(expo[i] for i in parity_vars) % 2 == 0:
            even += 1
        else:
            odd += 1
    return even, odd


def span_rank(fields):
    if not fields:
        return 0
    keys = sorted({k for f in fields for k in f.terms})
    M = fields[0].group.M
    zero = Cyclotomic.zero(M)
    rows = [[f.terms.get(k, zero) for k in keys] for f in fields]
    return linalg.rank(rows)


def oracle_dims(pair, k, d, cap):
    """Kernel and boundary dimensions by dense rank arithmetic only.

    dim ker = #(degree <= d sources) - rank of their images;
    dim (im  cap F_d) = rank(im) + rank(F_d) - rank(im + F_d).
    """
    cx = TruncatedComplex(pair, cap)
    low = [f for f, deg in zip(cx.bases[k], cx.degrees[k]) if deg <= d]
    images = [poisson_differential(pair, f) for f in low]
    images = [f for f in images if not f.is_zero()]
    dim_ker = len(low) - span_rank(images)
    if k == 0:
        return dim_ker, 0
    above = [poisson_differential(pair, f) for f in cx.bases[k - 1]]
    above = [f for f in above if not f.is_zero()]
    window = [f for f, deg in zip(cx.bases[k], cx.degrees[k]) if deg <= d]
    dim_im = span_rank(above) + span_rank(window) - span_rank(above + window)
    return dim_ker, dim_im


# -- representative spaces ----------------------------------------------------

def test_basis_sizes_sign_flip_plane():
    # group {1, -1} on the plane; invariance sorts monomials by parity and
    # the flip label only admits the full normal wedge over constants
    cap = 3
    cx = TruncatedComplex(z2_constant_pair(), cap)
    even, odd = parity_counts(2, cap, (0, 1))
    assert len(cx.bases[0]) == even
    assert len(cx.bases[1]) == 2 * odd
    assert len(cx.bases[2]) == even + 1
    assert len(cx.bases[3]) == 0


def test_basis_sizes_flip_of_two_coordinates_in_three():
    cap = 3
    cx = TruncatedComplex(r3_pair(1), cap)
    even, odd = parity_counts(3, cap, (0, 1))
    assert len(cx.bases[0]) == even
    assert len(cx.bases[1]) == 2 * odd + even
    assert len(cx.bases[2]) == even + 2 * odd + (cap + 1)
    assert len(cx.bases[3]) == even + (cap + 1)


def test_basis_fields_are_invariant_projected_and_homogeneous():
    cx = TruncatedComplex(r3_pair(2), 2)
    for j in range(4):
        for field, deg in zip(cx.bases[j], cx.degrees[j]):
            assert average(field) == field
            assert pr(field) == field
            assert max_poly_degree(field) == deg
            assert {sum(e) for _, e, _ in field.terms} == {deg}


def test_matrix_columns_reproduce_the_bracket():
    # the sl2 pair averages monomials together, so its spans reduce stored
    # rows against each other
    for pair in (z2_constant_pair(), sl2_order3_pair()):
        cx = TruncatedComplex(pair, 2)
        for j in range(3):
            for idx, src in enumerate(cx.bases[j]):
                direct = poisson_differential(pair, src)
                rebuilt = PolyVectorField.zero(pair.group)
                for row, c in cx.matrices[j][idx].items():
                    rebuilt = rebuilt + cx.bases[j + 1][row].scale(c)
                assert rebuilt == direct


def test_double_bracket_vanishes_directly():
    for pair in (r3_pair(2), reflection_pair()):
        cx = TruncatedComplex(pair, 2)
        for j in (0, 1):
            for field in cx.bases[j]:
                once = poisson_differential(pair, field)
                assert poisson_differential(pair, once).is_zero()


# -- sign flip on the plane with a constant structure -------------------------

def test_plane_flip_degree_zero_is_every_invariant():
    report = h_truncated(z2_constant_pair(), 0, 2)
    assert report.dimension == 4
    assert report.dim_image == 0
    expos = {e for f in report.representatives for _, e, _ in f.terms}
    assert expos == {(0, 0), (2, 0), (1, 1), (0, 2)}
    assert report.kernel_label_dims() == {0: 4}


def test_plane_flip_degree_one_cut_by_divergence_at_origin():
    pair = z2_constant_pair()
    cx = TruncatedComplex(pair, 3)
    sources = sum(1 for deg in cx.degrees[1] if deg <= 2)
    assert sources == 4
    report = cx.cohomology(1, 2)
    assert report.dimension == 3
    assert report.dim_image == 0
    for f in report.kernel_basis:
        div = Cyclotomic.zero(pair.group.M)
        for (gi, expo, wedge), c in f.terms.items():
            assert gi == 0
            if expo == tuple(1 if j == wedge[0] else 0 for j in range(2)):
                div = div + c
        assert not div


def test_plane_flip_degree_two_boundary_is_the_flip_wedge():
    report = h_truncated(z2_constant_pair(), 2, 2)
    assert report.dim_kernel == 5
    assert report.dim_image == 1
    assert report.dimension == 4
    assert report.kernel_label_dims() == {0: 4, 1: 1}
    assert report.image_label_dims() == {1: 1}
    (img,) = report.image_basis
    ((key, coeff),) = list(img.terms.items())
    assert key == (1, (0, 0), (0, 1))
    assert coeff


# -- linear structures on three-space -----------------------------------------

def test_first_variant_kernel_is_polynomials_in_the_fixed_coordinate():
    report = h_truncated(r3_pair(1), 0, 3)
    assert report.dimension == 4
    seen = set()
    for f in report.representatives:
        ((gi, expo, wedge),) = f.terms
        assert gi == 0 and wedge == ()
        assert expo[0] == expo[1] == 0
        seen.add(expo[2])
    assert seen == {0, 1, 2, 3}


def test_second_variant_kernel_is_powers_of_the_quadratic_invariant():
    pair = r3_pair(2)
    report = h_truncated(pair, 0, 4)
    assert report.dimension == 3
    G = pair.group
    w = (PolyVectorField.single(G, 0, (1, 1, 0), (), 1)
         + PolyVectorField.single(G, 0, (0, 0, 2), (), Cyclotomic.rational(G.M, Q(-1, 2))))
    # square the quadratic invariant term by term
    sq = PolyVectorField.zero(G)
    for (g1, e1, _), c1 in w.terms.items():
        for (g2, e2, _), c2 in w.terms.items():
            add = tuple(a + b for a, b in zip(e1, e2))
            sq = sq + PolyVectorField.single(G, 0, add, (), c1 * c2)
    powers = [PolyVectorField.single(G, 0, (0, 0, 0), (), 1), w, sq]
    assert span_rank(powers) == 3
    for rep in report.representatives:
        assert span_rank(powers + [rep]) == 3


def test_compare_h0_full_versus_identity_part():
    assert compare_h0(r3_pair(1), 4) == (5, 5)
    assert compare_h0(r3_pair(2), 4) == (3, 3)


# -- other structures ----------------------------------------------------------

def test_reflection_inverse_form_leaves_only_constants():
    pair = reflection_pair()
    for d in (2, 3):
        report = h_truncated(pair, 0, d)
        assert report.dimension == 1
        ((gi, expo, wedge),) = report.representatives[0].terms
        assert (gi, expo, wedge) == (0, (0, 0), ())


def test_zero_structure_has_full_kernel_and_no_boundaries():
    pair = StructurePair(z2_group())
    cx = TruncatedComplex(pair, 3)
    report = cx.cohomology(1, 2)
    assert report.dim_image == 0
    assert report.dimension == sum(1 for deg in cx.degrees[1] if deg <= 2)


# -- rank oracle ---------------------------------------------------------------

@pytest.mark.parametrize("make", [z2_constant_pair, lambda: r3_pair(2), reflection_pair])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dimensions_match_dense_rank_oracle(make, k):
    pair = make()
    d, cap = 2, 3
    want_ker, want_im = oracle_dims(pair, k, d, cap)
    report = TruncatedComplex(pair, cap).cohomology(k, d)
    assert report.dim_kernel == want_ker
    assert report.dim_image == want_im
    assert report.dimension == want_ker - want_im


# -- guards ---------------------------------------------------------------------

def test_degree_and_window_guards():
    pair = z2_constant_pair()
    with pytest.raises(UnsupportedDegreeError):
        h_truncated(pair, 3, 2)
    with pytest.raises(UnsupportedDegreeError):
        h_truncated(pair, -1, 2)
    cx = TruncatedComplex(pair, 2)
    with pytest.raises(ValueError):
        cx.cohomology(0, 2)


def test_non_poisson_pair_is_rejected():
    base = r3_pair(2)
    broken = base.pi.restrict_label(0) + PolyVectorField.single(
        base.group, 0, (0, 0, 1), (0, 2), 1)
    with pytest.raises(ValueError, match="not Poisson"):
        TruncatedComplex(StructurePair(base.group, pi=broken), 2)


def test_report_repr_shows_the_dimension_split():
    r = CohomologyReport(1, 2, [1, 2, 3], [1], [1, 2])
    assert "dim=2 = 3 - 1" in repr(r)
