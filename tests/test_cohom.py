import itertools
import time

import pytest

from conftest import (
    conjugated_s3_pair,
    doubled_form,
    gamma1_group,
    permutation_group_on_doubled_space,
    sl2_order3_pair,
    z2_group,
)
from crossed_poisson import catalog, cohom, linalg
from crossed_poisson.groups import generate
from crossed_poisson.pbw import solve_b
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
    NotPoissonError,
    TruncatedComplex,
    UnsupportedDegreeError,
    h_truncated,
)
from oracles import (
    compare_h0,
    flat_constant_count,
    max_poly_degree,
    reference_cohomology,
    reference_representative_basis,
)


def z2_constant_pair():
    return catalog.z2_constant(1).structure


def r3_pair(variant):
    return catalog.z2_r3_linear(variant).structure


def reflection_pair():
    G = z2_group()
    return catalog.symplectic_reflection(G, [[0, 1], [-1, 0]], {1: 1}).structure


def signed_swap_pair():
    # {1, s, -1, -s} on C^2 + C^2*, s swapping the two coordinates of each
    # summand, generated by signed permutations as small_groups in
    # test_flatness_routes draws them; s and -s fix planes that are not
    # spanned by coordinate axes
    s = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    minus = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
    omega = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    G = generate([s, minus], 1)
    return catalog.symplectic_reflection(G, omega, 1).structure


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
    fields, degrees = reference_representative_basis(pair.group, cap, k)
    low = [f for f, deg in zip(fields, degrees) if deg <= d]
    images = [poisson_differential(pair, f) for f in low]
    images = [f for f in images if not f.is_zero()]
    dim_ker = len(low) - span_rank(images)
    if k == 0:
        return dim_ker, 0
    above = [poisson_differential(pair, f)
             for f in reference_representative_basis(pair.group, cap, k - 1)[0]]
    above = [f for f in above if not f.is_zero()]
    window = low
    dim_im = span_rank(above) + span_rank(window) - span_rank(above + window)
    return dim_ker, dim_im


# -- representative spaces ----------------------------------------------------

def engine_bases(pair, cap):
    """The engine's bases of C^0, C^1 and C^2 through cap, and their degrees."""
    low = TruncatedComplex(pair, 1, cap - 1)
    high = TruncatedComplex(pair, 2, cap - 1)
    return low.bases + high.bases[1:], low.degrees + high.degrees[1:]


def test_basis_sizes_sign_flip_plane():
    # group {1, -1} on the plane; invariance sorts monomials by parity and
    # the flip label only admits the full normal wedge over constants
    cap = 3
    pair = z2_constant_pair()
    bases, _ = engine_bases(pair, cap)
    even, odd = parity_counts(2, cap, (0, 1))
    assert len(bases[0]) == even
    assert len(bases[1]) == 2 * odd
    assert len(bases[2]) == even + 1
    assert len(reference_representative_basis(pair.group, cap, 3)[0]) == 0


def test_basis_sizes_flip_of_two_coordinates_in_three():
    cap = 3
    pair = r3_pair(1)
    bases, _ = engine_bases(pair, cap)
    even, odd = parity_counts(3, cap, (0, 1))
    assert len(bases[0]) == even
    assert len(bases[1]) == 2 * odd + even
    assert len(bases[2]) == even + 2 * odd + (cap + 1)
    assert len(reference_representative_basis(pair.group, cap, 3)[0]) == even + (cap + 1)


def test_basis_fields_are_invariant_projected_and_homogeneous():
    bases, degrees = engine_bases(r3_pair(2), 2)
    for j in range(3):
        for field, deg in zip(bases[j], degrees[j]):
            assert average(field) == field
            assert pr(field) == field
            assert max_poly_degree(field) == deg
            assert {sum(e) for _, e, _ in field.terms} == {deg}


def test_double_bracket_vanishes_directly():
    for pair in (r3_pair(2), reflection_pair()):
        bases, _ = engine_bases(pair, 2)
        for j in (0, 1):
            for field in bases[j]:
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
    cx = TruncatedComplex(pair, 1, 2)
    sources = sum(1 for deg in cx.degrees[-1] if deg <= 2)
    assert sources == 4
    report = cx.cohomology()
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
    cx = TruncatedComplex(pair, 1, 2)
    report = cx.cohomology()
    assert report.dim_image == 0
    assert report.dimension == sum(1 for deg in cx.degrees[-1] if deg <= 2)


@pytest.mark.parametrize("make, count", [
    (lambda: permutation_group_on_doubled_space(3, False), 3),
    (lambda: permutation_group_on_doubled_space(4, False), 3),
    (lambda: permutation_group_on_doubled_space(2, True), 3),
    (lambda: permutation_group_on_doubled_space(3, True), 3),
    (gamma1_group, 2),
], ids=["S3", "S4", "B2", "B3", "gamma_1"])
def test_flat_constant_count_three_ways(make, count):
    # The zero structure's differential vanishes, so H^2 at cap 0 is the
    # space of invariant constant 2-cochains: the wedge square at the
    # identity and the normal wedge at each codimension-2 label, where
    # solve_b seeks the flat corrections.  Both routes build their fields
    # with polyvec.invariant_basis; the literature count, from group data
    # alone, checks them from outside the engine.
    G = make()
    pair = StructurePair(G)
    assert h_truncated(pair, 2, 0).dimension == count
    assert solve_b(pair).free_parameters == count
    assert flat_constant_count(G) == count


# -- rank oracle ---------------------------------------------------------------

@pytest.mark.parametrize("make", [z2_constant_pair, lambda: r3_pair(2), reflection_pair])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dimensions_match_dense_rank_oracle(make, k):
    pair = make()
    d, cap = 2, 3
    want_ker, want_im = oracle_dims(pair, k, d, cap)
    report = TruncatedComplex(pair, k, d).cohomology()
    assert report.dim_kernel == want_ker
    assert report.dim_image == want_im
    assert report.dimension == want_ker - want_im


# -- the two cochain spaces H^k reads against the full complex -------------------

def _term_lists(fields):
    return [list(f.terms.items()) for f in fields]


def permutation_pair(n, signed):
    """The symplectic reflection pair of S_n or B_n on C^n + C^n*, c = 1."""
    G = permutation_group_on_doubled_space(n, signed)
    return catalog.symplectic_reflection(G, doubled_form(n), 1).structure


@pytest.mark.parametrize("make, d", [
    (z2_constant_pair, 2), (lambda: r3_pair(1), 2), (lambda: r3_pair(2), 2),
    (sl2_order3_pair, 2), (reflection_pair, 2), (signed_swap_pair, 2),
    (lambda: permutation_pair(3, False), 1), (lambda: permutation_pair(2, True), 1),
    (conjugated_s3_pair, 1),
], ids=["z2_constant", "r3_1", "r3_2", "sl2_order3", "reflection", "signed_swap",
        "S3", "B2", "S3_conjugated"])
def test_degree_limited_complex_equals_the_full_one(make, d):
    # the same fields in the same order; the order of the terms inside a
    # kernel field follows the elimination, which the two routes run on
    # different keys.  S3 and B2 are not abelian, and the conjugated S3 is
    # neither abelian nor monomial; cap 1 keeps their full complexes small
    pair = make()
    for k in (0, 1, 2):
        got = h_truncated(pair, k, d)
        want = reference_cohomology(pair, k, d)
        for name in ("kernel_basis", "image_basis", "representatives"):
            assert getattr(got, name) == getattr(want, name), (k, name)


@pytest.mark.parametrize("make", [
    z2_constant_pair, lambda: r3_pair(1), lambda: r3_pair(2), sl2_order3_pair,
    reflection_pair, signed_swap_pair, lambda: permutation_pair(3, False),
    lambda: permutation_pair(2, True), conjugated_s3_pair,
], ids=["z2_constant", "r3_1", "r3_2", "sl2_order3", "reflection", "signed_swap",
        "S3", "B2", "S3_conjugated"])
def test_basis_seeded_at_representatives_equals_every_label_seeding(make):
    # S3 and B2 are not abelian, so there the engine skips the seeds at every
    # label outside a class's smallest one and sums over a proper centraliser;
    # the conjugated S3 does so with matrices that mix monomials
    pair = make()
    cap = 2
    bases, degrees = engine_bases(pair, cap)
    for j in range(3):
        fields, want_degrees = reference_representative_basis(pair.group, cap, j)
        assert _term_lists(bases[j]) == _term_lists(fields), j
        assert degrees[j] == want_degrees, j


def test_conjugated_s3_has_the_dimensions_of_s3():
    # conjugating the group and the form by P is a change of coordinates,
    # which the kernel, boundary and cohomology dimensions do not see
    want = {0: (1, 0, 1), 1: (8, 8, 0), 2: (15, 14, 1)}
    for k in (0, 1, 2):
        for pair in (permutation_pair(3, False), conjugated_s3_pair()):
            report = h_truncated(pair, k, 1)
            assert (report.dim_kernel, report.dim_image, report.dimension) == want[k]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_skewed_differential_does_not_square_to_zero(monkeypatch, k):
    # every field holding a k-vector term also picks up itself, so the
    # composite d o d that H^k reads sends each nonzero image below C^k (each
    # C^0 field, at k = 0) to a multiple of itself
    pair = r3_pair(2)
    honest = cohom.poisson_differential

    def skewed(pair, X):
        out = honest(pair, X)
        if any(len(wedge) == k for _, _, wedge in X.terms):
            out = out + X
        return out

    monkeypatch.setattr(cohom, "poisson_differential", skewed)
    with pytest.raises(RuntimeError, match="does not square to zero"):
        TruncatedComplex(pair, k, 2)


def test_differential_leaving_the_assembled_space_is_refused(monkeypatch):
    # a function goes to a vector field of degree d + 2, past the cap of C^1
    pair = r3_pair(2)
    honest = cohom.poisson_differential

    def skewed(pair, X):
        if all(not wedge for _, _, wedge in X.terms):
            return PolyVectorField.single(pair.group, 0, (4, 0, 0), (0,), 1)
        return honest(pair, X)

    monkeypatch.setattr(cohom, "poisson_differential", skewed)
    with pytest.raises(RuntimeError, match="left the assembled space"):
        TruncatedComplex(pair, 1, 2)


def test_non_invariant_image_is_refused(monkeypatch):
    # each image of a vector field gains a constant normal 2-wedge at a
    # transposition other than its class's representative: inside the cap,
    # of the shape C^2 holds there, and invisible at the representatives,
    # whose components keep the honest coordinates; only rebuilding the
    # whole image from them refuses it
    pair = permutation_pair(3, False)
    G = pair.group
    cls = next(c for c in G.conjugacy_classes() if G.codim(c[0]) == 2)
    u, v = G.geometry(cls[1]).normal
    stray = PolyVectorField.wedge2(G, cls[1], u, v)
    honest = cohom.poisson_differential

    def skewed(pair, X):
        out = honest(pair, X)
        if any(len(wedge) == 1 for _, _, wedge in X.terms):
            out = out + stray
        return out

    monkeypatch.setattr(cohom, "poisson_differential", skewed)
    with pytest.raises(RuntimeError, match="left the assembled space"):
        TruncatedComplex(pair, 2, 1)


# -- guards ---------------------------------------------------------------------

def test_degree_and_window_guards():
    pair = z2_constant_pair()
    with pytest.raises(UnsupportedDegreeError):
        h_truncated(pair, 3, 2)
    with pytest.raises(UnsupportedDegreeError):
        h_truncated(pair, -1, 2)
    with pytest.raises(UnsupportedDegreeError):
        TruncatedComplex(pair, 3, 2)


def test_non_poisson_pair_is_rejected():
    base = r3_pair(2)
    broken = base.pi.restrict_label(0) + PolyVectorField.single(
        base.group, 0, (0, 0, 1), (0, 2), 1)
    with pytest.raises(NotPoissonError, match="not Poisson") as caught:
        TruncatedComplex(StructurePair(base.group, pi=broken), 1, 1)
    assert isinstance(caught.value, ValueError)
    assert not caught.value.report.ok


def test_report_repr_shows_the_dimension_split():
    r = CohomologyReport(1, 2, [1, 2, 3], [1], [1, 2])
    assert "dim=2 = 3 - 1" in repr(r)


def test_monomials_are_the_degree_bounded_box_in_degree_then_lex_order():
    for m in range(1, 5):
        for cap in range(6):
            box = sorted((e for e in itertools.product(range(cap + 1), repeat=m)
                          if sum(e) <= cap), key=lambda e: (sum(e), e))
            assert cohom._monomials(m, cap) == box


def test_monomials_skip_the_exponent_box():
    # filtering the 5^10 box kept 1,001 tuples and took seconds
    start = time.perf_counter()
    assert len(cohom._monomials(10, 4)) == 1001
    assert time.perf_counter() - start < 0.5
