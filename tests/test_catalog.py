import pytest

from crossed_poisson import catalog, groups, pbw
from crossed_poisson.catalog import (
    AdmissibilityError,
    CatalogError,
    ClassFunctionError,
    FormNotPreservedError,
    JacobiError,
)
from crossed_poisson.scalars import Cyclotomic, Q, root_of_unity
from crossed_poisson.polyvec import (
    InvarianceError,
    PolyVectorField,
    StructurePair,
    schouten,
)
from oracles import is_real

OMEGA2 = [[0, 1], [-1, 0]]


def z2_plane():
    return groups.generate([[[-1, 0], [0, -1]]], 1, max_order=2)


# -- symplectic reflection ----------------------------------------------------

def test_weyl_case_is_pure_identity_inverse():
    ent = catalog.symplectic_reflection(z2_plane(), OMEGA2, 0)
    expected = PolyVectorField.single(ent.group, 0, (0, 0), (0, 1), -1)
    assert ent.structure.b == expected
    assert pbw.check_bg(ent.structure).passed


def test_z2_plane_structure_and_flatness():
    ent = catalog.symplectic_reflection(z2_plane(), OMEGA2, Q(1, 3))
    G = ent.group
    expected = (PolyVectorField.single(G, 0, (0, 0), (0, 1), -1)
                + PolyVectorField.single(G, 1, (0, 0), (0, 1), -Q(1, 3)))
    assert ent.structure.b == expected
    assert pbw.check_bg(ent.structure).passed
    assert pbw.overlap_confluence(ent.structure).ok


def test_scaling_the_constants_keeps_flatness():
    for t in (1, -2, Q(7, 2)):
        ent = catalog.symplectic_reflection(z2_plane(), OMEGA2, t)
        assert pbw.check_bg(ent.structure).passed


def test_rejects_group_not_preserving_form():
    G = groups.generate([[[-1, 0], [0, 1]]], 1, max_order=2)
    with pytest.raises(FormNotPreservedError):
        catalog.symplectic_reflection(G, OMEGA2, 1)


def test_rejects_bad_forms():
    with pytest.raises(CatalogError):
        catalog.symplectic_reflection(z2_plane(), [[0, 1], [1, 0]], 1)
    with pytest.raises(CatalogError):
        catalog.symplectic_reflection(z2_plane(), [[0, 0], [0, 0]], 1)


def _gamma1_with_form():
    ent = catalog.gamma_n_family(1, 1)
    omega = [[0] * 4 for _ in range(4)]
    omega[0][2], omega[2][0] = 1, -1
    omega[1][3], omega[3][1] = 1, -1
    return ent.group, omega


def test_class_function_spreads_over_conjugacy_class():
    G, omega = _gamma1_with_form()
    ent = catalog.symplectic_reflection(G, omega, {"g1": 7})
    swaps = [g for g in range(G.order) if G.codim(g) == 2]
    assert len(swaps) == 3
    assert set(ent.structure.b.labels()) == {0} | set(swaps)
    assert pbw.check_bg(ent.structure).passed


def test_class_function_conflicts_rejected():
    G, omega = _gamma1_with_form()
    swaps = [g for g in range(G.order) if G.codim(g) == 2]
    with pytest.raises(ClassFunctionError):
        catalog.symplectic_reflection(G, omega, {swaps[0]: 1, swaps[1]: 2})


def test_values_on_fully_moving_elements_produce_no_terms():
    G, omega = _gamma1_with_form()
    rot = next(g for g in range(1, G.order) if G.codim(g) == 4)
    ent = catalog.symplectic_reflection(G, omega, {rot: 5})
    assert set(ent.structure.b.labels()) == {0}


# -- plane sign flip with constant structure ----------------------------------

def test_z2_constant_structure():
    ent = catalog.z2_constant(Q(3, 2))
    expected = PolyVectorField.single(ent.group, 1, (0, 0), (0, 1), -Q(3, 2))
    assert ent.structure.b == expected
    assert ent.structure.pi.is_zero()
    assert pbw.check_bg(ent.structure).passed
    assert pbw.overlap_confluence(ent.structure).ok


# -- linear structures on R^3 -------------------------------------------------

def test_z2_r3_linear_variant_fields():
    e1 = catalog.z2_r3_linear(1)
    G = e1.group
    both = (PolyVectorField.single(G, 0, (0, 0, 1), (0, 1), 1)
            + PolyVectorField.single(G, 1, (0, 0, 1), (0, 1), 1))
    assert e1.structure.pi == both
    e2 = catalog.z2_r3_linear(2)
    extra = (PolyVectorField.single(G, 0, (1, 0, 0), (0, 2), 1)
             + PolyVectorField.single(G, 0, (0, 1, 0), (1, 2), -1))
    assert e2.structure.pi == both + extra
    for ent in (e1, e2):
        assert pbw.check_bg(ent.structure).passed
        assert pbw.overlap_confluence(ent.structure).ok
    with pytest.raises(CatalogError):
        catalog.z2_r3_linear(3)


def test_variant2_identity_part_self_commutes():
    ent = catalog.z2_r3_linear(2)
    pi0 = ent.structure.pi.restrict_label(0)
    assert schouten(pi0, pi0).is_zero()


# -- Lie structure constants --------------------------------------------------

R3_GEN = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
FULL_BRACKET = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: -1}}


def r3_group():
    return groups.generate([R3_GEN], 1, max_order=2)


def test_lie_poisson_reproduces_both_linear_variants():
    G = r3_group()
    heis = catalog.lie_poisson_family(G, {(0, 1): {2: 1}}, 1)
    assert heis.structure.pi == catalog.z2_r3_linear(1).structure.pi
    full = catalog.lie_poisson_family(G, FULL_BRACKET, 1)
    assert full.structure.pi == catalog.z2_r3_linear(2).structure.pi
    assert pbw.check_bg(full.structure).passed


def test_lie_poisson_abelian_bracket_is_zero():
    ent = catalog.lie_poisson_family(r3_group(), {}, 1)
    assert ent.structure.pi.is_zero()
    assert pbw.check_bg(ent.structure).passed


def test_lie_poisson_rejects_non_jacobi():
    with pytest.raises(JacobiError):
        catalog.lie_poisson_family(r3_group(), {(0, 1): {0: 1}, (0, 2): {2: 1}}, 1)


def test_lie_poisson_rejects_non_invariant():
    with pytest.raises(InvarianceError):
        catalog.lie_poisson_family(r3_group(), {(0, 1): {0: 1}}, 1)


# -- the dihedral-type family -------------------------------------------------

def generic_c0(M=12):
    return Cyclotomic.rational(M, 1) + root_of_unity(M, 1)


def test_gamma_1_passes_both_flatness_routes():
    ent = catalog.gamma_n_family(1, generic_c0())
    assert ent.group.order == 6
    assert pbw.check_bg(ent.structure).passed
    assert pbw.overlap_confluence(ent.structure).ok


def test_gamma_entries_share_the_group_of_their_conductor():
    one, two = catalog.gamma_n_family(1, 1), catalog.gamma_n_family(1, 2, a=1)
    assert one.group is two.group
    assert one.structure.pi != two.structure.pi
    wider = catalog.gamma_n_family(1, generic_c0(20))
    assert wider.group.M != one.group.M and wider.group is not one.group


def test_gamma_2_passes_check_bg():
    ent = catalog.gamma_n_family(2, generic_c0(20))
    assert ent.group.order == 10
    assert pbw.check_bg(ent.structure).passed


def test_gamma_entries_are_real():
    for n, c0 in ((1, generic_c0()), (2, generic_c0(20))):
        ent = catalog.gamma_n_family(n, c0)
        swap = ent.structure.reality_swap
        assert is_real(ent.structure.pi, swap)
        assert is_real(ent.structure.b, swap)


def test_gamma_1_correction_matches_solver():
    ent = catalog.gamma_n_family(1, generic_c0())
    pair = StructurePair(ent.group, pi=ent.structure.pi, w_pi=1, w_b=2)
    res = pbw.solve_b(pair)
    assert res.feasible
    for gi in ent.structure.b.labels():
        assert res.pair.b.restrict_label(gi) == ent.structure.b.restrict_label(gi)


def test_gamma_1_without_correction_fails_at_rotation_labels():
    ent = catalog.gamma_n_family(1, generic_c0())
    rep = pbw.check_bg(ent.structure.with_b(None))
    assert not rep.passed
    assert not rep.bg1_failures and not rep.bg3_residues
    rotations = {g for g in range(1, ent.group.order) if ent.group.codim(g) == 4}
    assert {g for g, _ in rep.bg2_residues} == rotations


def test_gamma_rejects_inadmissible_linear_part():
    with pytest.raises(AdmissibilityError):
        catalog.gamma_n_family(2, generic_c0(20), a=1)


def test_gamma_1_linear_part_breaks_flatness():
    # the optional identity part is invariant and real, but its self-bracket
    # violates Jacobi, so the pair fails bg2 at the identity and swap labels
    # and no constant correction exists; pinned computationally
    M = 12
    a = root_of_unity(M, 3) * Cyclotomic.rational(M, Q(1, 2))
    ent = catalog.gamma_n_family(1, generic_c0(), a=a)
    swap = ent.structure.reality_swap
    assert is_real(ent.structure.pi, swap)
    pi0 = ent.structure.pi.restrict_label(0)
    assert not schouten(pi0, pi0).is_zero()
    rep = pbw.check_bg(ent.structure)
    assert not rep.bg1_failures and not rep.bg3_residues
    bad = {g for g, _ in rep.bg2_residues}
    swaps = {g for g in range(ent.group.order) if ent.group.codim(g) == 2}
    assert bad == {0} | swaps
    res = pbw.solve_b(StructurePair(ent.group, pi=ent.structure.pi,
                                    w_pi=1, w_b=2))
    assert not res.feasible


# -- cyclic rotation with constant structure ----------------------------------

def test_cyclic_qmoyal_entries():
    for n in (2, 3, 4):
        ent = catalog.cyclic_qmoyal(n)
        assert ent.group.order == n
        assert len(ent.structure.b.labels()) == 1
        assert pbw.check_bg(ent.structure).passed
        assert is_real(ent.structure.b, ent.structure.reality_swap)


# -- the default sweep --------------------------------------------------------

def test_demo_entries_agree_on_both_routes():
    for ent in catalog.demo_entries():
        assert pbw.check_bg(ent.structure).passed, ent.name
        assert pbw.overlap_confluence(ent.structure).ok, ent.name
