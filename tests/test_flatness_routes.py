"""The two flatness routes, checked against each other on generated inputs.

`check_bg` decides flatness from the bracket-side conditions (Braverman and
Gaitsgory); `overlap_confluence` resolves every critical overlap of the
rewriting system (Bergman's diamond lemma).  On every invariant pair they must
give the same verdict, and every constant correction `solve_b` finds must pass
both.  The pairs are random invariant ones over small generated groups, and
the catalog's flat pairs with their two parts rescaled independently, which
moves the self-bracket of pi against the differential of b.  A third
strategy draws pi from the exact solution space of the conditions that are
linear in pi, bg1 and invariance, so that solve_b meets a pi it must bracket.
On the invariant and solution-space pairs, solve_b, which works at one
representative per conjugacy class, is compared with reference_solve_b, its
system over every group element.  Every check_bg report, which is computed at
the representatives first, is compared residue for residue with
reference_check_bg, its computation at every label.
The symplectic reflection algebras of S4 and B3, the largest groups here, are
checked on fixed flat and non-flat members.
"""

import functools
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from crossed_poisson import catalog, linalg, pbw
from crossed_poisson.groups import GroupOrderError, generate
from crossed_poisson.polyvec import (
    PolyVectorField,
    StructurePair,
    act,
    average,
    koszul_differential,
    pr,
)
from crossed_poisson.scalars import Cyclotomic, root_of_unity
from conftest import conjugated_s3_pair, permutation_group_on_doubled_space
from oracles import check_bg_against_reference, reference_pr, solve_b_against_reference

MAX_ORDER = 12


@st.composite
def _generator(draw, dim, M, permutation=None):
    """A signed permutation matrix or a diagonal of M-th roots of unity;
    permutation=None draws which."""
    if permutation is None:
        permutation = draw(st.booleans())
    if permutation:
        perm = draw(st.permutations(range(dim)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
        return [[signs[i] if j == perm[i] else 0 for j in range(dim)]
                for i in range(dim)]
    powers = draw(st.lists(st.integers(0, M - 1), min_size=dim, max_size=dim))
    return [[root_of_unity(M, powers[i]) if i == j else Cyclotomic.zero(M)
             for j in range(dim)] for i in range(dim)]


@st.composite
def _invariant_field(draw, group, degree, max_terms=4):
    """The group average of a few random terms of wedge degree 2."""
    m, M = group.dim, group.M
    field = PolyVectorField.zero(group)
    for _ in range(draw(st.integers(0, max_terms))):
        expo = [0] * m
        if degree:
            expo[draw(st.integers(0, m - 1))] = 1
        wedge = tuple(sorted(draw(st.lists(st.integers(0, m - 1), min_size=2,
                                           max_size=2, unique=True))))
        coeff = (Cyclotomic.rational(M, draw(st.integers(-2, 2)))
                 * root_of_unity(M, draw(st.integers(0, M - 1))))
        field = field + PolyVectorField.single(
            group, draw(st.integers(0, group.order - 1)), expo, wedge, coeff)
    return average(field)


@st.composite
def small_groups(draw, max_order=MAX_ORDER, mixed=False):
    """A group of at most max_order elements made by one or two generators;
    mixed=True takes one signed permutation and one diagonal, which seldom
    commute."""
    dim = draw(st.integers(2, 4))
    M = draw(st.sampled_from((1, 2, 3, 4, 6)))
    if mixed:
        gens = [draw(_generator(dim, M, permutation=p)) for p in (True, False)]
    else:
        gens = draw(st.lists(_generator(dim, M), min_size=1, max_size=2))
    try:
        return generate(gens, M, max_order=max_order)
    except GroupOrderError:
        assume(False)


@st.composite
def labelled_fields(draw, group, max_terms=5):
    """A few random terms at random labels, of any wedge degree and of
    polynomial degree at most 2; not group-invariant in general."""
    m, M = group.dim, group.M
    field = PolyVectorField.zero(group)
    for _ in range(draw(st.integers(1, max_terms))):
        expo = [0] * m
        for _ in range(draw(st.integers(0, 2))):
            expo[draw(st.integers(0, m - 1))] += 1
        wedge = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
        coeff = (Cyclotomic.rational(M, draw(st.integers(-2, 2)))
                 * root_of_unity(M, draw(st.integers(0, M - 1))))
        field = field + PolyVectorField.single(
            group, draw(st.integers(0, group.order - 1)), expo, wedge, coeff)
    return field


@st.composite
def invariant_pairs(draw):
    group = draw(small_groups())
    w_pi, w_b = draw(st.sampled_from(((1, 2), (1, 1), (1, 3), (2, 2))))
    return StructurePair(group, pi=draw(_invariant_field(group, 1)),
                         b=draw(_invariant_field(group, 0)), w_pi=w_pi, w_b=w_b)


@functools.lru_cache(maxsize=None)
def _demo_structures():
    return tuple(entry.structure for entry in catalog.demo_entries())


@st.composite
def rescaled_catalog_pairs(draw):
    """A flat catalog pair with pi scaled by t, b by s, plus a random field."""
    pair = draw(st.sampled_from(_demo_structures()))
    group = pair.group
    t, s = (Cyclotomic.rational(group.M, draw(st.integers(-2, 2)))
            for _ in range(2))
    pi = pair.pi.scale(t) + draw(_invariant_field(group, 1, max_terms=1))
    b = pair.b.scale(s) + draw(_invariant_field(group, 0, max_terms=1))
    return StructurePair(group, pi=pi, b=b, w_pi=pair.w_pi, w_b=pair.w_b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(invariant_pairs(), rescaled_catalog_pairs()))
def test_flatness_routes_agree_on_generated_pairs(pair):
    assert check_bg_against_reference(pair).passed == pbw.overlap_confluence(pair).ok
    if pair.w_b == 2 * pair.w_pi:
        result = pbw.solve_b(pair)
        if result.feasible:
            assert check_bg_against_reference(result.pair).passed
            assert pbw.overlap_confluence(result.pair).ok


@functools.lru_cache(maxsize=None)
def _linear_solution_space(n):
    """The gamma_n group and a basis of the linear 2-fields on it that are
    twisted cocycles at every label (bg1) and group-invariant."""
    group = catalog.gamma_n_family(n, 1).group
    m, M = group.dim, group.M
    unknowns = [PolyVectorField.single(group, gi, tuple(int(k == t) for k in range(m)),
                                       w, 1)
                for gi in range(group.order) for t in range(m)
                for w in combinations(range(m), 2)]
    rows = {}   # (condition, term key): {unknown: coefficient}
    for col, u in enumerate(unknowns):
        conditions = [koszul_differential(u)]
        conditions += [act(g, u) - u for g in group.gen_indices]
        for i, field in enumerate(conditions):
            for key, v in field.terms.items():
                rows.setdefault((i, key), {})[col] = v
    zero = Cyclotomic.zero(M)
    dense = [[row.get(c, zero) for c in range(len(unknowns))] for row in rows.values()]
    basis = []
    for vec in linalg.kernel_basis(dense, len(unknowns), M):
        field = PolyVectorField.zero(group)
        for u, v in zip(unknowns, vec):
            if v:
                field = field + u.scale(v)
        basis.append(field)
    return group, tuple(basis)


@st.composite
def solution_space_pairs(draw):
    """pi a small-integer combination of the solution space basis on
    gamma_n, n = 1 or 2; b is left for solve_b."""
    group, basis = _linear_solution_space(draw(st.sampled_from((1, 2))))
    pi = PolyVectorField.zero(group)
    for field in basis:
        pi = pi + field.scale(Cyclotomic.rational(group.M, draw(st.integers(-2, 2))))
    return StructurePair(group, pi=pi)


def test_flatness_routes_agree_on_solution_space_pairs():
    # on gamma_n with n = 2 these pi admit a constant correction, with n = 1
    # they do not; both outcomes must occur
    outcomes = set()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(solution_space_pairs())
    def check(pair):
        assert check_bg_against_reference(pair).passed == pbw.overlap_confluence(pair).ok
        result = pbw.solve_b(pair)
        if result.feasible:
            assert check_bg_against_reference(result.pair).passed
            assert pbw.overlap_confluence(result.pair).ok
            outcomes.add("zero b" if result.pair.b.is_zero() else "nonzero b")
        else:
            outcomes.add("infeasible")

    check()
    assert {"nonzero b", "infeasible"} <= outcomes


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs())
def test_solve_b_matches_the_per_element_reference_on_invariant_pairs(pair):
    solve_b_against_reference(StructurePair(pair.group, pi=pair.pi, w_pi=pair.w_pi,
                                            w_b=2 * pair.w_pi))


def test_solve_b_matches_the_per_element_reference_on_solution_space_pairs():
    # pi from the solution space of bg1 and invariance, so every draw reaches
    # the system; on gamma_n both outcomes occur
    outcomes = set()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(solution_space_pairs())
    def check(pair):
        outcomes.add(solve_b_against_reference(pair).feasible)

    check()
    assert outcomes == {True, False}


@pytest.mark.parametrize("n, signed", [(4, False), (3, True)], ids=["S4", "B3"])
def test_flatness_routes_agree_on_symplectic_reflection_pairs(n, signed):
    # the symplectic reflection algebras of S4 (order 24, 5,336 overlaps) and
    # B3 (order 48, 14,564 overlaps) on C^n + C^n*: a flat member, the same b
    # rescaled, which stays flat, and b plus an invariant constant field at
    # the codimension-4 labels, which is not flat
    group = permutation_group_on_doubled_space(n, signed)
    m = group.dim
    omega = [[int(j == i + n) - int(i == j + n) for j in range(m)] for i in range(m)]
    pair = catalog.symplectic_reflection(group, omega, 2).structure
    codim4 = next(g for g in range(group.order) if group.codim(g) == 4)
    extra = average(PolyVectorField.single(group, codim4, (0,) * m, (0, n), 1))
    verdicts = []
    for b in (pair.b, pair.b.scale(Cyclotomic.rational(group.M, -3)), pair.b + extra):
        member = StructurePair(group, b=b, w_pi=pair.w_pi, w_b=pair.w_b)
        passed = check_bg_against_reference(member).passed
        assert passed == pbw.overlap_confluence(member).ok
        verdicts.append(passed)
    assert verdicts == [True, True, False]


def test_check_bg_reports_residues_at_every_member_of_a_class():
    # the conjugated S3 pair with an invariant constant field added at the
    # transpositions, a class of three: d(b) no longer vanishes there, and the
    # report must hold the residues at the two members that are no
    # representative as well, as the every-label reference computes them
    pair = conjugated_s3_pair()
    group = pair.group
    reps = {cls[0] for cls in group.conjugacy_classes()}
    cls = next(c for c in group.conjugacy_classes() if len(c) == 3)
    extra = average(PolyVectorField.single(group, cls[0], (0,) * group.dim, (1, 4), 1))
    member = pair.with_b(pair.b + extra)
    report = check_bg_against_reference(member)
    assert not report.passed
    assert not pbw.overlap_confluence(member).ok
    labels = {gi for gi, _ in report.bg2_residues}
    assert labels & reps and labels - reps
    assert set(cls) <= labels


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_projection_commutes_with_the_group_action(data):
    # pr(act(g, X)) == act(g, pr(X)): the group moves the fixed space and the
    # normal space of each label onto those of the conjugated label
    group = data.draw(small_groups(max_order=24, mixed=data.draw(st.booleans())))
    X = data.draw(labelled_fields(group))
    for g in range(group.order):
        assert pr(act(g, X)) == act(g, pr(X))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_projection_matches_the_transform_filter_transform_reference(data):
    # pr skips the transforms at the identity label and drops wedges shorter
    # than the codimension; the terms and their order must not change
    group = data.draw(small_groups(max_order=24, mixed=data.draw(st.booleans())))
    X = data.draw(labelled_fields(group))
    at_identity = data.draw(labelled_fields(group))
    X = X + PolyVectorField(group, {(0, expo, wedge): c
                                    for (_, expo, wedge), c in at_identity.terms.items()})
    got, want = pr(X), reference_pr(X)
    assert list(got.terms.items()) == list(want.terms.items())
