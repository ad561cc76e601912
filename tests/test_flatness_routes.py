"""The two flatness routes, checked against each other on generated inputs.

`check_bg` decides flatness from the bracket-side conditions (Braverman and
Gaitsgory); `overlap_confluence` resolves every critical overlap of the
rewriting system (Bergman's diamond lemma).  On every invariant pair they must
give the same verdict, and every constant correction `solve_b` finds must pass
both.  The pairs are random invariant ones over small generated groups, and
the catalog's flat pairs with their two parts rescaled independently, which
moves the self-bracket of pi against the differential of b.
"""

import functools

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from crossed_poisson import catalog, pbw
from crossed_poisson.groups import GroupOrderError, generate
from crossed_poisson.polyvec import PolyVectorField, StructurePair, average
from crossed_poisson.scalars import Cyclotomic, root_of_unity

MAX_ORDER = 12


@st.composite
def _generator(draw, dim, M):
    """A signed permutation matrix or a diagonal of M-th roots of unity."""
    if draw(st.booleans()):
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
def invariant_pairs(draw):
    dim = draw(st.integers(2, 4))
    M = draw(st.sampled_from((1, 2, 3, 4, 6)))
    gens = draw(st.lists(_generator(dim, M), min_size=1, max_size=2))
    try:
        group = generate(gens, M, max_order=MAX_ORDER)
    except GroupOrderError:
        assume(False)
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
    assert pbw.check_bg(pair).passed == pbw.overlap_confluence(pair).ok
    if pair.w_b == 2 * pair.w_pi:
        result = pbw.solve_b(pair)
        if result.feasible:
            assert pbw.check_bg(result.pair).passed
            assert pbw.overlap_confluence(result.pair).ok
