import random
from math import comb

import pytest

from conftest import (
    gamma1_group,
    permutation_group_on_doubled_space,
    random_pvf,
    trivial_group,
    z2_group,
)
from crossed_poisson.scalars import Q, Cyclotomic, HScalar, root_of_unity
from crossed_poisson.polyvec import (
    InvarianceError,
    PolyVectorField,
    StructurePair,
    act,
    average,
    invariant_basis,
    is_invariant,
)
from crossed_poisson import catalog, linalg, pbw
from crossed_poisson.groups import generate
from crossed_poisson.pbw import (
    DeformedAlgebra,
    check_bg,
    graded_dimension,
    normal_form,
    overlap_confluence,
    solve_b,
)
from oracles import (
    centralizer,
    flat_constant_count,
    reference_overlap_confluence,
    reference_reduce_letters,
    solve_b_against_reference,
)


def heisenberg_pair(broken=False):
    G = trivial_group(3)
    pi = PolyVectorField.single(G, 0, (0, 0, 1), (0, 1), 1)
    if broken:
        pi = pi + PolyVectorField.single(G, 0, (0, 1, 0), (1, 2), 1)
    return StructurePair(G, pi=pi)


def z2_constant_pair(c=1):
    # symplectic-reflection style: b at both labels, no pi
    G = z2_group()
    b = (PolyVectorField.single(G, 0, (0, 0), (0, 1), 1)
         + PolyVectorField.single(G, 1, (0, 0), (0, 1), c))
    return StructurePair(G, b=b)


# -- dimension count ---------------------------------------------------------

def test_graded_dimension_formula():
    G = gamma1_group()
    # degree <= 2 in 4 variables: 1 + 4 + 10 monomials, times the group order
    assert graded_dimension(G, 0) == 6
    assert graded_dimension(G, 2) == 6 * 15


# -- normal forms ------------------------------------------------------------

def test_commutator_frozen():
    pair = heisenberg_pair()
    alg = DeformedAlgebra(pair)
    x0, x1 = alg.variable(0), alg.variable(1)
    comm = x0 * x1 - x1 * x0
    expect = alg.monomial((0, 0, 1), 0, HScalar.h_power(alg.M, 1))
    assert comm == expect


def test_normal_form_of_descending_word():
    pair = heisenberg_pair()
    out = normal_form(pair, [("x", 1), ("x", 0)])
    alg = out.algebra
    expect = (alg.monomial((1, 1, 0), 0)
              + alg.monomial((0, 0, 1), 0, HScalar.h_power(alg.M, 1, Cyclotomic.rational(alg.M, -1))))
    assert out == expect


def test_group_letter_pushes_through_variables():
    G = z2_group()
    pair = StructurePair(G)
    out = normal_form(pair, [("g", 1), ("x", 0)])
    alg = out.algebra
    assert out == alg.monomial((1, 0), 1, -1)


def test_group_letters_merge():
    G = z2_group()
    pair = StructurePair(G)
    out = normal_form(pair, [("g", 1), ("g", 1)])
    assert out == out.algebra.one()


def test_product_associative_on_confluent_pairs():
    rng = random.Random(11)
    for pair in (heisenberg_pair(), z2_constant_pair()):
        alg = DeformedAlgebra(pair)
        m = alg.m

        def rand_elt():
            out = alg.zero()
            for _ in range(3):
                e = [0] * m
                for _ in range(rng.randint(0, 2)):
                    e[rng.randrange(m)] += 1
                out = out + alg.monomial(tuple(e), rng.randrange(alg.group.order),
                                         rng.randint(-2, 2))
            return out

        for _ in range(6):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert (a * b) * c == a * (b * c)


def test_commutator_sees_both_weights():
    # with b at weight 2, [x0, x1] picks up hbar pi + hbar^2 b
    G = trivial_group(2)
    pi = PolyVectorField.single(G, 0, (0, 1), (0, 1), 1)
    b = PolyVectorField.single(G, 0, (0, 0), (0, 1), 3)
    pair = StructurePair(G, pi=pi, b=b)
    alg = DeformedAlgebra(pair)
    comm = alg.variable(0) * alg.variable(1) - alg.variable(1) * alg.variable(0)
    h = HScalar.h_power(alg.M, 1)
    h2 = HScalar.h_power(alg.M, 2, Cyclotomic.rational(alg.M, 3))
    expect = alg.monomial((0, 1), 0, h) + alg.monomial((0, 0), 0, h2)
    assert comm == expect


# -- flatness, both routes ---------------------------------------------------

def test_check_bg_accepts_jacobi_pair():
    rep = check_bg(heisenberg_pair())
    assert rep.passed


def test_check_bg_rejects_broken_pair():
    rep = check_bg(heisenberg_pair(broken=True))
    assert not rep.passed
    assert list(rep.bg2_residues) == [(0, 2)]
    assert not rep.bg2_residues[(0, 2)].is_zero()
    assert not rep.bg1_failures


def test_check_bg_zero_b_flag():
    G = trivial_group(2)
    b = PolyVectorField.single(G, 0, (0, 0), (0, 1), 1)
    pair = StructurePair(G, b=b)
    assert check_bg(pair).passed
    assert check_bg(pair.with_b(None)).passed


def test_check_bg_incompatible_weights_tags_hbar_degree():
    pair = heisenberg_pair(broken=True)
    pair3 = StructurePair(pair.group, pi=pair.pi, w_pi=1, w_b=3)
    rep = check_bg(pair3)
    assert list(rep.bg2_residues) == [(0, 2)]


def test_confluence_accepts_and_rejects():
    assert overlap_confluence(heisenberg_pair()).ok
    assert overlap_confluence(z2_constant_pair()).ok
    rep = overlap_confluence(heisenberg_pair(broken=True))
    assert not rep.ok
    assert any("x2 x1 x0" in d for d, _, _ in rep.failures)


def test_bracket_route_agrees_with_rewriting_route():
    # the two flatness tests are independent implementations; they must agree
    # on random structures, invariant or not, flat or not
    rng = random.Random(71)
    G = gamma1_group()
    seen_bad = 0
    for _ in range(8):
        pi = random_pvf(G, rng, nterms=2, max_deg=1, wedge_deg=2)
        pi = PolyVectorField(G, {(g, e, w): c for (g, e, w), c in pi.terms.items()
                                 if sum(e) == 1})
        b = random_pvf(G, rng, nterms=1, max_deg=0, wedge_deg=2)
        pair = StructurePair(G, pi=pi, b=b)
        try:
            ok_bracket = check_bg(pair).passed
        except InvarianceError:
            ok_bracket = False
        ok_rewrite = overlap_confluence(pair).ok
        assert ok_bracket == ok_rewrite
        seen_bad += 0 if ok_bracket else 1
    assert seen_bad > 0


def test_agreement_on_flat_pairs():
    for pair in (heisenberg_pair(), z2_constant_pair(), z2_constant_pair(c=-2)):
        assert check_bg(pair).passed
        assert overlap_confluence(pair).ok


# -- solving for b -----------------------------------------------------------

def test_solve_b_discovers_constant_family():
    # no pi: b = 0 works, and the full two-parameter constant family (one
    # wedge direction at the identity, one at the reflection) is reported as
    # freedom; members of the family really are flat
    G = z2_group()
    pair = StructurePair(G, pi=PolyVectorField.zero(G))
    res = solve_b(pair)
    assert res.feasible
    assert res.pair.b.is_zero()
    assert res.free_parameters == 2
    assert overlap_confluence(z2_constant_pair(c=5)).ok


def test_solve_b_rejects_bg1_failure():
    # a gamma-labeled component that is not a twisted cocycle cannot be fixed
    # by any constant term
    G = gamma1_group()
    pi = PolyVectorField.single(G, 2, (1, 0, 0, 0), (0, 1), 1)
    res = solve_b(StructurePair(G, pi=pi))
    assert not res.feasible
    assert any("bg1" in c for c in res.certificates)


def test_solve_b_infeasible_certificate():
    res = solve_b(heisenberg_pair(broken=True))
    assert not res.feasible
    assert any("bg2 at e" in c for c in res.certificates)


def test_solve_b_rejects_incompatible_weights():
    pair = heisenberg_pair()
    bad = StructurePair(pair.group, pi=pair.pi, w_pi=1, w_b=3)
    with pytest.raises(ValueError):
        solve_b(bad)


@pytest.mark.parametrize("n, signed, order", [
    (3, False, 6), (4, False, 24), (2, True, 8), (3, True, 48),
    (5, False, 120), (4, True, 384),
], ids=["S3", "S4", "B2", "B3", "S5", "B4"])
def test_solve_b_counts_flat_constant_deformations(n, signed, order):
    # With pi = 0 the free parameters are the dimension of the flat constant
    # b on V = h + h*: dim (wedge^2 V)^G plus the number of conjugacy classes
    # of symplectic reflections (Etingof-Ginzburg, Invent. Math. 147, 2002).
    # (wedge^2 V)^G = (h (x) h*)^G = End_G(h), as wedge^2 h and wedge^2 h*
    # hold no invariant here.  For S_n, h = trivial + standard gives 2, and
    # the transpositions are one class: 2 + 1.  For B_n, h is irreducible,
    # which gives 1, and the reflections are two classes (the sign changes,
    # the signed transpositions): 1 + 2.  S5 and B4 (orders 120 and 384)
    # keep solve_b's per-class system at |G| in the hundreds.
    G = permutation_group_on_doubled_space(n, signed)
    assert G.order == order
    assert flat_constant_count(G) == 3
    res = solve_b(StructurePair(G, pi=PolyVectorField.zero(G)))
    assert res.feasible
    assert res.free_parameters == 3
    assert check_bg(res.pair).passed


def _monomial(M, images):
    """images[i] = (j, k): row i holds zeta_M^k in column j and zeros elsewhere."""
    out = [[Cyclotomic.zero(M)] * len(images) for _ in images]
    for i, (j, k) in enumerate(images):
        out[i][j] = root_of_unity(M, k)
    return out


def _with_dual(M, images):
    """The monomial matrix acting on C^m + C^m*: itself on the first summand,
    its inverse transpose (for a monomial unitary, its conjugate) on the
    second."""
    g = _monomial(M, images)
    m = len(images)
    out = [[Cyclotomic.zero(M)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            out[i][j] = g[i][j]
            out[m + i][m + j] = g[i][j].conjugate()
    return out


def _g_m12(m, dual=False):
    """G(m,1,2): the swap and diag(zeta_m, 1), on C^2 or on C^2 + C^2*."""
    make = _with_dual if dual else _monomial
    return generate([make(m, [(1, 0), (0, 0)]), make(m, [(0, 1), (1, 0)])], m)


@pytest.mark.parametrize("build, order, count", [
    *[(lambda n=n: generate([_monomial(n, [(0, 1), (1, n - 1)])], n), n, n)
      for n in (2, 3, 4, 5, 6, 8)],
    *[(lambda m=m: _g_m12(m), 2 * m * m, c) for m, c in ((2, 1), (3, 0), (4, 0))],
    *[(lambda m=m: _g_m12(m, dual=True), 2 * m * m, m + 1) for m in (2, 3, 4)],
    (lambda: generate([_monomial(4, [(1, 0), (0, 0)]), _monomial(4, [(0, 1), (1, 3)]),
                       _monomial(4, [(0, 2), (1, 0)])], 4), 16, 0),
], ids=[f"Z{n}_in_SL2" for n in (2, 3, 4, 5, 6, 8)]
    + [f"G({m},1,2)" for m in (2, 3, 4)]
    + [f"G({m},1,2)_on_V+V*" for m in (2, 3, 4)] + ["G(4,2,2)"])
def test_flat_constant_deformations_match_the_literature_count(build, order, count):
    # With pi = 0 the free parameters of solve_b are the dimension of the
    # flat constant b; the oracle computes the literature formula in sympy,
    # and solve_b must agree with its per-element reference.
    # Z/n in SL2: the invariant area form and n - 1 classes of
    # determinant-one elements give n.  G(m,1,2) on C^2 has no invariant form
    # and, for m = 2 only, one class of rotations by a quarter turn whose
    # centraliser lies in SL2.  On C^2 + C^2* the pairing is invariant and
    # the m - 1 classes of diag(zeta^k, 1) and the class of the swap are
    # symplectic reflections.  G(4,2,2) has neither.
    G = build()
    assert G.order == order
    assert flat_constant_count(G) == count
    res = solve_b_against_reference(StructurePair(G, pi=PolyVectorField.zero(G)))
    assert res.feasible
    assert res.free_parameters == count
    assert check_bg(res.pair).passed


# -- the per-class system against the per-element reference ---------------------

def _gamma_n_without_b(n, c0, a=None):
    return _without_b(catalog.gamma_n_family(n, c0, a=a))


@pytest.mark.parametrize("n, c0, a", [
    *[(1, c0, a) for c0 in (1, -2, Q(1, 2), Q(-2, 3)) for a in (None, 1, Q(-3, 2))],
    *[(2, c0, None) for c0 in (1, -2, Q(1, 2), Q(-2, 3))],
])
def test_solve_b_matches_the_per_element_reference_on_gamma_n(n, c0, a):
    # with the linear identity part a, [pi, pi] is nonzero at e, where the
    # twisted differential of a constant field vanishes
    res = solve_b_against_reference(_gamma_n_without_b(n, c0, a))
    assert res.feasible == (a is None)


@pytest.mark.parametrize("n, signed", [(3, False), (4, False), (2, True), (3, True)],
                         ids=["S3", "S4", "B2", "B3"])
def test_solve_b_with_zero_pi_matches_the_per_element_reference(n, signed):
    # the literature-count groups are compared in their own test
    G = permutation_group_on_doubled_space(n, signed)
    assert solve_b_against_reference(StructurePair(G, pi=PolyVectorField.zero(G))).feasible


@pytest.mark.parametrize("build", [
    gamma1_group,
    lambda: permutation_group_on_doubled_space(4, False),
    lambda: permutation_group_on_doubled_space(3, True),
], ids=["gamma_1", "S4", "B3"])
def test_local_and_spread_columns(build):
    # invariant_basis seeded with solve_b's basis: local rows Z(h)-invariant,
    # at the representative h only, and independent; fields, the local row
    # moved by the class's transversal: invariant, over the class, equal to
    # the local row at h
    G = build()
    classes = {cls[0]: cls for cls in G.conjugacy_classes()}
    for h in classes:
        assert G.centraliser(h) == centralizer(G, h)
    local, fields, tags, _ = invariant_basis(
        G, lambda h: ((f, h) for f in pbw._wedge_basis_at_label(G, h)))
    assert len(local) == len(fields) == len(tags) > 0
    span = linalg.Span()
    for row, field, h in zip(local, fields, tags):
        assert row.labels() == [h]
        assert all(act(z, row) == row for z in centralizer(G, h))
        assert span.insert(row.terms) is not None
        assert is_invariant(field)
        assert field.labels() == list(classes[h])
        assert field.restrict_label(h) == row


@pytest.mark.parametrize("build, shape", [
    (lambda: _gamma_n_without_b(1, 1), (12, 6)),
    (lambda: StructurePair(permutation_group_on_doubled_space(4, False)), (410, 13)),
    (lambda: StructurePair(permutation_group_on_doubled_space(3, True)), (270, 25)),
], ids=["gamma_1", "S4", "B3"])
def test_solve_b_system_has_rows_and_columns_at_representatives_only(monkeypatch, build, shape):
    # rows: the term keys of the bg2 and bg3 residues at the representatives;
    # columns: the dimension of the invariant constant fields.  Neither count
    # depends on the basis chosen.
    shapes = []
    solve = linalg.solve

    def spy(rows, rhs, ncols):
        shapes.append((len(rows), ncols))
        return solve(rows, rhs, ncols)

    monkeypatch.setattr(pbw.linalg, "solve", spy)
    assert solve_b(build()).feasible
    assert shapes == [shape]


# -- one rule function for both rewriting paths ----------------------------------

def _is_redex(a, b):
    return a[0] == "g" or (a[0] == b[0] == "x" and a[1] > b[1])


@pytest.mark.parametrize("build", [
    lambda: catalog.gamma_n_family(1, 1),
    lambda: catalog.z2_constant(1),
    lambda: catalog.z2_r3_linear(1),
], ids=["gamma_n_1", "z2_constant", "z2_r3_linear"])
def test_every_redex_position_reaches_the_normal_form(build):
    # on a flat pair every one-step rewrite normalises to the same form,
    # including at redex positions the critical overlaps never reach
    pair = build().structure
    assert overlap_confluence(pair).ok
    alg = DeformedAlgebra(pair)
    m, order = alg.m, alg.group.order
    letters = [("x", i) for i in range(m)] + [("g", g) for g in range(order)]
    rng = random.Random(2024)
    later = 0       # redexes right of the leftmost one
    for _ in range(60):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(3, 5)))
        expect = alg.reduce_letters(word)
        assert all(v for v in expect.values())
        redexes = [k for k in range(len(word) - 1) if _is_redex(word[k], word[k + 1])]
        for k in redexes:
            got = pbw._reduce_sum(alg, pbw._one_step(alg, word, k))
            assert got == expect, (word, k)
        later += max(len(redexes) - 1, 0)
    assert later >= 20
    assert all(v for out in alg._memo.values() for v in out.values())


# -- the memo and the overlap probe against plain rewriting ----------------------

def _without_b(entry):
    pair = entry.structure
    return StructurePair(pair.group, pi=pair.pi, w_pi=pair.w_pi, w_b=pair.w_b)


def _b_scaled(entry, t):
    pair = entry.structure
    return StructurePair(pair.group, pi=pair.pi,
                         b=pair.b.scale(Cyclotomic.rational(pair.group.M, t)),
                         w_pi=pair.w_pi, w_b=pair.w_b)


def _random_invariant_pair(group, seed, w_pi, w_b):
    rng = random.Random(seed)
    pi = random_pvf(group, rng, nterms=3, max_deg=1, wedge_deg=2)
    pi = PolyVectorField(group, {(g, e, w): c for (g, e, w), c in pi.terms.items()
                                 if sum(e) == 1})
    b = random_pvf(group, rng, nterms=2, max_deg=0, wedge_deg=2)
    return StructurePair(group, pi=average(pi), b=average(b), w_pi=w_pi, w_b=w_b)


def _non_invariant_on_gamma_n():
    # pi at the identity only, on the non-abelian order-10 group: conjugating
    # by a group letter moves it, so the g x_i x_j overlaps fail
    G = catalog.gamma_n_family(2, 1).group
    return StructurePair(G, pi=PolyVectorField.single(G, 0, (1, 0, 0, 0), (0, 1), 1))


REFERENCE_PAIRS = [
    (lambda: heisenberg_pair(), True),
    (lambda: catalog.gamma_n_family(1, 1).structure, True),
    (lambda: catalog.z2_r3_linear(2).structure, True),
    (lambda: _without_b(catalog.gamma_n_family(1, 1)), False),
    (lambda: _b_scaled(catalog.gamma_n_family(2, 1), 2), False),
    (_non_invariant_on_gamma_n, False),
    *[(lambda w=w, seed=seed: _random_invariant_pair(gamma1_group(), seed, *w), None)
      for w in ((1, 1), (1, 3), (2, 2)) for seed in (1, 2)],
]
REFERENCE_IDS = (["heisenberg", "gamma_n_1", "z2_r3_linear", "gamma_n_1_without_b",
                  "gamma_n_2_b_times_2", "non_invariant_gamma_n_2"]
                 + [f"random_w{a}{b}_seed{s}" for a, b in ((1, 1), (1, 3), (2, 2))
                    for s in (1, 2)])


@pytest.mark.parametrize("build, confluent", REFERENCE_PAIRS, ids=REFERENCE_IDS)
def test_reductions_match_the_memo_free_reference(build, confluent):
    # one algebra, so later words meet a warm memo; every word carries a group
    # letter in the middle and most end in one, the letter the memo factors out
    pair = build()
    alg = DeformedAlgebra(pair)
    m, order = alg.m, alg.group.order
    letters = [("x", i) for i in range(m)] + [("g", g) for g in range(order)]
    rng = random.Random(97)
    trailing = 0
    for _ in range(50):
        head = [rng.choice(letters) for _ in range(rng.randint(1, 3))]
        head.insert(rng.randint(1, len(head)), ("g", rng.randrange(order)))
        if rng.random() < 0.7:
            head.append(("g", rng.randrange(order)))
            trailing += 1
        word = tuple(head)
        got = alg.reduce_letters(word)
        assert list(got.items()) == list(reference_reduce_letters(pair, word).items()), word
    assert trailing >= 25
    report = overlap_confluence(pair)
    failures, checked = reference_overlap_confluence(pair)
    assert report.failures == failures
    assert report.overlaps_checked == checked
    if confluent is not None:
        assert report.ok == confluent
    if build is _non_invariant_on_gamma_n:
        assert any(d.split()[0][0] == "g" and d.split()[1][0] == "x"
                   for d, _, _ in report.failures)


@pytest.mark.parametrize("build", [
    lambda: heisenberg_pair().group,
    z2_group,
    gamma1_group,
    lambda: catalog.gamma_n_family(2, 1).group,
    lambda: catalog.z2_r3_linear(1).group,
    lambda: permutation_group_on_doubled_space(3, False),
    lambda: permutation_group_on_doubled_space(4, True),
], ids=["trivial_3", "z2", "gamma1", "gamma_n_2", "z2_r3", "S3", "B4"])
def test_every_overlap_family_is_checked(build):
    # C(m,3) words x_i x_j x_k, |G| C(m,2) words g x_i x_j, |G|^2 m words g d x_i;
    # on a confluent pair only g in D = {e} + generators is probed in g x_i x_j,
    # and no g d x_i word, which resolves by the construction of the group
    G = build()
    m, n = G.dim, G.order
    report = overlap_confluence(StructurePair(G))
    assert report.ok
    assert report.overlaps_checked == comb(m, 3) + n * comb(m, 2) + n * n * m
    d = len({0, *G.gen_indices})
    assert report.overlaps_probed == comb(m, 3) + d * comb(m, 2)
    if n == 384:
        # B4: 168 of the 1,190,456 words are probed
        assert (m, d) == (8, 4) and report.overlaps_probed == 168


# -- the derived overlaps against probing them all ----------------------------------

def test_a_failing_group_letter_word_probes_its_whole_family():
    # pi at the identity only fails g x_i x_j at a generator, so every g x_i x_j
    # word is probed, and the failures beyond D match the reference's
    pair = _non_invariant_on_gamma_n()
    G = pair.group
    m, n = G.dim, G.order
    report = overlap_confluence(pair)
    failures, checked = reference_overlap_confluence(pair)
    assert report.failures == failures and report.overlaps_checked == checked
    assert report.overlaps_probed == comb(m, 3) + n * comb(m, 2)
    failing = {G.element_from_word(desc.split()[0])
               for desc, _, _ in failures if desc[0] != "x"}
    D = {0, *G.gen_indices}
    assert failing & D and failing - D


def _gamma_n_generators():
    G = catalog.gamma_n_family(2, 1).group
    return G.M, [G.elements[g] for g in G.gen_indices], G.elements[0]


def _random_non_invariant_pair(group, seed):
    rng = random.Random(seed)
    pi = random_pvf(group, rng, nterms=3, max_deg=1, wedge_deg=2)
    pi = PolyVectorField(group, {(g, e, w): c for (g, e, w), c in pi.terms.items()
                                 if sum(e) == 1})
    return StructurePair(group, pi=pi,
                         b=random_pvf(group, rng, nterms=2, max_deg=0, wedge_deg=2))


@pytest.mark.parametrize("pick", [
    lambda a, b, e: [a, a, b],
    lambda a, b, e: [e, a, b],
    lambda a, b, e: [a, e, b, a],
], ids=["duplicate", "identity_first", "identity_and_duplicate"])
def test_derived_overlaps_match_probing_all_of_them(pick):
    M, (a, b), e = _gamma_n_generators()
    G = generate(pick(a, b, e), M)
    assert G.order == 10
    d = len({0, *G.gen_indices})
    assert d == 3
    flat = catalog.gamma_n_family(2, 1).structure
    assert G.elements == flat.group.elements   # the same labels, so it stays flat
    pairs = [StructurePair(G, pi=PolyVectorField(G, flat.pi.terms),
                           b=PolyVectorField(G, flat.b.terms))]
    pairs += [_random_invariant_pair(G, seed, 1, 2) for seed in range(4)]
    pairs += [_random_non_invariant_pair(G, seed) for seed in range(4)]
    verdicts = set()
    for pair in pairs:
        report = overlap_confluence(pair)
        failures, checked = reference_overlap_confluence(pair)
        assert report.failures == failures
        assert report.ok == (not failures)
        verdicts.add(report.ok)
        # a failing g x_i x_j word has its family probed at every g; the
        # g d x_i words read only the group, which is sound, and are never probed
        families = {sum(not t.startswith("x") for t in desc.split())
                    for desc, _, _ in failures}
        assert 2 not in families
        gx = 1 in families
        assert report.overlaps_probed == 4 + (10 if gx else d) * 6
        verdicts.add(("g x_i x_j fails", gx))
    assert {True, False, ("g x_i x_j fails", True)} <= verdicts
