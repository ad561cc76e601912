"""Acceptance gate: one test per shipped guarantee, all equalities exact.

Each test prints a single ``criterion N: pass`` line on success (visible with
``pytest -s``; under ``-v`` the test name itself is the pass/fail line) and
asserts its own runtime budget.
"""

import random
import time
from functools import lru_cache
from math import lcm

from crossed_poisson import catalog, linalg
from crossed_poisson.groups import generate
from crossed_poisson.pbw import (
    check_bg,
    graded_dimension,
    normal_form,
    overlap_confluence,
    solve_b,
)
from crossed_poisson.polyvec import (
    PolyVectorField,
    StructurePair,
    average,
    gen_bracket_b_pi,
    gen_bracket_pi_pi,
    koszul_differential,
    poisson_differential,
)
from crossed_poisson.cohom import h_truncated
from crossed_poisson.qmoyal import (
    QPoly,
    center_lift,
    center_relation,
    d_z,
    is_central,
    star,
)
from oracles import compare_h0, d_z_closed
from crossed_poisson.scalars import Cyclotomic, HScalar, Q, root_of_unity


def _cyclic_plane(k):
    if k == 1:
        return generate([[[1, 0], [0, 1]]], 1)
    z = root_of_unity(k, 1)
    zb = root_of_unity(k, k - 1)
    zero = Cyclotomic.zero(k)
    return generate([[[z, zero], [zero, zb]]], k)


def _rank(fields):
    keys = sorted({k for f in fields for k in f.terms})
    if not keys:
        return 0
    M = fields[0].group.M
    rows = [[f.terms.get(k, Cyclotomic.zero(M)).promote(M) for k in keys]
            for f in fields]
    return linalg.rank(rows)


def test_criterion_1_family_coboundary_identity():
    """The two-parameter family satisfies its coboundary identity label by
    label: the self-bracket of the linear part equals twice the twisted
    differential of the constant part at every rotation label, vanishes at
    the identity, and every (constant label, linear label) mixed bracket is
    zero individually."""
    for n in (1, 2):
        t0 = time.monotonic()
        pair = catalog.gamma_n_family(n, 1).structure
        G = pair.group
        two = Cyclotomic.rational(G.M, 2)

        # the rotation subgroup (powers of the first generator)
        r = G.gen_indices[0]
        rot = {0}
        g = r
        while g not in rot:
            rot.add(g)
            g = G.mul[g][r]
        assert len(rot) == 2 * n + 1

        Qb = gen_bracket_pi_pi(pair)
        D = koszul_differential(pair.b)
        assert set(pair.b.labels()) == rot - {0}
        assert set(Qb.labels()) == rot - {0}
        assert Qb.restrict_label(0).is_zero()
        for gi in range(G.order):
            lhs = Qb.restrict_label(gi)
            rhs = D.restrict_label(gi).scale(two)
            assert (lhs - rhs).is_zero(), (n, G.word_str(gi))

        # every single constant component brackets to zero with every
        # single linear component, not just in aggregate
        for bk in sorted(pair.b.labels()):
            for sl in sorted(pair.pi.labels()):
                sub = StructurePair(G, pi=pair.pi.restrict_label(sl),
                                    b=pair.b.restrict_label(bk),
                                    w_pi=pair.w_pi, w_b=pair.w_b)
                assert gen_bracket_b_pi(sub).is_zero(), (n, bk, sl)

        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, elapsed
    print("criterion 1: pass - coboundary identity holds per label for n=1,2")


def _random_invariant_pair(G, rng):
    m, M = G.dim, G.M
    pit, bt = {}, {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(sorted(rng.sample(range(m), 2)))
        e = [0] * m
        e[rng.randrange(m)] = 1
        c = Cyclotomic(M, [rng.randint(-2, 2) for _ in range(2)])
        if c:
            pit[(rng.randrange(G.order), tuple(e), w)] = c
    for _ in range(rng.randint(0, 2)):
        w = tuple(sorted(rng.sample(range(m), 2)))
        c = Cyclotomic(M, [rng.randint(-2, 2) for _ in range(2)])
        if c:
            bt[(rng.randrange(G.order), (0,) * m, w)] = c
    return StructurePair(G, pi=average(PolyVectorField(G, pit)),
                         b=average(PolyVectorField(G, bt)), w_pi=1, w_b=2)


def test_criterion_2_bracket_rewriting_agreement():
    """The bracket-side flatness check and the rewriting-side confluence
    check reach the same verdict on every catalog entry and on a pool of
    invariant structures over groups of order at most 12, covering both
    verdicts."""
    t0 = time.monotonic()
    for entry in catalog.demo_entries():
        a = check_bg(entry.structure).passed
        b = overlap_confluence(entry.structure).ok
        assert a == b, entry.name

    g1 = catalog.gamma_n_family(1, 1).structure
    G1 = g1.group
    r2 = catalog.z2_r3_linear(2).structure
    G2 = r2.group
    pool = []
    # scaling the linear part by t and the constant part by t^2 preserves
    # flatness; these are guaranteed nontrivial passers
    for t in (2, 3):
        c = Cyclotomic.rational(G1.M, t)
        pool.append(StructurePair(G1, pi=g1.pi.scale(c), b=g1.b.scale(c * c),
                                  w_pi=1, w_b=2))
    # guaranteed failers: wrongly scaled constant part, missing constant
    # part, and a sign-flipped linear structure
    pool.append(StructurePair(G1, pi=g1.pi,
                              b=g1.b.scale(Cyclotomic.rational(G1.M, 3)),
                              w_pi=1, w_b=2))
    pool.append(StructurePair(G1, pi=g1.pi, w_pi=1, w_b=2))
    flip = (PolyVectorField.single(G2, 0, (0, 0, 1), (0, 1), 1)
            + PolyVectorField.single(G2, 1, (0, 0, 1), (0, 1), 1)
            + PolyVectorField.single(G2, 0, (1, 0, 0), (0, 2), 1)
            + PolyVectorField.single(G2, 0, (0, 1, 0), (1, 2), 1))
    pool.append(StructurePair(G2, pi=flip, w_pi=1, w_b=2))

    groups = [_cyclic_plane(k) for k in (2, 3, 4, 6, 12)]
    groups.append(generate([[[0, 1], [1, 0]]], 4))
    groups.append(G1)
    assert all(g.order <= 12 for g in groups)
    rng = random.Random(2026)
    for i in range(24):
        pool.append(_random_invariant_pair(groups[i % len(groups)], rng))

    assert len(pool) >= 20
    n_pass = n_fail = 0
    for i, pair in enumerate(pool):
        a = check_bg(pair).passed
        b = overlap_confluence(pair).ok
        assert a == b, i
        if a:
            n_pass += 1
        else:
            n_fail += 1
    assert n_pass >= 3 and n_fail >= 3, (n_pass, n_fail)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, elapsed
    print(f"criterion 2: pass - both routes agree on {len(pool)} structures "
          f"({n_pass} flat, {n_fail} obstructed) plus the catalog")


def test_criterion_3_constant_reflection_structure():
    """The sign flip on the plane with an inverted symplectic form plus any
    class-function multiple at the flip is flat: the structural check passes,
    no overlap fails, and the normal monomial count through degree 3 is 20."""
    t0 = time.monotonic()
    G = generate([[[-1, 0], [0, -1]]], 1)
    omega = [[0, 1], [-1, 0]]
    for c in (1, 2, -3, Q(1, 2), Q(-5, 7)):
        pair = catalog.symplectic_reflection(G, omega, {1: c}).structure
        assert check_bg(pair).passed, c
        conf = overlap_confluence(pair)
        assert conf.ok and not conf.failures and conf.overlaps_checked > 0, c
    assert graded_dimension(G, 3) == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 3: pass - 5 sampled reflection structures flat, "
          "graded dimension 20 at degree 3")


def test_criterion_4_missing_constant_part_detected_and_solved():
    """Dropping the constant part of the n=1 family breaks exactly the
    jacobi-coboundary condition at the two rotation labels; the solver then
    recovers an admissible constant part that passes both routes."""
    t0 = time.monotonic()
    pair = catalog.gamma_n_family(1, 1).structure
    G = pair.group
    report = check_bg(pair.with_b(None))
    assert not report.passed
    assert not report.bg1_failures and not report.bg3_residues
    assert {(G.word_str(g), w) for (g, w) in report.bg2_residues} == {
        ("g0", 2), ("g0^2", 2)}
    assert all(not f.is_zero() for f in report.bg2_residues.values())

    stripped = StructurePair(G, pi=pair.pi, w_pi=1, w_b=2,
                             reality_swap=pair.reality_swap)
    result = solve_b(stripped)
    assert result.feasible
    assert result.free_parameters == 1
    assert not result.pair.b.is_zero()
    assert set(result.pair.b.labels()) <= set(range(G.order))
    assert check_bg(result.pair).passed
    assert overlap_confluence(result.pair).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 4: pass - obstruction located at the rotation labels, "
          "solver recovers a working constant part")


def _random_qpoly(n, rng, h_parts=True, max_exp=4, terms=3):
    M = QPoly.one(n).M
    out = {}
    for _ in range(terms):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randrange(n))
        c = Cyclotomic.rational(M, Q(rng.randint(-4, 4), rng.randint(1, 3)))
        if c.is_zero():
            continue
        j = rng.randint(0, 2) if h_parts else 0
        out[key] = HScalar.h_power(M, j, c)
    return QPoly(n, out)


def test_criterion_5_divided_difference_nilpotence():
    """The q-divided difference in the unbarred variable is nilpotent of
    order exactly the cyclic order, on arbitrary elements, and its closed
    m-th power formula matches the iterate."""
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        rng = random.Random(100 + n)
        for _ in range(30):
            f = _random_qpoly(n, rng, max_exp=6)
            g = f
            for _ in range(n):
                g = d_z(g)
            assert g == QPoly.zero(n)
        # the power is exact: one fewer application can survive
        probe = QPoly.monomial(n, n - 1, 0)
        for _ in range(n - 1):
            probe = d_z(probe)
        assert probe != QPoly.zero(n)
        for m in (1, 2, 3):
            for _ in range(5):
                f = _random_qpoly(n, rng, max_exp=6)
                it = f
                for _ in range(m):
                    it = d_z(it)
                assert d_z_closed(m, f) == it
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 5: pass - n-fold difference kills 30 random elements "
          "per order, closed power formula matches the iterate")


@lru_cache(maxsize=None)
def _assoc_class(n, a, c, d, e, f, k, l):
    # the first factor's barred exponent and the last factor's group power
    # only shift the output monomial, never a coefficient, so each class
    # representative with b = 0, m = 0 decides all triples in its class
    A = QPoly.monomial(n, a, 0, k)
    B = QPoly.monomial(n, c, d, l)
    C = QPoly.monomial(n, e, f, 0)
    return star(star(A, B), C) == star(A, star(B, C))


def test_criterion_6_star_associativity():
    """Both association orders agree on every monomial triple of degree at
    most 4 with every group-power combination, for cyclic orders 2..5.
    Exhaustive coverage goes through coefficient classes; random triples are
    also checked directly as a control on the class reduction."""
    t0 = time.monotonic()
    monos = [(x, y) for x in range(5) for y in range(5 - x)]
    checked = 0
    for n in (2, 3, 4, 5):
        for (a, b) in monos:
            for k in range(n):
                for (c, d) in monos:
                    for l in range(n):
                        for (e, f) in monos:
                            for m_ in range(n):
                                assert _assoc_class(n, a, c, d, e, f, k, l), (
                                    n, (a, b, k), (c, d, l), (e, f, m_))
                                checked += 1
    assert checked == sum(((len(monos) * n) ** 3 for n in (2, 3, 4, 5)))

    rng = random.Random(64)
    for _ in range(250):
        n = rng.choice((2, 3, 4, 5))
        a, b = rng.choice(monos)
        c, d = rng.choice(monos)
        e, f = rng.choice(monos)
        k, l, m_ = (rng.randrange(n) for _ in range(3))
        A = QPoly.monomial(n, a, b, k)
        B = QPoly.monomial(n, c, d, l)
        C = QPoly.monomial(n, e, f, m_)
        direct = star(star(A, B), C) == star(A, star(B, C))
        assert direct and _assoc_class(n, a, c, d, e, f, k, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, elapsed
    print(f"criterion 6: pass - {checked} monomial triples associative "
          f"(via {_assoc_class.cache_info().currsize} coefficient classes, "
          f"250 direct controls)")


def test_criterion_7_center_lift_and_relation():
    """Central lifts: both difference routes agree, every lift commutes with
    the generators, and the degree-n relation constant matches both its
    closed form and an independent star-expansion of the shifted factors."""
    t0 = time.monotonic()
    for n in (2, 3, 4):
        M = lcm(4, n)
        q = root_of_unity(M, M // n)
        one = Cyclotomic.one(M)
        half_i = root_of_unity(M, M // 4) * Cyclotomic.rational(M, Q(1, 2))

        seeds = [QPoly.monomial(n, 1, 1), QPoly.monomial(n, n, 0),
                 QPoly.monomial(n, 0, n), QPoly.monomial(n, 2, 2),
                 QPoly.monomial(n, n + 1, 1, coeff=2)]
        for f0 in seeds:
            lift = center_lift(f0, n)
            assert center_lift(f0, n, route="d_z") == lift
            assert center_lift(f0, n, route="d_zbar") == lift
            assert is_central(lift, n)

        expected = pow(half_i, n) * pow(q, (-(n * (n - 1) // 2)) % n) \
            / pow(one - q, n)
        assert center_relation(n) == HScalar.h_power(M, n, expected)

        # independent route: the product of the n shifted central factors
        # star-expands to exactly z^n * zbar^n
        w = center_lift(QPoly.monomial(n, 1, 1), n)
        prod = QPoly.one(n)
        for j in range(n):
            mu = half_i * pow(q, (-j) % n) / (one - q)
            prod = star(prod, w + QPoly.monomial(
                n, 0, 0, 1, coeff=HScalar.h_power(M, 1, mu)))
        assert prod == star(QPoly.monomial(n, n, 0), QPoly.monomial(n, 0, n))

    assert center_relation(2).to_literal() == "1/16*h^2"
    assert center_relation(3).to_literal() == "(-1/72*z^3 + 1/36*z)*h^3"
    assert center_relation(4).to_literal() == "1/64*h^4"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 7: pass - lifts central on both routes for n=2,3,4, "
          "relation constant matches closed form and star expansion")


def test_criterion_8_cohomology_reproductions():
    """Degree-0 and degree-1 truncated cohomology of the three linear and
    constant examples: dimensions, explicit bases, the divergence cut, and
    full-versus-identity-label agreement."""
    t0 = time.monotonic()

    r1 = catalog.z2_r3_linear(1).structure
    h0 = h_truncated(r1, 0, 3)
    assert h0.dimension == 4
    got = set()
    for rep in h0.representatives:
        assert len(rep.terms) == 1
        ((gi, expo, wedge),) = rep.terms
        assert gi == 0 and wedge == () and expo[:2] == (0, 0)
        got.add(expo[2])
    assert got == {0, 1, 2, 3}

    r2 = catalog.z2_r3_linear(2).structure
    G2 = r2.group
    h0b = h_truncated(r2, 0, 4)
    assert h0b.dimension == 3
    half = Cyclotomic.rational(G2.M, Q(-1, 2))
    w = (PolyVectorField.single(G2, 0, (1, 1, 0), (), 1)
         + PolyVectorField.single(G2, 0, (0, 0, 2), (), half))
    wsq = PolyVectorField(G2, {
        (0, (2, 2, 0), ()): Cyclotomic.one(G2.M),
        (0, (1, 1, 2), ()): -Cyclotomic.one(G2.M),
        (0, (0, 0, 4), ()): Cyclotomic.rational(G2.M, Q(1, 4)),
    })
    powers = [PolyVectorField.single(G2, 0, (0, 0, 0), (), 1), w, wsq]
    assert _rank(powers) == 3
    assert _rank(h0b.representatives) == 3
    assert _rank(list(h0b.representatives) + powers) == 3

    z2c = catalog.z2_constant(1).structure
    Gc = z2c.group
    h1 = h_truncated(z2c, 1, 2)
    assert (h1.dim_kernel, h1.dim_image, h1.dimension) == (3, 0, 3)

    def divergence_at_origin(field):
        tot = Cyclotomic.zero(Gc.M)
        for j in range(2):
            e = [0, 0]
            e[j] = 1
            tot = tot + field.terms.get((0, tuple(e), (j,)),
                                        Cyclotomic.zero(Gc.M))
        return tot

    for f in h1.kernel_basis:
        assert divergence_at_origin(f).is_zero()
        assert poisson_differential(z2c, f).is_zero()
    cut = [PolyVectorField.single(Gc, 0, (1, 0), (1,), 1),
           PolyVectorField.single(Gc, 0, (0, 1), (0,), 1),
           PolyVectorField.single(Gc, 0, (1, 0), (0,), 1)
           + PolyVectorField.single(Gc, 0, (0, 1), (1,), -1)]
    assert _rank(list(h1.kernel_basis) + cut) == 3
    outside = PolyVectorField.single(Gc, 0, (1, 0), (0,), 1)
    assert not divergence_at_origin(outside).is_zero()
    assert not poisson_differential(z2c, outside).is_zero()

    assert compare_h0(r1, 4) == (5, 5)
    assert compare_h0(r2, 4) == (3, 3)

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 8: pass - degree-0 bases and dimensions, divergence "
          "cut in degree 1, identity-label comparison at degree 4")


def _classical_product(F, G):
    n = F.n
    M = QPoly.one(n).M
    q = root_of_unity(M, M // n)
    out = {}
    for (a, b, k), ca in F.terms.items():
        for (c, d, l), cb in G.terms.items():
            key = (a + c, b + d, (k + l) % n)
            v = ca * cb * HScalar.const(pow(q, (k * (c - d)) % n))
            out[key] = out[key] + v if key in out else v
    return QPoly(n, {k: v for k, v in out.items() if v.parts})


def _commutative_normal_form(group, letters):
    m, M = group.dim, group.M
    poly = {(0,) * m: Cyclotomic.one(M)}
    acc = 0
    for kind, idx in letters:
        if kind == "g":
            acc = group.mul[acc][idx]
            continue
        A = group.matrix(acc)
        new = {}
        for e, c in poly.items():
            for j in range(m):
                if A[idx][j].is_zero():
                    continue
                e2 = list(e)
                e2[j] += 1
                e2 = tuple(e2)
                v = c * A[idx][j]
                new[e2] = new[e2] + v if e2 in new else v
        poly = {e: c for e, c in new.items() if not c.is_zero()}
    return {(e, acc): c for e, c in poly.items() if not c.is_zero()}


def test_criterion_9_classical_limit():
    """Discarding every positive deformation power from a star product or a
    rewritten normal form leaves exactly the commutative crossed product,
    recomputed here from scratch."""
    t0 = time.monotonic()
    rng = random.Random(99)
    count = 0
    for _ in range(50):
        n = rng.choice((2, 3, 5))
        F = _random_qpoly(n, rng, h_parts=False)
        G = _random_qpoly(n, rng, h_parts=False)
        got = star(F, G)
        limit = QPoly(n, {key: HScalar.const(hs.coeff(0))
                          for key, hs in got.terms.items()
                          if not hs.coeff(0).is_zero()})
        assert limit == _classical_product(F, G)
        count += 1

    pairs = [catalog.gamma_n_family(1, 1).structure,
             catalog.z2_constant(1).structure]
    for i in range(50):
        pair = pairs[i % 2]
        G = pair.group
        word = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                word.append(("x", rng.randrange(G.dim)))
            else:
                word.append(("g", rng.randrange(G.order)))
        nc = normal_form(pair, word)
        got = {key: hs.coeff(0) for key, hs in nc.terms.items()
               if not hs.coeff(0).is_zero()}
        assert got == _commutative_normal_form(G, word), word
        count += 1

    assert count == 100
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    print("criterion 9: pass - classical limit equals the commutative "
          "crossed product on 100 random inputs")
