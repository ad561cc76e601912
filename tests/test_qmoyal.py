import random
from math import lcm

import pytest

from crossed_poisson.scalars import Cyclotomic, HScalar, Q, q_integer, root_of_unity
from crossed_poisson.qmoyal import (
    DivisibilityError,
    NotInvariantError,
    OrderMismatchError,
    QPoly,
    StarError,
    center_lift,
    center_relation,
    d_z,
    d_zbar,
    is_central,
    sigma_z,
    star,
    star_power,
)
from oracles import d_z_closed, q_leibniz, rotate, sigma_zbar


def unit(n):
    M = lcm(4, n)
    return root_of_unity(M, M // n)


def half_i(n):
    M = lcm(4, n)
    return root_of_unity(M, M // 4) * Q(1, 2)


def random_poly(n, rng, nterms=4, max_exp=4, group=False, hbar=False):
    M = lcm(4, n)
    F = QPoly.zero(n)
    for _ in range(nterms):
        c = Cyclotomic(M, [rng.randint(-3, 3) for _ in range(2)])
        coeff = HScalar.h_power(M, rng.randrange(2), c) if hbar else HScalar.const(c)
        F = F + QPoly(
            n,
            {
                (
                    rng.randrange(max_exp + 1),
                    rng.randrange(max_exp + 1),
                    rng.randrange(n) if group else 0,
                ): coeff
            },
        )
    return F


# ---------------------------------------------------------------------------
# independent oracles, written against the substitution semantics only


def subst_scaled(F, z_power, zbar_power):
    """F(q^z_power z, q^zbar_power zbar) computed by raw substitution."""
    q = unit(F.n)
    return QPoly(
        F.n,
        {
            key: c * pow(q, (z_power * key[0] + zbar_power * key[1]) % F.n)
            for key, c in F.terms.items()
        },
    )


def brute_d_z(F):
    """(F(z, zbar) - F(qz, zbar)) / ((1 - q)z) without q-integer shortcuts."""
    n = F.n
    q = unit(n)
    num = F - subst_scaled(F, 1, 0)
    out = {}
    denom = (Cyclotomic.one(F.M) - q).invert()
    for (a, b, k), c in num.terms.items():
        assert a >= 1, "difference quotient left a constant term"
        out[(a - 1, b, k)] = c * denom
    return QPoly(n, out)


def brute_d_zbar(F):
    n = F.n
    q = unit(n)
    num = F - subst_scaled(F, 0, -1)
    out = {}
    denom = (Cyclotomic.one(F.M) - pow(q, n - 1)).invert()
    for (a, b, k), c in num.terms.items():
        assert b >= 1
        out[(a, b - 1, k)] = c * denom
    return QPoly(n, out)


def brute_star_n2(F, G):
    """The order-2 product via explicit sign-flip substitutions."""
    assert F.n == G.n == 2
    M = F.M
    gamma = QPoly.rotation(2)
    first = brute_d_z(F)
    second = subst_scaled(brute_d_zbar(G), 1, 0)
    correction = (first * second * gamma).scale(HScalar.h_power(M, 1, half_i(2)))
    return F * G + correction


def iterated_d_z(F, m):
    for _ in range(m):
        F = d_z(F)
    return F


# ---------------------------------------------------------------------------
# QPoly plumbing


def test_canonical_terms():
    n = 3
    F = QPoly(n, {(1, 0, 5): HScalar.one(12), (1, 0, 2): HScalar.one(12)})
    assert F == QPoly.monomial(n, 1, 0, 2, 2)
    assert QPoly(n, {(0, 0, 0): HScalar.zero(12)}).is_zero()
    # k and k + n name the same group power, so these cancel
    assert QPoly(n, {(1, 0, 1): HScalar.one(12), (1, 0, 4): -HScalar.one(12)}).terms == {}
    z, zb = QPoly.z(n), QPoly.zbar(n)
    assert (z + zb) * (z - zb) == QPoly.monomial(n, 2, 0) - QPoly.monomial(n, 0, 2)
    for F in ((z + zb) * (z - zb), star(z + zb, z - zb), (z + zb) - (zb + z)):
        assert all(c for c in F.terms.values())
    with pytest.raises(ValueError):
        QPoly(n, {(-1, 0, 0): HScalar.one(12)})


def test_crossed_product_twist():
    n = 4
    q = unit(n)
    lhs = QPoly.rotation(n) * QPoly.z(n)
    assert lhs == QPoly.monomial(n, 1, 0, 1, q)
    rhs = QPoly.z(n) * QPoly.rotation(n)
    assert rhs == QPoly.monomial(n, 1, 0, 1)
    assert QPoly.z(n) * QPoly.zbar(n) == QPoly.zbar(n) * QPoly.z(n)


def test_mismatched_orders_rejected():
    with pytest.raises(OrderMismatchError):
        star(QPoly.z(2), QPoly.z(3))
    with pytest.raises(OrderMismatchError):
        QPoly.z(2) * QPoly.z(3)


def test_literal_rendering():
    n = 2
    w = center_lift(QPoly.monomial(n, 1, 1), n)
    assert w.to_literal() == "Z*Zb + 1/4*z*h*g"
    assert QPoly.zero(n).to_literal() == "0"
    assert (-QPoly.z(n)).to_literal() == "-Z"


# ---------------------------------------------------------------------------
# difference operators


def test_operators_match_substitution_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            F = random_poly(n, rng, group=True)
            assert d_z(F) == brute_d_z(F)
            assert d_zbar(F) == brute_d_zbar(F)
            assert sigma_z(F) == subst_scaled(F, 1, 0)
            assert sigma_zbar(F) == subst_scaled(F, 0, -1)
            assert rotate(F) == sigma_z(sigma_zbar(F))


def test_d_z_on_constants_and_powers():
    for n in (2, 3, 5):
        q = unit(n)
        assert d_z(QPoly.one(n)).is_zero()
        for m in range(1, 2 * n):
            got = d_z(QPoly.monomial(n, m, 0))
            expect = (Cyclotomic.one(lcm(4, n)) - pow(q, m % n)) / (Cyclotomic.one(lcm(4, n)) - q)
            assert got == QPoly.monomial(n, m - 1, 0, 0, expect)
            assert expect == q_integer(m, q)


def test_d_z_vanishes_at_order_n():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            F = random_poly(n, rng, max_exp=6, group=True)
            assert iterated_d_z(F, n).is_zero()


def test_closed_form_base_cases():
    rng = random.Random(13)
    for n in (2, 3, 4):
        F = random_poly(n, rng)
        assert d_z_closed(0, F) == F
        one_step = brute_d_z(F)
        assert d_z_closed(1, F) == one_step == d_z(F)


def test_closed_form_matches_iterated():
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            F = random_poly(n, rng, max_exp=5, group=True)
            for m in range(n + 1):
                assert d_z_closed(m, F) == iterated_d_z(F, m)


def test_q_leibniz_matches_iterated_product_rule():
    rng = random.Random(19)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            F = random_poly(n, rng, nterms=3)
            G = random_poly(n, rng, nterms=3)
            for k in range(n + 2):
                assert q_leibniz(k, F, G) == iterated_d_z(F * G, k)


def test_q_leibniz_rejects_group_parts():
    with pytest.raises(StarError):
        q_leibniz(1, QPoly.rotation(3), QPoly.z(3))


# ---------------------------------------------------------------------------
# the star product


def test_star_of_coordinates():
    for n in (2, 3, 4, 5):
        M = lcm(4, n)
        z, zb = QPoly.z(n), QPoly.zbar(n)
        assert star(z, zb) == QPoly.monomial(n, 1, 1) + QPoly.monomial(
            n, 0, 0, 1, HScalar.h_power(M, 1, half_i(n))
        )
        assert star(zb, z) == QPoly.monomial(n, 1, 1)
        comm = star(z, zb) - star(zb, z)
        assert comm == QPoly.monomial(n, 0, 0, 1, HScalar.h_power(M, 1, half_i(n)))
        # the linear part in the parameter is i/2 times the group generator
        assert comm.terms[(0, 0, 1)].coeff(1) == half_i(n)


def test_star_unit_element():
    rng = random.Random(23)
    for n in (2, 5):
        F = random_poly(n, rng, group=True, hbar=True)
        assert star(QPoly.one(n), F) == F
        assert star(F, QPoly.one(n)) == F


def test_star_matches_order_two_formula():
    rng = random.Random(29)
    for _ in range(12):
        F = random_poly(2, rng, nterms=3)
        G = random_poly(2, rng, nterms=3)
        assert star(F, G) == brute_star_n2(F, G)


def test_star_associative_small_exhaustive():
    for n in (2, 3):
        mons = [(a, b) for a in range(3) for b in range(3 - a)]
        for a, b in mons:
            for c, d in mons:
                for e, f in mons:
                    for k in range(n):
                        for l in range(n):
                            x = QPoly.monomial(n, a, b, k)
                            y = QPoly.monomial(n, c, d, l)
                            w = QPoly.monomial(n, e, f, 1)
                            assert star(star(x, y), w) == star(x, star(y, w))


def test_star_associative_random_dense():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            F = random_poly(n, rng, nterms=3, group=True, hbar=True)
            G = random_poly(n, rng, nterms=3, group=True, hbar=True)
            H = random_poly(n, rng, nterms=3, group=True, hbar=True)
            assert star(star(F, G), H) == star(F, star(G, H))


def test_parameter_zero_is_crossed_product():
    rng = random.Random(37)
    for n in (2, 3, 4, 5):
        for _ in range(6):
            F = random_poly(n, rng, group=True, hbar=True)
            G = random_poly(n, rng, group=True, hbar=True)
            assert star(F, G).at_h_zero() == (F * G).at_h_zero()


def test_star_power_basics():
    n = 3
    z = QPoly.z(n)
    assert star_power(z, 0) == QPoly.one(n)
    assert star_power(z, 4) == QPoly.monomial(n, 4, 0)
    with pytest.raises(ValueError):
        star_power(z, -1)


# ---------------------------------------------------------------------------
# the center


def test_center_lift_fixed_points():
    for n in (2, 3, 4):
        assert center_lift(QPoly.one(n), n) == QPoly.one(n)
        assert center_lift(QPoly.monomial(n, n, 0), n) == QPoly.monomial(n, n, 0)
        assert center_lift(QPoly.monomial(n, 0, n), n) == QPoly.monomial(n, 0, n)


def test_center_lift_w_generator():
    w = center_lift(QPoly.monomial(2, 1, 1), 2)
    assert w == QPoly.monomial(2, 1, 1) + QPoly.monomial(
        2, 0, 0, 1, HScalar.h_power(4, 1, root_of_unity(4) * Q(1, 4))
    )
    for n in (3, 4, 5):
        w = center_lift(QPoly.monomial(n, 1, 1), n)
        inv_gap = (Cyclotomic.one(lcm(4, n)) - pow(unit(n), n - 1)).invert()
        assert w == QPoly.monomial(n, 1, 1) + QPoly.monomial(
            n, 0, 0, 1, HScalar.h_power(lcm(4, n), 1, half_i(n) * inv_gap)
        )


def test_center_lift_routes_agree():
    rng = random.Random(41)
    for n in (2, 3, 4):
        for _ in range(6):
            F = QPoly.zero(n)
            for _ in range(3):
                a = rng.randrange(5)
                shift = rng.randrange(3) * n
                b = a + shift if rng.random() < 0.5 else max(a - shift, a % n)
                if (a - b) % n:
                    b = a
                F = F + QPoly.monomial(n, a, b, 0, rng.randint(-3, 3))
            lifted = center_lift(F, n)
            assert lifted == center_lift(F, n, route="d_z")
            assert lifted == center_lift(F, n, route="d_zbar")
            assert is_central(lifted, n)


def test_center_lift_rejects_bad_input():
    with pytest.raises(NotInvariantError):
        center_lift(QPoly.z(3), 3)
    with pytest.raises(StarError):
        center_lift(QPoly.rotation(3), 3)
    with pytest.raises(OrderMismatchError):
        center_lift(QPoly.one(2), 3)
    with pytest.raises(ValueError):
        center_lift(QPoly.one(2), 2, route="sideways")


def test_generators_of_center_are_central():
    for n in (2, 3, 4, 5):
        assert is_central(QPoly.monomial(n, n, 0), n)
        assert is_central(QPoly.monomial(n, 0, n), n)
        assert is_central(center_lift(QPoly.monomial(n, 1, 1), n), n)
        assert not is_central(QPoly.z(n), n)
        assert not is_central(QPoly.rotation(n), n)


def test_center_relation_frozen_values():
    assert center_relation(2) == HScalar.h_power(4, 2, Cyclotomic.rational(4, Q(1, 16)))
    # order 3: the constant is sqrt(3)/72 times the cube of the parameter
    sqrt3 = root_of_unity(12, 1) + root_of_unity(12, 11)
    assert center_relation(3) == HScalar.h_power(12, 3, sqrt3 * Q(1, 72))
    assert center_relation(4) == HScalar.h_power(4, 4, Cyclotomic.rational(4, Q(1, 64)))


def test_center_relation_closed_form_and_oracle():
    for n in (2, 3, 4, 5):
        got = center_relation(n)
        M = lcm(4, n)
        q = unit(n)
        closed = pow(half_i(n), n) * pow(q, (-(n * (n - 1) // 2)) % n) / pow(
            Cyclotomic.one(M) - q, n
        )
        assert got == HScalar.h_power(M, n, closed)
        assert got.at_h_zero().is_zero()
        # oracle: expand the product of the shifted central generators directly
        w = center_lift(QPoly.monomial(n, 1, 1), n)
        acc = QPoly.one(n)
        for j in range(n):
            gap = half_i(n) * pow(q, (-j) % n) / (Cyclotomic.one(M) - q)
            acc = star(acc, w + QPoly.monomial(n, 0, 0, 1, HScalar.h_power(M, 1, gap)))
        assert acc == star(QPoly.monomial(n, n, 0), QPoly.monomial(n, 0, n))


def test_center_relation_rejects_trivial_group():
    with pytest.raises(StarError):
        center_relation(1)
