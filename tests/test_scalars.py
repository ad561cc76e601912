from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ref_add,
    ref_conjugate,
    ref_inv,
    ref_literal,
    ref_mul,
    ref_promote,
    ref_reduce,
    ref_sub,
)
from crossed_poisson.scalars import (
    Cyclotomic,
    HScalar,
    Q,
    cyclotomic_polynomial,
    q_binomial,
    q_factorial,
    q_integer,
    root_of_unity,
    signed_sum,
)


def test_cyclotomic_polynomials_small():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_3 = x^2 + x + 1
    assert cyclotomic_polynomial(1) == [Q(-1), Q(1)]
    assert cyclotomic_polynomial(2) == [Q(1), Q(1)]
    assert cyclotomic_polynomial(3) == [Q(1), Q(1), Q(1)]
    assert cyclotomic_polynomial(4) == [Q(1), Q(0), Q(1)]
    assert cyclotomic_polynomial(12) == [Q(1), Q(0), Q(-1), Q(0), Q(1)]


def test_third_roots_sum():
    # zeta_3 + zeta_3^2 = -1
    z1 = root_of_unity(3, 1)
    z2 = root_of_unity(3, 2)
    assert z1 + z2 == Cyclotomic.rational(3, -1)
    assert z1 + z2 == -1


def test_i_squares_to_minus_one():
    i = root_of_unity(4)
    assert i * i == -1
    assert i ** 2 == Cyclotomic.rational(4, -1)


def test_inverse_of_i():
    i = root_of_unity(4)
    assert i.invert() == -i
    assert i.invert() * i == 1


def test_inverse_of_one_minus_zeta3():
    a = Cyclotomic.one(3) - root_of_unity(3)
    inv = a.invert()
    assert a * inv == 1
    # known closed form: 1/(1 - zeta_3) = (2 + zeta_3)/3
    assert inv == (Cyclotomic.rational(3, 2) + root_of_unity(3)) * Q(1, 3)


def test_power_basis_reduction_is_canonical():
    # zeta_4^2 and -1 must have identical representations
    a = root_of_unity(4, 2)
    b = Cyclotomic.rational(4, -1)
    assert a.c == b.c
    assert hash(a) == hash(b)
    # zeta_3^2 reduces out of the power basis of degree 2
    z2 = root_of_unity(3, 2)
    assert z2.c == (Q(-1), Q(-1))
    assert z2.coeffs == (Q(-1), Q(-1), Q(0))


def test_conjugation_on_roots():
    for M in (3, 4, 5, 12):
        for k in range(M):
            assert root_of_unity(M, k).conjugate() == root_of_unity(M, M - k)


def test_promotion_embeds_compatibly():
    z3 = root_of_unity(3)
    z12 = root_of_unity(12)
    assert z3.promote(12) == z12 ** 4
    a = (Cyclotomic.rational(3, 2) + z3) * Q(1, 5)
    assert a.promote(12) == (Cyclotomic.rational(12, 2) + z12 ** 4) * Q(1, 5)
    with pytest.raises(ValueError):
        z3.promote(8)


def _random_elt(draw, M):
    d = len(Cyclotomic.zero(M).c)
    coeffs = draw(st.lists(
        st.integers(min_value=-4, max_value=4), min_size=d, max_size=d))
    return Cyclotomic(M, coeffs)


@st.composite
def cyclos(draw, M=12):
    return _random_elt(draw, M)


@settings(max_examples=60, deadline=None)
@given(a=cyclos(), b=cyclos(), c=cyclos())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.invert() == 1


@settings(max_examples=40, deadline=None)
@given(a=cyclos(), b=cyclos())
def test_conjugation_is_an_automorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        root_of_unity(3) + root_of_unity(4)


# -- integer representation against the Fraction reference -------------------

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 20)
_FRACTIONS = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))


def _coeff_lists(M):
    """Unreduced coefficient lists: general, integral, rational or zero."""
    return st.one_of(
        st.lists(_FRACTIONS, min_size=1, max_size=M + 2),
        st.lists(st.integers(-5, 5), min_size=1, max_size=M + 2),
        _FRACTIONS.map(lambda r: [r]),
        st.just([0]),
    )


def _assert_normal_form(x):
    d = len(Cyclotomic.zero(x.M).n)
    assert len(x.n) == d and all(type(a) is int for a in x.n)
    assert type(x.den) is int and x.den > 0
    assert gcd(*x.n, x.den) == 1
    if not any(x.n):
        assert (x.n, x.den) == ((0,) * d, 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_scalars_agree_with_the_fraction_reference(data):
    M = data.draw(st.sampled_from(CONDUCTORS))
    va = data.draw(_coeff_lists(M))
    vb = data.draw(_coeff_lists(M))
    r = data.draw(_FRACTIONS)
    x, y = Cyclotomic(M, va), Cyclotomic(M, vb)
    a, b = ref_reduce(M, va), ref_reduce(M, vb)
    rr = ref_reduce(M, [r])
    got = [(x, a), (y, b), (x + y, ref_add(a, b)), (x - y, ref_sub(a, b)),
           (x * y, ref_mul(M, a, b)), (x * r, ref_mul(M, a, rr)),
           (r * x, ref_mul(M, a, rr)), (x + r, ref_add(a, rr)),
           (r - x, ref_sub(rr, a)), (-x, ref_sub(ref_reduce(M, [0]), a)),
           (x.conjugate(), ref_conjugate(M, a))]
    for k in (2, 3):
        got.append((x.promote(k * M), ref_promote(M, a, k * M)))
    if any(b):
        got += [(y.invert(), ref_inv(M, b)),
                (x / y, ref_mul(M, a, ref_inv(M, b)))]
    if r:
        got.append((x / r, ref_mul(M, a, ref_inv(M, rr))))
    for value, expect in got:
        assert value.c == expect
        _assert_normal_form(value)
        assert value.to_literal() == ref_literal(expect)
        assert value == Cyclotomic(value.M, expect)
        assert hash(value) == hash(Cyclotomic(value.M, expect))


# -- q-combinatorics ---------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_q_integer_vanishing_pattern(n):
    q = root_of_unity(n)
    assert q_integer(n, q).is_zero()
    for k in range(1, n):
        assert not q_integer(k, q).is_zero()


def test_q_factorial_conjugate_symmetry():
    # [k]_q! = [k]_{q^-1}! * q^(k(k-1)/2)
    for n in (3, 4, 5, 7):
        q = root_of_unity(n)
        qinv = q.invert()
        for k in range(n):
            lhs = q_factorial(k, q)
            rhs = q_factorial(k, qinv) * q ** (k * (k - 1) // 2)
            assert lhs == rhs


def test_q_binomial_values():
    q = root_of_unity(12)  # generic enough root for small cases
    # [4 choose 2]_q = 1 + q + 2q^2 + q^3 + q^4
    expect = (Cyclotomic.one(12) + q + 2 * q ** 2 + q ** 3 + q ** 4)
    assert q_binomial(4, 2, q) == expect
    # at q a primitive n-th root, [n choose k]_q = 0 for 0 < k < n
    for n in (2, 3, 5):
        qq = root_of_unity(n)
        for k in range(1, n):
            assert q_binomial(n, k, qq).is_zero()
        assert q_binomial(n, 0, qq) == 1
        assert q_binomial(n, n, qq) == 1


# -- hbar polynomials --------------------------------------------------------

def test_hscalar_basic_arithmetic():
    M = 4
    h = HScalar.h_power(M, 1)
    i = root_of_unity(4)
    a = HScalar.const(i) + h * h  # i + h^2
    b = h * 2 + 1
    prod = a * b
    # (i + h^2)(1 + 2h) = i + 2i h + h^2 + 2 h^3
    assert prod.coeff(0) == i
    assert prod.coeff(1) == 2 * i
    assert prod.coeff(2) == 1
    assert prod.coeff(3) == 2
    assert prod.degree() == 3
    assert prod.at_h_zero() == i


def test_hscalar_trailing_zeros_trimmed():
    M = 4
    a = HScalar.h_power(M, 3)
    assert (a - a).parts == ()
    assert (a - a).is_zero()
    assert a.shift(2).degree() == 5


def test_hscalar_equality_across_conductors_is_false():
    assert not HScalar.one(4) == HScalar.one(12)
    assert HScalar.one(4) != HScalar.one(12)
    assert not HScalar.one(12) == Cyclotomic.one(5)
    assert HScalar.one(12) != Cyclotomic.one(4)
    assert HScalar.one(12) == Cyclotomic.one(12)
    assert HScalar.one(12) == 1
    with pytest.raises(ValueError):
        HScalar.one(4) + HScalar.one(12)
    with pytest.raises(ValueError):
        HScalar.one(12) * Cyclotomic.one(5)


def test_hscalar_literals_round_shape():
    M = 12
    s = HScalar(M, (Cyclotomic.rational(M, -2), root_of_unity(M)))
    lit = s.to_literal()
    assert "h" in lit
    assert s.conjugate().coeff(1) == root_of_unity(M, 11)


def test_signed_sum_joins_signed_bodies():
    assert signed_sum([]) == "0"
    assert signed_sum(["x"]) == "x"
    assert signed_sum(["-x", "y", "-2*z"]) == "-x + y - 2*z"
    assert HScalar.zero(4).to_literal() == "0"
    assert Cyclotomic(4, [0, -1]).to_literal() == "-z"
    # a negative multi-term coefficient is bracketed at h and subtracted
    # term by term at h^0
    neg = Cyclotomic(4, [-1, -1])
    assert neg.to_literal() == "-z - 1"
    assert HScalar(4, (neg, neg)).to_literal() == "(-z - 1)*h - z - 1"
    assert HScalar(4, (Cyclotomic.one(4), -Cyclotomic.one(4))).to_literal() == "-h + 1"
