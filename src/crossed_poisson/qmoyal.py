"""Exact q-difference star product on the plane crossed with a cyclic group.

The cyclic group of order n acts on the coordinate ring C[z, zbar] through
z -> q z, zbar -> q^{-1} zbar with q the primitive n-th root of unity.  A
QPoly is a finite sum  c_{a,b,k} z^a zbar^b g^k  over the crossed product,
with coefficients polynomial in the deformation parameter.  The star product
deforms the crossed product by one-variable q-difference operators and
truncates at order n - 1, so everything here is exact polynomial arithmetic
over Q(zeta_M) with M = lcm(4, n).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .linalg import Terms, add_into
from .scalars import (Cyclotomic, HScalar, Q, q_factorial, q_integer,
                      root_of_unity, signed_sum)


class StarError(ValueError):
    """Base class for invalid star-product input."""


class OrderMismatchError(StarError):
    """Raised when two operands live over different cyclic orders."""


class NotInvariantError(StarError):
    """Raised when a center lift starts from a non-invariant polynomial."""


class DivisibilityError(StarError):
    """Raised when an exact monomial division fails.

    For invariant input the divisions in the center lift and in the closed
    derivative formula always succeed; hitting this means the input was
    inconsistent with the stated preconditions.
    """


def _conductor(n):
    return lcm(4, n)


@lru_cache(maxsize=None)
def _unit_q(n):
    """The primitive n-th root of unity inside Q(zeta_{lcm(4,n)})."""
    M = _conductor(n)
    return root_of_unity(M, M // n)


@lru_cache(maxsize=None)
def _half_i(n):
    M = _conductor(n)
    return root_of_unity(M, M // 4) * Q(1, 2)


class QPoly(Terms):
    """An element of the deformed crossed product of the plane by Z/n.

    terms maps (a, b, k) to an HScalar coefficient: a and b are the z and
    zbar exponents, k is the group power reduced mod n.  The dict is
    canonical (no zero coefficients), so equality is structural.
    """

    __slots__ = ("n", "M")

    def __init__(self, n, terms):
        if n < 1:
            raise ValueError("cyclic order must be positive")
        self.n = n
        self.M = _conductor(n)
        self.terms = {}
        for (a, b, k), c in terms.items():
            if a < 0 or b < 0:
                raise ValueError("negative exponent in crossed-product term")
            add_into(self.terms, (a, b, k % n), c)

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def monomial(cls, n, a, b, k=0, coeff=1):
        return cls(n, {(a, b, k): HScalar.of(_conductor(n), coeff)})

    @classmethod
    def one(cls, n):
        return cls.monomial(n, 0, 0)

    @classmethod
    def z(cls, n):
        return cls.monomial(n, 1, 0)

    @classmethod
    def zbar(cls, n):
        return cls.monomial(n, 0, 1)

    @classmethod
    def rotation(cls, n, power=1):
        """The group generator (or a power of it) as an algebra element."""
        return cls.monomial(n, 0, 0, power)

    def _check_same(self, other):
        if not isinstance(other, QPoly):
            raise TypeError("expected a QPoly")
        if other.n != self.n:
            raise OrderMismatchError(f"cyclic orders differ: {self.n} vs {other.n}")

    def _coeff(self, c):
        return HScalar.of(self.M, c)

    def __mul__(self, other):
        """The undeformed crossed product: the group part twists the right factor."""
        self._check_same(other)
        q = _unit_q(self.n)
        out = {}
        for (a, b, k), c1 in self.terms.items():
            for (c, d, l), c2 in other.terms.items():
                add_into(out, (a + c, b + d, (k + l) % self.n),
                         c1 * c2 * pow(q, (k * (c - d)) % self.n))
        return self._like(out)

    def at_h_zero(self):
        """Set the deformation parameter to zero."""
        return QPoly(self.n, {key: HScalar.const(c.at_h_zero()) for key, c in self.terms.items()})

    def group_component(self, k):
        """The partial sum of terms with group power k."""
        k = k % self.n
        return self._like({key: c for key, c in self.terms.items() if key[2] == k})

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.n == other.n and self.terms == other.terms

    def to_literal(self):
        """Render in the CLI expression grammar (variables Z, Zb, g)."""
        bodies = []
        for a, b, k in sorted(self.terms, key=lambda key: (key[2], key[0], key[1])):
            lit = self.terms[(a, b, k)].to_literal()
            factors = []
            if a:
                factors.append("Z" if a == 1 else f"Z^{a}")
            if b:
                factors.append("Zb" if b == 1 else f"Zb^{b}")
            if k:
                factors.append("g" if k == 1 else f"g^{k}")
            mono = "*".join(factors)
            if not mono:
                body = f"({lit})" if (" + " in lit or " - " in lit) else lit
            elif lit == "1":
                body = mono
            elif lit == "-1":
                body = f"-{mono}"
            elif " + " in lit or " - " in lit:
                body = f"({lit})*{mono}"
            else:
                body = f"{lit}*{mono}"
            bodies.append(body)
        return signed_sum(bodies)

    def __repr__(self):
        return f"QPoly({self.n}: {self.to_literal()})"


def sigma_z(F):
    """Substitute z -> q z, leaving zbar alone."""
    q = _unit_q(F.n)
    return F._like({(a, b, k): c * pow(q, a % F.n) for (a, b, k), c in F.terms.items()})


def d_z(F):
    """The q-difference quotient in z: z^a  ->  [a]_q z^{a-1}."""
    q = _unit_q(F.n)
    out = {}
    for (a, b, k), c in F.terms.items():
        if a == 0:
            continue
        add_into(out, (a - 1, b, k), c * q_integer(a, q))
    return F._like(out)


def d_zbar(F):
    """The q^{-1}-difference quotient in zbar: zbar^b  ->  [b]_{1/q} zbar^{b-1}."""
    qinv = pow(_unit_q(F.n), F.n - 1)
    out = {}
    for (a, b, k), c in F.terms.items():
        if b == 0:
            continue
        add_into(out, (a, b - 1, k), c * q_integer(b, qinv))
    return F._like(out)


def _divide_exact(F, z_drop, zbar_drop):
    out = {}
    for (a, b, k), c in F.terms.items():
        if a < z_drop or b < zbar_drop:
            raise DivisibilityError(
                f"term z^{a} zbar^{b} is not divisible by z^{z_drop} zbar^{zbar_drop}"
            )
        out[(a - z_drop, b - zbar_drop, k)] = c
    return F._like(out)


@lru_cache(maxsize=None)
def _falling(n, top, count, bar=False):
    """[top] [top-1] ... [top-count+1] as q-integers, or 1/q-integers if bar."""
    q = _unit_q(n)
    if bar:
        q = pow(q, n - 1)
    acc = Cyclotomic.one(_conductor(n))
    for s in range(count):
        acc = acc * q_integer(top - s, q)
    return acc


@lru_cache(maxsize=4096)
def _mono_star(n, a, b, k, c, d, l):
    """Star product of two monomials, split by power of the parameter.

    Returns a tuple of ((a2, b2, k2), j, coeff) entries meaning
    coeff * hbar^j * z^a2 zbar^b2 g^k2.  The memo is bounded: its key
    carries b and l, which only shift the output monomial, so most keys
    are distinct and an unbounded memo grows with every product taken.
    """
    q = _unit_q(n)
    twist = pow(q, (k * (c - d)) % n)
    half_i = _half_i(n)
    out = []
    top = min(a, d, n - 1)
    scalar = twist
    for j in range(top + 1):
        if j:
            scalar = scalar * half_i / q_integer(j, q)
        fall = _falling(n, a, j) * _falling(n, d, j, bar=True)
        if not fall:
            continue
        piece = scalar * fall * pow(q, (j * c) % n)
        out.append(((a - j + c, b + d - j, (j + k + l) % n), j, piece))
    return tuple(out)


def star(F, G):
    """The deformed product; its parameter-free part is the crossed product."""
    F._check_same(G)
    n = F.n
    out = {}
    for key1, c1 in F.terms.items():
        for key2, c2 in G.terms.items():
            base = c1 * c2
            for key3, j, piece in _mono_star(n, *key1, *key2):
                add_into(out, key3, base.shift(j) * piece)
    return F._like(out)


def star_power(F, m):
    """F starred with itself m times (m = 0 gives the identity)."""
    if m < 0:
        raise ValueError("negative power")
    acc = QPoly.one(F.n)
    for _ in range(m):
        acc = star(acc, F)
    return acc


def _center_component(f0, j, route):
    n = f0.n
    q = _unit_q(n)
    half_i = _half_i(n)
    one = Cyclotomic.one(f0.M)
    if route == "d_z":
        num = f0
        for _ in range(j):
            num = d_z(num)
        scalar = pow(half_i, j) / (q_factorial(j, q) * pow(one - pow(q, n - 1), j))
        return _divide_exact(num, 0, j).scale(scalar).scale(HScalar.h_power(f0.M, j))
    num = f0
    for _ in range(j):
        num = d_zbar(num)
    for _ in range(j):
        num = sigma_z(num)
    scalar = (
        pow(-half_i, j)
        * pow(q, (-(j * (j - 1) // 2)) % n)
        / (pow(one - q, j) * q_factorial(j, q))
    )
    return _divide_exact(num, j, 0).scale(scalar).scale(HScalar.h_power(f0.M, j))


def center_lift(f0, n, route="both"):
    """Extend an invariant polynomial to a central element of the deformed algebra.

    The group-power-j component is an exact multiple of the j-th difference of
    f0 divided by zbar^j; the same component has an equivalent expression
    through the barred difference divided by z^j.  route selects "d_z",
    "d_zbar", or "both" (the default cross-checks the two).
    """
    if route not in ("both", "d_z", "d_zbar"):
        raise ValueError(f"unknown route {route!r}")
    if f0.n != n:
        raise OrderMismatchError(f"cyclic orders differ: {f0.n} vs {n}")
    if any(key[2] for key in f0.terms):
        raise StarError("center lift starts from a polynomial with no group component")
    if any((a - b) % n for (a, b, _k) in f0.terms):
        raise NotInvariantError("the seed polynomial is not rotation-invariant")
    total = f0
    for j in range(1, n):
        if route == "both":
            fj = _center_component(f0, j, "d_z")
            if fj != _center_component(f0, j, "d_zbar"):
                raise RuntimeError("the two lift expressions disagree")
        else:
            fj = _center_component(f0, j, route)
        total = total + QPoly(n, {(a, b, j): c for (a, b, _k), c in fj.terms.items()})
    return total


def is_central(F, n):
    """Whether F star-commutes with the coordinate and group generators."""
    if F.n != n:
        raise OrderMismatchError(f"cyclic orders differ: {F.n} vs {n}")
    for gen in (QPoly.z(n), QPoly.zbar(n), QPoly.rotation(n)):
        if star(F, gen) != star(gen, F):
            return False
    return True


def center_relation(n):
    """The constant c with z^n * zbar^n - w^{*n} = c in the center.

    Here w is the central lift of z zbar and the products are star products.
    The constant is a pure power-n term in the parameter; setting the
    parameter to zero recovers the undeformed cone relation.
    """
    if n < 2:
        raise StarError("the relation needs a nontrivial cyclic group")
    u = QPoly.monomial(n, n, 0)
    v = QPoly.monomial(n, 0, n)
    w = center_lift(QPoly.monomial(n, 1, 1), n)
    diff = star(u, v) - star_power(w, n)
    if any(key != (0, 0, 0) for key in diff.terms):
        raise RuntimeError("the relation defect is not a constant")
    return diff.terms.get((0, 0, 0), HScalar.zero(_conductor(n)))
