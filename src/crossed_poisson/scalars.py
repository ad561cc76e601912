"""Exact scalars: elements of a cyclotomic field and polynomials in a formal hbar.

Everything downstream (group matrices, structure coefficients, linear solves,
star products) runs over Q(zeta_M) for one conductor M fixed per problem, with
values stored as an integer numerator vector over one positive common
denominator, reduced modulo the M-th cyclotomic polynomial.  No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm

QZERO = Q(0)
QONE = Q(1)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor reduction tables
# ---------------------------------------------------------------------------

def _poly_divmod(num, den):
    """Quotient and remainder of two polynomials, as lists of Q lowest degree
    first; den's last coefficient must be nonzero.

    The remainder keeps the length of num, with zeros from den's degree up.
    """
    r = list(num)
    dn = len(den) - 1
    q = [QZERO] * (len(r) - dn)
    for k in range(len(r) - 1, dn - 1, -1):
        c = r[k] / den[dn]
        q[k - dn] = c
        if c:
            for i, b in enumerate(den):
                r[k - dn + i] -= c * b
    return q, r


def cyclotomic_polynomial(M):
    """Coefficients of the M-th cyclotomic polynomial, lowest degree first."""
    return list(_ctx(M).phi)


class _Context:
    """Everything one conductor needs: Phi_M, the reduction rows, 0 and 1.

    Phi_M is monic with integer coefficients, so phi and the reduction rows
    hold ints.
    """

    __slots__ = ("M", "deg", "phi", "rows", "zeros", "zero", "one")

    def __init__(self, M):
        if M < 1:
            raise ValueError("conductor must be >= 1")
        self.M = M
        poly = [Q(-1)] + [QZERO] * (M - 1) + [QONE]  # x^M - 1
        for k in range(1, M):
            if M % k == 0:
                poly, rem = _poly_divmod(poly, _ctx(k).phi)
                if any(rem):
                    raise ArithmeticError("non-exact polynomial division")
        self.phi = tuple(int(c) for c in poly)
        self.deg = d = len(poly) - 1
        # rows[k - d] lists the nonzero (i, r) of x^k mod Phi_M,
        # for d <= k < max(2d-1, M)
        top = max(2 * d - 1, M)
        cur = [-c for c in self.phi[:d]]  # x^d mod Phi
        first = list(cur)
        rows = []
        for _ in range(d, top):
            rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for i in range(d):
                    cur[i] += lead * first[i]
        self.rows = tuple(rows)
        self.zeros = (0,) * d
        self.zero = Cyclotomic._raw(M, self.zeros, 1)
        self.one = Cyclotomic._raw(M, (1,) + self.zeros[1:], 1)


@lru_cache(maxsize=None)
def _ctx(M):
    return _Context(M)


def _reduce(ctx, acc):
    """acc (ints, length >= deg) reduced mod Phi_M to a length-deg list;
    acc is consumed."""
    d = ctx.deg
    rows = ctx.rows
    for k in range(len(acc) - 1, d - 1, -1):
        a = acc[k]
        if a:
            for i, r in rows[k - d]:
                acc[i] += a * r
    del acc[d:]
    return acc


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_M), stored reduced mod the cyclotomic polynomial.

    n is a tuple of phi(M) ints (the field degree) and den an int > 0 with
    gcd(*n, den) == 1; zero is ((0,)*d, 1).  Equal values therefore have
    equal representations, so == and hash are structural.
    """

    __slots__ = ("M", "n", "den")

    def __init__(self, M, coeffs):
        vec = [a if type(a) is int else Q(a) for a in coeffs]
        den = lcm(*(a.denominator for a in vec))
        acc = [0] * M
        for k, a in enumerate(vec):
            if a:
                acc[k % M] += a.numerator * (den // a.denominator)
        value = Cyclotomic._reduced(M, acc, den)
        self.M, self.n, self.den = M, value.n, value.den

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, M, n, den):
        self = object.__new__(cls)
        self.M = M
        self.n = n
        self.den = den
        return self

    @classmethod
    def _make(cls, M, n, den):
        """From an int tuple over den > 0, dividing out the common gcd."""
        if den != 1:
            g = gcd(den, *n)
            if g != 1:
                n = tuple(a // g for a in n)
                den //= g
        return cls._raw(M, n, den)

    @classmethod
    def _reduced(cls, M, acc, den):
        """From a list of ints indexed by powers of zeta_M (below
        max(2 phi(M) - 1, M)) over den > 0; acc is consumed."""
        return cls._make(M, tuple(_reduce(_ctx(M), acc)), den)

    @classmethod
    def zero(cls, M):
        return _ctx(M).zero

    @classmethod
    def one(cls, M):
        return _ctx(M).one

    @classmethod
    def rational(cls, M, a):
        if type(a) is not int:
            a = Q(a)
            return cls._raw(M, (a.numerator,) + _ctx(M).zeros[1:], a.denominator)
        return cls._raw(M, (a,) + _ctx(M).zeros[1:], 1)

    @classmethod
    def of(cls, M, v):
        """v in Q(zeta_M): a Cyclotomic is promoted, anything else is read
        as a rational."""
        if isinstance(v, Cyclotomic):
            return v.promote(M)
        return cls.rational(M, v)

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.M != self.M:
                raise ValueError(
                    f"conductor mismatch: {self.M} vs {other.M}; promote first")
            return other
        if isinstance(other, int) or type(other) is Q:
            return Cyclotomic.rational(self.M, other)
        return None

    @property
    def c(self):
        """The reduced vector as Fractions: c[k] is the coefficient of zeta_M^k."""
        return tuple(Q(a, self.den) for a in self.n)

    @property
    def coeffs(self):
        """Length-M rational vector: coeffs[k] is the coefficient of zeta_M^k."""
        c = self.c
        return c + (QZERO,) * (self.M - len(c))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.n):
            return o
        return self._sum(o.n, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.n):
            return -o
        return self._sum(tuple(-b for b in o.n), o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _sum(self, m, e):
        """self + m/e for an int tuple m over e > 0."""
        if not any(m):
            return self
        den = self.den
        if den == e:
            return Cyclotomic._make(self.M, tuple(a + b for a, b in zip(self.n, m)), den)
        g = gcd(den, e)
        s, t = e // g, den // g
        return Cyclotomic._make(
            self.M, tuple(a * s + b * t for a, b in zip(self.n, m)), den * s)

    def __neg__(self):
        return Cyclotomic._raw(self.M, tuple(-a for a in self.n), self.den)

    def _scale(self, p, q):
        """self * p/q for ints p and q > 0."""
        if not p:
            return _ctx(self.M).zero
        if p == 1 and q == 1:
            return self
        return Cyclotomic._make(self.M, tuple(a * p for a in self.n), self.den * q)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if type(other) is Q:
            return self._scale(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.n, o.n
        if not any(a[1:]):
            return o._scale(a[0], self.den)
        if not any(b[1:]):
            return self._scale(b[0], o.den)
        acc = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        acc[j] += x * y
        return Cyclotomic._reduced(self.M, acc, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.invert()
        n = abs(n)
        out = Cyclotomic.one(self.M)
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def invert(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        a = self.n
        if not any(a[1:]):
            sign = -1 if a[0] < 0 else 1
            return Cyclotomic._raw(self.M, (sign * self.den,) + a[1:], sign * a[0])
        ctx = _ctx(self.M)
        # gcd(poly(self), Phi_M) = 1; track the Bezout coefficient of self.
        r0 = list(map(Q, ctx.phi))
        r1 = list(self.c)
        s0 = [QZERO]
        s1 = [QONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv_lead = 1 / r1[0]
                vec = [a * inv_lead for a in s1]
                return Cyclotomic(self.M, vec)
            q, r = _poly_divmod(r0, r1)
            while r and not r[-1]:
                r.pop()
            # s = s0 - q*s1
            s = list(s0) + [QZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, a in enumerate(q):
                if a:
                    for j, b in enumerate(s1):
                        s[i + j] -= a * b
            r0, r1, s0, s1 = r1, r, s1, s

    def conjugate(self):
        """The automorphism zeta |-> zeta^-1 (complex conjugation on values)."""
        M = self.M
        acc = [0] * M
        for k, a in enumerate(self.n):
            acc[-k] = a
        return Cyclotomic._reduced(M, acc, self.den)

    def promote(self, M2):
        """Embed into Q(zeta_M2) for M | M2 via zeta_M = zeta_M2^(M2/M)."""
        if M2 == self.M:
            return self
        if M2 % self.M != 0:
            raise ValueError(f"cannot embed conductor {self.M} into {M2}")
        acc = [0] * M2
        acc[::M2 // self.M] = self.n + (0,) * (self.M - len(self.n))
        return Cyclotomic._reduced(M2, acc, self.den)

    # -- predicates & output --------------------------------------------------

    def is_zero(self):
        return not any(self.n)

    def __bool__(self):
        return any(self.n)

    def is_rational(self):
        return not any(self.n[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return Q(self.n[0], self.den)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.M == other.M and self.n == other.n and self.den == other.den
        if isinstance(other, int) or type(other) is Q:
            return self.is_rational() and self.n[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        return hash((self.M, self.n, self.den))

    def to_literal(self, symbol="z"):
        """Render as a literal like '1/2*z^3 - 2' (descending powers)."""
        c = self.c
        bodies = []
        for k in range(len(c) - 1, -1, -1):
            a = c[k]
            if not a:
                continue
            sign = "-" if a < 0 else ""
            a = abs(a)
            if k == 0:
                body = str(a)
            else:
                var = symbol if k == 1 else f"{symbol}^{k}"
                body = var if a == 1 else f"{a}*{var}"
            bodies.append(sign + body)
        return signed_sum(bodies)

    def __repr__(self):
        return f"Cyclotomic({self.M}: {self.to_literal()})"


def signed_sum(bodies):
    """Join a list of rendered terms as 'a + b - c': a later body that starts
    with '-' is subtracted, the first keeps its sign, and no bodies read '0'."""
    if not bodies:
        return "0"
    return bodies[0] + "".join(f" - {b[1:]}" if b.startswith("-") else f" + {b}"
                               for b in bodies[1:])


def root_of_unity(M, k=1):
    """zeta_M^k as an element of Q(zeta_M)."""
    acc = [0] * M
    acc[k % M] = 1
    return Cyclotomic._reduced(M, acc, 1)


# ---------------------------------------------------------------------------
# q-combinatorics (q an arbitrary Cyclotomic, including roots of unity)
# ---------------------------------------------------------------------------

def q_integer(k, q):
    """[k]_q = 1 + q + ... + q^(k-1); k may be negative: [-k]_q = -q^-k [k]_q."""
    if k < 0:
        return -(q ** k) * q_integer(-k, q)
    out = Cyclotomic.zero(q.M)
    p = Cyclotomic.one(q.M)
    for _ in range(k):
        out = out + p
        p = p * q
    return out


def q_factorial(k, q):
    """[k]_q! = [1]_q [2]_q ... [k]_q."""
    if k < 0:
        raise ValueError("q-factorial of negative integer")
    out = Cyclotomic.one(q.M)
    for r in range(1, k + 1):
        out = out * q_integer(r, q)
    return out


def q_binomial(n, k, q):
    """Gaussian binomial, computed by the q-Pascal recursion (safe at roots)."""
    if k < 0 or k > n:
        return Cyclotomic.zero(q.M)
    memo = {}

    def rec(a, b):
        if b == 0 or b == a:
            return Cyclotomic.one(q.M)
        key = (a, b)
        v = memo.get(key)
        if v is None:
            v = rec(a - 1, b - 1) + (q ** b) * rec(a - 1, b)
            memo[key] = v
        return v

    return rec(n, k)


# ---------------------------------------------------------------------------
# polynomials in hbar with cyclotomic coefficients
# ---------------------------------------------------------------------------

class HScalar:
    """A polynomial in the formal deformation parameter, over Q(zeta_M).

    parts[j] is the coefficient of hbar^j; the tuple carries no trailing zeros,
    so equality is structural here too.
    """

    __slots__ = ("M", "parts")

    def __init__(self, M, parts):
        parts = list(parts)
        while parts and parts[-1].is_zero():
            parts.pop()
        self.M = M
        self.parts = tuple(parts)

    @classmethod
    def zero(cls, M):
        return cls(M, ())

    @classmethod
    def one(cls, M):
        return cls(M, (Cyclotomic.one(M),))

    @classmethod
    def const(cls, a):
        """Wrap a Cyclotomic as an hbar-degree-0 scalar."""
        return cls(a.M, (a,))

    @classmethod
    def h_power(cls, M, k, coeff=None):
        """coeff * hbar^k (coeff defaults to 1)."""
        if coeff is None:
            coeff = Cyclotomic.one(M)
        parts = [Cyclotomic.zero(M)] * k + [coeff]
        return cls(M, parts)

    @classmethod
    def of(cls, M, v):
        """v as an hbar-polynomial over Q(zeta_M): an HScalar must have
        conductor M, anything else goes through Cyclotomic.of."""
        if isinstance(v, HScalar):
            if v.M != M:
                raise ValueError(f"conductor mismatch: {M} vs {v.M}")
            return v
        return cls.const(Cyclotomic.of(M, v))

    def _coerce(self, other):
        if isinstance(other, (HScalar, Cyclotomic, int, Q)):
            return HScalar.of(self.M, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.parts), len(o.parts))
        z = Cyclotomic.zero(self.M)
        return HScalar(self.M, [self.coeff(j) + o.coeff(j) for j in range(n)] or [z])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return HScalar(self.M, tuple(-a for a in self.parts))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.parts or not o.parts:
            return HScalar.zero(self.M)
        z = Cyclotomic.zero(self.M)
        acc = [z] * (len(self.parts) + len(o.parts) - 1)
        for i, a in enumerate(self.parts):
            if not a.is_zero():
                for j, b in enumerate(o.parts):
                    if not b.is_zero():
                        acc[i + j] = acc[i + j] + a * b
        return HScalar(self.M, acc)

    __rmul__ = __mul__

    def coeff(self, j):
        return self.parts[j] if j < len(self.parts) else Cyclotomic.zero(self.M)

    def at_h_zero(self):
        """The classical limit: the hbar^0 coefficient."""
        return self.coeff(0)

    def shift(self, k):
        """Multiply by hbar^k."""
        if not self.parts:
            return self
        z = Cyclotomic.zero(self.M)
        return HScalar(self.M, (z,) * k + self.parts)

    def conjugate(self):
        return HScalar(self.M, tuple(a.conjugate() for a in self.parts))

    def degree(self):
        return len(self.parts) - 1

    def is_zero(self):
        return not self.parts

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, (HScalar, Cyclotomic)) and other.M != self.M:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.parts == o.parts

    def __hash__(self):
        return hash((self.M, self.parts))

    def to_literal(self, symbol="z", h="h"):
        bodies = []
        for j in range(len(self.parts) - 1, -1, -1):
            a = self.parts[j]
            if a.is_zero():
                continue
            lit = a.to_literal(symbol)
            hpow = "" if j == 0 else (h if j == 1 else f"{h}^{j}")
            if j == 0:
                body = lit
            elif lit == "1":
                body = hpow
            elif lit == "-1":
                body = f"-{hpow}"
            elif ("+" in lit[1:] or " - " in lit) or lit.startswith("-"):
                body = f"({lit})*{hpow}"
            else:
                body = f"{lit}*{hpow}"
            bodies.append(body)
        return signed_sum(bodies)

    def __repr__(self):
        return f"HScalar({self.M}: {self.to_literal()})"
