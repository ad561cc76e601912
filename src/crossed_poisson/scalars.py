"""Exact scalars: elements of a cyclotomic field and polynomials in a formal hbar.

Everything downstream (group matrices, structure coefficients, linear solves,
star products) runs over Q(zeta_M) for one conductor M fixed per problem, with
values stored as rational coefficient vectors reduced modulo the M-th
cyclotomic polynomial.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction as Q

QZERO = Q(0)
QONE = Q(1)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor reduction tables
# ---------------------------------------------------------------------------

def _poly_divmod_exact(num, den):
    """Quotient of two integer-coefficient polynomials known to divide exactly.

    Polynomials are lists of Q, lowest degree first, den monic-leading.
    """
    num = list(num)
    dn = len(den) - 1
    out = [QZERO] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] / den[dn]
        out[k - dn] = c
        if c:
            for i in range(dn + 1):
                num[k - dn + i] -= c * den[i]
    if any(num[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return out


_PHI_CACHE: dict[int, list] = {}


def cyclotomic_polynomial(M):
    """Coefficients of the M-th cyclotomic polynomial, lowest degree first."""
    if M < 1:
        raise ValueError("conductor must be >= 1")
    cached = _PHI_CACHE.get(M)
    if cached is not None:
        return list(cached)
    poly = [QZERO] * (M + 1)
    poly[0] = Q(-1)
    poly[M] = QONE  # x^M - 1
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic_polynomial(d))
    _PHI_CACHE[M] = list(poly)
    return poly


class _Context:
    """Cached reduction data for one conductor."""

    __slots__ = ("M", "deg", "phi", "rows")

    def __init__(self, M):
        self.M = M
        self.phi = tuple(cyclotomic_polynomial(M))
        self.deg = len(self.phi) - 1
        d = self.deg
        # rows[k - d] = coefficient vector of x^k mod Phi_M, for d <= k < max(2d-1, M)
        top = max(2 * d - 1, M)
        rows = []
        cur = [-c for c in self.phi[:d]]  # x^d mod Phi
        rows.append(tuple(cur))
        for _ in range(d + 1, top):
            nxt = [QZERO] + cur[: d - 1]
            lead = cur[d - 1]
            if lead:
                for i in range(d):
                    nxt[i] += lead * rows[0][i]
            cur = nxt
            rows.append(tuple(cur))
        self.rows = tuple(rows)


_CONTEXTS: dict[int, _Context] = {}


def _ctx(M):
    ctx = _CONTEXTS.get(M)
    if ctx is None:
        ctx = _Context(M)
        _CONTEXTS[M] = ctx
    return ctx


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_M), stored reduced mod the cyclotomic polynomial.

    The internal vector has length phi(M) (the field degree); equal values
    always have equal representations, so == and hash are structural.
    """

    __slots__ = ("M", "c")

    def __init__(self, M, coeffs):
        ctx = _ctx(M)
        d = ctx.deg
        vec = [QZERO] * d
        for k, a in enumerate(coeffs):
            if not a:
                continue
            a = Q(a)
            k %= M
            if k < d:
                vec[k] += a
            else:
                row = ctx.rows[k - d]
                for i in range(d):
                    if row[i]:
                        vec[i] += a * row[i]
        self.M = M
        self.c = tuple(vec)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, M, vec):
        self = object.__new__(cls)
        self.M = M
        self.c = vec
        return self

    @classmethod
    def zero(cls, M):
        z = _ZERO_CACHE.get(M)
        if z is None:
            z = cls._raw(M, (QZERO,) * _ctx(M).deg)
            _ZERO_CACHE[M] = z
        return z

    @classmethod
    def one(cls, M):
        o = _ONE_CACHE.get(M)
        if o is None:
            o = cls.rational(M, 1)
            _ONE_CACHE[M] = o
        return o

    @classmethod
    def rational(cls, M, a):
        d = _ctx(M).deg
        vec = [QZERO] * d
        vec[0] = Q(a)
        return cls._raw(M, tuple(vec))

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.M != self.M:
                raise ValueError(
                    f"conductor mismatch: {self.M} vs {other.M}; promote first")
            return other
        if isinstance(other, int) or type(other) is type(QONE):
            return Cyclotomic.rational(self.M, other)
        return None

    @property
    def coeffs(self):
        """Length-M rational vector: coeffs[k] is the coefficient of zeta_M^k."""
        return tuple(self.c) + (QZERO,) * (self.M - len(self.c))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(self.M, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic._raw(self.M, tuple(a - b for a, b in zip(self.c, o.c)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclotomic._raw(self.M, tuple(-a for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = _ctx(self.M)
        d = ctx.deg
        acc = [QZERO] * (2 * d - 1)
        oc = o.c
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(oc):
                    if b:
                        acc[i + j] += a * b
        vec = acc[:d]
        for k in range(d, 2 * d - 1):
            a = acc[k]
            if a:
                row = ctx.rows[k - d]
                for i in range(d):
                    if row[i]:
                        vec[i] += a * row[i]
        return Cyclotomic._raw(self.M, tuple(vec))

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
        ctx = _ctx(self.M)
        # gcd(poly(self), Phi_M) = 1; track the Bezout coefficient of self.
        r0 = list(ctx.phi)
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
            # r0 = q*r1 + r
            q = [QZERO] * (len(r0) - len(r1) + 1)
            r = list(r0)
            for k in range(len(r) - 1, len(r1) - 2, -1):
                c = r[k] / r1[-1]
                q[k - (len(r1) - 1)] = c
                if c:
                    for i, b in enumerate(r1):
                        r[k - (len(r1) - 1) + i] -= c * b
            while r and not r[-1]:
                r.pop()
            if not r:
                r = [QZERO]
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
        vec = [QZERO] * M
        for k, a in enumerate(self.c):
            if a:
                vec[(M - k) % M] += a
        return Cyclotomic(M, vec)

    def promote(self, M2):
        """Embed into Q(zeta_M2) for M | M2 via zeta_M = zeta_M2^(M2/M)."""
        if M2 == self.M:
            return self
        if M2 % self.M != 0:
            raise ValueError(f"cannot embed conductor {self.M} into {M2}")
        step = M2 // self.M
        vec = [QZERO] * M2
        for k, a in enumerate(self.c):
            if a:
                vec[k * step] += a
        return Cyclotomic(M2, vec)

    # -- predicates & output --------------------------------------------------

    def is_zero(self):
        return not any(self.c)

    def __bool__(self):
        return any(self.c)

    def is_rational(self):
        return not any(self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.c[0]

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.M == other.M and self.c == other.c
        if isinstance(other, int) or type(other) is type(QONE):
            return self.is_rational() and self.c[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.M, self.c))

    def to_literal(self, symbol="z"):
        """Render as a literal like '1/2*z^3 - 2' (descending powers)."""
        parts = []
        for k in range(len(self.c) - 1, -1, -1):
            a = self.c[k]
            if not a:
                continue
            sign = "-" if a < 0 else "+"
            a = abs(a)
            if k == 0:
                body = str(a)
            else:
                var = symbol if k == 1 else f"{symbol}^{k}"
                body = var if a == 1 else f"{a}*{var}"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self.M}: {self.to_literal()})"


_ZERO_CACHE: dict[int, Cyclotomic] = {}
_ONE_CACHE: dict[int, Cyclotomic] = {}


def root_of_unity(M, k=1):
    """zeta_M^k as an element of Q(zeta_M)."""
    vec = [QZERO] * M
    vec[k % M] = QONE
    return Cyclotomic(M, vec)


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

    def _coerce(self, other):
        if isinstance(other, HScalar):
            if other.M != self.M:
                raise ValueError(f"conductor mismatch: {self.M} vs {other.M}")
            return other
        if isinstance(other, Cyclotomic):
            return HScalar.const(other if other.M == self.M else other.promote(self.M))
        if isinstance(other, int) or type(other) is type(QONE):
            return HScalar.const(Cyclotomic.rational(self.M, other))
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
        if isinstance(other, (HScalar, Cyclotomic, int)) or type(other) is type(QONE):
            o = self._coerce(other)
            return self.M == o.M and self.parts == o.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.M, self.parts))

    def to_literal(self, symbol="z", h="h"):
        parts = []
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
            if parts and not body.startswith("-"):
                parts.append(f"+ {body}")
            elif parts:
                parts.append(f"- {body[1:]}")
            else:
                parts.append(body)
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"HScalar({self.M}: {self.to_literal()})"
