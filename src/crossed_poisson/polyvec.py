"""Group-labeled polyvector fields with exact cyclotomic coefficients.

A field is a finite sum of terms  c * x^expo (x) e_{i1}^...^e_{ik}  attached
to group labels.  Polynomial factors live in the coordinate functions x_i,
wedge factors in the dual directions e_i, and the label is an element index
of a MatrixGroup.

Conventions, pinned by worked examples in the test suite:
  * g moves a term at label gamma to label g gamma g^-1, transforms the
    polynomial part by rows of the matrix of g and the wedge part by columns
    of the inverse matrix;
  * the twisted Koszul-style differential at label gamma sends p (x) w to
    sum_k ((x_k - gamma.x_k) p) (x) e_k ^ w;
  * schouten is the odd Poisson bracket with left theta-derivatives, so
    schouten(X, f) = X(f) for a vector field X and a function f.
"""

from __future__ import annotations

from itertools import combinations

from .scalars import Cyclotomic, Q


class UnsupportedStructureError(ValueError):
    """Raised for data outside the supported (constant/linear) bracket scope."""


class InvarianceError(ValueError):
    """Raised when an operation requires group invariance and the input lacks it."""


# ---------------------------------------------------------------------------
# commutative polynomial dictionaries {exponent tuple: Cyclotomic}
# ---------------------------------------------------------------------------

def p_add(a, b):
    out = dict(a)
    for e, v in b.items():
        s = out.get(e)
        s = v if s is None else s + v
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def p_scale(p, c):
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def p_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            prod = v1 * v2
            s = out.get(e)
            s = prod if s is None else s + prod
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def p_degree(p):
    return max((sum(e) for e in p), default=0)


# ---------------------------------------------------------------------------
# wedge index utilities
# ---------------------------------------------------------------------------

def wedge_sort(seq):
    """Sort wedge indices, tracking the permutation sign; (0, None) if repeated."""
    idx = list(seq)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, None
    return sign, tuple(idx)


def wedge_insert(k, w):
    """e_k ^ e_w as (sign, sorted wedge); (0, None) if k already appears."""
    if k in w:
        return 0, None
    pos = sum(1 for a in w if a < k)
    sign = 1 if pos % 2 == 0 else -1
    return sign, tuple(sorted(w + (k,)))


def _det(rows, M):
    n = len(rows)
    if n == 0:
        return Cyclotomic.one(M)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = Cyclotomic.zero(M)
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = a * _det(minor, M)
            out = out + term if j % 2 == 0 else out - term
    return out


# ---------------------------------------------------------------------------
# the field container
# ---------------------------------------------------------------------------

class PolyVectorField:
    """Finite sum of labeled terms; terms maps (label, expo, wedge) to coeff."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        self.group = group
        clean = {}
        if terms:
            for key, c in terms.items():
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, group):
        return cls(group, None)

    @classmethod
    def single(cls, group, label, expo, wedge, coeff):
        sign, w = wedge_sort(wedge)
        if w is None or not coeff:
            return cls.zero(group)
        if not isinstance(coeff, Cyclotomic):
            coeff = Cyclotomic.rational(group.M, coeff)
        return cls(group, {(label, tuple(expo), w): coeff if sign == 1 else -coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return PolyVectorField(self.group, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyVectorField(self.group, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if not c:
            return PolyVectorField.zero(self.group)
        return PolyVectorField(self.group, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, PolyVectorField)
                and self.group == other.group and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def labels(self):
        return sorted({gi for gi, _, _ in self.terms})

    def components(self):
        """Split into per-label dictionaries {(expo, wedge): coeff}."""
        out = {}
        for (gi, e, w), c in self.terms.items():
            out.setdefault(gi, {})[(e, w)] = c
        return out

    def restrict_label(self, gi):
        return PolyVectorField(
            self.group,
            {k: v for k, v in self.terms.items() if k[0] == gi})

    def max_poly_degree(self):
        return max((sum(e) for _, e, _ in self.terms), default=0)

    def wedge_degrees(self):
        return sorted({len(w) for _, _, w in self.terms})

    def sorted_items(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0], len(kv[0][2]), kv[0][2], kv[0][1]))

    def __repr__(self):
        if not self.terms:
            return "PolyVectorField(0)"
        bits = []
        for (gi, e, w), c in self.sorted_items()[:8]:
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p)
            wed = "^".join(f"e{i}" for i in w)
            bits.append(f"[{c.to_literal()}] {mono or '1'} (x) {wed or '1'} @ {gi}")
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return "PVF{ " + " ; ".join(bits) + more + " }"


def _zero_expo(m):
    return (0,) * m


# ---------------------------------------------------------------------------
# group action, invariance, reality
# ---------------------------------------------------------------------------

def _transform_terms(group, items, poly_mat, wedge_mat, label_map):
    """Shared engine: x_i -> row i of poly_mat, e_i -> column i of wedge_mat."""
    m, M = group.dim, group.M
    lin = []
    for i in range(m):
        row = {}
        for j in range(m):
            a = poly_mat[i][j]
            if a:
                e = [0] * m
                e[j] = 1
                row[tuple(e)] = a
        lin.append(row)
    out = {}
    wedge_cache = {}
    for (gi, expo, wedge), c in items:
        poly = {_zero_expo(m): c}
        for i, p in enumerate(expo):
            for _ in range(p):
                poly = p_mul(poly, lin[i])
        imgs = wedge_cache.get(wedge)
        if imgs is None:
            imgs = {}
            k = len(wedge)
            for T in combinations(range(m), k):
                sub = [[wedge_mat[t][s] for s in wedge] for t in T]
                d = _det(sub, M)
                if d:
                    imgs[T] = d
            wedge_cache[wedge] = imgs
        new_label = label_map(gi)
        for e2, pc in poly.items():
            for T, d in imgs.items():
                key = (new_label, e2, T)
                v = pc * d
                s = out.get(key)
                s = v if s is None else s + v
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return out


def act(g, X):
    """Transport X by the group element with index g."""
    group = X.group
    Gm = group.matrix(g)
    Minv = group.matrix_inv(g)
    terms = _transform_terms(group, X.terms.items(), Gm, Minv,
                             lambda gi: group.conjugate_index(g, gi))
    return PolyVectorField(group, terms)


def transform_component(group, comp, poly_mat, wedge_mat):
    """Coordinate change of a single unduplicated component (no label move)."""
    items = (((0, e, w), c) for (e, w), c in comp.items())
    moved = _transform_terms(group, items, poly_mat, wedge_mat, lambda gi: gi)
    return {(e, w): c for (_, e, w), c in moved.items()}


def is_invariant(X):
    return all(act(g, X) == X for g in X.group.gen_indices)


def average(X):
    """Group-averaging projector onto invariant fields."""
    group = X.group
    total = PolyVectorField.zero(group)
    for g in range(group.order):
        total = total + act(g, X)
    return total.scale(Cyclotomic.rational(group.M, Q(1, group.order)))


def conjugate_swap(X, swap):
    """The antilinear involution: conjugate scalars, permute coordinates."""
    group = X.group
    m, M = group.dim, group.M
    perm = tuple(swap)
    if sorted(perm) != list(range(m)):
        raise ValueError("swap must be a permutation of the coordinates")
    # transport each label's matrix: P conj(G) P^-1 must be in the group
    label_map = {}
    for gi in {k[0] for k in X.terms}:
        G = group.matrix(gi)
        moved = [[Cyclotomic.zero(M)] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                moved[perm[i]][perm[j]] = G[i][j].conjugate()
        key = tuple(tuple(row) for row in moved)
        tgt = group.index.get(key)
        if tgt is None:
            raise ValueError("conjugated label leaves the group")
        label_map[gi] = tgt
    out = {}
    for (gi, expo, wedge), c in X.terms.items():
        e2 = [0] * m
        for i, p in enumerate(expo):
            e2[perm[i]] = p
        sign, w2 = wedge_sort(tuple(perm[i] for i in wedge))
        key = (label_map[gi], tuple(e2), w2)
        v = c.conjugate() if sign == 1 else -c.conjugate()
        s = out.get(key)
        s = v if s is None else s + v
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return PolyVectorField(group, out)


def is_real(X, swap):
    return conjugate_swap(X, swap) == X


# ---------------------------------------------------------------------------
# twisted Koszul-style differential
# ---------------------------------------------------------------------------

def koszul_differential(X):
    """Apply, at every label gamma, p (x) w  |->  sum_k (x_k - gamma.x_k) p (x) e_k ^ w."""
    group = X.group
    m = group.dim
    out = {}
    for (gi, expo, wedge), c in X.terms.items():
        G = group.matrix(gi)
        for k in range(m):
            sign, w2 = wedge_insert(k, wedge)
            if w2 is None:
                continue
            for j in range(m):
                a = -G[k][j]
                if j == k:
                    a = a + 1
                if not a:
                    continue
                e2 = list(expo)
                e2[j] += 1
                key = (gi, tuple(e2), w2)
                v = c * a
                if sign < 0:
                    v = -v
                s = out.get(key)
                s = v if s is None else s + v
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
    return PolyVectorField(group, out)


# ---------------------------------------------------------------------------
# Schouten bracket (odd Poisson bracket, left derivatives)
# ---------------------------------------------------------------------------

def _schouten_terms(A, B, label_fn):
    """Shared engine for the bracket; ``label_fn(ga, gb)`` assigns labels."""
    group = A.group
    out = {}

    def add(key, v):
        if not v:
            return
        s = out.get(key)
        s = v if s is None else s + v
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    for (ga, ea, wa), ca in A.terms.items():
        for (gb, eb, wb), cb in B.terms.items():
            label = label_fn(ga, gb)
            cab = ca * cb
            # sum_i (right d/dtheta_i of A) * (d/dx_i of B)
            for pos, i in enumerate(wa):
                if not eb[i]:
                    continue
                msign, wm = wedge_sort(wa[:pos] + wa[pos + 1:] + wb)
                if wm is None:
                    continue
                e2 = list(ea)
                for t, p in enumerate(eb):
                    e2[t] += p
                e2[i] -= 1
                sgn = msign if (len(wa) - 1 - pos) % 2 == 0 else -msign
                add((label, tuple(e2), wm), cab * (eb[i] * sgn))
            # - sum_i (d/dx_i of A) * (left d/dtheta_i of B), A's wedge first
            for pos, i in enumerate(wb):
                if not ea[i]:
                    continue
                msign, wm = wedge_sort(wa + wb[:pos] + wb[pos + 1:])
                if wm is None:
                    continue
                e2 = list(eb)
                for t, p in enumerate(ea):
                    e2[t] += p
                e2[i] -= 1
                sgn = msign if pos % 2 == 0 else -msign
                add((label, tuple(e2), wm), cab * (-ea[i] * sgn))
    return PolyVectorField(group, out)


def schouten(A, B):
    """Bracket of labeled fields; labels multiply, components bracket untwisted.

    For identity labels this is the classical Schouten bracket, normalized so
    that schouten(X, f) = X(f) for a 1-field X and a 0-field f, graded
    antisymmetric with sign -(-1)^((a-1)(b-1)) under swap, and satisfying the
    graded Jacobi identity.  For general labels it is the plain biderivation
    extension the truncated differential uses; no claim is made beyond that
    scope.
    """
    group = A.group
    return _schouten_terms(A, B, lambda ga, gb: group.mul[ga][gb])


# ---------------------------------------------------------------------------
# structure pairs and the generalized brackets
# ---------------------------------------------------------------------------

class StructurePair:
    """A linear 2-field and a constant 2-field with deformation weights.

    pi: terms of polynomial degree exactly 1 and wedge degree 2
    b:  terms of polynomial degree 0 and wedge degree 2
    The weights (w_pi, w_b) say which hbar powers the two parts carry in the
    rewriting rules; reality_swap optionally declares the coordinate pairing
    used by the reality check.
    """

    __slots__ = ("group", "pi", "b", "w_pi", "w_b", "reality_swap")

    def __init__(self, group, pi=None, b=None, w_pi=1, w_b=2, reality_swap=None):
        self.group = group
        self.pi = pi if pi is not None else PolyVectorField.zero(group)
        self.b = b if b is not None else PolyVectorField.zero(group)
        for _, e, w in self.pi.terms:
            if sum(e) != 1 or len(w) != 2:
                raise UnsupportedStructureError(
                    "pi must be linear with wedge degree 2")
        for _, e, w in self.b.terms:
            if sum(e) != 0 or len(w) != 2:
                raise UnsupportedStructureError(
                    "b must be constant with wedge degree 2")
        if w_pi < 1 or w_b < 1:
            raise ValueError("hbar weights must be positive")
        self.w_pi = w_pi
        self.w_b = w_b
        self.reality_swap = tuple(reality_swap) if reality_swap is not None else None

    @property
    def conductor(self):
        return self.group.M

    def total(self):
        return self.pi + self.b

    def is_invariant(self):
        return is_invariant(self.pi) and is_invariant(self.b)


class BracketEngine:
    """Evaluator for the label-graded trilinear bracket sum against one field.

    For ordered coordinates (a, b, c) and an outer field it computes, per
    output label,
      sum over label pairs (alpha, beta) of
        outer_alpha(inner_beta(x_a, x_b), x_c + beta.x_c) + cyclic,
    where the inner field's slots must evaluate to linear polynomials.  The
    inner field is decomposed once, when the engine is built, so one engine
    serves every outer field bracketed against it.
    """

    def __init__(self, inner):
        group = inner.group
        self.group = group
        m = group.dim
        self.m = m
        # per inner label: the twisted covectors x_k + beta.x_k, and the
        # pair decomposition inner(x_a, x_b) = sum of cc * x_t for a < b,
        # read off the coefficient at wedge (a, b)
        self.inner = {}
        for beta, comp in inner.components().items():
            Bm = group.matrix(beta)
            tw = []
            for k in range(m):
                vec = [Bm[k][j] for j in range(m)]
                vec[k] = vec[k] + 1
                tw.append(vec)
            dec = {}
            for (expo, w), c in comp.items():
                a, b = _pair(w)
                if a == b:
                    continue
                if a > b:
                    a, b, c = b, a, -c
                if sum(expo) != 1:
                    raise UnsupportedStructureError(
                        "inner bracket slot must be linear")
                dec.setdefault((a, b), []).append((expo.index(1), c))
            self.inner[beta] = (tw, dec)

    @staticmethod
    def _dec(dec, a, b):
        if a < b:
            return dec.get((a, b), ())
        return [(t, -cc) for t, cc in dec.get((b, a), ())]

    def slots(self, outer):
        """{label: slots} of an outer field: slots[t] lists (expo, coeff, s)
        for each term whose wedge holds e_t, so that the term's wedge against
        (e_t, v) is coeff * v[s] (the coefficient negated when t is second)."""
        out = {}
        for alpha, comp in outer.components().items():
            slots = out[alpha] = [[] for _ in range(self.m)]
            for (expo, w), c in comp.items():
                a, b = _pair(w)
                if a != b:
                    slots[a].append((expo, c, b))
                    slots[b].append((expo, -c, a))
        return out

    def trilinear(self, outer_slots, a, b, c):
        """{output label: polynomial dict} for arguments (x_a, x_b, x_c),
        given the slots of the outer field."""
        group = self.group
        out = {}
        for alpha, slots in outer_slots.items():
            for beta, (tw, dec) in self.inner.items():
                label = group.mul[alpha][beta]
                total = {}
                for (u, v, w) in ((a, b, c), (b, c, a), (c, a, b)):
                    for t, cc in self._dec(dec, u, v):
                        part = _slot_eval(slots[t], tw[w])
                        if part:
                            total = p_add(total, p_scale(part, cc))
                if total:
                    out[label] = p_add(out.get(label, {}), total)
        return {k: v for k, v in out.items() if v}

    def bracket(self, outer):
        """The trilinear bracket sum of the outer field against the inner one."""
        group = self.group
        outer_slots = self.slots(outer)
        if not outer_slots or not self.inner:
            return PolyVectorField.zero(group)
        terms = {}
        for (i, j, k) in combinations(range(self.m), 3):
            for label, poly in self.trilinear(outer_slots, i, j, k).items():
                for expo, cc in poly.items():
                    key = (label, expo, (i, j, k))
                    s = terms.get(key)
                    s = cc if s is None else s + cc
                    if s:
                        terms[key] = s
                    elif key in terms:
                        del terms[key]
        return PolyVectorField(group, terms)


def _pair(w):
    if len(w) != 2:
        raise UnsupportedStructureError("bracket slots must be 2-fields")
    return w


def _slot_eval(slots, v):
    """The slots of one index against the vector v, as a polynomial dict."""
    out = {}
    for expo, c, s in slots:
        d = v[s]
        if not d:
            continue
        t = out.get(expo)
        t = c * d if t is None else t + c * d
        if t:
            out[expo] = t
        elif expo in out:
            del out[expo]
    return out


def gen_bracket_pi_pi(pair):
    """The trilinear obstruction bracket of the linear part with itself."""
    return BracketEngine(pair.pi).bracket(pair.pi)


def gen_bracket_b_pi(pair):
    """The trilinear pairing of the constant part against the linear part."""
    return BracketEngine(pair.pi).bracket(pair.b)


# ---------------------------------------------------------------------------
# the label-wise projection and Poisson predicates
# ---------------------------------------------------------------------------

def pr(X):
    """Project each label's component onto restricted coefficients and the
    full normal wedge: in coordinates adapted to V^gamma + N^gamma, keep only
    terms whose polynomial part uses fixed coordinates exclusively and whose
    wedge contains every normal direction."""
    group = X.group
    m = group.dim
    out = PolyVectorField.zero(group)
    for gi, comp in X.components().items():
        geo = group.geometry(gi)
        s = m - geo.codim
        ad = transform_component(group, comp, geo.basis, geo.basis_inv)
        keep = {}
        normal = frozenset(range(s, m))
        for (expo, wedge), c in ad.items():
            if any(expo[s:]):
                continue
            if not normal <= frozenset(wedge):
                continue
            keep[(expo, wedge)] = c
        if not keep:
            continue
        back = transform_component(group, keep, geo.basis_inv, geo.basis)
        out = out + PolyVectorField(group, {(gi, e, w): c for (e, w), c in back.items()})
    return out


class PoissonReport:
    __slots__ = ("invariant", "pi_pi_residue", "b_pi_residue")

    def __init__(self, invariant, pi_pi_residue, b_pi_residue):
        self.invariant = invariant
        self.pi_pi_residue = pi_pi_residue
        self.b_pi_residue = b_pi_residue

    @property
    def ok(self):
        return (self.invariant and self.pi_pi_residue.is_zero()
                and self.b_pi_residue.is_zero())


def is_poisson(pair):
    """Projected bracket vanishing: pr of both obstruction brackets is zero."""
    r1 = pr(gen_bracket_pi_pi(pair))
    r2 = pr(gen_bracket_b_pi(pair))
    return PoissonReport(pair.is_invariant(), r1, r2)


def poisson_differential(pair, X):
    """Truncated deformation differential of a labeled cochain X.

    Per label pair the bracket is taken cochain first, structure second,
    while the output label is structure label times cochain label.  This is
    the orientation that sends a vector field to the projected divergence
    terms with a plus sign.
    """
    group = pair.group
    S = _schouten_terms(X, pair.total(),
                        lambda gx, gp: group.mul[gp][gx])
    return pr(S)
