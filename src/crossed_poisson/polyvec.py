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

from .linalg import Span, Terms, add_into
from .scalars import Cyclotomic, Q


class UnsupportedStructureError(ValueError):
    """Raised for data outside the supported (constant/linear) bracket scope."""


class InvarianceError(ValueError):
    """Raised when an operation requires group invariance and the input lacks it."""


# ---------------------------------------------------------------------------
# commutative polynomial dictionaries {exponent tuple: Cyclotomic}
# ---------------------------------------------------------------------------

def p_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            add_into(out, tuple(x + y for x, y in zip(e1, e2)), v1 * v2)
    return out


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
    w = tuple(idx)
    # a sorted tuple is returned as is, so terms built from one wedge share it
    return sign, (seq if w == seq else w)


def wedge_insert(k, w):
    """e_k ^ e_w as (sign, sorted wedge); (0, None) if k already appears."""
    if k in w:
        return 0, None
    pos = sum(1 for a in w if a < k)
    sign = 1 if pos % 2 == 0 else -1
    return sign, tuple(sorted(w + (k,)))


# ---------------------------------------------------------------------------
# the field container
# ---------------------------------------------------------------------------

class PolyVectorField(Terms):
    """Finite sum of labeled terms; terms maps (label, expo, wedge) to coeff."""

    __slots__ = ("group",)

    def __init__(self, group, terms=None):
        self.group = group
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, group):
        return cls(group, None)

    @classmethod
    def single(cls, group, label, expo, wedge, coeff):
        sign, w = wedge_sort(wedge)
        if w is None or not coeff:
            return cls.zero(group)
        coeff = Cyclotomic.of(group.M, coeff)
        return cls(group, {(label, tuple(expo), w): coeff if sign == 1 else -coeff})

    @classmethod
    def wedge2(cls, group, label, u, v):
        """The constant 2-field u ^ v at label, for coordinate vectors u and v:
        its coefficient at e_a ^ e_b is the minor u_a v_b - u_b v_a."""
        expo = _zero_expo(group.dim)
        return cls(group, {(label, expo, (a, b)): u[a] * v[b] - u[b] * v[a]
                           for a, b in combinations(range(group.dim), 2)})

    def _coeff(self, c):
        return Cyclotomic.of(self.group.M, c)

    def __eq__(self, other):
        return (isinstance(other, PolyVectorField)
                and self.group == other.group and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def labels(self):
        return sorted({gi for gi, _, _ in self.terms})

    def components(self):
        """Split into per-label dictionaries {(expo, wedge): coeff}."""
        out = {}
        for (gi, e, w), c in self.terms.items():
            out.setdefault(gi, {})[(e, w)] = c
        return out

    def restrict_label(self, gi):
        return self._like({k: v for k, v in self.terms.items() if k[0] == gi})

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
# group action and invariance
# ---------------------------------------------------------------------------

class LinearSubstitution:
    """The linear change of variables x_i -> row i of poly_mat and
    e_i -> column i of wedge_mat, with memoized images.

    With a second wedge matrix normal_mat and a count c, e_i goes to column i
    of wedge_mat plus column i of normal_mat, and a wedge keeps only the part
    that takes exactly c of its factors from normal_mat.

    monomial(expo) is the image of x^expo, built as monomial(expo - e_i)
    times the linear form of x_i for the last variable i that expo uses, and
    wedge(w) is the image of e_w, built one factor at a time from the right,
    with its wedges in sorted order.  The returned dictionaries are shared
    between callers and must not be mutated.
    """

    __slots__ = ("M", "lin", "columns", "count", "_monomials", "_wedges")

    def __init__(self, poly_mat, wedge_mat, normal_mat=None, count=0):
        m = len(poly_mat)
        self.M = poly_mat[0][0].M
        units = [tuple(int(j == k) for k in range(m)) for j in range(m)]
        self.lin = [{units[j]: a for j, a in enumerate(row) if a}
                    for row in poly_mat]
        # columns[j][s]: the nonzero entries (t, a) of column s of matrix j
        mats = (wedge_mat,) if normal_mat is None else (wedge_mat, normal_mat)
        self.columns = [[[(t, a) for t, a in enumerate(col) if a]
                         for col in zip(*mat)] for mat in mats]
        self.count = count
        self._monomials = {_zero_expo(m): {_zero_expo(m): Cyclotomic.one(self.M)}}
        self._wedges = {}

    def monomial(self, expo):
        img = self._monomials.get(expo)
        if img is None:
            i = max(k for k, p in enumerate(expo) if p)
            lower = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
            img = self._monomials[expo] = p_mul(self.monomial(lower), self.lin[i])
        return img

    def wedge(self, w):
        imgs = self._wedges.get(w)
        if imgs is None:
            # parts[(T, k)]: the image of the factors after position pos,
            # k of them taken from the second matrix
            parts = {((), 0): Cyclotomic.one(self.M)}
            for pos in range(len(w) - 1, -1, -1):
                grown = {}
                for (T, k), c in parts.items():
                    for j, cols in enumerate(self.columns):
                        # pos factors are still to come, so the count is reachable
                        if not k + j <= self.count <= k + j + pos:
                            continue
                        for t, a in cols[w[pos]]:
                            sign, T2 = wedge_insert(t, T)
                            if T2 is not None:
                                v = c * a
                                add_into(grown, (T2, k + j), v if sign > 0 else -v)
                parts = grown
            imgs = self._wedges[w] = {T: c for (T, _), c in sorted(parts.items())}
        return imgs


def _transform_terms(items, sub, label_map):
    """Apply the substitution sub to each term, moving its label by label_map."""
    out = {}
    for (gi, expo, wedge), c in items:
        new_label = label_map(gi)
        imgs = sub.wedge(wedge)
        for e2, pc in sub.monomial(expo).items():
            pc = pc * c
            for T, d in imgs.items():
                add_into(out, (new_label, e2, T), pc * d)
    return out


def act(g, X):
    """Transport X by the group element with index g."""
    group = X.group
    return X._like(_transform_terms(X.terms.items(), group.substitution(g),
                                    lambda gi: group.conjugate_index(g, gi)))


def is_invariant(X):
    return all(act(g, X) == X for g in X.group.gen_indices)


def orbit_sum(X, elements):
    """The terms of the sum of act(g, X) over the given element indices."""
    terms = {}
    for g in elements:
        for key, c in act(g, X).terms.items():
            add_into(terms, key, c)
    return terms


def average(X):
    """Group-averaging projector onto invariant fields."""
    n = X.group.order
    return X._like(orbit_sum(X, range(n))).scale(Cyclotomic.rational(X.group.M, Q(1, n)))


def invariant_basis(group, seeds):
    """A basis of invariant fields, built at the class representatives.

    An invariant field is fixed by its component at one representative h per
    conjugacy class, which is Z(h)-invariant (the centraliser decomposition
    of Shepler and Witherspoon, Trans. AMS 360, 2008), so seeds spanning a
    Gamma-stable space at each h span its invariant fields.  seeds(h) yields
    (seed, tag) pairs at h.  A seed's sum over Z(h), over |Gamma|, is the
    component at h of average(seed); a Span keeps the sums independent of
    the earlier ones, with their field's index as meta, and the row it
    stores is spread over the class by the transversal, so coordinates over
    the span are coordinates over the fields.

    Returns (local, fields, tags, span): the stored rows as fields at h, the
    invariant fields, the tag of each field's seed, and the span.
    """
    scale = Cyclotomic.rational(group.M, Q(1, group.order))
    local, fields, tags = [], [], []
    span = Span()
    for cls in group.conjugacy_classes():
        centraliser = group.centraliser(cls[0])
        for seed, tag in seeds(cls[0]):
            row = span.insert(seed._like(orbit_sum(seed, centraliser)).scale(scale).terms,
                              meta=len(fields))
            if row is not None:
                row = seed._like(row)
                local.append(row)
                fields.append(row._like(orbit_sum(row, group.transversal(cls))))
                tags.append(tag)
    return local, fields, tags, span


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
                v = c * a
                add_into(out, (gi, tuple(e2), w2), v if sign > 0 else -v)
    return X._like(out)


# ---------------------------------------------------------------------------
# Schouten bracket (odd Poisson bracket, left derivatives)
# ---------------------------------------------------------------------------

def _schouten_terms(A, B, label_fn):
    """Shared engine for the bracket; ``label_fn(ga, gb)`` assigns labels."""
    out = {}
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
                add_into(out, (label, tuple(e2), wm), cab * (eb[i] * sgn))
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
                add_into(out, (label, tuple(e2), wm), cab * (-ea[i] * sgn))
    return A._like(out)


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
    of the reality check, which lives in the tests (tests/oracles.py).
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

    def with_b(self, b):
        """This pair with the constant part b (None for none)."""
        return StructurePair(self.group, pi=self.pi, b=b, w_pi=self.w_pi,
                             w_b=self.w_b, reality_swap=self.reality_swap)

    def total(self):
        return self.pi + self.b

    def is_invariant(self):
        return is_invariant(self.pi) and is_invariant(self.b)


class BracketEngine:
    """The label-graded trilinear bracket sum against one inner field,
    compiled once into a sparse kernel.

    For ordered coordinates a < b < c and an outer field X the bracket is,
    per output label,
      sum over label pairs (alpha, beta) of
        X_alpha(inner_beta(x_a, x_b), x_c + beta.x_c) + cyclic,
    where the inner field's slots must be linear.  The sum is linear in X, so
    the engine stores it per inner label beta.  With the twisted covectors
    tw_beta[w][s] = G_beta[w][s] + delta_ws and dec_beta(u, v)[t] the
    coefficient of x_t in inner_beta(x_u, x_v), negated when u > v,
      K_beta[(p, q)][(a, b, c)] = sum over (u, v, w) in
        {(a, b, c), (b, c, a), (c, a, b)} of
        dec_beta(u, v)[p] * tw_beta[w][q] - dec_beta(u, v)[q] * tw_beta[w][p]
    for p < q.  An outer term c x^e (x) e_p ^ e_q at label alpha then adds
    c * K at (alpha beta, e, (a, b, c)) for every beta and every nonzero
    entry K of K_beta[(p, q)].
    """

    def __init__(self, inner):
        group = inner.group
        self.group = group
        m = group.dim
        # {beta: {(p, q): {triple: K}}}, nonzero entries only
        self.kernel = {}
        for beta, comp in inner.components().items():
            dec = {}
            for (expo, w), c in comp.items():
                u, v = _pair(w)
                if sum(expo) != 1:
                    raise UnsupportedStructureError(
                        "inner bracket slot must be linear")
                t = expo.index(1)
                add_into(dec.setdefault((u, v), {}), t, c)
                add_into(dec.setdefault((v, u), {}), t, -c)
            Bm = group.matrix(beta)
            tw = [[Bm[k][j] + 1 if j == k else Bm[k][j] for j in range(m)]
                  for k in range(m)]
            table = {}
            for tri in combinations(range(m), 3):
                a, b, c = tri
                for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                    for t, cc in dec.get((u, v), {}).items():
                        for s, d in enumerate(tw[w]):
                            if d and s != t:
                                k = cc * d
                                pq, k = ((t, s), k) if t < s else ((s, t), -k)
                                add_into(table.setdefault(pq, {}), tri, k)
            table = {pq: row for pq, row in table.items() if row}
            if table:
                self.kernel[beta] = table

    def bracket(self, outer):
        """The trilinear bracket sum of the outer field against the inner one."""
        mul = self.group.mul
        terms = {}
        for (alpha, expo, w), c in outer.terms.items():
            pq = _pair(w)
            row = mul[alpha]
            for beta, table in self.kernel.items():
                entries = table.get(pq)
                if entries:
                    label = row[beta]
                    for tri, k in entries.items():
                        add_into(terms, (label, expo, tri), c * k)
        return outer._like(terms)


def _pair(w):
    if len(w) != 2:
        raise UnsupportedStructureError("bracket slots must be 2-fields")
    return w


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
    full normal wedge.

    With P the projector onto V^gamma along N^gamma and Q = 1 - P, a term
    x^e (x) e_w at a label of codimension c goes to (x^e o P) (x) the part of
    e_w, each e_s sent to column s of P plus column s of Q, that takes exactly
    c factors from Q: the polynomial restricted to the fixed space, times the
    wedge's component along the full normal wedge.  At codimension 0 (the
    identity) P is the identity, so the terms pass through unchanged; a term
    whose wedge is shorter than the codimension has no such part, so it is
    dropped before any substitution."""
    group = X.group
    by_label = {}
    for key, c in X.terms.items():
        by_label.setdefault(key[0], []).append((key, c))
    out = {}
    for gi, items in by_label.items():
        geo = group.geometry(gi)
        if not geo.codim:
            out.update(items)
            continue
        items = [(key, c) for key, c in items if len(key[2]) >= geo.codim]
        out.update(_transform_terms(items, geo.projection, lambda g: g))
    return X._like(out)


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
    engine = BracketEngine(pair.pi)
    r1 = pr(engine.bracket(pair.pi))
    r2 = pr(engine.bracket(pair.b))
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
