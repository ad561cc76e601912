"""Reference routines that only the tests call.

These are independent cross-checks and small conveniences: closed forms of the
q-difference calculus, the antilinear reality involution, class counts by
codimension, the literature count of flat constant deformations, the degree-0
cohomology comparison, dense matrix helpers, the normal space as the
complement under the group-averaged hermitian form, a Fraction-only model of
cyclotomic arithmetic, a slot-by-slot evaluator of the trilinear bracket, the
label-wise projection as a transform, a filter and a transform back, the
rewriting of words and critical overlaps without a memo, the
constant-correction system over every group element, kernels and inverses read
off the reduced echelon form, and the cohomology basis seeded at every label.
The engine does not use them, so they live beside the tests instead of in
the package.
"""

from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations

from crossed_poisson.cohom import _monomials, h_truncated
from crossed_poisson.linalg import (
    Span,
    _echelon,
    _sparse,
    add_into,
    kernel_basis,
    solve,
)
from crossed_poisson.pbw import (
    DeformedAlgebra,
    SolveBResult,
    _one_step,
    _wedge_basis_at_label,
    solve_b,
)
from crossed_poisson.polyvec import (
    BracketEngine,
    InvarianceError,
    LinearSubstitution,
    PolyVectorField,
    StructurePair,
    UnsupportedStructureError,
    _transform_terms,
    act,
    average,
    is_invariant,
    koszul_differential,
    pr,
    wedge_sort,
)
from crossed_poisson.qmoyal import (
    QPoly,
    StarError,
    _divide_exact,
    _unit_q,
    d_z,
    sigma_z,
)
from crossed_poisson.scalars import Cyclotomic, HScalar, q_binomial
from sympy import QQ, Symbol, cyclotomic_poly
from sympy.polys.matrices import DomainMatrix


# -- cyclotomic arithmetic over Fractions -----------------------------------------
#
# Values are tuples of phi(M) Fractions, the coefficients of 1, zeta, zeta^2, ...
# reduced modulo the M-th cyclotomic polynomial.  Inverses come from a linear
# solve, not from the extended Euclidean algorithm the engine uses.

def _poly_rem(num, den):
    """Quotient and remainder of polynomial long division over Fractions."""
    r = [Q(a) for a in num]
    dn = len(den) - 1
    q = [Q(0)] * max(len(r) - dn, 1)
    for k in range(len(r) - 1, dn - 1, -1):
        c = r[k] / den[dn]
        q[k - dn] = c
        for i, b in enumerate(den):
            r[k - dn + i] -= c * b
    return q, r[:dn]


@lru_cache(maxsize=None)
def ref_phi(M):
    """Phi_M: x^M - 1 divided by Phi_k for each proper divisor k of M."""
    poly = [Q(-1)] + [Q(0)] * (M - 1) + [Q(1)]
    for k in range(1, M):
        if M % k == 0:
            poly, rem = _poly_rem(poly, ref_phi(k))
            assert not any(rem)
    return tuple(poly)


def ref_reduce(M, coeffs):
    """coeffs[k] is the coefficient of zeta_M^k, for any k >= 0."""
    folded = [Q(0)] * M
    for k, a in enumerate(coeffs):
        folded[k % M] += Q(a)
    return tuple(_poly_rem(folded, ref_phi(M))[1])


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(M, a, b):
    acc = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] += x * y
    return ref_reduce(M, acc)


def ref_inv(M, a):
    """Solve a * y = 1 for y by Gauss-Jordan on the matrix of a * zeta^j."""
    d = len(a)
    cols = [ref_mul(M, a, tuple(Q(int(i == j)) for i in range(d))) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [Q(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [v / piv for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def ref_conjugate(M, a):
    vec = [Q(0)] * M
    for k, x in enumerate(a):
        vec[-k % M] += x
    return ref_reduce(M, vec)


def ref_promote(M, a, M2):
    vec = [Q(0)] * M2
    for k, x in enumerate(a):
        vec[k * (M2 // M)] += x
    return ref_reduce(M2, vec)


def ref_literal(a, symbol="z"):
    """The literal of a reduced vector, highest power first: '1/2*z^3 - 2'."""
    out = ""
    for k in range(len(a) - 1, -1, -1):
        x = a[k]
        if not x:
            continue
        mag = abs(x)
        var = "" if k == 0 else (symbol if k == 1 else f"{symbol}^{k}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}*{var}")
        if not out:
            out = ("-" if x < 0 else "") + body
        else:
            out += (" - " if x < 0 else " + ") + body
    return out or "0"


# -- dense matrices ------------------------------------------------------------

def identity_matrix(M, n):
    one = Cyclotomic.one(M)
    zero = Cyclotomic.zero(M)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def reduced_echelon(span):
    """The reduced row echelon rows {pivot: row} of an echelon Span: each row
    scaled to 1 at its pivot and cleared at every other pivot, later pivots
    first.  The engine reads solutions by back-substitution instead."""
    out = {}
    for lead in sorted(span.pivots, reverse=True):
        row, _, inv = span.pivots[lead]
        row = {key: v * inv for key, v in row.items()}
        for c in [c for c in row if c != lead and c in out]:
            neg = -row[c]
            for key, v in out[c].items():
                add_into(row, key, v * neg)
        out[lead] = row
    return out


def reference_kernel_basis(A, ncols, M):
    """kernel_basis read off the reduced echelon form: the vector of free
    column f is 1 at f and minus column f of each reduced row at its pivot."""
    zero, one = Cyclotomic.zero(M), Cyclotomic.one(M)
    R = reduced_echelon(_echelon([_sparse(r) for r in A], ncols)[0]) if A else {}
    basis = []
    for f in range(ncols):
        if f in R:
            continue
        v = [zero] * ncols
        v[f] = one
        for c, row in R.items():
            a = row.get(f)
            if a:
                v[c] = -a
        basis.append(v)
    return basis


def reference_mat_inv(A, M):
    """mat_inv read off the reduced echelon form of [A | I]."""
    n = len(A)
    one, zero = Cyclotomic.one(M), Cyclotomic.zero(M)
    span, r = _echelon([{**_sparse(row), n + i: one} for i, row in enumerate(A)], n)
    if r != n:
        raise ValueError("singular matrix")
    R = reduced_echelon(span)
    return [[R[i].get(n + j, zero) for j in range(n)] for i in range(n)]


# -- groups ----------------------------------------------------------------------

def centralizer(group, i):
    return [g for g in range(group.order) if group.mul[g][i] == group.mul[i][g]]


@lru_cache(maxsize=None)
def averaged_hermitian_form(group):
    """H = (1/|G|) sum conj(g)^T g, under which every element is unitary."""
    m, M = group.dim, group.M
    zero = Cyclotomic.zero(M)
    scale = Cyclotomic.rational(M, Q(1, group.order))
    H = []
    for r in range(m):
        row = []
        for c in range(m):
            s = sum((g[k][r].conjugate() * g[k][c]
                     for g in group.elements for k in range(m)), zero)
            row.append(s * scale)
        H.append(row)
    return H


def gamma_minus_one(group, i):
    """The rows of the matrix of element i minus the identity."""
    G, one = group.matrix(i), Cyclotomic.one(group.M)
    return [[a - (one if r == c else 0) for c, a in enumerate(row)]
            for r, row in enumerate(G)]


def reference_normal(group, i):
    """N^gamma as the complement of the fixed space under the averaged
    hermitian form: the kernel of the rows conj(w)^T H, w in the fixed space."""
    m, M = group.dim, group.M
    zero = Cyclotomic.zero(M)
    H = averaged_hermitian_form(group)
    rows = [[sum((w[r].conjugate() * H[r][c] for r in range(m)), zero)
             for c in range(m)]
            for w in kernel_basis(gamma_minus_one(group, i), m, M)]
    return kernel_basis(rows, m, M)


def codim_class_counts(group):
    """Number of conjugacy classes at each fixed-space codimension."""
    counts = {}
    for cls in group.conjugacy_classes():
        cds = {group.codim(i) for i in cls}
        if len(cds) != 1:
            raise AssertionError("codimension not constant on a class")
        cd = cds.pop()
        counts[cd] = counts.get(cd, 0) + 1
    return counts


def flat_constant_count(group):
    """The dimension of the flat constant deformations of the zero structure
    that the literature gives from group data alone (Drinfeld, 1986; Ram and
    Shepler, Comment. Math. Helv. 78, 2003; Etingof and Ginzburg, Invent.
    Math. 147, 2002): dim (wedge^2 V)^G, plus the number of conjugacy
    classes of elements g whose fixed space has codimension 2 and whose
    centraliser acts with determinant 1 on the normal plane of g.

    Computed with sympy over Q, in Q[z]/(Phi_M), from the element matrices
    and the multiplication table only; the engine's scalars, geometry and
    elimination are not used.  With P_g the average of the powers of g, the
    projector onto the fixed space along the normal plane im(1 - P_g):
      * dim (wedge^2 V)^G is the average of (chi(g)^2 - chi(g^2)) / 2;
      * the codimension of g is dim V - trace(P_g);
      * h in Z(g) acts on the normal plane with the determinant of
        h (1 - P_g) + P_g, which is h there and the identity on V^g.
    """
    m = group.dim
    R = QQ["z"]
    z = R.gens[0]
    phi = R.from_sympy(cyclotomic_poly(group.M, Symbol("z")))

    def reduce(A):
        return A.applyfunc(lambda e: e % phi, R)

    def trace(A):
        return sum(A.diagonal(), R.zero)

    def rational(e):
        e = e % phi
        assert e.is_ground, "a dimension left Q"
        return QQ.to_sympy(e.LC) if e else 0

    mats = [DomainMatrix([[sum((R(QQ(a.numerator, a.denominator)) * z ** k
                                 for k, a in enumerate(x.c)), R.zero)
                            for x in row] for row in g], (m, m), R)
            for g in group.elements]
    one = DomainMatrix.eye(m, R)
    order = group.order
    chi2 = sum((trace(mats[g]) ** 2 - trace(mats[group.mul[g][g]])
                for g in range(order)), R.zero)
    count = rational(chi2) / (2 * order)
    for cls in group.conjugacy_classes():
        g = cls[0]
        powers, x = [], 0
        while True:
            powers.append(mats[x])
            x = group.mul[x][g]
            if x == 0:
                break
        P = reduce(sum(powers[1:], powers[0]) * R(QQ(1, len(powers))))
        if m - rational(trace(P)) != 2:
            continue
        if all(not (reduce(mats[h] * (one - P) + P).det() - 1) % phi
               for h in centralizer(group, g)):
            count += 1
    assert count == int(count)
    return int(count)


# -- polyvector fields -------------------------------------------------------------

def max_poly_degree(field):
    return max((sum(e) for _, e, _ in field.terms), default=0)


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
        v = c.conjugate()
        add_into(out, (label_map[gi], tuple(e2), w2), v if sign == 1 else -v)
    return PolyVectorField(group, out)


def is_real(X, swap):
    return conjugate_swap(X, swap) == X


# -- the trilinear bracket, slot by slot ----------------------------------------------
#
# The engine compiles the bracket against its inner field into one kernel per
# inner label.  This evaluator instead evaluates the outer field's slots
# against the twisted covectors for every coordinate triple, cyclic rotation
# and label pair, as the engine once did.

def p_add(a, b):
    out = dict(a)
    for e, v in b.items():
        add_into(out, e, v)
    return out


def p_scale(p, c):
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def _pair(w):
    if len(w) != 2:
        raise UnsupportedStructureError("bracket slots must be 2-fields")
    return w


def _slot_eval(slots, v):
    """The slots of one index against the vector v, as a polynomial dict."""
    out = {}
    for expo, c, s in slots:
        d = v[s]
        if d:
            add_into(out, expo, c * d)
    return out


class ReferenceBracket:
    """For ordered coordinates (a, b, c) and an outer field, per output label,
      sum over label pairs (alpha, beta) of
        outer_alpha(inner_beta(x_a, x_b), x_c + beta.x_c) + cyclic,
    where the inner field's slots must evaluate to linear polynomials."""

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
        outer_slots = self.slots(outer)
        terms = {}
        for (i, j, k) in combinations(range(self.m), 3):
            for label, poly in self.trilinear(outer_slots, i, j, k).items():
                for expo, cc in poly.items():
                    add_into(terms, (label, expo, (i, j, k)), cc)
        return PolyVectorField(outer.group, terms)


def reference_bracket(inner, outer):
    """The trilinear bracket sum of outer against inner, slot by slot."""
    return ReferenceBracket(inner).bracket(outer)


# -- the label-wise projection, transform by transform --------------------------------
#
# The engine's pr substitutes the projector onto the fixed space, passes
# identity-label terms through and drops short wedges.  This is the projection
# as a change of basis: every term into coordinates adapted to the fixed and
# normal spaces, a filter, and back.

def adapted_basis(group, gi):
    """(s, B, B^-1): the columns of B are a basis of V^gamma, of dimension s,
    then one of N^gamma.  The fixed space is the kernel of gamma - 1, the
    normal space its complement under the averaged hermitian form."""
    m, M = group.dim, group.M
    fixed = kernel_basis(gamma_minus_one(group, gi), m, M)
    cols = fixed + reference_normal(group, gi)
    basis = [[cols[j][r] for j in range(m)] for r in range(m)]
    return len(fixed), basis, reference_mat_inv(basis, M)


def reference_pr(X):
    """Project each label's component onto restricted coefficients and the
    full normal wedge: in coordinates adapted to V^gamma + N^gamma, keep only
    terms whose polynomial part uses fixed coordinates exclusively and whose
    wedge contains every normal direction."""
    group = X.group
    m = group.dim
    by_label = {}
    for key, c in X.terms.items():
        by_label.setdefault(key[0], []).append((key, c))
    out = {}
    for gi, items in by_label.items():
        s, basis, basis_inv = adapted_basis(group, gi)
        normal = frozenset(range(s, m))
        ad = _transform_terms(items, LinearSubstitution(basis, basis_inv),
                              lambda g: g)
        keep = [(key, c) for key, c in ad.items()
                if not any(key[1][s:]) and normal <= frozenset(key[2])]
        out.update(_transform_terms(keep, LinearSubstitution(basis_inv, basis),
                                    lambda g: g))
    return X._like(out)


# -- rewriting without a memo ------------------------------------------------------
#
# The engine's reduce_letters memoizes every word and factors a trailing group
# letter out of the memo; the overlap probe compares the two sides before it
# forms any difference.  These are the same computations done plainly: every
# word reduced afresh by its leftmost redex, and a difference formed and a
# description written at every key of every overlap.

def _reduce_plainly(alg, word):
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a[0] == "g" or (b[0] == "x" and a[1] > b[1]):
            out = {}
            for w, c in _one_step(alg, word, k).items():
                for key, v in _reduce_plainly(alg, w).items():
                    add_into(out, key, v * c)
            return out
    expo = [0] * alg.m
    label = 0
    for kind, i in word:
        if kind == "x":
            expo[i] += 1
        else:
            label = i
    return {(tuple(expo), label): HScalar.one(alg.M)}


def reference_reduce_letters(pair, word):
    """Normal-form expansion {(expo, label): HScalar} of a word of ('x', i) /
    ('g', gi) letters: the leftmost redex rewritten by pbw._one_step, with no
    memo and no relabelling shortcut."""
    return _reduce_plainly(DeformedAlgebra(pair), tuple(word))


def reference_overlap_confluence(pair):
    """(failures, overlaps checked) of the three critical overlap families,
    each side reduced plainly and each difference formed key by key."""
    alg = DeformedAlgebra(pair)
    m, group = alg.m, alg.group
    zero = HScalar.zero(alg.M)
    words = [((("x", i), ("x", j), ("x", k)), f"x{i} x{j} x{k}")
             for i in range(m) for j in range(i) for k in range(j)]
    words += [((("g", g), ("x", i), ("x", j)), f"{group.word_str(g)} x{i} x{j}")
              for g in range(group.order) for i in range(m) for j in range(i)]
    words += [((("g", g), ("g", d), ("x", i)),
               f"{group.word_str(g)} {group.word_str(d)} x{i}")
              for g in range(group.order) for d in range(group.order)
              for i in range(m)]
    failures = []
    for word, desc in words:
        left, right = {}, {}
        for side, k in ((left, 0), (right, 1)):
            for w, c in _one_step(alg, word, k).items():
                for key, v in _reduce_plainly(alg, w).items():
                    add_into(side, key, v * c)
        for key in set(left) | set(right):
            d = left.get(key, zero) - right.get(key, zero)
            if d.parts:
                failures.append((desc, key, d))
    return failures, len(words)


# -- solving for b per element -----------------------------------------------------
#
# The engine's solve_b puts its unknowns at one representative per conjugacy
# class and reads the residues there.  This is the system over every label:
# unknowns at each label, bg2 and bg3 rows at each label, and one invariance
# row per term of act(g, u) - u for each generator g.

def reference_solve_b(pair):
    """solve_b over every label with invariance rows, as a SolveBResult.  The
    weight check, the bg1 certificates and the invariance check are
    solve_b's."""
    group = pair.group
    pi = pair.pi
    if pair.w_b != 2 * pair.w_pi:
        raise ValueError("reference_solve_b needs w_b == 2*w_pi")
    bg1_bad = sorted(koszul_differential(pi).labels())
    if bg1_bad:
        return SolveBResult(False, None, 0, [
            f"bg1 at {group.word_str(g)}: pi is not a twisted cocycle, "
            "no constant correction can repair this" for g in bg1_bad])
    if not is_invariant(pi):
        raise InvarianceError("linear part pi is not group-invariant")
    basis = [elt for gi in range(group.order)
             for elt in _wedge_basis_at_label(group, gi)]
    engine = BracketEngine(pi)
    two = Cyclotomic.rational(group.M, 2)
    rows, rhs, descs = [], {}, []

    def coord_rows(fields, rhs_field, describe):
        by_key = {key: {} for key in rhs_field.terms} if rhs_field else {}
        for col, f in enumerate(fields):
            for key, v in f.terms.items():
                by_key.setdefault(key, {})[col] = v
        for key in sorted(by_key, key=lambda t: (t[0], t[2], t[1])):
            if rhs_field and key in rhs_field.terms:
                rhs[len(rows)] = rhs_field.terms[key]
            rows.append(by_key[key])
            descs.append(describe(key))

    coord_rows((koszul_differential(elt).scale(two) for elt in basis),
               engine.bracket(pi),
               lambda key: f"bg2 at {group.word_str(key[0])}")
    coord_rows((engine.bracket(elt) for elt in basis), None,
               lambda key: f"bg3 at {group.word_str(key[0])}")
    for g in group.gen_indices:
        coord_rows((act(g, elt) - elt for elt in basis), None,
                   lambda key, g=g: f"invariance under {group.word_str(g)} "
                                    f"at {group.word_str(key[0])}")

    sol, witness, rank = solve(rows, rhs, len(basis))
    if sol is None:
        return SolveBResult(False, None, 0, sorted({descs[i] for i in witness}))
    b = PolyVectorField.zero(group)
    for col in sorted(sol):
        b = b + basis[col].scale(sol[col])
    solved = StructurePair(group, pi=pi, b=b, w_pi=pair.w_pi, w_b=pair.w_b,
                           reality_swap=pair.reality_swap)
    return SolveBResult(True, solved, len(basis) - rank, [])


def solve_b_against_reference(pair):
    """Assert that solve_b and reference_solve_b agree on feasibility, free
    parameters and the solved b, and that solve_b certifies an infeasible
    system (past bg1) by bg2 and bg3 rows at class representatives only;
    return solve_b's result."""
    got, want = solve_b(pair), reference_solve_b(pair)
    assert got.feasible == want.feasible
    assert got.free_parameters == want.free_parameters
    if got.feasible:
        assert got.pair.b == want.pair.b
    elif any(c.startswith("bg1") for c in want.certificates):
        assert got.certificates == want.certificates
    else:
        group = pair.group
        reps = {cls[0] for cls in group.conjugacy_classes()}
        assert got.certificates
        for cert in got.certificates:
            kind, at, word = cert.split(" ")
            assert kind in ("bg2", "bg3") and at == "at"
            assert group.element_from_word(word) in reps
    return got


# -- cohomology --------------------------------------------------------------------

def reference_representative_basis(group, poly_cap, j):
    """TruncatedComplex's degree-j basis, as (fields, degrees), seeded at every
    label instead of at the class representatives only."""
    m = group.dim
    fields, degs = [], []
    span = Span()
    for gi in range(group.order):
        if group.geometry(gi).codim > j:
            continue
        for wedge in combinations(range(m), j):
            for expo in _monomials(m, poly_cap):
                seed = pr(PolyVectorField.single(group, gi, expo, wedge, 1))
                image = average(seed)
                if image.is_zero():
                    continue
                row = span.insert(image.terms)
                if row is not None:
                    fields.append(image._like(row))
                    degs.append(sum(expo))
    return fields, degs


def compare_h0(pair, d):
    """Dimensions of degree-0 cohomology for the pair and for its identity part.

    For abelian groups the two agree; the comparison is computed, not
    assumed.
    """
    full = h_truncated(pair, 0, d).dimension
    restricted = type(pair)(
        pair.group,
        pi=pair.pi.restrict_label(0),
        b=pair.b.restrict_label(0),
        w_pi=pair.w_pi,
        w_b=pair.w_b,
        reality_swap=pair.reality_swap,
    )
    identity_only = h_truncated(restricted, 0, d).dimension
    return full, identity_only


# -- the q-difference calculus -------------------------------------------------------

def rotate(F, power=1):
    """Apply the group action z -> q^power z, zbar -> q^{-power} zbar termwise."""
    q = _unit_q(F.n)
    return QPoly(
        F.n,
        {
            (a, b, k): c * pow(q, (power * (a - b)) % F.n)
            for (a, b, k), c in F.terms.items()
        },
    )


def sigma_zbar(F):
    """Substitute zbar -> q^{-1} zbar, leaving z alone."""
    q = _unit_q(F.n)
    return QPoly(F.n, {(a, b, k): c * pow(q, (-b) % F.n) for (a, b, k), c in F.terms.items()})


def d_z_closed(m, F):
    """The m-fold z-difference in one shot, as an alternating sum of scalings.

    Agrees with m iterated applications of d_z; in particular it returns zero
    whenever m reaches the cyclic order.
    """
    if m < 0:
        raise ValueError("negative iteration count")
    if m == 0:
        return F
    n = F.n
    if n == 1:
        raise StarError("the closed form needs a nontrivial root of unity")
    q = _unit_q(n)
    acc = QPoly.zero(n)
    scaled = F
    # scaled walks through sigma_z^{m-i}(F) as i runs from m down to 0.
    coeffs = [
        q_binomial(m, i, q) * pow(q, (i * (i - 1) // 2) % n) * (1 if (m - i) % 2 == 0 else -1)
        for i in range(m + 1)
    ]
    for i in range(m, -1, -1):
        acc = acc + scaled.scale(coeffs[i])
        if i > 0:
            scaled = sigma_z(scaled)
    denom = pow(Cyclotomic.one(F.M) - q, m) * pow(q, (m * (m - 1) // 2) % n)
    return _divide_exact(acc.scale(denom.invert()), m, 0)


def q_leibniz(k, F, G):
    """Expand the k-fold z-difference of a product of plain polynomials.

    Returns sum_i [k choose i]_q d_z^i(F) sigma_z^i(d_z^{k-i}(G)), which equals
    d_z applied k times to F*G.
    """
    if k < 0:
        raise ValueError("negative iteration count")
    F._check_same(G)
    if any(key[2] for key in F.terms) or any(key[2] for key in G.terms):
        raise StarError("the product rule expects plain polynomial factors")
    q = _unit_q(F.n)
    left = F
    rights = [G]
    for _ in range(k):
        rights.append(d_z(rights[-1]))
    acc = QPoly.zero(F.n)
    for i in range(k + 1):
        right = rights[k - i]
        for _ in range(i):
            right = sigma_z(right)
        acc = acc + (left * right).scale(q_binomial(k, i, q))
        left = d_z(left)
    return acc
