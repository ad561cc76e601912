"""Deformed crossed products: normal forms, flatness tests, correction solving.

The deformed algebra attached to a :class:`~crossed_poisson.polyvec.StructurePair`
is generated by the polynomial generators x_0..x_{m-1} together with the group
elements, modulo

* the group law,
* g x_i = (g acting on x_i) g,
* x_i x_j - x_j x_i = hbar^w_pi sum_g pi_g(x_i, x_j) g
                    + hbar^w_b  sum_g b_g(x_i, x_j) g.

Words rewrite to the normal form  x_0^{a_0} ... x_{m-1}^{a_{m-1}} g  with
coefficients polynomial in hbar.  The deformation is flat (the filtered algebra
has the graded dimensions of the undeformed crossed product) exactly when this
rewriting system is confluent; ``overlap_confluence`` checks that directly on
the three critical word families, while ``check_bg`` checks the equivalent
bracket-side conditions.  The two routes are independent implementations and
are tested against each other.
"""

from .scalars import Cyclotomic, HScalar
from . import linalg
from .polyvec import (
    BracketEngine,
    InvarianceError,
    PolyVectorField,
    StructurePair,
    act,
    gen_bracket_pi_pi,
    gen_bracket_b_pi,
    is_invariant,
    koszul_differential,
)

__all__ = [
    "DeformedAlgebra",
    "NCElement",
    "BGReport",
    "ConfluenceReport",
    "SolveBResult",
    "check_bg",
    "overlap_confluence",
    "solve_b",
    "normal_form",
    "graded_dimension",
]


def _binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


def graded_dimension(group, max_degree):
    """Dimension of the span of normal monomials of x-degree <= max_degree.

    This is the combinatorial count |{monomials}| * |group|; it equals the
    dimension of the corresponding filtration piece of the deformed algebra
    precisely when the rewriting system is confluent, which is what
    ``overlap_confluence`` and ``check_bg`` decide.
    """
    m = group.dim
    return group.order * sum(_binomial(m + k - 1, k) for k in range(max_degree + 1))


# ---------------------------------------------------------------------------
# the rewriting engine
# ---------------------------------------------------------------------------

class DeformedAlgebra:
    """Normal-form arithmetic for the deformed crossed product of a pair."""

    def __init__(self, pair):
        self.pair = pair
        self.group = pair.group
        self.M = pair.group.M
        self.m = pair.group.dim
        # corr[(i, j)] for i > j: list of (label, inserted letters, HScalar)
        # such that x_i x_j = x_j x_i + sum inserted * label with coefficient
        self._corr = {}
        for (g, e, w), c in pair.pi.terms.items():
            k, l = w
            ins = tuple(t for t, p in enumerate(e) for _ in range(p))
            self._corr.setdefault((l, k), []).append(
                (g, ins, HScalar.h_power(self.M, pair.w_pi, -c)))
        for (g, e, w), c in pair.b.terms.items():
            k, l = w
            self._corr.setdefault((l, k), []).append(
                (g, (), HScalar.h_power(self.M, pair.w_b, -c)))
        self._memo = {}

    # -- elements ----------------------------------------------------------

    def zero(self):
        return NCElement(self, {})

    def one(self):
        return NCElement(self, {((0,) * self.m, 0): HScalar.one(self.M)})

    def variable(self, i):
        e = [0] * self.m
        e[i] = 1
        return NCElement(self, {(tuple(e), 0): HScalar.one(self.M)})

    def group_element(self, gi):
        return NCElement(self, {((0,) * self.m, gi): HScalar.one(self.M)})

    def monomial(self, expo, gi, coeff=None):
        if coeff is None:
            coeff = HScalar.one(self.M)
        elif isinstance(coeff, Cyclotomic):
            coeff = HScalar.const(coeff)
        elif isinstance(coeff, int):
            coeff = HScalar.const(Cyclotomic.rational(self.M, coeff))
        if not coeff.parts:
            return self.zero()
        return NCElement(self, {(tuple(expo), gi): coeff})

    # -- the rewriter ------------------------------------------------------

    def reduce_letters(self, letters):
        """Normal-form expansion of a word of ('x', i) / ('g', gi) letters.

        Returns a dict {(expo, label): HScalar}.  The strategy rewrites the
        leftmost reducible adjacent pair first; results are memoized since
        distinct reduction branches reconverge on shared subwords.
        """
        letters = tuple(letters)
        hit = self._memo.get(letters)
        if hit is not None:
            return hit
        group = self.group
        for k in range(len(letters) - 1):
            a, b = letters[k], letters[k + 1]
            if a[0] == "g" and b[0] == "g":
                merged = letters[:k] + (("g", group.mul[a[1]][b[1]]),) + letters[k + 2:]
                out = dict(self.reduce_letters(merged))
                break
            if a[0] == "g" and b[0] == "x":
                G = group.matrix(a[1])
                out = {}
                for j in range(self.m):
                    c = G[b[1]][j]
                    if c.is_zero():
                        continue
                    w2 = letters[:k] + (("x", j), a) + letters[k + 2:]
                    _accumulate(out, self.reduce_letters(w2), HScalar.const(c))
                break
            if a[0] == "x" and b[0] == "x" and a[1] > b[1]:
                swapped = letters[:k] + (b, a) + letters[k + 2:]
                out = dict(self.reduce_letters(swapped))
                for g, ins, coeff in self._corr.get((a[1], b[1]), ()):
                    w2 = (letters[:k]
                          + tuple(("x", t) for t in ins)
                          + (("g", g),) + letters[k + 2:])
                    _accumulate(out, self.reduce_letters(w2), coeff)
                break
        else:
            # no redex: ascending x's followed by at most one group letter
            e = [0] * self.m
            label = 0
            for a in letters:
                if a[0] == "x":
                    e[a[1]] += 1
                else:
                    label = a[1]
            out = {(tuple(e), label): HScalar.one(self.M)}
        out = {k: v for k, v in out.items() if v.parts}
        self._memo[letters] = out
        return out


def _accumulate(dst, src, factor):
    for key, val in src.items():
        v = val * factor
        if not v.parts:
            continue
        s = dst.get(key)
        s = v if s is None else s + v
        if s.parts:
            dst[key] = s
        elif key in dst:
            del dst[key]


class NCElement:
    """Element of a deformed crossed product, stored in normal form.

    terms maps (exponent tuple, group label) to an HScalar coefficient;
    the monomial meaning is x_0^{a_0} ... x_{m-1}^{a_{m-1}} * (group element).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v.parts}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        # content comparison; distinct algebra instances over the same group
        # produce comparable normal forms
        return (isinstance(other, NCElement)
                and self.algebra.group is other.algebra.group
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        _accumulate(out, other.terms, HScalar.one(self.algebra.M))
        return NCElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        if isinstance(c, Cyclotomic):
            c = HScalar.const(c)
        elif isinstance(c, int):
            c = HScalar.const(Cyclotomic.rational(self.algebra.M, c))
        return NCElement(self.algebra, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        alg = self.algebra
        out = {}
        for (ea, ga), ca in self.terms.items():
            lead = tuple(("x", i) for i, p in enumerate(ea) for _ in range(p))
            for (eb, gb), cb in other.terms.items():
                word = (lead + (("g", ga),)
                        + tuple(("x", i) for i, p in enumerate(eb) for _ in range(p))
                        + (("g", gb),))
                _accumulate(out, alg.reduce_letters(word), ca * cb)
        return NCElement(alg, out)

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __repr__(self):
        if not self.terms:
            return "NC(0)"
        bits = []
        for (e, g), c in self.sorted_items():
            mono = " ".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p)
            word = self.algebra.group.word_str(g)
            bits.append(f"({c.to_literal()}) {mono or '1'} @ {word}")
        return "NC{ " + " + ".join(bits) + " }"


def normal_form(pair, letters):
    """Normal form of a word in the deformed algebra of ``pair``.

    ``letters`` is an iterable of ('x', i) and ('g', gi) pairs; the result is
    an NCElement over a fresh DeformedAlgebra.
    """
    alg = DeformedAlgebra(pair)
    return NCElement(alg, alg.reduce_letters(tuple(letters)))


# ---------------------------------------------------------------------------
# flatness, bracket route
# ---------------------------------------------------------------------------

class BGReport:
    """Outcome of the three structural conditions for a flat deformation.

    Each field maps (label, hbar weight) to the exact residue field at that
    label; all three empty means the pair passes.
    """

    __slots__ = ("bg1_failures", "bg2_residues", "bg3_residues")

    def __init__(self, bg1_failures, bg2_residues, bg3_residues):
        self.bg1_failures = bg1_failures
        self.bg2_residues = bg2_residues
        self.bg3_residues = bg3_residues

    @property
    def passed(self):
        return (not self.bg1_failures and not self.bg2_residues
                and not self.bg3_residues)

    # historical spelling, same meaning
    ok = passed

    def __repr__(self):
        if self.passed:
            return "BGReport(ok)"
        return (f"BGReport(bg1_failures={sorted(self.bg1_failures)}, "
                f"bg2_residues={sorted(self.bg2_residues)}, "
                f"bg3_residues={sorted(self.bg3_residues)})")


def _residues_by_label(field, weight):
    return {(gi, weight): field.restrict_label(gi) for gi in field.labels()}


def check_bg(pair, zero_b=False):
    """Check the bracket-side flatness conditions of a structure pair.

    bg1: each component of pi is a cocycle for its own twisted differential.
    bg2: the self-bracket of pi equals twice the twisted differential of b
         (they couple when w_b == 2 w_pi; otherwise both must vanish).  The
         factor two is pinned computationally: it is the unique scaling for
         which this check agrees with overlap_confluence.
    bg3: the mixed bracket of b with pi vanishes.

    The pair must be invariant; InvarianceError otherwise.
    """
    if zero_b:
        pair = StructurePair(pair.group, pi=pair.pi, w_pi=pair.w_pi,
                             w_b=pair.w_b, reality_swap=pair.reality_swap)
    if not pair.is_invariant():
        raise InvarianceError("structure pair is not group-invariant")
    bg1 = _residues_by_label(koszul_differential(pair.pi), pair.w_pi)
    Q = gen_bracket_pi_pi(pair)
    D = koszul_differential(pair.b)
    if pair.w_b == 2 * pair.w_pi:
        R = Q - D.scale(Cyclotomic.rational(pair.group.M, 2))
        bg2 = _residues_by_label(R, pair.w_b)
    else:
        bg2 = _residues_by_label(Q, 2 * pair.w_pi)
        bg2.update(_residues_by_label(D, pair.w_b))
    bg3 = _residues_by_label(gen_bracket_b_pi(pair), pair.w_pi + pair.w_b)
    return BGReport(bg1, bg2, bg3)


# ---------------------------------------------------------------------------
# flatness, rewriting route
# ---------------------------------------------------------------------------

class ConfluenceReport:
    __slots__ = ("failures", "overlaps_checked")

    def __init__(self, failures, overlaps_checked):
        self.failures = failures
        self.overlaps_checked = overlaps_checked

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"ConfluenceReport({state}, {self.overlaps_checked} overlaps)"


def _one_step(alg, letters, k):
    """Apply the (unique) rewrite rule at position k once.

    Returns a dict {letter word: HScalar}.  The caller guarantees that the
    adjacent pair at k is a redex.
    """
    group = alg.group
    a, b = letters[k], letters[k + 1]
    out = {}
    if a[0] == "g" and b[0] == "g":
        out[letters[:k] + (("g", group.mul[a[1]][b[1]]),) + letters[k + 2:]] = \
            HScalar.one(alg.M)
    elif a[0] == "g" and b[0] == "x":
        G = group.matrix(a[1])
        for j in range(alg.m):
            c = G[b[1]][j]
            if not c.is_zero():
                out[letters[:k] + (("x", j), a) + letters[k + 2:]] = HScalar.const(c)
    else:
        out[letters[:k] + (b, a) + letters[k + 2:]] = HScalar.one(alg.M)
        for g, ins, coeff in alg._corr.get((a[1], b[1]), ()):
            w2 = (letters[:k] + tuple(("x", t) for t in ins)
                  + (("g", g),) + letters[k + 2:])
            s = out.get(w2)
            out[w2] = coeff if s is None else s + coeff
    return out


def _reduce_sum(alg, words):
    out = {}
    for w, c in words.items():
        _accumulate(out, alg.reduce_letters(w), c)
    return out


def overlap_confluence(pair):
    """Resolve every critical overlap of the rewriting system both ways.

    The overlapping words are
      x_i x_j x_k (i > j > k),   g x_i x_j (i > j),   g d x_i,
    each carrying two distinct leftmost redexes.  For each word both one-step
    choices are taken and then fully normalized; any nonzero difference is a
    confluence failure and is returned with the word that exposed it.
    """
    alg = DeformedAlgebra(pair)
    m, group = alg.m, alg.group
    failures = []
    checked = 0

    def probe(word, k1, k2, desc):
        nonlocal checked
        checked += 1
        left = _reduce_sum(alg, _one_step(alg, word, k1))
        right = _reduce_sum(alg, _one_step(alg, word, k2))
        for key in set(left) | set(right):
            d = left.get(key, HScalar.zero(alg.M)) - right.get(key, HScalar.zero(alg.M))
            if d.parts:
                failures.append((desc, key, d))

    for i in range(m):
        for j in range(i):
            for k in range(j):
                word = (("x", i), ("x", j), ("x", k))
                probe(word, 0, 1, f"x{i} x{j} x{k}")
    for g in range(group.order):
        for i in range(m):
            for j in range(i):
                word = (("g", g), ("x", i), ("x", j))
                probe(word, 0, 1, f"{group.word_str(g)} x{i} x{j}")
    for g in range(group.order):
        for d in range(group.order):
            for i in range(m):
                word = (("g", g), ("g", d), ("x", i))
                probe(word, 0, 1, f"{group.word_str(g)} {group.word_str(d)} x{i}")
    return ConfluenceReport(failures, checked)


# ---------------------------------------------------------------------------
# solving for the constant correction
# ---------------------------------------------------------------------------

class SolveBResult:
    __slots__ = ("feasible", "pair", "free_parameters", "certificates",
                 "candidate_labels")

    def __init__(self, feasible, pair, free_parameters, certificates,
                 candidate_labels):
        self.feasible = feasible
        self.pair = pair
        self.free_parameters = free_parameters
        self.certificates = certificates
        self.candidate_labels = candidate_labels

    def __repr__(self):
        if self.feasible:
            return (f"SolveBResult(feasible, {self.free_parameters} free "
                    f"parameters, labels={self.candidate_labels})")
        return f"SolveBResult(infeasible: {'; '.join(self.certificates)})"


def _wedge_basis_at_label(group, gi):
    """Basis 2-fields for the constant unknown at one label.

    At the identity this is all of the second exterior power; at any other
    label it is the second exterior power of the normal space, which is where
    flatness forces a nonzero constant part to live (the nonfixed directions
    are the orthogonal complement of the fixed space under the averaged
    hermitian form).
    """
    M = group.M
    m = group.dim
    if gi == 0:
        vectors = [[Cyclotomic.one(M) if i == j else Cyclotomic.zero(M)
                    for i in range(m)] for j in range(m)]
    else:
        vectors = group.geometry(gi).normal
    out = []
    for p in range(len(vectors)):
        for q in range(p + 1, len(vectors)):
            terms = {}
            for a in range(m):
                for b in range(a + 1, m):
                    c = vectors[p][a] * vectors[q][b] - vectors[p][b] * vectors[q][a]
                    if not c.is_zero():
                        terms[(gi, (0,) * m, (a, b))] = c
            if terms:
                out.append(PolyVectorField(group, terms))
    return out


def solve_b(pair):
    """Find a constant correction b making the flatness conditions hold.

    The unknown ranges over every label: the full exterior square at the
    identity and the exterior square of the normal space elsewhere.
    Invariance, the bg2 matching, and bg3 are assembled into one exact linear
    system; inconsistent rows are translated into per-label certificates.  A
    pi that fails bg1 is rejected up front, since no constant correction can
    repair a cocycle failure.  Any b already present on ``pair`` is ignored.
    Requires w_b == 2 w_pi so that the bg2 sides couple.  A pi that passes
    bg1 but is not invariant raises InvarianceError before any system is
    built.
    """
    group = pair.group
    M = group.M
    base = StructurePair(group, pi=pair.pi, w_pi=pair.w_pi, w_b=pair.w_b,
                         reality_swap=pair.reality_swap)
    if pair.w_b != 2 * pair.w_pi:
        raise ValueError("solve_b needs w_b == 2*w_pi; otherwise the "
                         "self-bracket of pi cannot be matched by b")

    bg1_bad = sorted(koszul_differential(base.pi).labels())
    if bg1_bad:
        certs = [f"bg1 at {group.word_str(g)}: pi is not a twisted cocycle, "
                 "no constant correction can repair this" for g in bg1_bad]
        return SolveBResult(False, None, 0, certs, [])
    if not is_invariant(base.pi):
        raise InvarianceError("linear part pi is not group-invariant")
    candidates = list(range(group.order))

    basis = []        # list of (label, PolyVectorField)
    for gi in candidates:
        for elt in _wedge_basis_at_label(group, gi):
            basis.append((gi, elt))

    engine = BracketEngine(base.pi)
    Q = engine.bracket(base.pi)
    bg3_fields = [engine.bracket(elt) for _, elt in basis]
    inv_gens = group.gen_indices
    inv_fields = [[act(g, elt) - elt for g in inv_gens] for _, elt in basis]
    two = Cyclotomic.rational(M, 2)
    d_fields = [koszul_differential(elt).scale(two) for _, elt in basis]

    # collect equation coordinates: (kind, term-key); kind tags the source
    rows = []         # list of (coefficient row, rhs, description)
    coords = {}

    def coord_rows(kind, fields, rhs_field, describe):
        keys = set()
        for f in fields:
            keys.update(f.terms)
        if rhs_field is not None:
            keys.update(rhs_field.terms)
        for key in sorted(keys, key=lambda t: (t[0], t[2], t[1])):
            row = [f.terms.get(key, Cyclotomic.zero(M)) for f in fields]
            rhs = (rhs_field.terms.get(key, Cyclotomic.zero(M))
                   if rhs_field is not None else Cyclotomic.zero(M))
            rows.append((row, rhs, describe(key)))

    coord_rows("bg2", d_fields, Q,
               lambda key: f"bg2 at {group.word_str(key[0])}")
    coord_rows("bg3", bg3_fields, None,
               lambda key: f"bg3 at {group.word_str(key[0])}")
    for gnum, g in enumerate(inv_gens):
        coord_rows("inv", [fs[gnum] for fs in inv_fields], None,
                   lambda key, g=g: f"invariance under {group.word_str(g)} "
                                    f"at {group.word_str(key[0])}")

    nunk = len(basis)
    A = [row for row, _, _ in rows]
    rhs = [r for _, r, _ in rows]
    if nunk == 0:
        bad = [d for (_, r, d) in rows if not r.is_zero()]
        if bad:
            return SolveBResult(False, None, 0, sorted(set(bad)), candidates)
        return SolveBResult(True, base, 0, [], candidates)

    sol, bad_rows, rank = linalg.solve(A, rhs, M)
    if sol is None:
        certs = sorted({rows[i][2] for i in bad_rows})
        return SolveBResult(False, None, 0, certs, candidates)
    free = nunk - rank
    b = PolyVectorField.zero(group)
    for u, (_, elt) in zip(sol, basis):
        if not u.is_zero():
            b = b + elt.scale(u)
    solved = StructurePair(group, pi=base.pi, b=b, w_pi=base.w_pi,
                           w_b=base.w_b, reality_swap=base.reality_swap)
    return SolveBResult(True, solved, free, [], candidates)
