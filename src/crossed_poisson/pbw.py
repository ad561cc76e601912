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

from itertools import combinations
from math import comb

from .scalars import Cyclotomic, HScalar
from . import linalg
from .linalg import Terms
from .polyvec import (
    BracketEngine,
    InvarianceError,
    PolyVectorField,
    is_invariant,
    koszul_differential,
    orbit_sum,
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


def graded_dimension(group, max_degree):
    """Dimension of the span of normal monomials of x-degree <= max_degree.

    This is the combinatorial count |{monomials}| * |group|; it equals the
    dimension of the corresponding filtration piece of the deformed algebra
    precisely when the rewriting system is confluent, which is what
    ``overlap_confluence`` and ``check_bg`` decide.
    """
    m = group.dim
    return group.order * sum(comb(m + k - 1, k) for k in range(max_degree + 1))


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
        self._rows = {}

    # -- elements ----------------------------------------------------------

    def zero(self):
        return NCElement(self, {})

    def one(self):
        return NCElement(self, {((0,) * self.m, 0): HScalar.one(self.M)})

    def variable(self, i):
        e = [0] * self.m
        e[i] = 1
        return NCElement(self, {(tuple(e), 0): HScalar.one(self.M)})

    def monomial(self, expo, gi, coeff=1):
        coeff = HScalar.of(self.M, coeff)
        if not coeff.parts:
            return self.zero()
        return NCElement(self, {(tuple(expo), gi): coeff})

    # -- the rewriter ------------------------------------------------------

    def row(self, g, i):
        """The right side of g x_i = sum_j M(g)[i][j] x_j g as a tuple of
        (('x', j), HScalar) over the nonzero entries, built once per (g, i)."""
        hit = self._rows.get((g, i))
        if hit is None:
            hit = self._rows[(g, i)] = tuple(
                (("x", j), HScalar.const(c))
                for j, c in enumerate(self.group.matrix(g)[i]) if not c.is_zero())
        return hit

    def reduce_letters(self, letters):
        """Normal-form expansion of a word of ('x', i) / ('g', gi) letters.

        Returns a dict {(expo, label): HScalar}.  The strategy rewrites the
        leftmost reducible adjacent pair first, by the one rule function
        _one_step that overlap_confluence applies too; results are memoized
        since distinct reduction branches reconverge on shared subwords.

        The memo factors out a trailing group letter h: the leftmost strategy
        reaches the pair (..., h) last, so a word w h reduces to the normal
        form of w with each label g relabelled to g h.  Right multiplication
        by h permutes the labels, so no terms merge.  Only w is memoized, and
        words that differ only in their last label share its reduction.
        """
        letters = tuple(letters)
        if len(letters) > 1 and letters[-1][0] == "g":
            mul, h = self.group.mul, letters[-1][1]
            return {(e, mul[g][h]): c
                    for (e, g), c in self.reduce_letters(letters[:-1]).items()}
        hit = self._memo.get(letters)
        if hit is not None:
            return hit
        for k in range(len(letters) - 1):
            a, b = letters[k], letters[k + 1]
            # g g, g x and x_i x_j with i > j are the redexes
            if a[0] == "g" or (b[0] == "x" and a[1] > b[1]):
                out = _reduce_sum(self, _one_step(self, letters, k))
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
        self._memo[letters] = out
        return out


def _accumulate(dst, src, factor):
    """Add factor times src into dst; a unit factor is not multiplied out,
    and a factor of hbar degree 0 scales each part by its one coefficient."""
    if len(factor.parts) == 1:
        c = factor.parts[0]
        if c == Cyclotomic.one(factor.M):
            for key, val in src.items():
                linalg.add_into(dst, key, val)
        else:
            for key, val in src.items():
                linalg.add_into(dst, key,
                                HScalar(val.M, [a * c if a else a for a in val.parts]))
        return
    for key, val in src.items():
        linalg.add_into(dst, key, val * factor)


class NCElement(Terms):
    """Element of a deformed crossed product, stored in normal form.

    terms maps (exponent tuple, group label) to an HScalar coefficient;
    the monomial meaning is x_0^{a_0} ... x_{m-1}^{a_{m-1}} * (group element).
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v.parts}

    def _coeff(self, c):
        return HScalar.of(self.algebra.M, c)

    def __eq__(self, other):
        # content comparison; distinct algebra instances over the same group
        # produce comparable normal forms
        return (isinstance(other, NCElement)
                and self.algebra.group is other.algebra.group
                and self.terms == other.terms)

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
        return self._like(out)

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

    def __repr__(self):
        if self.passed:
            return "BGReport(ok)"
        return (f"BGReport(bg1_failures={sorted(self.bg1_failures)}, "
                f"bg2_residues={sorted(self.bg2_residues)}, "
                f"bg3_residues={sorted(self.bg3_residues)})")


def _residues_by_label(field, weight):
    return {(gi, weight): field.restrict_label(gi) for gi in field.labels()}


def check_bg(pair):
    """Check the bracket-side flatness conditions of a structure pair.

    bg1: each component of pi is a cocycle for its own twisted differential.
    bg2: the self-bracket of pi equals twice the twisted differential of b
         (they couple when w_b == 2 w_pi; otherwise both must vanish).  The
         factor two is pinned computationally: it is the unique scaling for
         which this check agrees with overlap_confluence.
    bg3: the mixed bracket of b with pi vanishes.

    The pair must be invariant; InvarianceError otherwise.
    """
    if not pair.is_invariant():
        raise InvarianceError("structure pair is not group-invariant")
    bg1 = _residues_by_label(koszul_differential(pair.pi), pair.w_pi)
    engine = BracketEngine(pair.pi)
    Q = engine.bracket(pair.pi)
    D = koszul_differential(pair.b)
    if pair.w_b == 2 * pair.w_pi:
        R = Q - D.scale(Cyclotomic.rational(pair.group.M, 2))
        bg2 = _residues_by_label(R, pair.w_b)
    else:
        bg2 = _residues_by_label(Q, 2 * pair.w_pi)
        bg2.update(_residues_by_label(D, pair.w_b))
    bg3 = _residues_by_label(engine.bracket(pair.b), pair.w_pi + pair.w_b)
    return BGReport(bg1, bg2, bg3)


# ---------------------------------------------------------------------------
# flatness, rewriting route
# ---------------------------------------------------------------------------

class ConfluenceReport:
    """failures lists (word, key, difference) for each overlap that does not
    resolve; overlaps_checked counts the words of the three families, and
    overlaps_probed the words reduced both ways, the rest being derived."""

    __slots__ = ("failures", "overlaps_checked", "overlaps_probed")

    def __init__(self, failures, overlaps_checked, overlaps_probed):
        self.failures = failures
        self.overlaps_checked = overlaps_checked
        self.overlaps_probed = overlaps_probed

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"ConfluenceReport({state}, {self.overlaps_checked} overlaps)"


def _one_step(alg, letters, k):
    """Apply the (unique) rewrite rule at position k once.

    Returns a dict {letter word: HScalar}.  The caller guarantees that the
    adjacent pair at k is a redex: g g (the group law), g x (moving the
    group letter right) or x_i x_j with i > j (the swap and its corrections).
    """
    group = alg.group
    a, b = letters[k], letters[k + 1]
    out = {}
    if a[0] == "g" and b[0] == "g":
        out[letters[:k] + (("g", group.mul[a[1]][b[1]]),) + letters[k + 2:]] = \
            HScalar.one(alg.M)
    elif a[0] == "g" and b[0] == "x":
        head, tail = letters[:k], (a,) + letters[k + 2:]
        for x, c in alg.row(a[1], b[1]):
            out[head + (x,) + tail] = c
    else:
        out[letters[:k] + (b, a) + letters[k + 2:]] = HScalar.one(alg.M)
        for g, ins, coeff in alg._corr.get((a[1], b[1]), ()):
            w2 = (letters[:k] + tuple(("x", t) for t in ins)
                  + (("g", g),) + letters[k + 2:])
            linalg.add_into(out, w2, coeff)
    return out


def _reduce_sum(alg, words):
    out = {}
    for w, c in words.items():
        _accumulate(out, alg.reduce_letters(w), c)
    return out


def _overlap_words(m, g_labels):
    """The probed critical words in report order: x_i x_j x_k (i > j > k),
    then g x_i x_j (i > j) for g in g_labels."""
    for i in range(m):
        for j in range(i):
            for k in range(j):
                yield (("x", i), ("x", j), ("x", k))
    for g in g_labels:
        for i in range(m):
            for j in range(i):
                yield (("g", g), ("x", i), ("x", j))


def overlap_confluence(pair):
    """Resolve every critical overlap of the rewriting system.

    The overlapping words are
      x_i x_j x_k (i > j > k),   g x_i x_j (i > j),   g d x_i,
    each carrying two distinct leftmost redexes.  To probe a word is to take
    both one-step choices, normalize each fully and compare; a nonzero
    difference is a confluence failure and is returned with the word that
    exposed it.  Bergman's diamond lemma asks that every overlap resolve, not
    that each be probed: the x_i x_j x_k words are all probed, the g x_i x_j
    words only for g in D = {e} + generators, and the rest resolve by the
    arguments below.  A failing g x_i x_j word has all of its family probed,
    so failures are exactly those of probing every word.

    The arguments assume that pi is linear and b constant (StructurePair
    enforces both).  Write M(g) for the matrix of g and gd for mul[g][d].

    g d x_i.  Its two sides reduce to row i of M(gd) and of M(d) M(g), each
    times x_j gd.  MatrixGroup builds mul from products of matrices, so
    M(gd) = M(d) M(g) for all g and d, and every g d x_i resolves by
    construction.  The same makes mul associative, with identity e.

    g x_i x_j.  Let C_ij (i > j) be the correction of x_i x_j: the terms
    c x_t h and c h with x_i x_j = x_j x_i + C_ij, extended by
    C_ji = -C_ij and C_ii = 0.  Let T_g send c x_t h to
    sum_u M(g)[t][u] c x_u gh and c h to c gh (the normal form of g times
    it), let R_g relabel h to hg, and let (g * C)_ij be
    sum_{k,l} M(g)[i][k] M(g)[j][l] C_kl.  Both sides of g x_i x_j share
    the terms sum M(g)[i][k] M(g)[j][l] x_min(k,l) x_max(k,l) g, so the word
    resolves exactly when
      P(g):  T_g C_ij = R_g (g * C)_ij,
    an identity antisymmetric in (i, j), so the words with i > j cover it.
    With M(gh) = M(h) M(g) and mul associative, T_{gh} = T_g T_h,
    R_{gh} = R_h R_g, T_g R_h = R_h T_g, and (gh) * C = h * (g * C); T and R
    are linear and act within each C_kl, so they commute with the * of any
    element.  If P(g) and P(h) hold, then
      T_{gh} C = T_g T_h C = T_g R_h (h * C) = R_h (h * T_g C)
               = R_h (h * R_g (g * C)) = R_{gh} ((gh) * C),
    so P(gh) holds.  Every element is a product of generators, so P holds on
    all of the group once it holds on D.

    overlaps_checked is the full count C(m,3) + |G| C(m,2) + |G|^2 m, and
    overlaps_probed is C(m,3) + |D| C(m,2) when no g x_i x_j word fails and
    C(m,3) + |G| C(m,2) when one does.
    """
    alg = DeformedAlgebra(pair)
    m, group = alg.m, alg.group
    n = group.order
    found = {}          # failing word -> its failures
    probed = 0

    def probe(word):
        # every overlap word has its two redexes at positions 0 and 1
        nonlocal probed
        probed += 1
        left = _reduce_sum(alg, _one_step(alg, word, 0))
        right = _reduce_sum(alg, _one_step(alg, word, 1))
        # values are nonzero and compare structurally, so equal dicts are
        # equal elements and no difference needs to be formed
        if left == right:
            return
        desc = " ".join(f"x{i}" if kind == "x" else group.word_str(i)
                        for kind, i in word)
        out = found[word] = []
        for key in set(left) | set(right):
            d = left.get(key, HScalar.zero(alg.M)) - right.get(key, HScalar.zero(alg.M))
            if d.parts:
                out.append((desc, key, d))

    def has_g(word):
        return word[0][0] == "g"

    gens = sorted({0, *group.gen_indices})
    for word in _overlap_words(m, gens):
        probe(word)
    if any(map(has_g, found)):
        for word in _overlap_words(m, range(n)):
            if has_g(word) and word[0][1] not in gens:
                probe(word)
    failures = [f for word in sorted(found, key=lambda w: (has_g(w), w))
                for f in found[word]]
    checked = comb(m, 3) + n * comb(m, 2) + n * n * m
    return ConfluenceReport(failures, checked, probed)


# ---------------------------------------------------------------------------
# solving for the constant correction
# ---------------------------------------------------------------------------

class SolveBResult:
    __slots__ = ("feasible", "pair", "free_parameters", "certificates")

    def __init__(self, feasible, pair, free_parameters, certificates):
        self.feasible = feasible
        self.pair = pair
        self.free_parameters = free_parameters
        self.certificates = certificates

    def __repr__(self):
        if self.feasible:
            return f"SolveBResult(feasible, {self.free_parameters} free parameters)"
        return f"SolveBResult(infeasible: {'; '.join(self.certificates)})"


def _wedge_basis_at_label(group, gi):
    """Basis 2-fields for the constant unknown at one label.

    At the identity this is all of the second exterior power; at any other
    label it is the second exterior power of the normal space, which is where
    flatness forces a nonzero constant part to live (the normal space is the
    image of the element minus the identity, the directions it moves).
    """
    vectors = group.matrix(0) if gi == 0 else group.geometry(gi).normal
    fields = (PolyVectorField.wedge2(group, gi, u, v)
              for u, v in combinations(vectors, 2))
    return [f for f in fields if f]


def _local_columns(group, h):
    """The independent Z(h)-sums of the basis fields at label h.

    The sum over Z(h) is |Z(h)| times the average, the projector onto the
    Z(h)-invariant part of the span; the Span keeps the sums that are
    independent of the earlier ones, which therefore span that part.
    """
    mul = group.mul
    centraliser = [z for z in range(group.order) if mul[z][h] == mul[h][z]]
    span = linalg.Span()
    out = []
    for f in _wedge_basis_at_label(group, h):
        terms = orbit_sum(f, centraliser)
        if terms and span.insert(terms) is not None:
            out.append(PolyVectorField(group, terms))
    return out


def _spread(group, cls, local):
    """The invariant field whose component at the representative cls[0] is
    the Z(cls[0])-invariant field local: at each member c of the class, local
    moved by one element g with g cls[0] g^-1 = c.  Another such g differs
    from it by an element of Z(cls[0]), which fixes local."""
    h = cls[0]
    reach = {}
    for g in range(group.order):
        reach.setdefault(group.conjugate_index(g, h), g)
    return PolyVectorField(group, orbit_sum(local, (reach[c] for c in cls)))


def _at_labels(field, labels):
    return field._like({k: v for k, v in field.terms.items() if k[0] in labels})


def solve_b(pair):
    """Find a constant correction b making the flatness conditions hold.

    b is sought among the invariant constant fields whose component at the
    identity lies in the full exterior square and whose component at any
    other label g lies in the exterior square of the normal space of g (the
    basis of _wedge_basis_at_label).  An invariant field is fixed by its
    components at one representative h per conjugacy class, and the
    component at h is invariant under the centraliser Z(h) (the centraliser
    decomposition of Shepler and Witherspoon, Trans. AMS 360, 2008).  So the
    unknowns are one column per independent Z(h)-invariant field at each
    representative h (the local columns, _local_columns), each spread over
    its class into an invariant field (_spread); no invariance rows are
    needed.

    With pi and b invariant, the bg2 residue [pi, pi] - 2 d(b) and the bg3
    residue of b against pi are invariant, so each vanishes exactly when it
    vanishes at every representative.  The system therefore holds only the
    rows at the representatives: for bg2 the twisted differential of the
    local column, which stays at its label, against [pi, pi] there; for bg3
    the bracket of the spread column, read there.  It has the solutions of
    the system over every label with invariance rows, which
    tests/oracles.py keeps as reference_solve_b.  If it is inconsistent, the
    certificates are the sorted descriptions of the rows in the witness of
    linalg.solve, a combination of rows whose coefficients cancel and whose
    right-hand sides do not; they name representatives only.  On a
    consistent system b is the solution, with the free columns at zero,
    times the spread columns, and free_parameters is the dimension of the
    solution space.

    A pi that fails bg1 is rejected up front, with a certificate at every
    failing label, since no constant correction can repair a cocycle
    failure.  Any b already present on ``pair`` is ignored.  Requires
    w_b == 2 w_pi so that the bg2 sides couple.  A pi that passes bg1 but
    is not invariant raises InvarianceError before any system is built.
    """
    group = pair.group
    base = pair.with_b(None)
    if pair.w_b != 2 * pair.w_pi:
        raise ValueError("solve_b needs w_b == 2*w_pi; otherwise the "
                         "self-bracket of pi cannot be matched by b")

    bg1_bad = sorted(koszul_differential(base.pi).labels())
    if bg1_bad:
        certs = [f"bg1 at {group.word_str(g)}: pi is not a twisted cocycle, "
                 "no constant correction can repair this" for g in bg1_bad]
        return SolveBResult(False, None, 0, certs)
    if not is_invariant(base.pi):
        raise InvarianceError("linear part pi is not group-invariant")

    local, spread = [], []
    for cls in group.conjugacy_classes():
        for col in _local_columns(group, cls[0]):
            local.append(col)
            spread.append(_spread(group, cls, col))
    reps = {cls[0] for cls in group.conjugacy_classes()}
    engine = BracketEngine(base.pi)
    two = Cyclotomic.rational(group.M, 2)
    rows, rhs, descs = [], {}, []     # sparse rows, {row: rhs}, one text per row

    def coord_rows(fields, rhs_field, describe):
        # one row per term key, in (label, wedge, exponent) order
        by_key = {key: {} for key in rhs_field.terms} if rhs_field else {}
        for col, f in enumerate(fields):
            for key, v in f.terms.items():
                by_key.setdefault(key, {})[col] = v
        for key in sorted(by_key, key=lambda t: (t[0], t[2], t[1])):
            if rhs_field and key in rhs_field.terms:
                rhs[len(rows)] = rhs_field.terms[key]
            rows.append(by_key[key])
            descs.append(describe(key))

    coord_rows((koszul_differential(col).scale(two) for col in local),
               _at_labels(engine.bracket(base.pi), reps),
               lambda key: f"bg2 at {group.word_str(key[0])}")
    coord_rows((_at_labels(engine.bracket(col), reps) for col in spread), None,
               lambda key: f"bg3 at {group.word_str(key[0])}")

    sol, witness, rank = linalg.solve(rows, rhs, len(spread))
    if sol is None:
        certs = sorted({descs[i] for i in witness})
        return SolveBResult(False, None, 0, certs)
    free = len(spread) - rank
    b = PolyVectorField.zero(group)
    for col in sorted(sol):
        b = b + spread[col].scale(sol[col])
    return SolveBResult(True, base.with_b(b), free, [])
