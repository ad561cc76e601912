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
from .linalg import Terms, add_into
from .polyvec import (
    BracketEngine,
    InvarianceError,
    PolyVectorField,
    UnsupportedStructureError,
    invariant_basis,
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
    """Normal-form arithmetic for the deformed crossed product of a pair.

    The rewriter works on words of int letters: x_i is i and the group
    element g is m + g.  A reduced word is a dict
    {(expo, label, hbar power): Cyclotomic} of nonzero values, and one
    rewrite step is a dict {word: (hbar shift, Cyclotomic)}.  Every factor a
    rule applies is a single power of hbar (a matrix entry at hbar^0, a
    correction at hbar^w_pi or hbar^w_b, a unit for the swap and the group
    law), so each term a step reaches costs one Cyclotomic product, none for
    a unit factor, and one addition.  ``view`` turns a reduced word into the
    {(expo, label): HScalar} terms of an NCElement.
    """

    def __init__(self, pair):
        self.pair = pair
        self.group = pair.group
        self.M = pair.group.M
        self.m = m = pair.group.dim
        self._one = Cyclotomic.one(self.M)
        # corr[(i, j)] for i > j: (inserted letters, hbar shift, coefficient)
        # with x_i x_j = x_j x_i + sum coefficient hbar^shift inserted
        self._corr = {}
        for (g, e, w), c in pair.pi.terms.items():
            k, l = w
            ins = tuple(t for t, p in enumerate(e) for _ in range(p)) + (m + g,)
            self._corr.setdefault((l, k), []).append((ins, pair.w_pi, -c))
        for (g, e, w), c in pair.b.terms.items():
            k, l = w
            self._corr.setdefault((l, k), []).append(((m + g,), pair.w_b, -c))
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

    # -- words and their views ---------------------------------------------

    def word(self, letters):
        """The int word of ('x', i) / ('g', gi) letters."""
        m = self.m
        return tuple(i if kind == "x" else m + i for kind, i in letters)

    def view(self, reduced):
        """The {(expo, label): HScalar} terms of a reduced word."""
        by_key = {}
        for (e, g, p), c in reduced.items():
            by_key.setdefault((e, g), {})[p] = c
        zero = Cyclotomic.zero(self.M)
        return {key: HScalar(self.M, [parts.get(j, zero) for j in range(max(parts) + 1)])
                for key, parts in by_key.items()}

    # -- the rewriter ------------------------------------------------------

    def row(self, g, i):
        """The nonzero entries (j, c) of g x_i = sum_j c x_j g, built once per
        (g, i); an entry equal to 1 is the field's one, so that a unit
        factor is known by identity."""
        hit = self._rows.get((g, i))
        if hit is None:
            one = self._one
            hit = self._rows[(g, i)] = tuple(
                (j, one if c == one else c)
                for j, c in enumerate(self.group.matrix(g)[i]) if c)
        return hit

    def step(self, word, k):
        """Apply the (unique) rewrite rule at position k once.

        Returns {word: (hbar shift, Cyclotomic)}; the words are distinct.
        The caller guarantees that the pair at k is a redex: g g (the group
        law), g x (moving the group letter right) or x_i x_j with i > j
        (the swap and its corrections).
        """
        m = self.m
        a, b = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2:]
        if a >= m:
            if b >= m:
                return {head + (m + self.group.mul[a - m][b - m],) + tail: (0, self._one)}
            tail = (a,) + tail
            return {head + (j,) + tail: (0, c) for j, c in self.row(a - m, b)}
        out = {head + (b, a) + tail: (0, self._one)}
        for ins, shift, c in self._corr.get((a, b), ()):
            out[head + ins + tail] = (shift, c)
        return out

    def reduce_steps(self, steps):
        """The reduced word of a step's weighted sum of words."""
        out = {}
        one = self._one
        for w, (shift, c) in steps.items():
            src = self.reduce_letters(w)
            if c is one and not shift:
                for key, v in src.items():
                    add_into(out, key, v)
                continue
            for (e, g, p), v in src.items():
                add_into(out, (e, g, p + shift), v if c is one else v * c)
        return out

    def reduce_letters(self, word):
        """Normal-form expansion of an int word, as a reduced word.

        The strategy rewrites the leftmost reducible adjacent pair first, by
        the one rule function ``step`` that overlap_confluence applies too;
        results are memoized since distinct reduction branches reconverge on
        shared subwords.  A letter a at k is a redex with the next letter b
        when a is a group letter or a > b: a group letter is larger than
        every x, so an x is never a redex with a group letter after it.

        The memo factors out a trailing group letter h: the leftmost strategy
        reaches the pair (..., h) last, so a word w h reduces to the normal
        form of w with each label g relabelled to g h.  Right multiplication
        by h permutes the labels, so no terms merge.  Only w is memoized, and
        words that differ only in their last label share its reduction.
        """
        m = self.m
        if len(word) > 1 and word[-1] >= m:
            mul, h = self.group.mul, word[-1] - m
            return {(e, mul[g][h], p): c
                    for (e, g, p), c in self.reduce_letters(word[:-1]).items()}
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        for k in range(len(word) - 1):
            a = word[k]
            if a >= m or a > word[k + 1]:
                out = self.reduce_steps(self.step(word, k))
                break
        else:
            # no redex: ascending x's followed by at most one group letter
            e = [0] * m
            label = 0
            for a in word:
                if a < m:
                    e[a] += 1
                else:
                    label = a - m
            out = {(tuple(e), label, 0): self._one}
        self._memo[word] = out
        return out


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
        m = alg.m
        out = {}
        for (ea, ga), ca in self.terms.items():
            lead = tuple(i for i, p in enumerate(ea) for _ in range(p)) + (m + ga,)
            for (eb, gb), cb in other.terms.items():
                word = (lead + tuple(i for i, p in enumerate(eb) for _ in range(p))
                        + (m + gb,))
                c = ca * cb
                for key, v in alg.view(alg.reduce_letters(word)).items():
                    add_into(out, key, v * c)
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
    return NCElement(alg, alg.view(alg.reduce_letters(alg.word(letters))))


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


def _at_labels(field, labels):
    return field._like({k: v for k, v in field.terms.items() if k[0] in labels})


def _bg_residues(pair, engine, labels):
    """The residue maps (bg1, bg2, bg3) of check_bg at the given labels only:
    the differential keeps labels and the bracket skips every product whose
    label falls outside them."""
    pi, b = _at_labels(pair.pi, labels), _at_labels(pair.b, labels)
    bg1 = _residues_by_label(koszul_differential(pi), pair.w_pi)
    Q = engine.bracket(pair.pi, labels)
    D = koszul_differential(b)
    if pair.w_b == 2 * pair.w_pi:
        R = Q - D.scale(Cyclotomic.rational(pair.group.M, 2))
        bg2 = _residues_by_label(R, pair.w_b)
    else:
        bg2 = _residues_by_label(Q, 2 * pair.w_pi)
        bg2.update(_residues_by_label(D, pair.w_b))
    bg3 = _residues_by_label(engine.bracket(pair.b, labels), pair.w_pi + pair.w_b)
    return bg1, bg2, bg3


def check_bg(pair):
    """Check the bracket-side flatness conditions of a structure pair.

    bg1: each component of pi is a cocycle for its own twisted differential.
    bg2: the self-bracket of pi equals twice the twisted differential of b
         (they couple when w_b == 2 w_pi; otherwise both must vanish).  The
         factor two is pinned computationally: it is the unique scaling for
         which this check agrees with overlap_confluence.
    bg3: the mixed bracket of b with pi vanishes.

    The pair must be invariant; InvarianceError otherwise.  Each residue is
    then an equivariant image of invariant data, so it vanishes at every
    label exactly when it vanishes at one representative per conjugacy
    class.  The residues are computed at the representatives first; a pair
    that passes there passes, and only a failing pair has its residues
    computed at the other labels too, so a report holds them at every label.
    """
    if not pair.is_invariant():
        raise InvarianceError("structure pair is not group-invariant")
    group = pair.group
    reps = {cls[0] for cls in group.conjugacy_classes()}
    engine = BracketEngine(pair.pi)
    residues = _bg_residues(pair, engine, reps)
    if any(residues):
        rest = _bg_residues(pair, engine, set(range(group.order)) - reps)
        for found, more in zip(residues, rest):
            found.update(more)
    return BGReport(*residues)


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


def _overlap_words(m, g_labels):
    """The probed critical words in report order, as int words:
    x_i x_j x_k (i > j > k), then g x_i x_j (i > j) for g in g_labels."""
    for i in range(m):
        for j in range(i):
            for k in range(j):
                yield (i, j, k)
    for g in g_labels:
        for i in range(m):
            for j in range(i):
                yield (m + g, i, j)


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
        left = alg.reduce_steps(alg.step(word, 0))
        right = alg.reduce_steps(alg.step(word, 1))
        # values are nonzero and compare structurally, so equal dicts are
        # equal elements and no difference needs to be formed
        if left == right:
            return
        left, right = alg.view(left), alg.view(right)
        desc = " ".join(f"x{a}" if a < m else group.word_str(a - m) for a in word)
        out = found[word] = []
        for key in set(left) | set(right):
            d = left.get(key, HScalar.zero(alg.M)) - right.get(key, HScalar.zero(alg.M))
            if d.parts:
                out.append((desc, key, d))

    def has_g(word):
        return word[0] >= m

    gens = sorted({0, *group.gen_indices})
    for word in _overlap_words(m, gens):
        probe(word)
    if any(map(has_g, found)):
        for word in _overlap_words(m, range(n)):
            if has_g(word) and word[0] - m not in gens:
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


def solve_b(pair):
    """Find a constant correction b making the flatness conditions hold.

    b is sought among the invariant constant fields whose component at the
    identity lies in the full exterior square and whose component at any
    other label g lies in the exterior square of the normal space of g (the
    basis of _wedge_basis_at_label).  The unknowns are the fields that
    polyvec.invariant_basis builds from that basis at each class
    representative h: one column per local row at h, spread over its class
    into an invariant field; no invariance rows are needed.

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
        raise UnsupportedStructureError("solve_b needs w_b == 2*w_pi; otherwise the "
                                        "self-bracket of pi cannot be matched by b")

    bg1_bad = sorted(koszul_differential(base.pi).labels())
    if bg1_bad:
        certs = [f"bg1 at {group.word_str(g)}: pi is not a twisted cocycle, "
                 "no constant correction can repair this" for g in bg1_bad]
        return SolveBResult(False, None, 0, certs)
    if not is_invariant(base.pi):
        raise InvarianceError("linear part pi is not group-invariant")

    local, spread, _, _ = invariant_basis(
        group, lambda h: ((f, None) for f in _wedge_basis_at_label(group, h)))
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
