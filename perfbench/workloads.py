"""The benchmark's four workloads: their rounds of jobs and the checks on them.

A workload is a pair ``(draw, build)``.  ``draw(rng, probe)`` turns a
seeded generator into plain parameters for one *round*: a fixed list of job
slots whose shapes (job kind, catalog family, group order, cochain degree,
cyclic order) are the same in every round, while the generator draws every
value inside those shapes.  ``build(cp, params)`` makes the round's jobs with
the package ``cp`` (a namespace of freshly imported modules).  Round r of a
run draws from the seed and r alone, so every run of a seed does the same
work in the same order, and the program's caches fill the same way.

A job runs through a public entry point and returns an output.  ``keep``
reduces the output to what its check needs; ``check`` then judges it after
the timed phase and returns OK, FAILED (the program did not carry out the
operation as it must) or WRONG (the answer is incorrect).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import namedtuple
from fractions import Fraction
from math import comb

OK, FAILED, WRONG = "ok", "failed", "wrong"

SMALL_RATIONALS = [Fraction(p, q) for p in (1, -1, 2, -2, 3, -3) for q in (1, 2, 3)
                   if Fraction(p, q).denominator == q]


# exit code, stdout and stderr of one in-process ``cli.main`` call
CliOutput = namedtuple("CliOutput", "rc out err")


def run_cli(cp, argv, stdin_text):
    """Call ``cli.main(argv)`` with stdin, stdout and stderr held in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            rc = cp.cli.main(argv)
        finally:
            sys.stdin = saved
    return CliOutput(rc, out.getvalue(), err.getvalue())


class Job:
    """One unit of work: ``run()`` is timed, everything else is not."""

    __slots__ = ("kind", "what", "run", "check", "keep")

    def __init__(self, kind, what, run, check, keep=lambda out: out):
        self.kind = kind          # job kind; one warm-up job per kind
        self.what = what          # one line naming the input, for reports
        self.run = run
        self.keep = keep          # output -> what the check needs
        self.check = check        # kept output -> OK / FAILED / WRONG


def _pick(rng, seq):
    return seq[rng.randrange(len(seq))]


def _terms_by_key(entries, labels=None):
    return {(t["label"], t["poly"], tuple(t["wedge"])): t["coeff"]
            for t in entries if labels is None or t["label"] in labels}


def _field_from_entries(cp, group, entries):
    """Rebuild a field from structure-file term objects (independent parse)."""
    field = cp.polyvec.PolyVectorField.zero(group)
    for t in entries:
        field = field + cp.polyvec.PolyVectorField.single(
            group, group.element_from_word(t["label"]),
            cp.cli.parse_monomial(t["poly"], group.dim), tuple(t["wedge"]),
            cp.cli.parse_scalar(t["coeff"], group.M))
    return field


# ---------------------------------------------------------------------------
# solve-b: exact elimination on gamma_n --n 1 with the constant part removed
# ---------------------------------------------------------------------------

SOLVE_B_SLOTS = ("feasible", "feasible", "infeasible", "feasible")


def solve_b_draw(rng, probe):
    return [(kind, _pick(rng, SMALL_RATIONALS),
             _pick(rng, SMALL_RATIONALS) if kind == "infeasible" else None)
            for kind in SOLVE_B_SLOTS]


def solve_b_build(cp, params):
    jobs = []
    for kind, c0, a in params:
        entry = cp.catalog.gamma_n_family(1, c0, a=a)
        s = entry.structure
        stripped = cp.polyvec.StructurePair(entry.group, pi=s.pi, w_pi=s.w_pi,
                                            w_b=s.w_b, reality_swap=s.reality_swap)
        text = cp.cli.emit_structure_file(stripped)
        run = (lambda text=text:
               run_cli(cp, ["solve-b", "--format", "json"], text))
        check = (_check_solve_b_feasible(cp, entry) if kind == "feasible"
                 else _check_solve_b_infeasible)
        jobs.append(Job(kind, f"gamma_n n=1 c0={c0} a={a}", run, check))
    return jobs


def _verdict(out, expected_rc):
    """FAILED when the command refused or crashed, WRONG when it answered
    with the other verdict, None when the exit code is the expected one."""
    if out.rc == expected_rc:
        return None
    return WRONG if out.rc in (0, 1) else FAILED


def _check_solve_b_feasible(cp, entry):
    def check(out):
        bad = _verdict(out, 0)
        if bad:
            return bad
        doc = json.loads(out.out)
        if not (doc.get("solvable") and doc.get("confirmed")):
            return WRONG
        solved = cp.cli.parse_structure_file(json.dumps(doc["structure_file"]))
        if not cp.pbw.overlap_confluence(solved).ok:
            return WRONG
        mine = _terms_by_key(doc["solved_b"])
        labels = {label for label, _, _ in mine}
        closed = _terms_by_key(cp.cli.term_entries(entry.structure.b), labels)
        return OK if mine and mine == closed else WRONG
    return check


def _check_solve_b_infeasible(out):
    # the twisted differential of a constant field vanishes at the identity,
    # while the Schouten square of the identity part of pi does not
    bad = _verdict(out, 1)
    if bad:
        return bad
    doc = json.loads(out.out)
    if doc.get("solvable") is not False:
        return WRONG
    return OK if "bg2 at e" in doc.get("certificates", []) else WRONG


# ---------------------------------------------------------------------------
# flatness: both flatness routes on flat families and random invariant pairs
# ---------------------------------------------------------------------------

FLAT_FAMILIES = ("z2_constant", "symplectic_z2", "symplectic_c4",
                 "symplectic_c6", "cyclic_qmoyal_3", "cyclic_qmoyal_5",
                 "lie_poisson", "gamma_1", "gamma_2")
# (dimension, conductor, group order) of the random-pair slots.  Orders 6 to
# 12 keep the cost of these jobs within a small range.  A group holding -I
# kills every linear 2-field under averaging, so such groups are drawn again.
RANDOM_SHAPES = ((2, 3, 6), (3, 3, 6), (3, 1, 8), (3, 4, 8), (3, 3, 9),
                 (4, 1, 8), (4, 4, 8), (3, 1, 12), (4, 3, 12))
MAX_DRAWS = 2000
LIE_BRACKET = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: -1}}
OMEGA = [[0, 1], [-1, 0]]
# a generator with no inverse: it closes into the monoid {I, 0}, not a group
NON_INVERTIBLE_FILE = json.dumps({
    "conductor": 1, "dimension": 2,
    "generators": [[["0", "0"], ["0", "0"]]],
    "structure": [{"label": "e", "poly": "1", "wedge": [0, 1], "coeff": "1"}],
    "hbar_weights": [1, 2], "reality_swap": None}, indent=2) + "\n"


def _rotation(cp, n, M):
    z = cp.scalars.Cyclotomic.zero(M)
    q = cp.scalars.root_of_unity(M, M // n)
    return [[q, z], [z, q.invert()]]


def _family_constructor(cp, family, c, t, c0):
    """A zero-argument constructor for one seeded member of a flat family."""
    cat, groups = cp.catalog, cp.groups
    if family == "z2_constant":
        return lambda: cat.z2_constant(c).structure
    if family.startswith("symplectic_"):
        n = {"symplectic_z2": 2, "symplectic_c4": 4, "symplectic_c6": 6}[family]
        M = 1 if n == 2 else (4 if n == 4 else 12)
        gen = [[-1, 0], [0, -1]] if n == 2 else _rotation(cp, n, M)
        return lambda: cat.symplectic_reflection(
            groups.generate([gen], M, max_order=n), OMEGA, c).structure
    if family.startswith("cyclic_qmoyal_"):
        n = int(family.rpartition("_")[2])
        return lambda: cat.cyclic_qmoyal(n).structure
    if family == "lie_poisson":
        bracket = {key: {k: v * t for k, v in row.items()}
                   for key, row in LIE_BRACKET.items()}
        flip = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
        return lambda: cat.lie_poisson_family(
            groups.generate([flip], 1, max_order=2), bracket, c).structure
    n = int(family.rpartition("_")[2])

    def gamma():
        s = cat.gamma_n_family(n, c0).structure
        M = s.group.M
        return cp.polyvec.StructurePair(
            s.group, pi=s.pi.scale(cp.scalars.Cyclotomic.rational(M, t)),
            b=s.b.scale(cp.scalars.Cyclotomic.rational(M, t * t)),
            w_pi=s.w_pi, w_b=s.w_b, reality_swap=s.reality_swap)
    return gamma


def _random_generator(rng, m, M):
    """A signed permutation (perm, signs) or a diagonal of M-th roots of
    unity (None, exponents), with -1 as exponent 1 when M = 1."""
    if rng.random() < 0.5:
        perm = list(range(m))
        rng.shuffle(perm)
        return tuple(perm), tuple(_pick(rng, (1, -1)) for _ in range(m))
    return None, tuple(rng.randrange(max(M, 2)) for _ in range(m))


def _generator_matrix(cp, spec, M):
    perm, values = spec
    m = len(values)
    if perm is not None:
        return [[values[i] if perm[i] == j else 0 for j in range(m)]
                for i in range(m)]
    zero = cp.scalars.Cyclotomic.zero(M)
    root = ((lambda k: cp.scalars.Cyclotomic.rational(1, (-1) ** k)) if M == 1
            else (lambda k: cp.scalars.root_of_unity(M, k)))
    return [[root(values[i]) if i == j else zero for j in range(m)]
            for i in range(m)]


def _random_terms(rng, order, m, linear, count):
    terms = []
    for _ in range(count):
        expo = [0] * m
        if linear:
            expo[rng.randrange(m)] = 1
        i, j = sorted(rng.sample(range(m), 2))
        terms.append((rng.randrange(order), tuple(expo), (i, j),
                      _pick(rng, SMALL_RATIONALS)))
    return terms


def _averaged(cp, group, terms):
    field = cp.polyvec.PolyVectorField.zero(group)
    for label, expo, wedge, coeff in terms:
        field = field + cp.polyvec.PolyVectorField.single(group, label, expo,
                                                          wedge, coeff)
    return cp.polyvec.average(field)


def _holds_minus_identity(cp, group):
    one = cp.scalars.Cyclotomic.one(group.M)
    zero = cp.scalars.Cyclotomic.zero(group.M)
    minus = tuple(tuple(-one if i == j else zero for j in range(group.dim))
                  for i in range(group.dim))
    return minus in group.index


def _random_pair_draw(probe, rng, m, M, order):
    """Draw generators of a group of exactly this order and terms of a pair
    whose averaged linear part is nonzero, as plain data."""
    for _ in range(MAX_DRAWS):
        specs = [_random_generator(rng, m, M) for _ in range(1 + rng.randrange(2))]
        try:
            group = probe.groups.generate(
                [_generator_matrix(probe, s, M) for s in specs], M, max_order=order)
        except probe.groups.GroupOrderError:
            continue
        if group.order != order or _holds_minus_identity(probe, group):
            continue
        for _ in range(8):
            pi_terms = _random_terms(rng, order, m, True, 3)
            if not _averaged(probe, group, pi_terms).is_zero():
                return specs, pi_terms, _random_terms(rng, order, m, False, 2)
    raise RuntimeError(f"no invariant pair with a nonzero linear part found "
                       f"for dimension {m}, conductor {M}, order {order}")


def _flatness_job(cp, kind, what, build):
    def run():
        pair = build()
        return pair, cp.pbw.check_bg(pair), cp.pbw.overlap_confluence(pair)

    def keep(out):
        pair, bg, conf = out
        return (pair.group.dim, pair.group.order, bg.passed, conf.ok,
                conf.overlaps_checked)

    def check(kept):
        m, order, passed, confluent, overlaps = kept
        if passed != confluent:
            return WRONG
        if kind == "family" and not passed:
            return WRONG
        expected = comb(m, 3) + order * comb(m, 2) + order * order * m
        return OK if overlaps == expected else WRONG
    return Job(kind, what, run, check, keep)


def _random_pair_constructor(cp, M, order, specs, pi_terms, b_terms):
    gens = [_generator_matrix(cp, s, M) for s in specs]

    def build():
        g = cp.groups.generate(gens, M, max_order=order)
        return cp.polyvec.StructurePair(
            g, pi=_averaged(cp, g, pi_terms), b=_averaged(cp, g, b_terms),
            w_pi=1, w_b=2)
    return build


def flatness_draw(rng, probe):
    families = [(family, _pick(rng, SMALL_RATIONALS), _pick(rng, SMALL_RATIONALS),
                 _pick(rng, SMALL_RATIONALS)) for family in FLAT_FAMILIES]
    randoms = [(shape, _random_pair_draw(probe, rng, *shape))
               for shape in RANDOM_SHAPES]
    return families, randoms


def flatness_build(cp, params):
    jobs = []
    for (family, c, t, c0), (shape, drawn) in zip(*params):
        jobs.append(_flatness_job(cp, "family", family,
                                  _family_constructor(cp, family, c, t, c0)))
        jobs.append(_flatness_job(cp, "random", "random dim=%d M=%d |G|=%d" % shape,
                                  _random_pair_constructor(cp, *shape[1:], *drawn)))
    jobs.append(Job("non-invertible", "check-bg on a non-invertible generator",
                    lambda: run_cli(cp, ["check-bg"], NON_INVERTIBLE_FILE),
                    lambda out: OK if out.rc == 2 else FAILED))
    return jobs


# ---------------------------------------------------------------------------
# cohomology: truncated Poisson cohomology through the CLI
# ---------------------------------------------------------------------------

# (structure, degree, polydeg); the linear structures at every degree and
# both caps, a smaller share of constant structures
COHOMOLOGY_SLOTS = tuple(
    (s, k, d) for s in ("z2_r3_linear_1", "z2_r3_linear_2", "lie_poisson")
    for k in (0, 1, 2) for d in (4, 5)) + (
    ("z2_constant", 1, 5), ("z2_constant", 2, 4),
    ("symplectic_z2", 1, 4), ("symplectic_z2", 2, 5),
    ("cyclic_qmoyal_3", 0, 5), ("cyclic_qmoyal_4", 2, 4))


def _cohomology_structure(cp, name, c):
    cat = cp.catalog
    if name.startswith("z2_r3_linear_"):
        return cat.z2_r3_linear(int(name[-1])).structure
    if name == "lie_poisson":
        flip = cp.groups.generate([[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], 1,
                                  max_order=2)
        return cat.lie_poisson_family(flip, LIE_BRACKET, c).structure
    if name == "z2_constant":
        return cat.z2_constant(c).structure
    if name == "symplectic_z2":
        z2 = cp.groups.generate([[[-1, 0], [0, -1]]], 1, max_order=2)
        return cat.symplectic_reflection(z2, OMEGA, c).structure
    return cat.cyclic_qmoyal(int(name[-1])).structure


def cohomology_draw(rng, probe):
    return [(slot, _pick(rng, SMALL_RATIONALS)) for slot in COHOMOLOGY_SLOTS]


def cohomology_build(cp, params):
    jobs = []
    for (name, k, d), c in params:
        text = cp.cli.emit_structure_file(_cohomology_structure(cp, name, c))
        argv = ["cohomology", "--format", "json", "--degree", str(k),
                "--polydeg", str(d)]
        kind = "linear" if name in ("z2_r3_linear_1", "z2_r3_linear_2",
                                    "lie_poisson") else "constant"
        jobs.append(Job(kind, f"{name} degree={k} polydeg={d}",
                        lambda argv=argv, text=text: run_cli(cp, argv, text),
                        _check_cohomology(cp, name, k, d, text)))
    return jobs


def _check_cohomology(cp, name, k, d, text):
    def check(out):
        bad = _verdict(out, 0)
        if bad:
            return bad
        doc = json.loads(out.out)
        if doc["dimension"] != doc["dim_kernel"] - doc["dim_image"]:
            return WRONG
        if doc["dimension"] != len(doc["representatives"]) or \
                doc["dim_image"] != len(doc["boundaries"]):
            return WRONG
        if k == 0:
            expected = {"z2_r3_linear_1": d + 1, "z2_r3_linear_2": d // 2 + 1,
                        "lie_poisson": d // 2 + 1}.get(name)
            if expected is not None and doc["dimension"] != expected:
                return WRONG
        pair = cp.cli.parse_structure_file(text)
        fields = [_field_from_entries(cp, pair.group, entries)
                  for entries in doc["representatives"] + doc["boundaries"]]
        for field in fields:
            if not cp.polyvec.poisson_differential(pair, field).is_zero():
                return WRONG
        if pair.group.M == 1 and _sympy_rank(fields) != doc["dim_kernel"]:
            return WRONG
        return OK
    return check


def _sympy_rank(fields):
    """Rank over Q of conductor-1 fields, computed by sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    keys = sorted({key for f in fields for key in f.terms})
    if not fields or not keys:
        return 0
    col = {key: j for j, key in enumerate(keys)}
    rows = []
    for f in fields:
        row = [QQ(0)] * len(keys)
        for key, c in f.terms.items():
            value = c.rational_value()
            row[col[key]] = QQ(value.numerator, value.denominator)
        rows.append(row)
    return DomainMatrix(rows, (len(rows), len(keys)), QQ).rank()


# ---------------------------------------------------------------------------
# star: the root-of-unity star product, central lifts and center relations
# ---------------------------------------------------------------------------

STAR_ORDERS = (2, 3, 4, 5, 6)
RELATION_ORDERS = (2, 3, 4, 5, 6, 7, 8)


def _random_terms_star(rng, n, count):
    """{(a, b, k): h-parts}: distinct keys, exponents at most 5, one or two
    parts."""
    keys = rng.sample([(a, b, k) for a in range(6) for b in range(6)
                       for k in range(n)], count)
    return {key: [_pick(rng, SMALL_RATIONALS) for _ in range(1 + rng.randrange(2))]
            for key in keys}


def _qpoly(cp, n, terms):
    M = cp.qmoyal._conductor(n)
    return cp.qmoyal.QPoly(n, {key: cp.scalars.HScalar(
        M, [cp.scalars.Cyclotomic.rational(M, v) for v in parts])
        for key, parts in terms.items()})


def star_draw(rng, probe):
    # triples of one size keep the median job inside one cluster of job times
    triples = [(n, [_random_terms_star(rng, n, 3) for _ in range(3)])
               for n in STAR_ORDERS for _ in range(4)]
    seeds = []
    for n in STAR_ORDERS:
        terms = {}
        for _ in range(2):
            a = rng.randrange(6)
            b = _pick(rng, [b for b in range(6) if (a - b) % n == 0])
            terms[(a, b, 0)] = [_pick(rng, SMALL_RATIONALS)]
        seeds.append((n, terms))
    return triples, seeds


def star_build(cp, params):
    qm = cp.qmoyal
    triples, seeds = params
    jobs = []
    for n, terms in triples:
        F, G, H = (_qpoly(cp, n, t) for t in terms)
        jobs.append(Job(
            "star", f"star triple n={n}",
            lambda F=F, G=G, H=H: (qm.star(qm.star(F, G), H),
                                   qm.star(F, qm.star(G, H))),
            _check_star(cp, n, F, G, H)))
    for n, terms in seeds:
        f0 = _qpoly(cp, n, terms)
        jobs.append(Job("lift", f"center lift n={n}",
                        lambda f0=f0, n=n: qm.center_lift(f0, n),
                        _check_lift(cp, n, f0)))
    for n in RELATION_ORDERS:
        jobs.append(Job("relation", f"center relation n={n}",
                        lambda n=n: qm.center_relation(n),
                        _check_relation(cp, n)))
    return jobs


def _crossed_product(cp, n, P, R):
    """The undeformed crossed product at h = 0, written out from its
    definition: g^k z^c zbar^d = q^(k(c-d)) z^c zbar^d g^k."""
    M = cp.qmoyal._conductor(n)
    q = cp.scalars.root_of_unity(M, M // n)
    out = {}
    for (a, b, k), c1 in P.items():
        for (c, d, l), c2 in R.items():
            key = (a + c, b + d, (k + l) % n)
            v = c1 * c2 * q ** ((k * (c - d)) % n)
            out[key] = out[key] + v if key in out else v
    return {key: v for key, v in out.items() if not v.is_zero()}


def _check_star(cp, n, F, G, H):
    def h0(P):
        return {key: c.coeff(0) for key, c in P.terms.items()
                if not c.coeff(0).is_zero()}

    def check(out):
        left, right = out
        if left != right:
            return WRONG
        expected = _crossed_product(cp, n, _crossed_product(cp, n, h0(F), h0(G)), h0(H))
        return OK if h0(left) == expected else WRONG
    return check


def _check_lift(cp, n, f0):
    qm = cp.qmoyal

    def check(out):
        if out.group_component(0) != f0:
            return WRONG
        for gen in (qm.QPoly.z(n), qm.QPoly.zbar(n), qm.QPoly.rotation(n)):
            if qm.star(out, gen) != qm.star(gen, out):
                return WRONG
        return OK
    return check


def _check_relation(cp, n):
    def check(out):
        sc = cp.scalars
        M = cp.qmoyal._conductor(n)
        q = sc.root_of_unity(M, M // n)
        half_i = sc.root_of_unity(M, M // 4) * sc.Cyclotomic.rational(M, Fraction(1, 2))
        one = sc.Cyclotomic.one(M)
        value = (half_i ** n * q ** (-(n * (n - 1) // 2))
                 * ((one - q) ** n).invert())
        return OK if out == sc.HScalar.h_power(M, n, value) else WRONG
    return check


WORKLOADS = {
    "solve-b": (solve_b_draw, solve_b_build),
    "flatness": (flatness_draw, flatness_build),
    "cohomology": (cohomology_draw, cohomology_build),
    "star": (star_draw, star_build),
}
