"""Named example structures, buildable by the tests and the CLI.

Each constructor assembles a finite matrix group together with a structure
pair, validates its inputs (symplectic form preserved, constants conjugation
invariant, linear part admissible), and returns a CatalogEntry whose pair is
guaranteed invariant.
"""

from functools import lru_cache
from itertools import combinations
from math import lcm

from . import groups, linalg
from .scalars import Cyclotomic, Q, root_of_unity
from .polyvec import (
    InvarianceError,
    PolyVectorField,
    StructurePair,
    is_invariant,
    pr,
    schouten,
)

__all__ = [
    "AdmissibilityError",
    "CatalogEntry",
    "CatalogError",
    "ClassFunctionError",
    "FormNotPreservedError",
    "JacobiError",
    "cyclic_qmoyal",
    "demo_entries",
    "gamma_n_family",
    "lie_poisson_family",
    "symplectic_reflection",
    "z2_constant",
    "z2_r3_linear",
]


class CatalogError(ValueError):
    """Bad parameters for a catalog constructor."""


class FormNotPreservedError(CatalogError):
    """The group does not preserve the given symplectic form."""


class ClassFunctionError(CatalogError):
    """The per-element constants are not constant on conjugacy classes."""


class AdmissibilityError(CatalogError):
    """A requested optional part does not exist for these parameters."""


class JacobiError(CatalogError):
    """The given structure constants do not satisfy the Jacobi identity."""


class CatalogEntry:
    """A named group-plus-structure, with the parameters it was built from."""

    __slots__ = ("name", "group", "structure", "metadata")

    def __init__(self, name, group, structure, metadata=None):
        if not structure.is_invariant():
            raise CatalogError("constructed structure failed the invariance check")
        self.name = name
        self.group = group
        self.structure = structure
        self.metadata = dict(metadata or {})

    def __repr__(self):
        return f"CatalogEntry({self.name!r}, group order {self.group.order})"


# ---------------------------------------------------------------------------
# shared input normalization
# ---------------------------------------------------------------------------

def _param_conductor(v):
    return v.M if isinstance(v, Cyclotomic) else 1


def _class_constants(group, c):
    """Normalize c to {element index: scalar} over the codimension-2 elements.

    c is a single scalar (one value for every codimension-2 class) or a
    mapping keyed by element index or generator word.  A key fixes the value
    on its whole conjugacy class; conflicting values raise.  Values attached
    to elements of other codimension are validated but produce no terms.
    """
    M = group.M
    if not isinstance(c, dict):
        c = {cls[0]: c for cls in group.conjugacy_classes()}
    resolved = {}
    for key, raw in c.items():
        if isinstance(key, str):
            try:
                gi = group.element_from_word(key)
            except ValueError as exc:
                raise ClassFunctionError(str(exc)) from None
        else:
            gi = int(key)
            if not 0 <= gi < group.order:
                raise ClassFunctionError(f"no element with index {gi}")
        v = Cyclotomic.of(M, raw)
        if gi in resolved and resolved[gi] != v:
            raise ClassFunctionError(f"conflicting values for element {gi}")
        resolved[gi] = v
    out = {}
    for cls in group.conjugacy_classes():
        vals = [resolved[g] for g in cls if g in resolved]
        if not vals:
            continue
        if any(v != vals[0] for v in vals[1:]):
            raise ClassFunctionError("values are not constant on a conjugacy class")
        if group.codim(cls[0]) != 2:
            continue
        for g in cls:
            out[g] = vals[0]
    return out


def _unit_expo(m, k):
    e = [0] * m
    e[k] = 1
    return tuple(e)


# ---------------------------------------------------------------------------
# constant structures from a symplectic form
# ---------------------------------------------------------------------------

def _form_pairing(Omega, u, v):
    M = Omega[0][0].M
    total = Cyclotomic.zero(M)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            total = total + ui * Omega[i][j] * vj
    return total


def _inverse_bivector(group, Omega, label, vectors):
    """The 2-field at `label` inverting the form restricted to `vectors`."""
    r = len(vectors)
    W = [[_form_pairing(Omega, vectors[p], vectors[q]) for q in range(r)]
         for p in range(r)]
    try:
        P = linalg.mat_inv(W, group.M)
    except ValueError:
        raise CatalogError(
            "form restricted to the moved subspace is degenerate") from None
    out = PolyVectorField.zero(group)
    for p, q in combinations(range(r), 2):
        if P[p][q]:
            out = out + PolyVectorField.wedge2(
                group, label, vectors[p], vectors[q]).scale(P[p][q])
    return out


def symplectic_reflection(group, omega, c):
    """Constant structure: the form's inverse at the identity plus c-weighted
    inverses of its restriction to the moved plane of every codimension-2
    element.

    omega: antisymmetric invertible matrix (rows of scalars) the group must
    preserve; c: class function, see _class_constants.
    """
    M = group.M
    m = group.dim
    if len(omega) != m or any(len(row) != m for row in omega):
        raise CatalogError("form must be a square matrix of the group dimension")
    Omega = [[Cyclotomic.of(M, a) for a in row] for row in omega]
    for i in range(m):
        for j in range(m):
            if Omega[i][j] != -Omega[j][i]:
                raise CatalogError("form must be antisymmetric")
    try:
        linalg.mat_inv(Omega, M)
    except ValueError:
        raise CatalogError("form must be invertible") from None
    for g in group.gen_indices:
        A = [list(row) for row in group.matrix_inv(g)]
        At = [[A[j][i] for j in range(m)] for i in range(m)]
        moved = linalg.mat_mul(At, linalg.mat_mul(Omega, A))
        if any(moved[i][j] != Omega[i][j] for i in range(m) for j in range(m)):
            raise FormNotPreservedError(
                f"generator {group.word_str(g)} does not preserve the form")
    constants = _class_constants(group, c)
    b = _inverse_bivector(group, Omega, 0, group.matrix(0))
    for gi, val in sorted(constants.items()):
        if not val:
            continue
        normal = group.geometry(gi).normal
        b = b + _inverse_bivector(group, Omega, gi, normal).scale(val)
    pair = StructurePair(group, b=b, w_pi=1, w_b=1)
    return CatalogEntry("symplectic_reflection", group, pair,
                        {"omega": Omega, "c": constants})


def z2_constant(c):
    """Sign flip on the plane, with the constant 2-field -c d0^d1 at the
    flip only (no identity part)."""
    M = _param_conductor(c)
    G = groups.generate([[[-1, 0], [0, -1]]], M, max_order=2)
    b = PolyVectorField.single(G, 1, (0, 0), (0, 1), -Cyclotomic.of(M, c))
    pair = StructurePair(G, b=b, w_pi=1, w_b=1)
    return CatalogEntry("z2_constant", G, pair, {"c": Cyclotomic.of(M, c)})


# ---------------------------------------------------------------------------
# linear structures on R^3 with a sign flip of the first two coordinates
# ---------------------------------------------------------------------------

def z2_r3_linear(variant):
    """Two linear structures on 3-space with the (x, y) sign flip.

    variant 1: x2 d0^d1 at both labels.
    variant 2: adds x0 d0^d2 - x1 d1^d2 at the identity.
    """
    if variant not in (1, 2):
        raise CatalogError("variant must be 1 or 2")
    G = groups.generate([[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], 1, max_order=2)
    pi = (PolyVectorField.single(G, 0, (0, 0, 1), (0, 1), 1)
          + PolyVectorField.single(G, 1, (0, 0, 1), (0, 1), 1))
    if variant == 2:
        pi = (pi + PolyVectorField.single(G, 0, (1, 0, 0), (0, 2), 1)
              + PolyVectorField.single(G, 0, (0, 1, 0), (1, 2), -1))
    pair = StructurePair(G, pi=pi, w_pi=1, w_b=2)
    return CatalogEntry("z2_r3_linear", G, pair, {"variant": variant})


def lie_poisson_family(group, bracket, c):
    """Linear structure from Lie structure constants, plus c-weighted
    projections onto the codimension-2 geometry.

    bracket: {(i, j) with i < j: {k: coefficient of the k-th coordinate}}.
    The bracket must satisfy Jacobi and be invariant under the group; the
    projection at label gamma keeps fixed-coordinate coefficients and the
    full moved wedge.
    """
    M = group.M
    m = group.dim
    terms = {}
    for (i, j), row in bracket.items():
        if not 0 <= i < j < m:
            raise CatalogError("bracket keys must be index pairs i < j")
        for k, raw in row.items():
            v = Cyclotomic.of(M, raw)
            if not v:
                continue
            terms[(0, _unit_expo(m, k), (i, j))] = v
    pi0 = PolyVectorField(group, terms)
    if not schouten(pi0, pi0).is_zero():
        raise JacobiError("structure constants violate the Jacobi identity")
    if not is_invariant(pi0):
        raise InvarianceError("bracket is not invariant under the group")
    constants = _class_constants(group, c)
    pi = pi0
    for gi, val in sorted(constants.items()):
        if not val:
            continue
        moved = PolyVectorField(group, {(gi, e, w): v
                                        for (_, e, w), v in pi0.terms.items()})
        pi = pi + pr(moved).scale(val)
    pair = StructurePair(group, pi=pi, w_pi=1, w_b=2)
    return CatalogEntry("lie_poisson_family", group, pair,
                        {"bracket": dict(bracket), "c": constants})


# ---------------------------------------------------------------------------
# the 4-dimensional dihedral-type family
# ---------------------------------------------------------------------------

def _rotation_matrix(M, step, k):
    z = Cyclotomic.zero(M)
    a = root_of_unity(M, (step * k) % M)
    ai = root_of_unity(M, (-step * k) % M)
    return [[a, z, z, z], [z, ai, z, z], [z, z, ai, z], [z, z, z, a]]


def _swap_matrix(M, step, k):
    z = Cyclotomic.zero(M)
    a = root_of_unity(M, (step * k) % M)
    ai = root_of_unity(M, (-step * k) % M)
    return [[z, ai, z, z], [a, z, z, z], [z, z, z, a], [z, z, ai, z]]


@lru_cache(maxsize=32)
def _gamma_group(n, M):
    """The group of gamma_n_family over Q(zeta_M) and the labels of its
    rotations and swaps by k.  It depends on (n, M) alone, so every entry of
    one family shares one group and its memoized substitutions."""
    order = 2 * n + 1
    step = M // order
    G = groups.generate([_rotation_matrix(M, step, 1), _swap_matrix(M, step, 0)],
                        M, max_order=4 * n + 2)
    alpha = {k: G.index[tuple(tuple(r) for r in _rotation_matrix(M, step, k))]
             for k in range(order)}
    beta = {k: G.index[tuple(tuple(r) for r in _swap_matrix(M, step, k))]
            for k in range(order)}
    return G, alpha, beta


def gamma_n_family(n, c0, a=None):
    """Order 4n+2 group on coordinates (z1, z2, zb1, zb2) with the linear
    structure supported at the swap-type labels and its constant correction
    at the rotation labels.

    The optional linear identity part `a` exists only when the rotation
    eigenvalue cubes to one, which in this parameterization means n = 1
    (the eigenvalue is a primitive (2n+1)-th root); AdmissibilityError
    otherwise.  hbar-weights are (1, 2) and the entry is real for the
    coordinate swap (z_i <-> zb_i).
    """
    if n < 1:
        raise CatalogError("n must be a positive integer")
    order = 2 * n + 1
    M = lcm(4, order, _param_conductor(c0),
            _param_conductor(a) if a is not None else 1)
    step = M // order
    G, alpha, beta = _gamma_group(n, M)

    def rho(k):
        return root_of_unity(M, (step * k) % M)

    c0 = Cyclotomic.of(M, c0)
    c0b = c0.conjugate()

    pi = PolyVectorField.zero(G)
    for k in range(order):
        label = beta[(2 * k) % order]
        polys = [((1, 0, 0, 0), c0 * rho(k)), ((0, 1, 0, 0), c0 * rho(-k)),
                 ((0, 0, 1, 0), -c0b * rho(-k)), ((0, 0, 0, 1), -c0b * rho(k))]
        wedges = [((0, 2), Cyclotomic.one(M)), ((0, 3), -rho(-2 * k)),
                  ((1, 2), -rho(2 * k)), ((1, 3), Cyclotomic.one(M))]
        for e, pc in polys:
            for w, wc in wedges:
                pi = pi + PolyVectorField.single(G, label, e, w, pc * wc)

    a_val = Cyclotomic.of(M, a) if a is not None else None
    if a_val:
        if rho(3) != Cyclotomic.one(M):
            raise AdmissibilityError(
                "linear identity part requires the rotation eigenvalue "
                "to cube to one (n = 1)")
        ab = a_val.conjugate()
        pi = (pi + PolyVectorField.single(G, 0, (1, 0, 0, 0), (1, 2), -a_val)
              + PolyVectorField.single(G, 0, (0, 1, 0, 0), (0, 3), -a_val)
              + PolyVectorField.single(G, 0, (0, 0, 1, 0), (0, 3), ab)
              + PolyVectorField.single(G, 0, (0, 0, 0, 1), (1, 2), ab))

    # the constant correction: the k-indexed value sits at the rotation
    # label -2k because this build composes swaps in the opposite order
    # to the usual dihedral presentation (see solve_b for the derivation)
    b = PolyVectorField.zero(G)
    absq = c0 * c0b
    norm = Cyclotomic.rational(M, order)
    for k in range(1, order):
        fac = norm * (rho(k) - rho(-k))
        label = alpha[(-2 * k) % order]
        for w, coeff in (((0, 2), fac * absq), ((1, 3), -fac * absq),
                         ((0, 1), fac * c0b * c0b), ((2, 3), -fac * c0 * c0)):
            b = b + PolyVectorField.single(G, label, (0, 0, 0, 0), w, coeff)

    pair = StructurePair(G, pi=pi, b=b, w_pi=1, w_b=2, reality_swap=(2, 3, 0, 1))
    return CatalogEntry("gamma_n_family", G, pair,
                        {"n": n, "c0": c0, "a": a_val})


# ---------------------------------------------------------------------------
# the cyclic plane rotation with constant structure at the generator
# ---------------------------------------------------------------------------

def cyclic_qmoyal(n):
    """Order-n plane rotation diag(q, 1/q), q a primitive n-th root, with the
    constant 2-field -(i/2) d0^d1 at the generator label."""
    if n < 1:
        raise CatalogError("n must be a positive integer")
    M = lcm(4, n)
    q = root_of_unity(M, M // n)
    z = Cyclotomic.zero(M)
    gen = [[q, z], [z, root_of_unity(M, M - M // n)]]
    G = groups.generate([gen], M, max_order=n)
    label = G.index[tuple(tuple(r) for r in gen)]
    ihalf = root_of_unity(M, M // 4) * Cyclotomic.rational(M, Q(1, 2))
    b = PolyVectorField.single(G, label, (0, 0), (0, 1), -ihalf)
    pair = StructurePair(G, b=b, w_pi=1, w_b=1, reality_swap=(1, 0))
    return CatalogEntry("cyclic_qmoyal", G, pair, {"n": n})


# ---------------------------------------------------------------------------
# canonical parameterizations, for sweep-style tests and the CLI
# ---------------------------------------------------------------------------

def demo_entries():
    """One representative entry per constructor, small enough for sweeps."""
    z2 = groups.generate([[[-1, 0], [0, -1]]], 1, max_order=2)
    r3 = groups.generate([[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]], 1, max_order=2)
    omega = [[0, 1], [-1, 0]]
    bracket = {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: -1}}
    return [
        symplectic_reflection(z2, omega, Q(1, 2)),
        z2_constant(1),
        z2_r3_linear(1),
        z2_r3_linear(2),
        lie_poisson_family(r3, bracket, 1),
        gamma_n_family(1, 1),
        cyclic_qmoyal(2),
        cyclic_qmoyal(3),
    ]
