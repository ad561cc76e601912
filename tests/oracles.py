"""Reference routines that only the tests call.

These are independent cross-checks and small conveniences: closed forms of
the q-difference calculus, the antilinear reality involution, class counts
by codimension, the degree-0 cohomology comparison and dense matrix helpers.
The engine does not use them, so they live beside the tests instead of in
the package.
"""

from crossed_poisson.cohom import h_truncated
from crossed_poisson.groups import GeometryError
from crossed_poisson.linalg import add_into
from crossed_poisson.polyvec import PolyVectorField, wedge_sort
from crossed_poisson.qmoyal import (
    QPoly,
    StarError,
    _divide_exact,
    _unit_q,
    d_z,
    sigma_z,
)
from crossed_poisson.scalars import Cyclotomic, q_binomial


# -- dense matrices ------------------------------------------------------------

def identity_matrix(M, n):
    one = Cyclotomic.one(M)
    zero = Cyclotomic.zero(M)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


# -- groups ----------------------------------------------------------------------

def centralizer(group, i):
    return [g for g in range(group.order) if group.mul[g][i] == group.mul[i][g]]


def codim_class_counts(group):
    """Number of conjugacy classes at each fixed-space codimension."""
    counts = {}
    for cls in group.conjugacy_classes():
        cds = {group.codim(i) for i in cls}
        if len(cds) != 1:
            raise GeometryError("codimension not constant on a class")
        cd = cds.pop()
        counts[cd] = counts.get(cd, 0) + 1
    return counts


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


# -- cohomology --------------------------------------------------------------------

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
