"""Finite matrix groups over a cyclotomic field, with fixed-space geometry.

A group element is stored as the matrix of its action on the coordinate
functions: g sends the i-th coordinate x_i to sum_j G[i][j] x_j.  The induced
action on directions (the wedge generators e_j) is by columns of G^-1, which
keeps the pairing <x_i, e_j> invariant.

Each element gamma carries a geometry: the fixed subspace V^gamma (directions
gamma leaves in place), its orthogonal complement N^gamma under the
group-averaged hermitian form, and the change of basis to the adapted
coordinates used by projections and cohomology.
"""

from __future__ import annotations

from .scalars import Cyclotomic, Q
from . import linalg


class GroupOrderError(RuntimeError):
    """Generated group exceeded the configured order bound."""


class GeometryError(RuntimeError):
    """Fixed/normal decomposition failed (degenerate averaged form)."""


def _as_matrix(rows, M):
    return tuple(tuple(a if isinstance(a, Cyclotomic) else Cyclotomic.rational(M, a)
                       for a in row) for row in rows)


def _conj_transpose(A):
    n = len(A)
    return [[A[j][i].conjugate() for j in range(n)] for i in range(n)]


class ElementGeometry:
    __slots__ = ("index", "codim", "fixed", "normal", "basis", "basis_inv")

    def __init__(self, index, codim, fixed, normal, basis, basis_inv):
        self.index = index
        self.codim = codim
        self.fixed = fixed          # list of coordinate vectors spanning V^gamma
        self.normal = normal        # list spanning N^gamma
        self.basis = basis          # columns: fixed then normal
        self.basis_inv = basis_inv


class MatrixGroup:
    """A finite group of invertible matrices, closed under multiplication."""

    def __init__(self, conductor, dim, elements, gen_indices, words, rmul):
        self.M = conductor
        self.dim = dim
        self.elements = elements            # tuple of matrices, identity first
        self.gen_indices = gen_indices
        self.words = words                  # words[i]: tuple of generator indices
        self.index = {m: i for i, m in enumerate(elements)}
        n = len(elements)
        # mul[i][j]: fold the word of j through the right-by-generator tables
        self.mul = [[0] * n for _ in range(n)]
        for i in range(n):
            row = self.mul[i]
            for j in range(n):
                x = i
                for gi in words[j]:
                    x = rmul[x][gi]
                row[j] = x
        self.inv = [0] * n
        for i in range(n):
            for j in range(n):
                if self.mul[i][j] == 0:
                    self.inv[i] = j
                    break
            else:
                raise ValueError(f"element {self.word_str(i)} has no inverse "
                                 "in the closure")
        self._geometry: dict[int, ElementGeometry] = {}
        self._classes = None
        self._hermitian = None

    # -- basics ---------------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        # same matrices in the same enumeration order, so label indices agree
        return (isinstance(other, MatrixGroup)
                and self.M == other.M and self.elements == other.elements)

    def __hash__(self):
        return hash((self.M, self.elements))

    @property
    def order(self):
        return len(self.elements)

    def matrix(self, i):
        return self.elements[i]

    def matrix_inv(self, i):
        return self.elements[self.inv[i]]

    def conjugate_index(self, g, h):
        """Index of g h g^-1."""
        return self.mul[self.mul[g][h]][self.inv[g]]

    def word_str(self, i):
        """A word in the generators reaching element i, like 'g0*g1^2'."""
        w = self.words[i]
        if not w:
            return "e"
        parts = []
        k = 0
        while k < len(w):
            j = k
            while j < len(w) and w[j] == w[k]:
                j += 1
            run = j - k
            parts.append(f"g{w[k]}" if run == 1 else f"g{w[k]}^{run}")
            k = j
        return "*".join(parts)

    def element_from_word(self, word):
        """Resolve a word string ('e', 'g0*g1^2') to an element index."""
        word = word.strip()
        if word in ("e", "1", ""):
            return 0
        idx = 0
        for chunk in word.split("*"):
            chunk = chunk.strip()
            if "^" in chunk:
                sym, exp = chunk.split("^")
                exp = int(exp)
            else:
                sym, exp = chunk, 1
            if not sym.startswith("g"):
                raise ValueError(f"bad generator symbol {sym!r}")
            gen = int(sym[1:])
            if gen < 0 or gen >= len(self.gen_indices):
                raise ValueError(f"unknown generator {sym!r}")
            gi = self.gen_indices[gen]
            if exp < 0:
                gi = self.inv[gi]
                exp = -exp
            for _ in range(exp):
                idx = self.mul[idx][gi]
        return idx

    # -- conjugacy -------------------------------------------------------------

    def conjugacy_classes(self):
        if self._classes is None:
            seen = [False] * len(self.elements)
            classes = []
            for i in range(len(self.elements)):
                if seen[i]:
                    continue
                orbit = set()
                for g in range(len(self.elements)):
                    orbit.add(self.conjugate_index(g, i))
                orbit = tuple(sorted(orbit))
                for j in orbit:
                    seen[j] = True
                classes.append(orbit)
            self._classes = classes
        return self._classes

    def centralizer(self, i):
        return [g for g in range(len(self.elements))
                if self.mul[g][i] == self.mul[i][g]]

    # -- geometry ---------------------------------------------------------------

    def hermitian_form(self):
        """Group-averaged hermitian form H = (1/|G|) sum conj(g)^T g."""
        if self._hermitian is None:
            m = self.dim
            zero = Cyclotomic.zero(self.M)
            H = [[zero for _ in range(m)] for _ in range(m)]
            for g in self.elements:
                gt = _conj_transpose(g)
                prod = linalg.mat_mul(gt, [list(r) for r in g])
                for i in range(m):
                    for j in range(m):
                        H[i][j] = H[i][j] + prod[i][j]
            scale = Cyclotomic.rational(self.M, Q(1, len(self.elements)))
            self._hermitian = [[a * scale for a in row] for row in H]
        return self._hermitian

    def geometry(self, i):
        geo = self._geometry.get(i)
        if geo is not None:
            return geo
        m = self.dim
        M = self.M
        G = self.elements[i]
        one = Cyclotomic.one(M)
        GmI = [[G[r][c] - (one if r == c else 0) for c in range(m)] for r in range(m)]
        fixed = linalg.kernel_basis(GmI, m, M)
        H = self.hermitian_form()
        rows = []
        for w in fixed:
            wbar = [a.conjugate() for a in w]
            rows.append(linalg.mat_vec([list(col) for col in zip(*H)], wbar))
        normal = linalg.kernel_basis(rows, m, M) if rows else \
            linalg.kernel_basis([], m, M)
        if len(fixed) + len(normal) != m:
            raise GeometryError(
                f"fixed+normal dimensions {len(fixed)}+{len(normal)} != {m} "
                f"for element {self.word_str(i)}")
        cols = fixed + normal
        basis = [[cols[j][r] for j in range(m)] for r in range(m)]
        try:
            basis_inv = linalg.mat_inv(basis, M)
        except ValueError as exc:
            raise GeometryError(
                f"adapted basis singular for element {self.word_str(i)}") from exc
        geo = ElementGeometry(i, m - len(fixed), fixed, normal, basis, basis_inv)
        self._geometry[i] = geo
        return geo

    def codim(self, i):
        return self.geometry(i).codim

    def codim_class_counts(self):
        """Number of conjugacy classes at each fixed-space codimension."""
        counts = {}
        for cls in self.conjugacy_classes():
            cds = {self.codim(i) for i in cls}
            if len(cds) != 1:
                raise GeometryError("codimension not constant on a class")
            cd = cds.pop()
            counts[cd] = counts.get(cd, 0) + 1
        return counts


def generate(generators, conductor, max_order=512):
    """BFS-generate the matrix group spanned by the given matrices.

    generators: sequence of square matrices (rows of Cyclotomic or rationals).
    Raises ValueError for a generator that is not invertible (it would close
    into a monoid) and GroupOrderError if the closure exceeds max_order
    elements.
    """
    if not generators:
        raise ValueError("need at least one generator")
    M = conductor
    gens = [_as_matrix(g, M) for g in generators]
    dim = len(gens[0])
    for k, g in enumerate(gens):
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ValueError("generators must be square matrices of equal size")
        if linalg.rank(g) < dim:
            raise ValueError(f"generator {k} is not invertible")
    ident = tuple(tuple(Cyclotomic.one(M) if r == c else Cyclotomic.zero(M)
                        for c in range(dim)) for r in range(dim))
    elements = [ident]
    words = [()]
    index = {ident: 0}
    rmul = []  # rmul[i][gi] = index of elements[i] * gens[gi]
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            a = elements[ei]
            while len(rmul) <= ei:
                rmul.append([None] * len(gens))
            for gi, g in enumerate(gens):
                # product a*g as map composition; in the row (substitution)
                # convention the matrix of a*g is mat(g) mat(a)
                prod = tuple(tuple(x for x in row)
                             for row in linalg.mat_mul([list(r) for r in g],
                                                       [list(r) for r in a]))
                j = index.get(prod)
                if j is None:
                    if len(elements) >= max_order:
                        raise GroupOrderError(
                            f"group order exceeds bound {max_order}")
                    j = len(elements)
                    index[prod] = j
                    elements.append(prod)
                    words.append(words[ei] + (gi,))
                    nxt.append(j)
                rmul[ei][gi] = j
        frontier = nxt
    gen_indices = [index[g] for g in gens]
    return MatrixGroup(M, dim, tuple(elements), gen_indices, tuple(words), rmul)
