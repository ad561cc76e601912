"""Finite matrix groups over a cyclotomic field, with fixed-space geometry.

A group element is stored as the matrix of its action on the coordinate
functions: g sends the i-th coordinate x_i to sum_j G[i][j] x_j.  The induced
action on directions (the wedge generators e_j) is by columns of G^-1, which
keeps the pairing <x_i, e_j> invariant.

Each element gamma carries a geometry: the normal space N^gamma =
im(gamma - 1) of the directions it moves, its dimension (the codimension of
the fixed subspace V^gamma), and the projector P = (1/|gamma|) sum_k gamma^k
onto V^gamma along N^gamma.  For an element of finite order the two spaces
are complementary, and P is what projections and cohomology restrict by.
"""

from __future__ import annotations

import re

from .scalars import Cyclotomic, Q
from . import linalg
from .polyvec import LinearSubstitution


class GroupOrderError(RuntimeError):
    """Generated group exceeded the configured order bound."""


def _as_matrix(rows, M):
    return tuple(tuple(Cyclotomic.of(M, a) for a in row) for row in rows)


class ElementGeometry:
    __slots__ = ("codim", "normal", "projector", "projection")

    def __init__(self, normal, projector, complement):
        self.codim = len(normal)
        self.normal = normal            # list spanning N^gamma
        self.projector = projector      # P, onto V^gamma along N^gamma
        # x_i to row i of P, e_s to column s of P and of Q = 1 - P, keeping
        # the part with exactly codim factors from Q: the projection of pr
        self.projection = LinearSubstitution(projector, projector,
                                             complement, self.codim)


class MatrixGroup:
    """The finite group of invertible matrices generated by ``generators``.

    The constructor closes the generators under products by breadth-first
    search, so every element is a distinct matrix reached by a word in the
    generators, and each product in the table mul is a product of matrices:
    mul[g][d] has the matrix product matrix(d) matrix(g).  It raises as
    generate does.
    """

    def __init__(self, generators, conductor, max_order=512):
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
                a = [list(r) for r in elements[ei]]
                rmul.append([None] * len(gens))
                for gi, g in enumerate(gens):
                    # product a*g as map composition; in the row (substitution)
                    # convention the matrix of a*g is mat(g) mat(a)
                    prod = tuple(map(tuple, linalg.mat_mul([list(r) for r in g], a)))
                    j = index.get(prod)
                    if j is None:
                        if len(elements) >= max_order:
                            raise GroupOrderError(
                                f"group order exceeds bound {max_order}")
                        j = index[prod] = len(elements)
                        elements.append(prod)
                        words.append(words[ei] + (gi,))
                        nxt.append(j)
                    rmul[ei][gi] = j
            frontier = nxt
        self.M = M
        self.dim = dim
        self.elements = tuple(elements)     # identity first
        self.gen_indices = [index[g] for g in gens]
        self.words = tuple(words)           # words[i]: tuple of generator indices
        self.index = index
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
        self.inv = [row.index(0) for row in self.mul]
        self._geometry: dict[int, ElementGeometry] = {}
        self._substitutions: dict[int, LinearSubstitution] = {}
        self._classes = None

    # -- basics ---------------------------------------------------------------

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

    def substitution(self, i):
        """The memoized action of element i on monomials and wedges: x_k to
        row k of its matrix, e_k to column k of its inverse."""
        sub = self._substitutions.get(i)
        if sub is None:
            sub = self._substitutions[i] = LinearSubstitution(
                self.elements[i], self.matrix_inv(i))
        return sub

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
            sym, caret, exp = (part.strip() for part in chunk.partition("^"))
            if not (re.fullmatch(r"g\d+", sym)
                    and (not caret or re.fullmatch(r"-?\d+", exp))):
                raise ValueError(f"bad word chunk {chunk!r}: expected g<i> or g<i>^<k>")
            exp = int(exp) if caret else 1
            gen = int(sym[1:])
            if gen >= len(self.gen_indices):
                raise ValueError(f"unknown generator {sym!r}")
            gi = self.gen_indices[gen]
            if exp < 0:
                gi = self.inv[gi]
                exp = -exp
            for _ in range(exp % self.order):
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

    # -- geometry ---------------------------------------------------------------

    def geometry(self, i):
        geo = self._geometry.get(i)
        if geo is not None:
            return geo
        m = self.dim
        M = self.M
        G = self.elements[i]
        zero, one = Cyclotomic.zero(M), Cyclotomic.one(M)
        # the image of gamma - 1 is what its left kernel annihilates
        GmIt = [[G[r][c] - (one if r == c else 0) for r in range(m)]
                for c in range(m)]
        left = linalg.kernel_basis(GmIt, m, M)
        normal = linalg.kernel_basis(left, m, M)
        # P is the average of the powers of gamma, read off the table
        powers = [0]
        while self.mul[powers[-1]][i]:
            powers.append(self.mul[powers[-1]][i])
        scale = Cyclotomic.rational(M, Q(1, len(powers)))
        P = [[sum((self.elements[k][r][c] for k in powers), zero) * scale
              for c in range(m)] for r in range(m)]
        comp = [[(one if r == c else zero) - P[r][c] for c in range(m)]
                for r in range(m)]
        geo = self._geometry[i] = ElementGeometry(normal, P, comp)
        return geo

    def codim(self, i):
        return self.geometry(i).codim


def generate(generators, conductor, max_order=512):
    """BFS-generate the matrix group spanned by the given matrices.

    generators: sequence of square matrices (rows of Cyclotomic or rationals).
    Raises ValueError for a generator that is not invertible (it would close
    into a monoid) and GroupOrderError if the closure exceeds max_order
    elements.
    """
    return MatrixGroup(generators, conductor, max_order)
