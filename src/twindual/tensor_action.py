"""Operators on tensor powers: the diagonal twin-group action, and the
functor sending a partial Brauer diagram to its matrix, which builds every
algebra image, the generator images s_i, e_i and p_j among them.

Everything acts on the r-th tensor power of E (or of the reduced space F),
in a basis compatible with the splitting E = L + F: index 0 is the
normalized fixed vector, indices 1..n-1 span F, and tensor indices
enumerate lexicographically.

A diagram acts through its partner array (see ``diagrams``): each pair
joins its two tensor slots to one free index, and each singleton pins its
slot to index 0.  So the image has one nonzero entry per assignment of an
index to every pair, and that entry is

    (1 * delta_prime)^(s/2) * g0^((bottom_s - top_s)/2)
        * prod over bottom pairs of g(k) / prod over top pairs of g(k)

for s singletons, top_s of them in the top row and bottom_s in the bottom
row, and k the index of the pair.  The g_k are the diagonal Gram weights
of the one-site basis and g0 is the weight of the fixed vector.  In approx
mode the basis is orthonormal and every g_k is 1.  Exact mode works in the
unnormalized split basis instead, since normalizing it needs irrational
square roots.  The exponent (bottom_s - top_s)/2 is always an integer, and
the exact matrices are similarity conjugates of the orthonormal-basis ones,
so every commutation, product, or rank statement transfers verbatim.

The factor delta_prime^(s/2) realizes the scaling isomorphism onto the
delta' = 1 normalization and makes the functor a homomorphism from the
algebra at parameters (delta = dim, delta_prime).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import PartialDiagram, enumerate_diagrams, generator
from .hecke import (
    RepContext,
    reflection_in_orthonormal_basis,
    reflection_in_split_basis,
    split_gram_diagonal,
)
from .linalg import Matrix, kron_power
from .scalars import DomainError

SPACE_FULL = "E"
SPACE_REDUCED = "F"


@dataclass
class TensorContext:
    """A representation context, a tensor power r, and the working space.

    ``space`` "E" acts on the full n-dimensional module (indices 0..n-1
    with 0 the fixed line); "F" restricts to the reduced (n-1)-dimensional
    module (no fixed index, so only Brauer diagrams act).
    """

    rc: RepContext
    r: int
    space: str = SPACE_FULL

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("tensor power r must be positive")
        if self.space not in (SPACE_FULL, SPACE_REDUCED):
            raise DomainError(f"unknown space {self.space!r}")
        self.rc.require_full_factorial()

    @property
    def mode(self) -> str:
        return self.rc.mode

    @property
    def local_dim(self) -> int:
        return self.rc.n if self.space == SPACE_FULL else self.rc.n - 1

    @property
    def dim(self) -> int:
        return self.local_dim ** self.r

    def gram_weights(self) -> list:
        """Diagonal Gram entries of the working one-site basis (all ones in
        approx mode)."""
        if self.mode == "approx":
            return [1.0] * self.local_dim
        g = split_gram_diagonal(self.rc)
        return list(g) if self.space == SPACE_FULL else list(g[1:])

    def site_reflection(self, i: int) -> Matrix:
        """The i-th twin generator on one tensor factor, in the working basis:
        block diag(1, action on F) on E, the F block on F."""
        if self.mode == "exact":
            site = reflection_in_split_basis(i, self.rc)
        else:
            site = reflection_in_orthonormal_basis(i, self.rc)
        return site if self.space == SPACE_FULL else site[1:, 1:]


def group_generators(tc: TensorContext) -> list[Matrix]:
    """The r-fold Kronecker powers of the twin generators: their diagonal
    action on the tensor power in the lexicographic product basis."""
    return [kron_power(tc.site_reflection(i), tc.r) for i in range(1, tc.rc.n)]


def diagram_matrix(d: PartialDiagram, tc: TensorContext, delta_prime) -> Matrix:
    """Image of a partial Brauer diagram on the tensor power.

    Rows are indexed by the top tuple (output), columns by the bottom tuple
    (input), so stacking d1 above d2 corresponds to the matrix product
    Phi(d1) Phi(d2).  The entries are those of the module docstring.
    """
    if d.r != tc.r:
        raise DomainError(f"diagram on {d.r} strands cannot act on a {tc.r}-fold power")
    r, n_loc = tc.r, tc.local_dim
    pairs = [(v, w) for v, w in enumerate(d.partner) if v < w]
    singles = [v for v, w in enumerate(d.partner) if v == w]
    if tc.space == SPACE_REDUCED and singles:
        raise DomainError("only Brauer diagrams act on the reduced space")
    g = np.array(tc.gram_weights(), dtype=object)
    top_singles = sum(v < r for v in singles)
    # g[0] is the fixed vector's weight on E; F has no singletons
    scalar = ((tc.rc.one() * delta_prime) ** (len(singles) // 2)
              * g[0] ** (len(singles) // 2 - top_singles))
    # one column per nonzero entry: the index of each pair, 0 on each singleton
    free = np.indices((n_loc,) * len(pairs)).reshape(len(pairs), n_loc ** len(pairs))
    index = np.zeros((2 * r, free.shape[1]), dtype=int)
    weight = np.full(free.shape[1], scalar, dtype=object)
    for (v, w), k in zip(pairs, free):
        index[[v, w]] = k
        if v >= r:
            weight = weight * g[k]
        elif w < r:
            weight = weight / g[k]
    place = n_loc ** np.arange(r - 1, -1, -1)
    arr = np.zeros((tc.dim, tc.dim), dtype=object)
    # each position is hit once; adding to the integer 0 clears signed zeros
    arr[place @ index[:r], place @ index[r:]] += weight
    return Matrix.of(tc.mode, arr)


def diagram_family(tc: TensorContext) -> list[PartialDiagram]:
    """The diagrams acting on this space: all partial diagrams on E, Brauer
    diagrams on F."""
    family = "all" if tc.space == SPACE_FULL else "brauer"
    return enumerate_diagrams(tc.r, family)


def algebra_generator_images(tc: TensorContext, delta_prime) -> list[Matrix]:
    """Images of the presentation generators (s_i, e_i, and on E the p_j):
    a generating set of the image algebra."""
    labels = [(kind, i) for i in range(1, tc.r) for kind in "se"]
    if tc.space == SPACE_FULL:
        labels += [("p", j) for j in range(1, tc.r + 1)]
    gens = [diagram_matrix(generator(kind, i, tc.r), tc, delta_prime) for kind, i in labels]
    if tc.r == 1 and tc.space == SPACE_FULL:
        # r = 1 has no s/e generators; the identity and p_1 still generate
        gens.append(Matrix.identity(tc.dim, tc.mode))
    if not gens:
        gens.append(Matrix.identity(tc.dim, tc.mode))
    return gens
