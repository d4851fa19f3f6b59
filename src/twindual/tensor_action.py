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

from dataclasses import dataclass, field

import numpy as np

from .diagrams import PartialDiagram, generator
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
    module (no fixed index, so only Brauer diagrams act).  ``sites``, the
    twin generators on one factor in the working basis (block diag(1, action
    on F) on E), and ``gram``, its diagonal Gram entries (ones in approx
    mode), are built at construction and shared by a copy with another r.
    """

    rc: RepContext
    r: int
    space: str = SPACE_FULL
    sites: list[Matrix] = field(init=False, repr=False, compare=False)
    gram: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("tensor power r must be positive")
        if self.space not in (SPACE_FULL, SPACE_REDUCED):
            raise DomainError(f"unknown space {self.space!r}")
        self.rc.require_full_factorial()
        exact, k = self.mode == "exact", self.rc.n - self.local_dim  # F drops index 0
        build = reflection_in_split_basis if exact else reflection_in_orthonormal_basis
        self.sites = [build(i, self.rc)[k:, k:] for i in range(1, self.rc.n)]
        self.gram = (split_gram_diagonal(self.rc) if exact else [1.0] * self.rc.n)[k:]

    @property
    def mode(self) -> str:
        return self.rc.mode

    @property
    def local_dim(self) -> int:
        return self.rc.n if self.space == SPACE_FULL else self.rc.n - 1

    @property
    def dim(self) -> int:
        return self.local_dim ** self.r


def group_generators(tc: TensorContext) -> list[Matrix]:
    """The r-fold Kronecker powers of the twin generators: their diagonal
    action on the tensor power in the lexicographic product basis."""
    return [kron_power(site, tc.r) for site in tc.sites]


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
    g = np.array(tc.gram, dtype=object)
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


def conjugacy_representatives(tc: TensorContext, delta_prime) -> list[Matrix]:
    """e_1 and, on E, p_1, or the identity where there is neither (r = 1 on
    F).  e_(i+1) = w e_i w^-1 with w = s_i s_(i+1), and p_(j+1) = s_j p_j
    s_j, so on the matrices that commute with every s_i these two give the
    commutator conditions of the whole algebra."""
    kinds = ["e"] * (tc.r > 1) + ["p"] * (tc.space == SPACE_FULL)
    gens = [diagram_matrix(generator(kind, 1, tc.r), tc, delta_prime) for kind in kinds]
    return gens or [Matrix.identity(tc.dim, tc.mode)]


def algebra_generator_images(tc: TensorContext, delta_prime, reps=None) -> list[Matrix]:
    """Images of the presentation generators (s_i, e_i, and on E the p_j),
    which with the unit generate the image algebra.  ``reps``, the
    ``conjugacy_representatives`` of tc when already built, stand for e_1
    and p_1 (or the identity at r = 1 on F)."""
    if reps is None:
        reps = conjugacy_representatives(tc, delta_prime)
    labels = [("s", i) for i in range(1, tc.r)] + [("e", i) for i in range(2, tc.r)]
    if tc.space == SPACE_FULL:
        labels += [("p", j) for j in range(2, tc.r + 1)]
    return reps + [diagram_matrix(generator(kind, i, tc.r), tc, delta_prime) for kind, i in labels]
