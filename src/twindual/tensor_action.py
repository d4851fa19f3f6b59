"""Operators on tensor powers: the diagonal twin-group action, the swap /
contraction / slot-projection operators, and the functor sending a partial
Brauer diagram to its matrix.

Everything acts on the r-th tensor power of E (or of the reduced space F),
in a basis compatible with the splitting E = L + F: index 0 is the
normalized fixed vector, indices 1..n-1 span F, and tensor indices
enumerate lexicographically.

Scalar-mode handling: in approx mode the basis is honestly orthonormal and
the diagram functor has plain indicator entries.  In exact mode the package
works in the unnormalized split basis instead (its normalization needs
irrational square roots) and carries the diagonal Gram weights g_j through
the functor: a top pair in slots (a, b) contributes [k_a = k_b] / g(k_a), a
bottom pair contributes [k'_a = k'_b] * g(k'_a), and singletons contribute
indicator[index = 0] together with a net factor g(0)^((bottom - top)/2),
whose exponent is always an integer.  These matrices are exact similarity
conjugates of the orthonormal-basis ones, so every commutation, product, or
rank statement transfers verbatim.

A diagram with 2k singletons carries the additional scalar delta_prime^k,
which realizes the scaling isomorphism onto the delta' = 1 normalization
and makes the functor a homomorphism from the algebra at parameters
(delta = dim, delta_prime).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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

    @property
    def tol(self) -> float:
        return self.rc.tol

    def gram_weights(self) -> list:
        """Diagonal Gram entries of the working one-site basis (all ones in
        approx mode)."""
        if self.mode == "approx":
            return [1.0] * self.local_dim
        g = split_gram_diagonal(self.rc)
        return list(g) if self.space == SPACE_FULL else list(g[1:])

    def index_tuples(self):
        return itertools.product(range(self.local_dim), repeat=self.r)

    def flat_index(self, tup) -> int:
        idx = 0
        for k in tup:
            idx = idx * self.local_dim + k
        return idx

    def site_reflection(self, i: int) -> Matrix:
        """The i-th twin generator on one tensor factor, in the working basis:
        block diag(1, action on F) on E, the F block on F."""
        if self.mode == "exact":
            site = reflection_in_split_basis(i, self.rc)
        else:
            site = reflection_in_orthonormal_basis(i, self.rc)
        return site if self.space == SPACE_FULL else site[1:, 1:]


def diagonal_group_action(i: int, tc: TensorContext) -> Matrix:
    """The r-fold Kronecker power of the i-th twin generator: its diagonal
    action on the tensor power in the lexicographic product basis."""
    return kron_power(tc.site_reflection(i), tc.r)


def group_generators(tc: TensorContext) -> list[Matrix]:
    return [diagonal_group_action(i, tc) for i in range(1, tc.rc.n)]


def fixed_tensor(tc: TensorContext) -> Matrix:
    """The basis vector u_0 x ... x u_0 (full space only)."""
    if tc.space != SPACE_FULL:
        raise DomainError("the fixed tensor lives in the full space")
    entries = [tc.rc.qc.zero()] * tc.dim
    entries[0] = tc.rc.one()
    return Matrix.column(entries, tc.mode)


def place_swap(i: int, tc: TensorContext) -> Matrix:
    """Interchange of tensor positions i, i+1 (the s-generator image)."""
    return diagram_matrix(generator("s", i, tc.r), tc, 1)


def contraction_operator(i: int, tc: TensorContext) -> Matrix:
    """The e-generator image: contract slots (i, i+1) against the form and
    re-expand along the identity: entry
    [k_i = k_(i+1)] [k'_i = k'_(i+1)] prod_(j != i,i+1) [k_j = k'_j]
    (Gram-weighted in exact mode)."""
    return diagram_matrix(generator("e", i, tc.r), tc, 1)


def slot_projection(j: int, tc: TensorContext, delta_prime) -> Matrix:
    """delta' times the rank-one projection onto the fixed vector in slot j
    (the p-generator image; full space only)."""
    if tc.space != SPACE_FULL:
        raise DomainError("slot projections act on the full space only")
    return diagram_matrix(generator("p", j, tc.r), tc, delta_prime)


def diagram_matrix(d: PartialDiagram, tc: TensorContext, delta_prime) -> Matrix:
    """Image of a partial Brauer diagram on the tensor power.

    Rows are indexed by the top tuple (output), columns by the bottom tuple
    (input), so stacking d1 above d2 corresponds to the matrix product
    Phi(d1) Phi(d2).  Block rules (orthonormal basis; exact mode adds the
    Gram weights described in the module docstring):

    * vertical {a, b'}        -> [k_a = k'_b]
    * top pair {a, b}         -> [k_a = k_b]
    * bottom pair {a', b'}    -> [k'_a = k'_b]
    * singleton {a} or {a'}   -> [index = 0]

    and the whole matrix is scaled by delta_prime^(singletons/2).
    """
    if d.r != tc.r:
        raise DomainError(f"diagram on {d.r} strands cannot act on a {tc.r}-fold power")
    r = tc.r
    n_loc = tc.local_dim
    verticals = []
    top_pairs = []
    bottom_pairs = []
    top_singles = []
    bottom_singles = []
    for b in d.blocks:
        if len(b) == 1:
            (v,) = b
            if v <= r:
                top_singles.append(v - 1)
            else:
                bottom_singles.append(v - r - 1)
        else:
            x, y = b
            if y <= r:
                top_pairs.append((x - 1, y - 1))
            elif x > r:
                bottom_pairs.append((x - r - 1, y - r - 1))
            else:
                verticals.append((x - 1, y - r - 1))
    if tc.space == SPACE_REDUCED and (top_singles or bottom_singles):
        raise DomainError("only Brauer diagrams act on the reduced space")

    exact = tc.mode == "exact"
    g = tc.gram_weights()
    one = tc.rc.one()
    singles = len(top_singles) + len(bottom_singles)
    scalar = one
    if singles and exact:
        scalar = scalar * Fraction(delta_prime) ** (singles // 2)
        # net Gram weight of creating/annihilating the fixed vector
        exponent = (len(bottom_singles) - len(top_singles)) // 2
        scalar = scalar * Fraction(g[0]) ** exponent
    elif singles:
        scalar = scalar * complex(delta_prime) ** (singles // 2)

    arr = np.zeros((tc.dim, tc.dim), dtype=object)
    for bottom in tc.index_tuples():
        if any(bottom[a] != bottom[b] for a, b in bottom_pairs):
            continue
        if any(bottom[a] != 0 for a in bottom_singles):
            continue
        weight = scalar
        if exact:
            for a, _ in bottom_pairs:
                weight = weight * g[bottom[a]]
        col = tc.flat_index(bottom)
        base = [0] * r
        for a, b in verticals:
            base[a] = bottom[b]
        # each top pair ranges over a free common index
        for values in itertools.product(range(n_loc), repeat=len(top_pairs)):
            top = list(base)
            w = weight
            for (a, b), v in zip(top_pairs, values):
                top[a] = v
                top[b] = v
                if exact:
                    w = w / g[v]
            arr[tc.flat_index(top), col] += w
    return Matrix.of(tc.mode, arr)


def diagram_family(tc: TensorContext) -> list[PartialDiagram]:
    """The diagrams acting on this space: all partial diagrams on E, Brauer
    diagrams on F."""
    family = "all" if tc.space == SPACE_FULL else "brauer"
    return enumerate_diagrams(tc.r, family)


def algebra_generator_images(tc: TensorContext, delta_prime) -> list[Matrix]:
    """Images of the presentation generators (s_i, e_i, and on E the p_j):
    a generating set of the image algebra."""
    gens = []
    for i in range(1, tc.r):
        gens.append(place_swap(i, tc))
        gens.append(contraction_operator(i, tc))
    if tc.space == SPACE_FULL:
        for j in range(1, tc.r + 1):
            gens.append(slot_projection(j, tc, delta_prime))
    if tc.r == 1 and tc.space == SPACE_FULL:
        # r = 1 has no s/e generators; the identity and p_1 still generate
        gens.append(Matrix.identity(tc.dim, tc.mode))
    if not gens:
        gens.append(Matrix.identity(tc.dim, tc.mode))
    return gens
