"""Desk-scale certification of the double-centralizer statements: commutant
dimensions, diagram-image dimensions, faithfulness thresholds, and
decomposition counts.

The commutant of the diagonal twin action comes from invariants of F.  The
action preserves a nondegenerate symmetric form, so E is self-dual and
End_G(E^(x)r) = Inv_G(E^(x)2r), which for E = L + F with L trivial is the
sum over j of C(2r, j) copies of Inv_G(F^(x)j).  The relations t_i^2 = 1
and t_i t_k = t_k t_i (|i - k| > 1) split the generators into two families
of commuting reflections, the odd t_1, t_3, ... and the even t_2, t_4, ...,
each with a joint eigenbasis, P and Q: the roots of its members and a
basis of their common +1 space.  The fixed vectors of a family on F^(x)j
are spanned by the columns of P^(x)j (or Q^(x)j) whose labels hold each of
its roots an even number of times, and the joint eigenspaces of a family
are orthogonal for the form.  So d_j = dim Inv_G(F^(x)j) is the nullity of
B_j = (Q^T G P)^(x)j, G the one-site Gram diagonal, restricted to the columns
that pass every odd parity and the rows that fail some even one: 183
unknowns and 364 rows at n = 4, j = 6, where a stack of one system per
generator has 729 unknowns and 2187 rows.  The system's array goes to
``linalg.kernel`` in every field (fraction-free integer elimination, the
SVD with the cutoff sigma > TOLERANCE * sigma_1, or over GF(p) the in-place
elimination of its int64 residues).  Every other whole-system nullity goes
to ``linalg.kernel`` too, and every span grown word by word to
``linalg.SpanTracker``.

The reverse check compares the commutant of the algebra generators with
the group envelope, and both live on the S_r-symmetric matrices.  The place
permutations s_i lie in the algebra, so every X in that commutant is
S_r-symmetric: X[sigma a, sigma b] = X[a, b] for every permutation sigma
of the r slots.  Every e_i and p_j is an s-conjugate of e_1 or p_1
(e_(i+1) = w e_i w^-1 with w = s_i s_(i+1), and p_(j+1) = s_j p_j s_j), so
the commutant is the set of S_r-symmetric X that commute with e_1 and, on
E, p_1.  Its unknowns are the orbit sums of the matrix units.  The
diagonal p_1 drops each orbit with a pair that holds the fixed index 0
once, keeping C((m0 - 1)^2 + r, r) of C(m0^2 + r - 1, r) at slot dimension
m0 (35 of 165 at n = 3, r = 3 on E, against 729 entries), and e_1 alone
adds rows, written by scatter, so one ``linalg.kernel`` call solves it in
every field (see ``commutant_dimension``).  The group acts as g^(x)r, so
its envelope is spanned by the w^(x)r of the words w in the one-site
generators, whose entry at an orbit is a degree-r monomial in the entries
of w: the search multiplies m0 x m0 words and tracks their monomials, one
column per orbit, in a ``linalg.SpanTracker`` (see
``enveloping_span_dimension``).  The center is the same commutant call
with the group generators added, over Q in exact mode (see
``center_dimension``).  Each system is built from the stored arrays
``Matrix.data``, in exact mode integers over the least common denominator
``Matrix.den``; dropping that scale moves no span, kernel or commutant.

Exact mode computes its dimensions over GF(p), p = ``ENVELOPE_PRIME`` (read
at call time), in int64 arithmetic, and an answer stands only when a
sandwich over Q proves it.  Two facts build the sandwiches: the GF(p) rank
of an integer system never exceeds its rational rank, and every group
generator commutes exactly with every algebra generator, so the diagram
images and the group envelope lie in the commutants of each other.  The
second is local.  A group generator acts as g^(x)r, and each s_i or e_i
as I (x) X (x) I with X on the slots i, i+1 (each p_j with X on slot j, or
X (x) I on two slots), so [g^(x)r, I (x) X (x) I] = g^(x)a (x) [g (x) g, X]
(x) g^(x)b vanishes at every r once it vanishes at two slots.  So each run
checks it once, in integers, on the generators of min(r, 2) slots, and a
failure there is a construction bug that raises ``ArithmeticError``.  The
d_j systems are integer ones in exact mode, since P, Q and G are.

* Reverse check: env_p <= env_Q <= comm_Q(algebra) <= comm_p(algebra), so
  env_p equal to comm_p(algebra) is both of them.  The
  commutant's system is an integer one (0/1 orbit sums times the integer
  form of e_1), so its GF(p) nullity bounds the rational one.
* Group commutant: image <= comm_Q <= comm_p = sum_j C(2r, j)
  nullity_p(B_j), so the image's closed form (below) equal to comm_p is comm_Q.

When a sandwich does not close (a failing statement, as at a forced q = 1,
or a prime that divides a generator's scale) the rational route runs, so
every report is the one the rational route gives.

The image dimension of the diagram algebra has a closed form.  In an
orthonormal basis with e_0 on the fixed line and e_1, e_2, ... on F, read
a diagram's image at delta' = 1 as a tensor on its 2r vertices: the
product over its pairs of e_0 (x) e_0 + w_F, w_F = sum_(i >= 1) e_i (x) e_i,
and over its singletons of e_0.  Expanding the pairs makes it the sum, over
the subsets T of its pairs, of v(T), which has w_F on T's pairs and e_0 on
every other vertex.  A subset of a partial matching is one, so the change
is unitriangular and the images span what the v(T) span.  Two v(T) that
cover different vertex sets are orthogonal, so the image dimension is
sum_k C(2r, 2k) image_F(m, k) on E and image_F(m, r) on F, m = n - 1,
image_F(m, k) the rank of the Brauer Gram matrix [m^loops(T, T')] on the
perfect matchings of 2k points.  That matrix lies in the Hecke algebra of
the Gelfand pair (S_2k, B_k), B_k hyperoctahedral, and acts on the
S^(2 lambda)-isotypic part, lambda a partition of k, as the scalar
z_lambda(m) = prod over the boxes (i, j) of lambda of (m + 2j - i - 1)
(Macdonald, Symmetric Functions and Hall Polynomials, ch. VII;
Hanlon-Wales, J. Algebra 121 (1989)).  So image_F(m, k) is the sum of
dim S^(2 lambda), by the hook length formula, over the lambda with
z_lambda(m) != 0.  delta' scales each image by a nonzero constant, and
exact mode's basis is a similarity of this one: neither moves the span.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diagrams import PartialDiagram, family_count
from .hecke import RepContext
from .linalg import (
    Matrix,
    SpanTracker,
    _modular_guard,
    annihilates,
    kernel,
)
from .scalars import (
    AdmissibilityReport,
    DomainError,
    InadmissibleParameterError,
    is_q_admissible,
    report_to_json,
    scalar_is_zero,
    scalar_to_json,
)
from .tensor_action import (
    SPACE_FULL,
    SPACE_REDUCED,
    TensorContext,
    algebra_generator_images,
    conjugacy_representatives,
    group_generators,
)


# -- commutants -------------------------------------------------------------


def _slot_orbits(m: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the entries (a, b) of an m x m matrix, m = m0^slots,
    under the permutations of the slots that move the pairs (a_i, b_i)
    together: an m x m array of orbit indices and the orbit sizes.  An
    orbit is a multiset of ``slots`` pairs, so there are C(m0^2 + slots - 1,
    slots) of them, numbered in the order of their sorted pair codes; one
    slot makes every entry its own orbit, numbered row-major."""
    m0 = round(m ** (1 / slots))
    if m0 ** slots != m:
        raise DomainError(f"size {m} is not a power of {slots} slots")
    digits = np.array(list(itertools.product(range(m0), repeat=slots)), dtype=np.int64)
    pairs = np.sort(digits.reshape(m, 1, slots) * m0 + digits.reshape(1, m, slots), axis=2)
    codes = pairs @ (m0 * m0) ** np.arange(slots - 1, -1, -1)
    _, orbit, sizes = np.unique(codes, return_inverse=True, return_counts=True)
    return orbit.reshape(m, m), sizes


def commutant_dimension(generators: list[Matrix], prime: int | None = None,
                        slots: int = 1) -> int:
    """Dimension of {X : XG = GX for all G} among the m x m matrices X,
    m = m0^slots, that the place permutations of the slots fix:
    X[sigma a, sigma b] = X[a, b] for every permutation sigma of the slots
    of the basis tuples.  With one slot that is every X, the generic
    commutant.

    The unknowns are the orbit sums O_o of the matrix units E_ij (see
    ``_slot_orbits``).  A diagonal generator D adds no rows: [X, D] = 0
    says X[a, b] (d_b - d_a) = 0, so it drops every orbit that holds an
    entry (a, b) with d_a != d_b.  Every other generator G gives the kept
    columns vec(O_o G - G O_o), written by scatter: E_ij G puts row j of G
    into row i, and G E_ij puts column i of G into column j, so only G's
    nonzero entries are visited.  Each G enters as its stored array, so
    an exact system is an integer one, and with a prime its residues (the
    diagonal test's too) give the GF(p) nullity, which bounds the rational
    one from above.  In approx mode each column is scaled by 1/sqrt(|o|),
    so the unknowns stay an orthonormal basis and the cutoff sigma >
    TOLERANCE * sigma_1 keeps its meaning."""
    if not generators:
        raise DomainError("need at least one generator")
    m, mode = generators[0].rows, generators[0].mode
    if any(g.rows != m or g.cols != m for g in generators):
        raise DomainError("generators must be square and equal-sized")
    if prime is not None and mode != "exact":
        raise ValueError("a GF(p) commutant needs exact mode")
    orbit, sizes = _slot_orbits(m, slots)
    arrays = [g.data for g in generators]
    if prime is not None:
        arrays = [(g % prime).astype(np.int64) for g in arrays]
    keep, scattered = np.ones(len(sizes), dtype=bool), []
    for g in arrays:
        d = np.diagonal(g)
        if np.count_nonzero(g) == np.count_nonzero(d):
            keep[orbit[d[:, None] != d]] = False
        else:
            scattered.append(g)
    kept = int(keep.sum())
    if not scattered:
        return kept
    # the kept orbits renumbered, every dropped one in a last column cut off
    column = np.where(keep, np.cumsum(keep) - 1, kept)[orbit]
    dtype, every, blocks = np.result_type(*scattered), np.arange(m)[:, None], []
    for g in scattered:
        block = np.zeros((m, m, kept + 1), dtype=dtype)
        j, y = np.nonzero(g)
        values = g[j, y]
        np.add.at(block, (every, y, column[every, j]), values)
        # the same nonzeros, read as G[x, i]
        np.subtract.at(block, (j[:, None], every.T, column[y[:, None], every.T]), values[:, None])
        block = block[:, :, :kept].reshape(-1, kept)
        if prime is not None:
            block %= prime
        elif mode == "approx":
            block /= np.sqrt(sizes[keep])
        blocks.append(block[(block != 0).any(axis=1)])
    return kernel(np.concatenate(blocks), prime=prime)[0]


def _largest_column(a: np.ndarray) -> np.ndarray:
    return a[:, np.argmax(np.abs(a).sum(axis=0))]


def _family_basis(sites: list[tuple[np.ndarray, int]], family: range) -> np.ndarray:
    """A joint eigenbasis of the commuting reflections T_g, g in ``family``
    (0-based), as the columns of an array: first the root of each member,
    in order, then a basis of their common +1 space.

    The working basis v'_1, ..., v'_(n-1) of F is orthogonal, with v'_i in
    the span of the roots f_1..f_i, so the root f_(g+1) lies in the span of
    v'_g and v'_(g+1) and is orthogonal to every other v'_i: T_g moves only
    the (0-based) coordinates g - 1 and g, and the members of one family
    move disjoint coordinates.  So a member's root is a nonzero column of
    c I - c T_g on those coordinates, a member that moves two of them adds
    the other eigenvector there, a nonzero column of c I + c T_g, and every
    coordinate no member moves adds its unit vector.  An exact basis is
    checked to be a joint eigenbasis; an approx one is normalized, so it is
    orthonormal at real q."""
    m, dtype = sites[0][0].shape[0], sites[0][0].dtype
    eye = np.eye(m, dtype=int).astype(dtype)
    roots, fixed, moved = [], [], set()
    for g in family:
        t, c = sites[g]
        pair = [i for i in (g - 1, g) if i >= 0]
        moved.update(pair)
        roots.append(_largest_column((c * eye - t)[:, pair]))
        if len(pair) == 2:
            fixed.append(_largest_column((c * eye + t)[:, pair]))
    units = [eye[:, i] for i in range(m) if i not in moved]
    basis = np.column_stack(roots + fixed + units)
    if dtype != object:
        return basis / np.linalg.norm(basis, axis=0)
    for root, g in enumerate(family):
        t, c = sites[g]
        sign = np.full(m, c, dtype=object)
        sign[root] = -c
        if not np.array_equal(t @ basis, basis * sign):
            raise ArithmeticError(f"no joint eigenbasis: t_{g + 1} is not diagonal on it")
    return basis


@dataclass
class _Families:
    """The two commuting families of the twin generators on F, the odd t_1,
    t_3, ... and the even t_2, t_4, ...: the root counts of both, and joint
    = Q^T G P for their joint eigenbases P and Q and the one-site Gram
    diagonal G (the identity in approx mode)."""

    odd_roots: int
    even_roots: int
    joint: np.ndarray


def _families(tc: TensorContext) -> _Families:
    # each twin generator T on F (on E, without index 0) as its stored (c T, c)
    k = tc.local_dim - (tc.rc.n - 1)
    sites = [(t.data[k:, k:], t.den) for t in tc.sites]
    odd, even = range(0, len(sites), 2), range(1, len(sites), 2)
    p, q = _family_basis(sites, odd), _family_basis(sites, even)
    # the one-site Gram weights, scaled to integers in exact mode
    gram = Matrix.of(tc.mode, [tc.gram]).data[0, k:]
    return _Families(len(odd), len(even), q.T @ (gram[:, None] * p))


def _passes(labels: np.ndarray, roots: int) -> np.ndarray:
    """Whether each label (one row per tensor basis vector) holds each of
    the basis indices 0..roots-1, the roots, an even number of times."""
    odd = np.zeros(len(labels), dtype=bool)
    for i in range(roots):
        odd |= (labels == i).sum(axis=1) % 2 == 1
    return ~odd


def _invariants(fam: _Families, j: int, prime: int | None = None) -> int:
    """Dimension of the vectors of the j-th tensor power of F fixed by
    every twin generator.

    The fixed space of the odd family is spanned by the columns of P^(x)j
    whose labels hold every odd root an even number of times, and that of
    the even family is the G^(x)j-orthogonal complement of the columns of
    Q^(x)j that hold some even root an odd number of times (the joint
    eigenspaces of a family are orthogonal for the form).  So d_j is the
    nullity of (Q^T G P)^(x)j restricted to those rows and columns, whose
    entry is the product over the j slots of joint[row label, column
    label]; no Kronecker power is formed.  In exact mode the system is an
    integer one; with a prime it is built in int64 residues, which
    ``linalg.kernel`` eliminates in place, and its GF(p) nullity bounds d_j
    from above."""
    m = len(fam.joint)
    labels = np.array(list(itertools.product(range(m), repeat=j)), dtype=np.intp).reshape(m ** j, j)
    rows, cols = labels[~_passes(labels, fam.even_roots)], labels[_passes(labels, fam.odd_roots)]
    joint = fam.joint if prime is None else (fam.joint % prime).astype(np.int64)
    system = np.ones((len(rows), len(cols)), dtype=joint.dtype)
    for s in range(j):
        system *= joint[rows[:, s, None], cols[None, :, s]]
        if prime is not None:
            system %= prime
    return kernel(system, prime=prime)[0]


def group_commutant(tc: TensorContext, prime: int | None = None) -> int:
    """Dimension of the commutant of the diagonal twin action on the r-th
    tensor power of ``tc.space``.

    The action preserves the diagonal form D, so X is in the commutant
    exactly when Y = X (D^(x)r)^(-1), read as a vector of the (2r)-th
    power, is invariant.  On E = L + F those invariants are, for each set S
    of slots, the F-invariants of degree |S| on S with the fixed index 0 on
    every other slot: dim = sum_j C(2r, j) d_j on E, and d_2r on F.  Each
    d_j comes from the two commuting families of the generators (see
    ``_invariants``); with a prime (exact mode) it is its GF(p) upper
    bound.
    """
    if prime is not None and tc.mode != "exact":
        raise ValueError("a GF(p) commutant needs exact mode")
    fam, two_r = _families(tc), 2 * tc.r
    return sum(math.comb(two_r, j) * _invariants(fam, j, prime)
               for j in (range(two_r + 1) if tc.space == SPACE_FULL else [two_r]))


# the prime of every GF(p) leg of exact mode, read at call time: the largest
# below 2^20, so int64 sums of up to 2^23 products of residues stay exact
# (``linalg`` guards that bound)
ENVELOPE_PRIME = 1048573


def enveloping_span_dimension(sites: list[Matrix], r: int, prime: int | None = None) -> int:
    """Dimension of the span of the w^(x)r, w the words in the one-site
    generators (with the identity): the envelope of their diagonal action,
    grown one word length at a time until a length grows nothing.

    A word's row is its monomial prod_s w[a_s, b_s] at one entry of each
    ``_slot_orbits`` orbit o, a multiset of r pairs (a_s, b_s), scaled in
    approx mode by sqrt(|o|), which keeps every inner product of the
    tensor-size rows and so the meaning of the cutoff.  Let S_k be the span of
    the words of length at most k and F_k words that span S_k modulo
    S_(k-1).  (w t)^(x)r = w^(x)r t^(x)r, so S_(k+1) = S_k + span(F_k G):
    each level is every word whose row grew the span in a ``SpanTracker``
    times every generator.  So each level either grows the span, which has
    at most one dimension per orbit, or is the last: the search always ends
    with the whole envelope.  Words are products of the stored arrays
    ``Matrix.data``, in exact mode den times each generator, which scales
    each row by a nonzero integer; with a prime p (exact mode) they are
    int64 residues, every product is reduced mod p, and the span is taken
    over GF(p)."""
    if not sites:
        raise DomainError("need at least one generator")
    m0 = sites[0].rows
    orbit, sizes = _slot_orbits(m0 ** r, r)
    # the codes a_s m0 + b_s, in a flattened word, of one entry of each orbit
    digits = np.unravel_index(np.unique(orbit, return_index=True)[1], (m0,) * (2 * r))
    codes = np.array(digits[:r]) * m0 + np.array(digits[r:])
    gens = np.stack([g.data for g in sites])
    if prime is not None:
        # a word product sums m0 products of residues
        _modular_guard(m0, prime)
        gens = (gens % prime).astype(np.int64)
    tracker = SpanTracker(prime)
    words = np.eye(m0, dtype=gens.dtype)[None]
    while len(words):
        flat = words.reshape(len(words), -1)
        rows = flat[:, codes[0]]
        for slot in codes[1:]:
            rows *= flat[:, slot]
            if prime is not None:
                rows %= prime
        if sites[0].mode == "approx":
            rows *= np.sqrt(sizes)
        words = (words[tracker.add_matrix(rows)][:, None] @ gens).reshape(-1, m0, m0)
        if prime is not None:
            words %= prime
    return tracker.dimension


def _reverse_check(sites: list[Matrix], algebra: list[Matrix], slots: int) -> tuple[int, int]:
    """(comm(algebra), envelope) over the scalars of the mode.  ``sites``
    are the one-site group generators, and ``algebra`` holds the conjugacy
    representatives of the algebra generators on ``slots`` tensor slots,
    whose place permutations the commutant absorbs (see
    ``commutant_dimension``).  In exact mode the GF(p) sandwich of the
    module docstring runs first and stands when it closes: env_p equal to
    comm_p(algebra).  Otherwise the rational (or approx) commutant and
    search run."""
    if sites[0].mode == "exact":
        p = ENVELOPE_PRIME
        env = enveloping_span_dimension(sites, slots, prime=p)
        if env == commutant_dimension(algebra, prime=p, slots=slots):
            return env, env
    return commutant_dimension(algebra, slots=slots), enveloping_span_dimension(sites, slots)


# -- diagram-image dimension -------------------------------------------------


# entries of one chunk's label array (int8 up to r = 64).  The two flat intp
# gather indices add 16 bytes an entry, so the join of the 123 orbit
# representatives of the 764 diagrams at r = 4 peaks at about 0.8 MB, its
# 94 KB of counts included
_JOIN_ENTRIES = 1 << 15


def _join_chunk(left: np.ndarray, right: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """Free-component counts of the joins of the ``left`` matchings (rows,
    1, 2r) with the ``right`` ones (1, cols, 2r), or of pairs aligned on
    their first two axes.  A chunk's gather indices are freed on return,
    before the next chunk builds its own."""
    # every vertex has at most one partner in each matching, so a component
    # is an alternating path or cycle of at most 2r vertices.  A round moves
    # a label 2 edges along it, left then right (1 edge in the first round
    # when its first edge is a right one).  A path ends at singletons, so
    # its -1 comes in from both ends, and a cycle's least label goes both
    # ways round: after k rounds 4k vertices hold it, and ceil(r/2) rounds
    # reach all 2r.
    label = np.where((left == vertex) | (right == vertex), -1, vertex)
    # flat offsets pair * 2r + partner, along each matching
    pair = np.arange(0, label.size, vertex.size).reshape(*label.shape[:2], 1)
    gathers = [np.add(pair, m, dtype=np.intp).ravel() for m in (left, right)]
    flat = label.reshape(-1)
    for _ in range((vertex.size // 2 + 1) // 2):
        for gather in gathers:
            np.minimum(flat, flat.take(gather), out=flat)
    return (label == vertex).sum(axis=2)


def _partners(diagrams: list[PartialDiagram]) -> np.ndarray:
    """The partner rows of the diagrams (all on the same r strands), one
    row of 2r vertices each, in the least signed integer type that holds
    -2r."""
    r = diagrams[0].r
    if any(d.r != r for d in diagrams):
        raise DomainError(f"strand mismatch: diagrams of r = {sorted({d.r for d in diagrams})}")
    return np.array([d.partner for d in diagrams], dtype=np.min_scalar_type(-2 * r))


def _join_rows(partner: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The free-component counts of the joins of the diagrams ``rows``
    with every diagram, from their partner rows, a chunk of rows at a
    time: the Gram entries are dim to their power."""
    size, two_r = partner.shape
    vertex = np.arange(two_r, dtype=partner.dtype)
    free = np.empty((len(rows), size), dtype=partner.dtype)
    step = max(1, _JOIN_ENTRIES // (size * two_r))
    for lo in range(0, len(rows), step):
        free[lo:lo + step] = _join_chunk(partner[rows[lo:lo + step], None], partner[None], vertex)
    return free


def _place_swaps(partner: np.ndarray) -> list[np.ndarray]:
    """The top swaps (1 2), (3 4), ... and the bottom swaps (1' 2'),
    (3' 4'), ... that map the diagrams onto themselves, each as the
    permutation of the diagram indices it makes, while the group they
    generate stays no larger than the list.  A swap relabels the vertices
    of every partner row, and each image row is looked up among the rows by
    its bytes; a list with a repeated diagram keeps no swap."""
    size, two_r = partner.shape
    index = {row.tobytes(): i for i, row in enumerate(partner)}
    if len(index) < size:
        return []
    swaps = []
    for first in [*range(0, two_r // 2 - 1, 2), *range(two_r // 2, two_r - 1, 2)]:
        if 2 << len(swaps) > size:
            break
        swap = np.arange(two_r, dtype=partner.dtype)
        swap[[first, first + 1]] = first + 1, first
        image = [index.get(row.tobytes()) for row in swap[partner[:, swap]]]
        if None not in image:
            swaps.append(np.array(image))
    return swaps


def _sign_blocks(swaps: list[np.ndarray], size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split of a basis 0..size-1 over the group H that the commuting
    involutions ``swaps`` (permutations of the basis) generate, as three
    arrays:

    * the images h d of the least basis vector d of each orbit, one row per
      element h, the product of the swaps whose bits h sets, so row 0
      holds the representatives;
    * the +-1 characters chi(h), one row per character: chi(h) = -1 when h
      holds an odd number of the swaps that chi picks by its bits;
    * for each character, the orbits on whose stabiliser it is trivial,
      those whose signed sum sum_h chi(h) h d is not zero.  These sums are
      a basis, and a matrix that commutes with H is block diagonal on it."""
    least = np.arange(size)
    # the swaps commute, so the next one maps each orbit onto an orbit
    for swap in swaps:
        least = np.minimum(least, least[swap])
    images = np.flatnonzero(least == np.arange(size))[None]
    characters = np.ones((1, 1), dtype=np.int64)
    for swap in swaps:
        images = np.concatenate([images, swap[images]])
        characters = np.kron([[1, 1], [1, -1]], characters)
    fixes = images == images[0]
    # no element that fixes the representative may have chi = -1
    blocks = np.array([~fixes[chi < 0].any(axis=0) for chi in characters])
    return images, characters, blocks


def image_gram_rank(diagrams: list[PartialDiagram], dim: int) -> int:
    """Exact span dimension of the indicator images: the rank of their
    Gram matrix G, split over the place swaps and certified block by block
    over GF(p), p = ``ENVELOPE_PRIME``.

    The swaps of ``_place_swaps`` generate an elementary abelian 2-group H
    with G[h d, h e] = G[d, e], so G commutes with H and is block diagonal
    over its characters chi (see ``_sign_blocks``).  On the signed orbit
    sums of chi's block the Gram matrix is |H| G_chi, with G_chi[a, b] =
    sum_h chi(h) G[d_a, h d_b] over the representatives, so only the
    representative rows are joined, and rank G = sum_chi rank G_chi.

    rank_p <= rank_Q, so a block of full rank_p has that rank.  Otherwise
    its GF(p) kernel basis (unit vectors on the free columns) is scaled by
    |H|^2 and lifted to symmetric residues V: the signed orbit sums of an
    integer kernel vector of G have coordinates with denominators dividing
    |H| |stabiliser|.  While |H|^2 < p/2, V keeps |H|^2 on its free
    columns, so its rows are independent, and G_chi V = 0 exactly gives
    nullity_Q >= nullity_p >= nullity_Q.  When that check fails, or
    |H|^2 >= p/2 (where, as at p = 2, the scaled residues can vanish),
    G_chi is eliminated over Q."""
    if not diagrams:
        return 0
    partner = _partners(diagrams)
    images, characters, blocks = _sign_blocks(_place_swaps(partner), len(diagrams))
    free = _join_rows(partner, images[0])
    order, most = len(images), int(free.max())
    # |G_chi| <= |H| dim^most
    powers = np.array([dim ** e for e in range(most + 1)],
                      dtype=np.int64 if order * dim ** most < 2 ** 63 else object)
    p, scale, rank = ENVELOPE_PRIME, order ** 2, 0
    for chi, block in zip(characters.tolist(), blocks):
        orbits = np.flatnonzero(block)
        rows = free[orbits]
        gram = sum(x * powers[rows[:, images[h, orbits]]] for h, x in enumerate(chi))
        nullity, vecs = kernel((gram % p).astype(np.int64), need_basis=True, prime=p)
        if nullity:
            vecs = vecs * scale % p
            vecs[vecs > p // 2] -= p
            if not (2 * scale < p and annihilates(gram, vecs.T)):
                nullity = kernel(gram)[0]
        rank += orbits.size - nullity
    return rank


def _brauer_image(m: int, k: int) -> int:
    """image_F(m, k) of the module docstring, with the factor m + 2j - i - 1
    of z_lambda(m) at the 0-based box (i - 1, j - 1)."""
    total = 0
    for lam in _partitions_of(k):
        if all(m + 2 * j - i for i, part in enumerate(lam) for j in range(part)):
            shape = [2 * part for part in lam]
            columns = [sum(part > j for part in shape) for j in range(max(shape, default=0))]
            hooks = math.prod(part - j + columns[j] - i - 1
                              for i, part in enumerate(shape) for j in range(part))
            total += math.factorial(2 * k) // hooks
    return total


def diagram_image_dimension(tc: TensorContext) -> int:
    """Span dimension of all diagram images, by the closed form of the
    module docstring: it needs neither q nor a diagram, and delta' leaves
    the span alone."""
    return sum(math.comb(2 * tc.r, 2 * k) * _brauer_image(tc.rc.n - 1, k)
               for k in (range(tc.r + 1) if tc.space == SPACE_FULL else [tc.r]))


# -- partition counting ------------------------------------------------------


def _partitions_of(k: int, largest: int | None = None):
    """Partitions of k as weakly decreasing tuples, no part above
    ``largest`` (default k)."""
    if k == 0:
        yield ()
    for part in range(min(k, k if largest is None else largest), 0, -1):
        for rest in _partitions_of(k - part, part):
            yield (part,) + rest


def lambda_count(n: int, r: int) -> int:
    """Number of partitions of 0..r whose conjugate's first two parts sum
    to at most n-1 (the bimodule summand count)."""
    if n < 2 or r < 0:
        raise DomainError("need n >= 2 and r >= 0")
    count = 0
    for k in range(r + 1):
        for lam in _partitions_of(k):
            conj1 = len(lam)
            conj2 = sum(1 for part in lam if part >= 2)
            if conj1 + conj2 <= n - 1:
                count += 1
    return count


def center_dimension(tc: TensorContext, algebra: list[Matrix]) -> int:
    """Dimension of the matrices that commute with both the group
    generators and the algebra generators: one ``commutant_dimension`` over
    the S_r-symmetric unknowns of the group generators and ``algebra``, the
    ``conjugacy_representatives``.  In exact mode it is a rational nullity:
    a GF(p) one bounds it only from above, and no sandwich closes."""
    return commutant_dimension(group_generators(tc) + algebra, slots=tc.r)


# -- the headline checks -----------------------------------------------------


@dataclass
class DualityReport:
    """What the double-centralizer verification computed for one
    configuration.  The verdicts are properties of those numbers; the JSON
    form lists the fields that are set, then the verdicts that are set."""

    VERDICTS = ("faithful", "faithful_expected", "faithful_matches_threshold",
                "double_centralizer_ok", "center_ok", "envelope_saturated", "ok")

    n: int
    r: int
    q: object
    delta_prime: object
    space: str
    mode: str
    dim_commutant: int
    dim_diagram_image: int
    dim_pb_abstract: int
    admissibility: AdmissibilityReport
    forced: bool = False
    center_dim: int | None = None
    lambda_count: int | None = None
    dim_group_envelope: int | None = None
    reverse_ok: bool | None = None

    @property
    def faithful(self) -> bool:
        return self.dim_diagram_image == self.dim_pb_abstract

    @property
    def faithful_expected(self) -> bool:
        """The paper's sufficient cutoff: n > r on E, n - 1 >= 2r on F."""
        return self.n > self.r if self.space == SPACE_FULL else self.n - 1 >= 2 * self.r

    @property
    def faithful_matches_threshold(self) -> bool:
        return self.faithful == self.faithful_expected

    @property
    def double_centralizer_ok(self) -> bool:
        return self.dim_commutant == self.dim_diagram_image

    @property
    def center_ok(self) -> bool | None:
        return None if self.center_dim is None else self.center_dim == self.lambda_count

    @property
    def envelope_saturated(self) -> bool | None:
        """The search always runs until a word length grows nothing."""
        return None if self.dim_group_envelope is None else True

    @property
    def ok(self) -> bool:
        """Every computed statement holds: commutant = image, faithful
        wherever the cutoff promises it, and each center or reverse check
        that ran."""
        return (self.double_centralizer_ok and (self.faithful or not self.faithful_expected)
                and self.center_ok is not False and self.reverse_ok is not False)

    def to_json(self) -> dict:
        out = {k: v for k, v in report_to_json(self).items() if v is not None}
        out.update(q=scalar_to_json(self.q), delta_prime=scalar_to_json(self.delta_prime),
                   admissibility=self.admissibility.to_json())
        return out


EXACT_SIZE_LIMIT = 256
# the reverse (group-envelope) check runs up to this tensor dimension
REVERSE_CHECK_DIM = 32


def check_duality_inputs(space: str, delta_prime, center: bool) -> None:
    """Reject inputs the pipeline cannot honour: delta' = 0, and on the
    reduced space F (Brauer diagrams only) a center or a delta' other
    than 1."""
    if space == SPACE_REDUCED and (center or delta_prime != 1):
        raise DomainError("the center and delta' != 1 apply only to the full space E")
    if scalar_is_zero(delta_prime):
        raise DomainError("delta' must be nonzero")


def duality_check(rc: RepContext, r: int, space: str, delta_prime=1, *,
                  center: bool = False, force: bool = False) -> DualityReport:
    """The double-centralizer pipeline: commutant of the diagonal twin
    action on the r-th tensor power of ``space`` versus the diagram images,
    partial Brauer at (delta, delta') = (n, delta_prime) on E and Brauer at
    n - 1 on F."""
    check_duality_inputs(space, delta_prime, center)
    # the gate runs before TensorContext, whose [n]_q! check would
    # otherwise turn a refused q into a domain error
    admissibility = is_q_admissible(rc.qc, rc.n)
    if not admissibility.admissible and not force:
        raise InadmissibleParameterError(admissibility)
    tc, exact = TensorContext(rc, r, space), rc.mode == "exact"
    if exact and tc.dim > EXACT_SIZE_LIMIT:
        raise DomainError(
            f"exact tensor dimension {tc.dim} exceeds {EXACT_SIZE_LIMIT}; rerun in approx mode"
        )
    dim_pb = family_count(r, "all" if space == SPACE_FULL else "brauer")
    dim_image = diagram_image_dimension(tc)
    # e_1 and, on E, p_1 on r slots, built once for the two-slot proof at
    # r <= 2, the reverse check and the center
    reps = (conjugacy_representatives(tc, delta_prime)
            if (exact and r <= 2) or tc.dim <= REVERSE_CHECK_DIM or center else None)
    if exact:
        # the algebra generators generate every diagram image, so this puts
        # the images in the group commutant, which every GF(p) sandwich
        # leans on; two slots prove it at every r (module docstring)
        local = copy.copy(tc)  # shares the one-site data
        local.r = min(r, 2)
        images = algebra_generator_images(local, delta_prime, reps if r <= 2 else None)
        algebra = [a.data for a in images]
        for i, g in enumerate(group_generators(local), 1):
            for k, a in enumerate(algebra):
                # g a - a g = [g | -a] [a ; g]
                if not annihilates(np.hstack([g.data, -a]), np.vstack([a, g.data])):
                    raise ArithmeticError(f"t_{i} does not commute with algebra generator"
                                          f" image {k} on {local.r} slots")
    # closed form <= comm_Q <= comm_p = closed form
    closes = exact and group_commutant(tc, prime=ENVELOPE_PRIME) == dim_image
    dim_comm = dim_image if closes else group_commutant(tc)
    report = DualityReport(
        n=rc.n,
        r=r,
        q=rc.q,
        delta_prime=delta_prime,
        space=space,
        mode=rc.mode,
        dim_commutant=dim_comm,
        dim_diagram_image=dim_image,
        dim_pb_abstract=dim_pb,
        admissibility=admissibility,
        forced=force and not admissibility.admissible,
    )
    if tc.dim <= REVERSE_CHECK_DIM:
        dim_alg_comm, report.dim_group_envelope = _reverse_check(tc.sites, reps, r)
        report.reverse_ok = dim_alg_comm == report.dim_group_envelope
    if center:
        report.center_dim = center_dimension(tc, reps)
        report.lambda_count = lambda_count(rc.n, r)
    return report


def schur_weyl_check(rc: RepContext, r: int, delta_prime=Fraction(1), *, center: bool = False,
                     force: bool = False) -> DualityReport:
    """The pipeline on E: partial Brauer diagrams at (n, delta_prime)."""
    return duality_check(rc, r, SPACE_FULL, delta_prime, center=center, force=force)


def brauer_duality_check(rc: RepContext, r: int, *, force: bool = False) -> DualityReport:
    """The pipeline on F: Brauer diagrams at n - 1, stated faithful when
    n - 1 >= 2r."""
    return duality_check(rc, r, SPACE_REDUCED, force=force)
