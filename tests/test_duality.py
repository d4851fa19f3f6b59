import ast
import collections
import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindual import diagrams as diagrams_module
from twindual import duality, hecke, linalg, tensor_action
from twindual.diagrams import PartialDiagram, compose, enumerate_diagrams, generator
from twindual.duality import (
    DualityReport,
    InadmissibleParameterError,
    brauer_duality_check,
    center_dimension,
    commutant_dimension,
    diagram_image_dimension,
    enveloping_span_dimension,
    group_commutant,
    image_gram_rank,
    lambda_count,
    schur_weyl_check,
)
from twindual.hecke import RepContext
from twindual.linalg import Matrix, kernel, span_dimension
from twindual.scalars import DomainError, QContext, is_q_admissible
from twindual.tensor_action import (
    SPACE_FULL,
    SPACE_REDUCED,
    TensorContext,
    algebra_generator_images,
    conjugacy_representatives,
    diagram_matrix,
    group_generators,
)


def eigen_multiplicity_commutant(diag_entries: list, tol: float = 1e-9) -> int:
    """Oracle: the commutant of a single diagonalizable matrix has dimension
    the sum of squared eigenvalue multiplicities."""
    counts: dict = {}
    for x in diag_entries:
        key = None
        for existing in counts:
            if abs(complex(existing) - complex(x)) <= tol:
                key = existing
                break
        counts[key if key is not None else x] = counts.get(key if key is not None else x, 0) + 1
    return sum(c * c for c in counts.values())


# the diagrams that act on each space
FAMILY = {SPACE_FULL: "all", SPACE_REDUCED: "brauer"}


def diagram_images(tc, delta_prime):
    """Oracle for the image dimension: every diagram matrix, built directly."""
    return [diagram_matrix(d, tc, delta_prime) for d in enumerate_diagrams(tc.r, FAMILY[tc.space])]


def rc_exact(n=4):
    return RepContext(n, QContext.exact(2))


def rc_approx(n=4):
    return RepContext(n, QContext.approx(4))


def test_commutant_of_identity():
    dim = commutant_dimension([Matrix.identity(3)])
    assert dim == 9
    dim = commutant_dimension([Matrix.identity(3).to_approx()])
    assert dim == 9


def test_commutant_single_diagonal_matches_multiplicities():
    rng = random.Random(3)
    for _ in range(6):
        entries = [rng.choice([1, 2, 2, 5]) for _ in range(5)]
        diag = Matrix.exact([[entries[i] if i == j else 0 for j in range(5)] for i in range(5)])
        dim = commutant_dimension([diag])
        assert dim == eigen_multiplicity_commutant(entries)
        dim_a = commutant_dimension([diag.to_approx()])
        assert dim_a == dim
        # 2 = 5 mod 3: the residues' multiplicities, not the entries', count
        dim_p = commutant_dimension([diag], prime=3)
        assert dim_p == eigen_multiplicity_commutant([x % 3 for x in entries])


def test_commutant_r1():
    tc = TensorContext(rc_exact(), 1)
    dim = commutant_dimension(group_generators(tc))
    assert dim == 2  # E = L + F with non-isomorphic irreducible summands


def test_commutant_r2_exact_equals_approx():
    dim_e = commutant_dimension(group_generators(TensorContext(rc_exact(), 2)))
    dim_a = commutant_dimension(group_generators(TensorContext(rc_approx(), 2)))
    assert dim_e == dim_a == 10


@pytest.mark.parametrize("mode", ["exact", "approx", "complex"])
@pytest.mark.parametrize("space", [SPACE_FULL, SPACE_REDUCED])
def test_group_commutant_matches_generic_oracle(mode, space):
    make = {"exact": rc_exact, "approx": rc_approx,
            "complex": lambda n: RepContext(n, QContext.approx(2 + 1j))}[mode]
    for n, r in [(2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)]:
        tc = TensorContext(make(n), r, space)
        assert group_commutant(tc) == commutant_dimension(group_generators(tc)), (n, r)


def split_rows(out: np.ndarray, left: np.ndarray, right: np.ndarray, scale,
               first: int = 0) -> None:
    """Write kron(L, I) - scale kron(I, R) into ``out`` without forming either
    Kronecker product: entry ((i, k), (j, l)) is L[i, j] [k = l] -
    scale [i = j] R[k, l].  ``left`` may hold only the rows first, first +
    1, ... of L; ``out`` then gets only the rows (i, k) of those i."""
    h, a = left.shape
    b = right.shape[0]
    out4 = out.reshape(h, b, a, b)
    out4[...] = 0
    k, i = np.arange(b), np.arange(h)
    out4[:, k, :, k] = left
    out4[i, :, first + i, :] -= scale * right


@pytest.mark.parametrize("dtype", [object, np.int64, complex])
def test_split_rows_is_the_kronecker_difference(dtype):
    rng = random.Random(5)
    left = np.array([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]).astype(dtype)
    right = np.array([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]).astype(dtype)
    out = np.empty((6, 6), dtype=dtype)
    split_rows(out, left, right, 7)
    expected = np.kron(left, np.eye(2, dtype=int)) - 7 * np.kron(np.eye(3, dtype=int), right)
    assert np.array_equal(out, expected.astype(dtype))
    # the rows of L from ``first`` on give the matching rows of the system
    for first, stop in ((0, 2), (1, 3), (2, 3)):
        part = np.empty((2 * (stop - first), 6), dtype=dtype)
        split_rows(part, left[first:stop], right, 7, first)
        assert np.array_equal(part, expected[2 * first:2 * stop].astype(dtype)), first


def stacked_commutant(generators, prime=None):
    """Oracle for the algebra commutant: the nullity of the generic stacked
    systems kron(G, I) - kron(I, G^T), one block per generator, with m^2
    unknowns; with a prime, the GF(p) nullity of their int64 residues."""
    arrays = [g.data for g in generators]
    if prime is not None:
        arrays = [(g % prime).astype(np.int64) for g in arrays]
    m = len(arrays[0])
    system = np.empty((len(arrays) * m * m, m * m), dtype=np.result_type(*arrays))
    for block, g in zip(np.split(system, len(arrays)), arrays):
        split_rows(block, g, g.T, 1)
    return kernel(system, prime=prime)[0]


ALGEBRA_CONTEXTS = {
    "exact-p": (rc_exact, duality.ENVELOPE_PRIME),
    # delta' = 5 makes p_1 vanish mod 5, so it drops no unknown there
    "exact-p5": (rc_exact, 5),
    "exact-Q": (rc_exact, None),
    "approx": (rc_approx, None),
    "complex-2+i": (lambda n: RepContext(n, QContext.approx(2 + 1j)), None),
}


@pytest.mark.parametrize("context", list(ALGEBRA_CONTEXTS))
@pytest.mark.parametrize("space", [SPACE_FULL, SPACE_REDUCED])
def test_algebra_commutant_matches_stacked_oracle(monkeypatch, context, space):
    # the reverse check's algebra commutant, on the S_r-symmetric unknowns
    # with rows from e_1 only, is the commutant of every algebra generator.
    # On E the diagonal p_1 drops every orbit with a pair that holds exactly
    # one index 0, leaving C((m0 - 1)^2 + r, r) of the C(m0^2 + r - 1, r)
    # orbit sums, and at r = 1 no generator adds rows, so no kernel runs
    make, prime = ALGEBRA_CONTEXTS[context]
    unknowns = []

    def recorded(system, *args, **kwargs):
        unknowns.append(system.shape[1])
        return kernel(system, *args, **kwargs)

    monkeypatch.setattr(duality, "kernel", recorded)
    for n, r in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]:
        tc = TensorContext(make(n), r, space)
        if tc.dim > duality.REVERSE_CHECK_DIM:
            continue
        m0 = tc.local_dim
        for dp in (1, 5, Fraction(1, 3)) if space == SPACE_FULL else (1,):
            alg = algebra_generator_images(tc, dp)
            expected = stacked_commutant(alg, prime)
            unknowns.clear()
            reps = conjugacy_representatives(tc, dp)
            assert commutant_dimension(reps, prime, slots=r) == expected, (n, r, dp)
            masked = space == SPACE_FULL and not (prime and dp % prime == 0)
            size = math.comb((m0 - 1) ** 2 + r, r) if masked else math.comb(m0 ** 2 + r - 1, r)
            assert unknowns == ([] if r == 1 else [size]), (n, r, dp)


def _slot_swap(m0: int) -> Matrix:
    """The swap of the two slots of m0^2 basis tuples: (a, b) -> (b, a)."""
    swap = np.zeros((m0 * m0, m0 * m0), dtype=int)
    for a, b in itertools.product(range(m0), repeat=2):
        swap[a * m0 + b, b * m0 + a] = 1
    return Matrix.exact(swap)


@st.composite
def two_slot_generators(draw):
    # diagonals repeat entries (and 1 = 4, 2 = 5 mod 3); the others are
    # sparse small integers
    m = draw(st.sampled_from([2, 3])) ** 2
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            diag = draw(st.lists(st.sampled_from([0, 1, 2, 4, 5]), min_size=m, max_size=m))
            gens.append(np.diag(diag))
        else:
            entries = st.sampled_from([0, 0, 0, -2, -1, 1, 3])
            gens.append(np.array(draw(st.lists(entries, min_size=m * m, max_size=m * m)))
                        .reshape(m, m))
    return [Matrix.exact(g) for g in gens]


@given(two_slot_generators())
@settings(max_examples=30, deadline=None)
def test_commutant_mask_matches_stacked_oracle(gens):
    # a diagonal generator drops unknowns and every other one adds rows: on
    # the S_2-symmetric matrices that is the commutant of the generators
    # and the slot swap, in Q, in GF(3) and in approx mode
    swap = _slot_swap(round(math.sqrt(gens[0].rows)))
    for prime in (None, 3):
        expected = stacked_commutant(gens + [swap], prime)
        assert commutant_dimension(gens, prime=prime, slots=2) == expected, prime
    approx = [g.to_approx() for g in gens]
    expected = stacked_commutant(approx + [swap.to_approx()])
    assert commutant_dimension(approx, slots=2) == expected


def _permutation(s: Matrix) -> np.ndarray:
    """pi with s[a, pi(a)] = 1, after checking that s is a permutation matrix."""
    pi = np.argmax(s.data != 0, axis=1)
    assert s.den == 1 and np.array_equal(s.data, np.eye(s.rows, dtype=int)[pi])
    return pi


@pytest.mark.parametrize("n", [3, 4])
def test_algebra_generators_are_place_conjugates_of_e1_and_p1(n):
    # exactly, on the tensor images: e_(i+1) = w e_i w^-1 with w = s_i
    # s_(i+1), and p_(j+1) = s_j p_j s_j.  For a permutation matrix w,
    # (w A w^-1)[a, b] = A[pi(a), pi(b)], and pi of s_i s_(i+1) is
    # pi_(i+1) after pi_i.
    def conjugate(a: Matrix, pi: np.ndarray) -> Matrix:
        return Matrix.scaled("exact", a.data[np.ix_(pi, pi)], a.den)

    def image(tc: TensorContext, kind: str, i: int) -> Matrix:
        return diagram_matrix(generator(kind, i, tc.r), tc, Fraction(5, 3))

    for r in range(2, 5):
        for space in (SPACE_FULL, SPACE_REDUCED):
            tc = TensorContext(RepContext(n, QContext.exact(Fraction(3, 2))), r, space)
            swap = {i: _permutation(image(tc, "s", i)) for i in range(1, r)}
            for i in range(1, r - 1):
                w = swap[i + 1][swap[i]]
                assert image(tc, "e", i + 1).equals(conjugate(image(tc, "e", i), w)), (r, space, i)
            for j in range(1, r) if space == SPACE_FULL else ():
                assert image(tc, "p", j + 1).equals(conjugate(image(tc, "p", j), swap[j])), (r, j)


def reduced_sites(tc):
    """Each twin generator T on one factor of F (on E, the site without
    the fixed index 0) as its stored pair (c T, c)."""
    k = tc.local_dim - (tc.rc.n - 1)
    return [(t.data[k:, k:], t.den) for t in tc.sites]


def stacked_invariants(sites, j, prime=None):
    """Oracle for d_j, the nullity of the stacked split systems
    T^(x)(j-b) (x) I - I (x) T^(x)b, b = j // 2, one block per generator:
    T is an involution, so T^(x)j v = v exactly when the two halves agree.
    It has (n-1)^j unknowns; with a prime it is the GF(p) nullity, the
    blocks added one at a time to a GF(p) span tracker."""
    terms = []
    for t, c in sites:
        low = functools.reduce(np.kron, [t] * (j // 2), np.ones((1, 1), dtype=t.dtype))
        high = np.kron(t, low) if j % 2 else low
        terms.append((high, low, c ** (j % 2)))
    ncols = len(sites[0][0]) ** j
    if prime is not None:
        tracker = linalg.SpanTracker(prime)
        block = np.empty((ncols, ncols), dtype=np.int64)
        for left, right, scale in terms:
            residues = [(x % prime).astype(np.int64) for x in (left, right)]
            split_rows(block, *residues, scale % prime)
            tracker.add_matrix(block)
        return ncols - tracker.dimension
    system = np.empty((len(terms) * ncols, ncols),
                      dtype=np.result_type(*(x for t in terms for x in t[:2])))
    for block, (left, right, scale) in zip(np.split(system, len(terms)), terms):
        split_rows(block, left, right, scale)
    return kernel(system)[0]


ORACLE_CONTEXTS = {
    "exact-3/2": lambda n: RepContext(n, QContext.exact(Fraction(3, 2))),
    "exact-7/3": lambda n: RepContext(n, QContext.exact(Fraction(7, 3))),
    "approx-2": rc_approx,
    "approx-1001/1000": lambda n: RepContext(n, QContext.approx(Fraction(1001, 1000) ** 2)),
    "complex-2+i": lambda n: RepContext(n, QContext.approx(2 + 1j)),
}


@pytest.mark.parametrize("context", list(ORACLE_CONTEXTS))
@pytest.mark.parametrize("space", [SPACE_FULL, SPACE_REDUCED])
def test_family_invariants_match_stacked_oracle(context, space):
    # every d_j of the family route, for n = 2 to 5 and j <= 6, against the
    # stacked system: over Q up to 81 unknowns, over GF(p) and in floating
    # point up to 1024
    for n in range(2, 6):
        tc = TensorContext(ORACLE_CONTEXTS[context](n), 1, space)
        sites, fam = reduced_sites(tc), duality._families(tc)
        for j in range(7):
            unknowns = (n - 1) ** j
            if unknowns > 1024:
                continue
            if tc.mode == "exact":
                p = duality.ENVELOPE_PRIME
                expected = stacked_invariants(sites, j, p)
                assert duality._invariants(fam, j, p) == expected, (n, j)
                if unknowns > 81:
                    continue
                assert stacked_invariants(sites, j) == expected, (n, j)
            else:
                expected = stacked_invariants(sites, j)
            assert duality._invariants(fam, j) == expected, (n, j)


def test_family_bases_are_joint_eigenbases():
    # each column of P (odd family) and Q (even family) is an eigenvector of
    # every member, -1 exactly on the member's own root; an approx basis is
    # orthonormal at real q
    for tc in (TensorContext(RepContext(5, QContext.exact(Fraction(7, 3))), 1, SPACE_REDUCED),
               TensorContext(rc_approx(6), 1, SPACE_REDUCED)):
        sites = reduced_sites(tc)
        for start in (0, 1):
            family = range(start, len(sites), 2)
            basis = duality._family_basis(sites, family)
            for root, g in enumerate(family):
                t, c = sites[g]
                sign = np.array([-c if i == root else c for i in range(len(basis))], dtype=object)
                assert np.allclose((t @ basis).astype(complex), (basis * sign).astype(complex))
            if tc.mode == "approx":
                assert np.allclose(basis.T @ basis, np.eye(len(basis)))


@pytest.mark.parametrize("sqrt_q", ["101/100", "1001/1000", "3/2", "2", "7/3"])
def test_group_commutant_approx_matches_exact(sqrt_q):
    s = Fraction(sqrt_q)
    for n in (3, 4, 5):
        for r in (1, 2):
            for space in (SPACE_FULL, SPACE_REDUCED):
                exact = group_commutant(TensorContext(RepContext(n, QContext.exact(s)), r, space))
                approx = group_commutant(
                    TensorContext(RepContext(n, QContext.approx(s * s)), r, space))
                assert approx == exact, (n, r, space)


def test_image_dimension_routes_agree():
    # the Gram-trace route is q-free; the direct span is computed at each q
    for rc in (rc_exact, rc_approx, lambda n: RepContext(n, QContext.approx(2 + 1j))):
        for n, r in [(4, 1), (4, 2), (3, 2)]:
            tc = TensorContext(rc(n), r)
            direct = span_dimension(diagram_images(tc, Fraction(1)))
            gram = image_gram_rank(enumerate_diagrams(r), tc.local_dim)
            assert direct == gram
            assert diagram_image_dimension(tc) == direct


def test_image_dimension_reduced_space_routes_agree():
    for n, r in [(4, 2), (3, 2), (5, 2)]:
        tc = TensorContext(rc_exact(n), r, SPACE_REDUCED)
        direct = span_dimension(diagram_images(tc, 1))
        gram = image_gram_rank(enumerate_diagrams(r, "brauer"), tc.local_dim)
        assert direct == gram


def free_components(diagrams) -> np.ndarray:
    """Oracle input: the free-component counts of every pair of diagrams,
    by the rank route's join run on every row, not only on the orbit
    representatives."""
    return duality._join_rows(duality._partners(diagrams), np.arange(len(diagrams)))


def rational_gram(diagrams, dim) -> np.ndarray:
    """Oracle input: the whole integer Gram matrix of the indicator images,
    an object array of Python integers, which ``kernel`` eliminates over Q."""
    free = free_components(diagrams)
    return np.array([dim ** e for e in range(free.max(initial=0) + 1)], dtype=object)[free]


def _composed_trace_exponent(d1, d2) -> int:
    """Oracle through diagram composition: tr(Phi(d1)^T Phi(d2)) =
    dim^e with e = loops of flip(d1) o d2 plus the free components of the
    trace closure of the result (top i glued to bottom i'), those that
    contain no singleton."""
    tr = compose(d1.flip(), d2)
    r = tr.result.r
    parent = list(range(r + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pinned = []
    for b in tr.result.blocks:
        strands = [v - r if v > r else v for v in b]
        if len(b) == 1:
            pinned.append(strands[0])
        else:
            parent[find(strands[0])] = find(strands[1])
    free = {find(v) for v in range(1, r + 1)} - {find(v) for v in pinned}
    return tr.loops + len(free)


@pytest.mark.parametrize("family", ["all", "brauer"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("entries", [None, 40, 3192])
def test_gram_matrix_matches_composition_oracle(monkeypatch, r, family, entries):
    # a small chunk budget joins one row at a time; 3192 entries join the 76
    # diagrams at r = 3 seven rows at a time, so the last chunk holds six
    if entries:
        monkeypatch.setattr(duality, "_JOIN_ENTRIES", entries)
    diagrams = enumerate_diagrams(r, family)
    exponents = [[_composed_trace_exponent(a, b) for b in diagrams] for a in diagrams]
    for dim in range(1, 6):
        gram = rational_gram(diagrams, dim).tolist()
        assert gram == [list(col) for col in zip(*gram)]
        assert gram == [[dim ** e for e in row] for row in exponents], (r, family, dim)


@pytest.mark.parametrize("family", ["all", "brauer"])
def test_free_components_r4_match_composition_oracle_on_a_sample(family):
    # the whole 764^2 oracle is too slow: a seeded sample of the pairs,
    # joined as aligned pairs.  The Brauer family also runs at r = 5 (945
    # diagrams), whose cycles of 10 vertices take the third round
    for r in (4, 5) if family == "brauer" else (4,):
        diagrams = enumerate_diagrams(r, family)
        rnd = random.Random(4)
        pairs = np.array([[rnd.randrange(len(diagrams)) for _ in range(2)] for _ in range(2000)])
        partner = duality._partners(diagrams)
        vertex = np.arange(2 * r, dtype=partner.dtype)
        free = duality._join_chunk(partner[pairs[:, 0], None], partner[pairs[:, 1], None], vertex)
        for (i, j), count in zip(pairs.tolist(), free[:, 0].tolist()):
            assert count == _composed_trace_exponent(diagrams[i], diagrams[j]), (r, i, j)


def test_free_components_r4_memory_peak():
    # the flat intp gather indices, 16 bytes an entry, are budgeted by
    # _JOIN_ENTRIES: the join of the r = 4 orbit representatives with every
    # diagram stays within 2 MB
    partner = duality._partners(enumerate_diagrams(4))
    reps = duality._sign_blocks(duality._place_swaps(partner), len(partner))[0][0]
    assert len(reps) == 123
    duality._join_rows(partner, reps)
    tracemalloc.start()
    try:
        duality._join_rows(partner, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak


def test_place_swaps_keep_only_what_maps_the_list_onto_itself():
    # both families are closed under the 2 floor(r/2) top and bottom swaps;
    # the group acts on the indices, row 0 of the images holds the least
    # diagram of each orbit, and the characters are orthogonal
    for r, family, orbits in [(2, "all", 6), (3, "all", 32), (4, "all", 123), (4, "brauer", 17),
                              (5, "brauer", 109)]:
        diagrams = enumerate_diagrams(r, family)
        partner = duality._partners(diagrams)
        swaps = duality._place_swaps(partner)
        images, characters, blocks = duality._sign_blocks(swaps, len(diagrams))
        assert len(swaps) == 2 * (r // 2) and images.shape == (2 ** len(swaps), orbits)
        assert sorted(set(images.ravel().tolist())) == list(range(len(diagrams)))
        assert (images.min(axis=0) == images[0]).all()
        # an orbit of k diagrams lies in k blocks, so the blocks hold them all
        assert (characters @ characters.T == len(characters) * np.eye(len(characters))).all()
        assert blocks.sum() == len(diagrams)
    # (1 2) and (1' 2') fix this diagram, (3 4) and (3' 4') move it: the
    # family without it keeps the first two swaps only
    cup = PartialDiagram.make(4, [(1, 2), (3, 7), (4, 8), (5,), (6,)])
    rest = [d for d in enumerate_diagrams(4) if d != cup]
    swaps = duality._place_swaps(duality._partners(rest))
    assert len(swaps) == 2 and image_gram_rank(rest, 4) == 750
    # a repeated diagram drops every swap, and so does a list smaller than
    # the group: these cups are fixed by all four swaps
    ident = PartialDiagram.identity(4)
    assert duality._place_swaps(duality._partners([ident, ident])) == []
    cups = PartialDiagram.make(4, [(1, 2), (3, 4), (5, 6), (7, 8)])
    assert duality._place_swaps(duality._partners([cups])) == []
    assert image_gram_rank([cups, cups], 3) == 1
    # the 16 diagrams that every swap fixes: all four swaps stay, and only
    # the trivial character has orbits
    fixed = [PartialDiagram.make(4, [b for cup, (x, y) in zip(cups_at, [(1, 2), (3, 4), (5, 6), (7, 8)])
                                     for b in ([(x, y)] if cup else [(x,), (y,)])])
             for cups_at in itertools.product([False, True], repeat=4)]
    assert len(duality._place_swaps(duality._partners(fixed))) == 4
    for dim in (1, 2, 3):
        assert image_gram_rank(fixed, dim) == 16 - kernel(rational_gram(fixed, dim))[0], dim


def test_image_gram_rank_edge_cases():
    assert image_gram_rank([], 4) == 0
    with pytest.raises(DomainError):
        image_gram_rank([PartialDiagram.identity(2), PartialDiagram.identity(3)], 4)
    # 2r vertices past the int8 range, and an entry past int64
    assert rational_gram([PartialDiagram.identity(70)] * 2, 2).tolist() == [[2 ** 70] * 2] * 2


def test_image_gram_rank_r4():
    for family, ranks in (("all", {4: 750, 5: 764, 3: 554, 2: 128}), ("brauer", {3: 91, 4: 105, 2: 35})):
        diagrams = enumerate_diagrams(4, family)
        assert {dim: image_gram_rank(diagrams, dim) for dim in ranks} == ranks, family


def test_image_gram_rank_brauer_r5():
    diagrams = enumerate_diagrams(5, "brauer")
    assert [image_gram_rank(diagrams, dim) for dim in (3, 4, 2)] == [603, 903, 126]


@pytest.mark.parametrize("family", ["all", "brauer"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_split_rank_equals_the_whole_gram_rank(r, family):
    diagrams = enumerate_diagrams(r, family)
    for dim in range(1, 6):
        rational = len(diagrams) - kernel(rational_gram(diagrams, dim))[0]
        assert image_gram_rank(diagrams, dim) == rational, (r, family, dim)


@given(st.integers(1, 3), st.integers(1, 5), st.sampled_from(["all", "brauer"]),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_image_gram_rank_matches_rational_elimination(r, dim, family, rnd):
    # the GF(p) rank, certified by a full rank or an exactly verified
    # lifted kernel, is the rank of the rational elimination
    family_list = enumerate_diagrams(r, family)
    subset = rnd.sample(family_list, rnd.randint(1, len(family_list)))
    rational = len(subset) - kernel(rational_gram(subset, dim))[0]
    assert image_gram_rank(subset, dim) == rational


def test_image_gram_rank_lifts_small_kernel_vectors():
    # at dim 4 the 14 kernel vectors of the whole r = 4 Gram matrix lift
    # from GF(p) with entries in {-2, ..., 2} and are exact kernel vectors
    diagrams, p = enumerate_diagrams(4), duality.ENVELOPE_PRIME
    free = free_components(diagrams)
    nullity, vecs = kernel(np.array([pow(4, e, p) for e in range(5)])[free], need_basis=True, prime=p)
    assert nullity == 14 and vecs.shape == (14, 764) and np.abs(vecs).max() == 2
    assert linalg.annihilates(np.array([4 ** e for e in range(5)])[free], vecs.T)
    # past int64 the exact check runs in Python integers
    assert image_gram_rank([PartialDiagram.identity(70)] * 2, 2) == 1


def test_no_per_pair_gram_route():
    # the Gram matrix has one route, the vectorized join on flat gathers:
    # duality neither composes diagrams nor traces their closures one pair
    # at a time, nor gathers labels along broadcast index arrays
    offenders = []
    for node in ast.walk(ast.parse(Path(duality.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and any(a.name == "compose" for a in node.names):
            offenders.append(f"{node.lineno} imports compose")
        elif isinstance(node, ast.Attribute) and node.attr in ("compose", "take_along_axis"):
            offenders.append(f"{node.lineno} uses .{node.attr}")
        elif isinstance(node, ast.FunctionDef) and node.name in (
                "functor_trace", "_closure_free_components"):
            offenders.append(f"{node.lineno} def {node.name}")
    assert not offenders


def test_lambda_count_examples():
    assert lambda_count(4, 0) == 1
    assert lambda_count(4, 2) == 4
    assert lambda_count(2, 2) == 2
    assert lambda_count(2, 3) == 2
    assert lambda_count(4, 1) == 2


def test_lambda_count_large_n_counts_all_partitions():
    # n big enough imposes no constraint: partitions of 0..4 are 1+1+2+3+5
    assert lambda_count(12, 4) == 12


def test_schur_weyl_r1():
    report = schur_weyl_check(rc_exact(), 1, Fraction(1), center=True)
    assert report.dim_commutant == 2
    assert report.dim_diagram_image == 2
    assert report.dim_pb_abstract == 2
    assert report.faithful and report.faithful_expected
    assert report.center_dim == 2 == report.lambda_count
    assert report.ok


def test_schur_weyl_r2_full():
    report = schur_weyl_check(rc_exact(), 2, Fraction(1), center=True)
    assert report.dim_commutant == report.dim_diagram_image == 10
    assert report.dim_pb_abstract == 10
    assert report.faithful  # n = 4 > r = 2
    assert report.center_dim == 4 == report.lambda_count
    assert report.double_centralizer_ok
    assert report.reverse_ok
    assert report.envelope_saturated
    assert report.dim_group_envelope == 44  # 1^2 + 3^2 + 5^2 + 3^2
    assert report.ok


def test_schur_weyl_r2_approx_center():
    report = schur_weyl_check(rc_approx(), 2, Fraction(1), center=True)
    assert report.dim_commutant == report.dim_diagram_image == 10
    assert report.center_dim == 4 == report.lambda_count
    assert report.ok


def test_schur_weyl_delta_prime_invariance():
    r85 = schur_weyl_check(rc_exact(), 2, Fraction(85), center=True)
    r1 = schur_weyl_check(rc_exact(), 2, Fraction(1), center=True)
    assert r85.dim_commutant == r1.dim_commutant
    assert r85.dim_diagram_image == r1.dim_diagram_image
    assert r85.center_dim == r1.center_dim
    assert r85.ok


def test_schur_weyl_r3_approx():
    report = schur_weyl_check(rc_approx(), 3, Fraction(1))
    assert report.dim_commutant == report.dim_diagram_image
    assert report.faithful == (4 > 3) == report.faithful_expected
    assert report.double_centralizer_ok
    assert report.ok


def test_schur_weyl_n3_r3_not_faithful():
    report = schur_weyl_check(rc_approx(3), 3, Fraction(1))
    assert not report.faithful
    assert not report.faithful_expected  # n = 3 <= r = 3
    assert report.dim_diagram_image < report.dim_pb_abstract == 76
    assert report.double_centralizer_ok
    assert report.ok


def test_schur_weyl_refuses_q1():
    rc = RepContext(4, QContext.exact(1))
    with pytest.raises(InadmissibleParameterError):
        schur_weyl_check(rc, 2, Fraction(1))
    # forcing runs the computation; at q = 1 the action degenerates to the
    # symmetric group, whose commutant is strictly bigger
    report = schur_weyl_check(rc, 2, Fraction(1), force=True)
    assert report.forced
    assert report.dim_commutant > report.dim_diagram_image
    assert not report.double_centralizer_ok
    assert not report.ok


def test_schur_weyl_rejects_zero_delta_prime():
    with pytest.raises(DomainError):
        schur_weyl_check(rc_exact(), 2, Fraction(0))


def test_exact_size_gate():
    with pytest.raises(DomainError):
        schur_weyl_check(rc_exact(), 5, Fraction(1))  # 4^5 = 1024 > 256


def test_brauer_duality_cases():
    rep = brauer_duality_check(rc_approx(4), 1)
    assert rep.dim_commutant == 1  # F is irreducible
    assert rep.faithful and rep.faithful_expected

    rep = brauer_duality_check(rc_approx(5), 2)
    assert rep.dim_commutant == 3 == rep.dim_pb_abstract  # dim B_2 = 3
    assert rep.faithful and rep.faithful_expected
    assert rep.ok

    # the genuinely non-faithful regime: dim F = 2 < r = 3
    rep = brauer_duality_check(rc_approx(3), 3)
    assert not rep.faithful
    assert rep.dim_diagram_image == rep.dim_commutant == 10 < 15
    assert rep.double_centralizer_ok


def test_brauer_duality_threshold_sharpness_witness():
    """The stated faithfulness cutoff dim F >= 2r is sufficient but not
    sharp: at n = 3, r = 2 the three Brauer images (identity, swap, and the
    rank-one contraction) stay linearly independent on the 4-dimensional
    space, so the action is faithful even though dim F = 2 < 2r = 4."""
    rep = brauer_duality_check(rc_approx(3), 2)
    assert rep.dim_diagram_image == 3 == rep.dim_pb_abstract
    assert rep.faithful
    assert not rep.faithful_expected  # the stated threshold disagrees
    assert rep.double_centralizer_ok
    # independent confirmation with exact arithmetic
    tc = TensorContext(rc_exact(3), 2, SPACE_REDUCED)
    assert span_dimension(diagram_images(tc, 1)) == 3


def test_each_site_and_generator_image_is_built_once(monkeypatch):
    # the two builders are rebound at every twindual module attribute that
    # holds them, as the benchmark's tracer does, and counted.  One exact
    # run builds the n - 1 site matrices once, and each generator image once:
    # the two-slot commutation proof runs on the context itself at r <= 2,
    # and the reverse check and the center share e_1 and p_1
    calls = collections.Counter()

    def count(func):
        def counted(*args, **kwargs):
            calls[func.__name__] += 1
            return func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "twindual" or name.startswith("twindual."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, attr, counted)

    count(hecke.reflection_in_split_basis)
    count(tensor_action.diagram_matrix)
    for n, r, space, center, images in [(5, 2, SPACE_FULL, False, 4), (5, 2, SPACE_REDUCED, False, 2),
                                        (4, 2, SPACE_FULL, True, 4), (3, 3, SPACE_FULL, True, 6)]:
        calls.clear()
        report = duality.duality_check(rc_exact(n), r, space, center=center)
        assert report.ok and report.reverse_ok and report.center_ok is (True if center else None)
        assert calls == {"reflection_in_split_basis": n - 1, "diagram_matrix": images}, (n, r, space)


def test_center_dimension_direct():
    tc = TensorContext(rc_exact(), 2)
    assert center_dimension(tc, conjugacy_representatives(tc, Fraction(1))) == 4


@pytest.mark.parametrize("make,centers,delta_r3", [
    pytest.param(lambda n: RepContext(n, QContext.exact(2)), {}, Fraction(5), id="exact"),
    pytest.param(lambda n: RepContext(n, QContext.approx(4)), {}, Fraction(1, 3),
                 id="approx"),
    pytest.param(lambda n: RepContext(n, QContext.approx(2 + 1j)), {}, Fraction(1), id="complex"),
    pytest.param(lambda n: RepContext(n, QContext.exact(1)), {(4, 2): 5, (3, 3): 6}, Fraction(1, 3),
                 id="forced-q1")])
def test_center_matches_generic_oracle(make, centers, delta_r3):
    # the definition: the generic commutant of the group generators and
    # every algebra generator, on all m^2 unknowns.  It is #lambda except at
    # the excluded q = 1, where the double centralizer fails.  The r = 3
    # oracle (729 unknowns) takes one delta' per field, to stay quick
    all_deltas = (Fraction(1), Fraction(5), Fraction(1, 3))
    for n, r in [(3, 1), (3, 2), (4, 1), (4, 2), (3, 3)]:
        tc = TensorContext(make(n), r)
        for delta_prime in all_deltas if r < 3 else (delta_r3,):
            oracle = commutant_dimension(
                group_generators(tc) + algebra_generator_images(tc, delta_prime))
            assert oracle == centers.get((n, r), lambda_count(n, r)), (n, r, delta_prime)
            reps = conjugacy_representatives(tc, delta_prime)
            assert center_dimension(tc, reps) == oracle, (n, r, delta_prime)


def one_site(tc):
    """The one-site group generators, whose r-th tensor powers act on the
    tensor power."""
    return tc.sites


def tensor_envelope(generators, prime=None):
    """Oracle for the envelope: the words in the tensor-size generators,
    multiplied out as m x m matrices and tracked in m^2 columns, one word
    length at a time until a length grows nothing, each level every word
    whose row grew the span times every generator; with a prime, over
    GF(p)."""
    m = generators[0].rows
    gens = np.stack([g.data for g in generators])
    if prime is not None:
        gens = (gens % prime).astype(np.int64)
    tracker = linalg.SpanTracker(prime)
    words = np.eye(m, dtype=gens.dtype)[None]
    while len(words):
        words = words[tracker.add_matrix(words.reshape(len(words), -1))]
        words = (words[:, None] @ gens).reshape(-1, m, m)
        if prime is not None:
            words %= prime
    return tracker.dimension


def test_enveloping_span_r1():
    tc = TensorContext(rc_exact(), 1)
    # 1 + 3^2: the enveloping algebra of a 1+3 splitting
    assert enveloping_span_dimension(one_site(tc), 1) == 10


@pytest.mark.parametrize("n,r,space,envelope", [
    (3, 2, SPACE_FULL, 10), (4, 2, SPACE_FULL, 44), (4, 2, SPACE_REDUCED, 35),
    (3, 3, SPACE_FULL, 14)])
def test_envelope_dimension_is_pinned_and_scale_free(n, r, space, envelope):
    # the reverse check's two sides agree in both modes, and scaling every
    # generator by a nonzero rational moves neither them nor the center
    for rc in (rc_exact(n), rc_approx(n)):
        tc = TensorContext(rc, r, space)
        gens, alg = group_generators(tc), algebra_generator_images(tc, Fraction(3, 2))
        reps = conjugacy_representatives(tc, Fraction(3, 2))
        center = center_dimension(tc, reps)
        mats = (one_site(tc), gens, alg, reps)
        scaled = [[m.scale(Fraction(2, 3)) for m in family] for family in mats]
        for sites, g, a, e in (mats, scaled):
            assert enveloping_span_dimension(sites, r) == envelope, rc.mode
            assert commutant_dimension(a) == envelope, rc.mode
            assert commutant_dimension(g + e, slots=r) == center, rc.mode


@pytest.mark.parametrize("field", ["Q", "p", "approx", "complex", "coarse"])
@pytest.mark.parametrize("n,r,space", [(3, 2, SPACE_FULL), (4, 2, SPACE_FULL),
                                       (4, 2, SPACE_REDUCED), (3, 3, SPACE_FULL),
                                       (5, 2, SPACE_REDUCED)])
def test_envelope_matches_tensor_word_oracle(monkeypatch, n, r, space, field):
    # the search on one-site words in orbit coordinates finds the span of
    # the search on tensor-size words in m^2 columns: over Q, over GF(p),
    # and in approx mode at sqrt q = 2 and at q = 2 + i.  At
    # sqrt q = 101/100 and a cutoff of 1e-4 ("coarse") some residuals lie
    # near 1e-4 |v|, so the approx rows must keep every inner product of the
    # tensor-size ones (the sqrt(|orbit|) scaling) to accept the same words
    make = {"Q": rc_exact, "p": rc_exact, "approx": rc_approx,
            "complex": lambda n: RepContext(n, QContext.approx(2 + 1j)),
            "coarse": lambda n: RepContext(n, QContext.approx(Fraction(101, 100) ** 2))}
    tc = TensorContext(make[field](n), r, space)
    if field == "coarse":
        monkeypatch.setattr(linalg, "TOLERANCE", 1e-4)
    prime = duality.ENVELOPE_PRIME if field == "p" else None
    expected = tensor_envelope(group_generators(tc), prime)
    assert enveloping_span_dimension(one_site(tc), r, prime) == expected


@pytest.mark.parametrize("n,r,space,envelope", [(4, 3, SPACE_FULL, 119),
                                                (4, 4, SPACE_REDUCED, 165),
                                                (4, 4, SPACE_FULL, 249)])
def test_envelope_past_the_reverse_check_size(n, r, space, envelope):
    # past REVERSE_CHECK_DIM a direct call reaches the GF(p) envelope, which
    # is the sum over the O(n - 1) irreps lambda of dim(lambda)^2 (ROADMAP
    # item 3): 119 = 1 + 9 + 25 + 9 + 49 + 25 + 1 at n = 4, r = 3
    tc = TensorContext(rc_exact(n), r, space)
    assert tc.dim > duality.REVERSE_CHECK_DIM
    assert enveloping_span_dimension(one_site(tc), r, prime=duality.ENVELOPE_PRIME) == envelope


@pytest.mark.parametrize("n,r,space,envelope,sqrt_q", [
    pytest.param(3, 3, SPACE_FULL, 14, "1001/1000", id="3-3-E-14"),
    pytest.param(5, 2, SPACE_REDUCED, 118, "1001/1000", id="5-2-F-118"),
    pytest.param(4, 2, SPACE_REDUCED, 35, "1001/1000", id="4-2-F-35"),
    pytest.param(5, 2, SPACE_FULL, 134, "101/100", id="5-2-E-134-101/100")])
def test_near_one_exact_envelopes_are_pinned(n, r, space, envelope, sqrt_q):
    # near q = 1 the GF(p) and the rational searches both give the span the
    # approx search misses (12, 121, 36 and 136; ROADMAP item 5)
    tc = TensorContext(RepContext(n, QContext.exact(Fraction(sqrt_q))), r, space)
    for prime in (duality.ENVELOPE_PRIME, None):
        assert enveloping_span_dimension(one_site(tc), r, prime=prime) == envelope


def test_approx_envelope_rows_stay_orthonormal_near_one(monkeypatch):
    # near q = 1 the kept rows of the approx search stay orthonormal to
    # rounding, since each word is projected off them twice
    trackers = []

    class Recorded(linalg.SpanTracker):
        def __init__(self, *args):
            super().__init__(*args)
            trackers.append(self)

    monkeypatch.setattr(duality, "SpanTracker", Recorded)
    tc = TensorContext(RepContext(5, QContext.approx(Fraction(1001, 1000) ** 2)), 2,
                       SPACE_REDUCED)
    enveloping_span_dimension(one_site(tc), 2)
    (tracker,) = trackers
    u = np.array(tracker._rows)
    assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-12


@pytest.mark.parametrize("n,r,space,q,envelope", [
    *((n, r, space, sqrt_q, envelope) for sqrt_q in ("2", "3", "3/2", "5/2", "7/3")
      for n, r, space, envelope in ((3, 3, SPACE_FULL, 14), (5, 2, SPACE_REDUCED, 118),
                                    (4, 2, SPACE_REDUCED, 35))),
    (4, 2, SPACE_FULL, "1001/1000", 44), (3, 3, SPACE_FULL, 2 + 1j, 14)])
def test_approx_bench_envelopes_are_pinned(n, r, space, q, envelope):
    # the envelope of each approx duality run with a reverse check on the
    # benchmark's approx grid: at every sqrt q the grid draws, at its
    # near-one sqrt q and at its complex q
    qc = QContext.approx(q) if isinstance(q, complex) else QContext.approx(Fraction(q) ** 2)
    assert duality.duality_check(RepContext(n, qc), r, space).dim_group_envelope == envelope


def test_prime_is_refused_in_approx_mode():
    # a GF(p) dimension of float arrays means nothing: both commutants refuse
    tc = TensorContext(RepContext(4, QContext.approx(Fraction(9, 4))), 2)
    with pytest.raises(ValueError, match="exact mode"):
        group_commutant(tc, prime=duality.ENVELOPE_PRIME)
    with pytest.raises(ValueError, match="exact mode"):
        commutant_dimension(group_generators(tc), prime=duality.ENVELOPE_PRIME)


@pytest.mark.parametrize("n,space", [(4, SPACE_FULL), (5, SPACE_FULL), (5, SPACE_REDUCED)])
def test_reverse_check_bad_prime_falls_back(monkeypatch, n, space):
    # at a prime that divides the generators' scale 625 (sqrt q = 2), or at
    # 2, the GF(p) envelope falls short of the algebra commutant, so the
    # rational search runs and the report is the default prime's
    fields = ("dim_group_envelope", "envelope_saturated", "reverse_ok")

    def reverse_fields():
        rep = duality.duality_check(rc_exact(n), 2, space)
        return {f: getattr(rep, f) for f in fields}

    calls = []

    def recorded(sites, *args, prime=None, **kwargs):
        calls.append(prime)
        return enveloping_span_dimension(sites, *args, prime=prime, **kwargs)

    monkeypatch.setattr(duality, "enveloping_span_dimension", recorded)
    expected = reverse_fields()
    assert calls == [duality.ENVELOPE_PRIME] and expected["reverse_ok"] is True
    for prime in (5, 2):
        calls.clear()
        monkeypatch.setattr(duality, "ENVELOPE_PRIME", prime)
        assert reverse_fields() == expected, prime
        assert calls == [prime, None], prime


def test_bad_prime_falls_back_everywhere(monkeypatch):
    # at a tiny prime, or at 5, which divides the generators' scale 625
    # (sqrt q = 2), each dimension below falls back to rational elimination,
    # and the answer is unchanged.  The image rank of the 10 diagrams at
    # r = 2 splits into sign blocks of 6, 1, 1 and 2 orbits over the four
    # characters of the two place swaps; |H|^2 = 16 >= p/2, so each block
    # of deficient GF(p) rank goes straight to Q.  The group commutant's d_4
    # has 21 unknowns (the labels of P^(x)4 that hold each odd root an even
    # number of times), and the reverse check's algebra commutant 55 =
    # C(11, 2) (the orbit sums of the S_2-symmetric 16 x 16 matrices that
    # p_1 keeps: each pair holds index 0 twice or not at all)
    calls = []

    def recorded(system, *args, prime=None, **kwargs):
        calls.append((prime is None, system.shape[1]))
        return kernel(system, *args, prime=prime, **kwargs)

    def sizes():
        # the widths of the GF(p) systems and of the rational ones since the last read
        widths = [n for q, n in calls if not q], [n for q, n in calls if q]
        calls.clear()
        return widths

    monkeypatch.setattr(duality, "kernel", recorded)
    diagrams = enumerate_diagrams(2)
    expected = duality.duality_check(rc_exact(4), 2, SPACE_FULL).to_json()
    assert sizes()[1] == [] and expected["reverse_ok"]
    assert image_gram_rank(diagrams, 4) == 10 and sizes() == ([6, 1, 1, 2], [])
    for prime, fallback in ((2, [6, 2]), (3, [6, 1, 1, 2]), (5, [6])):
        monkeypatch.setattr(duality, "ENVELOPE_PRIME", prime)
        assert image_gram_rank(diagrams, 4) == 10 and sizes() == ([6, 1, 1, 2], fallback), prime
        assert duality.duality_check(rc_exact(4), 2, SPACE_FULL).to_json() == expected, prime
        assert {21, 55} <= set(sizes()[1]), prime


def test_image_closed_form_matches_the_gram_rank():
    # the closed form against the rank of the enumerated diagrams' Gram
    # matrix, on E and F at every r <= 4 and n = 2..7, and Brauer r = 5
    for r in range(1, 5):
        for space, family in FAMILY.items():
            diagrams = enumerate_diagrams(r, family)
            for n in range(2, 8):
                tc = TensorContext(rc_exact(n), r, space)
                gram = image_gram_rank(diagrams, tc.local_dim)
                assert diagram_image_dimension(tc) == gram, (n, r, space)
    brauer = enumerate_diagrams(5, "brauer")
    for n, image in ((3, 126), (4, 603), (5, 903)):
        tc = TensorContext(rc_exact(n), 5, SPACE_REDUCED)
        assert diagram_image_dimension(tc) == image_gram_rank(brauer, tc.local_dim) == image, n


def test_duality_enumerates_no_diagram(monkeypatch):
    # the diagram count is the involution count, and the image its closed
    # form, so r = 5 on E (9496 diagrams) runs without listing one
    counts = {(r, space): len(enumerate_diagrams(r, family))
              for r in range(1, 6) for space, family in FAMILY.items()}

    def refuse(*args):
        raise AssertionError("diagrams enumerated")

    for module in (diagrams_module, duality, tensor_action):
        monkeypatch.setattr(module, "enumerate_diagrams", refuse, raising=False)
    images = {}
    for (r, space), count in counts.items():
        report = duality.duality_check(rc_exact(2 if space == SPACE_FULL else 3), r, space)
        assert report.dim_pb_abstract == count, (r, space)
        assert report.dim_commutant == report.dim_diagram_image, (r, space)
        images[r, space] = report.dim_diagram_image
    assert images[5, SPACE_FULL] == 512 and images[5, SPACE_REDUCED] == 126


def test_exact_routes_run_without_rational_elimination(monkeypatch):
    # every exact dimension of these runs is certified over GF(p): each
    # sign block of the image rank by a full rank or a lifted kernel
    def refuse(*args):
        raise AssertionError("rational elimination ran")

    monkeypatch.setattr(linalg, "_echelon_int", refuse)
    for dim, rank in ((4, 750), (5, 764), (3, 554), (2, 128)):
        assert image_gram_rank(enumerate_diagrams(4), dim) == rank
    assert image_gram_rank(enumerate_diagrams(5, "brauer"), 3) == 603
    report = duality.duality_check(rc_exact(4), 3, SPACE_FULL)
    assert report.dim_commutant == report.dim_diagram_image == 76
    assert report.ok


@pytest.mark.parametrize("n,r,space", [(3, 2, SPACE_FULL), (4, 2, SPACE_FULL),
                                       (3, 3, SPACE_FULL), (4, 2, SPACE_REDUCED)])
def test_modular_commutants_bound_the_rational_ones(n, r, space):
    # at a good prime the GF(p) dimensions equal the rational ones; at 5,
    # which divides the scale at sqrt q = 2, they can only be larger
    tc = TensorContext(rc_exact(n), r, space)
    alg = algebra_generator_images(tc, Fraction(85))
    rational = group_commutant(tc), commutant_dimension(alg)
    for prime in (duality.ENVELOPE_PRIME, 5):
        modular = (group_commutant(tc, prime=prime),
                   commutant_dimension(alg, prime=prime))
        assert all(m >= q for m, q in zip(modular, rational)), prime
        if prime == duality.ENVELOPE_PRIME:
            assert modular == rational


def test_schur_weyl_complex_q():
    # a genuinely complex parameter exercises the bilinear (non-Hermitian)
    # orthonormal basis path through the whole pipeline
    rc = RepContext(3, QContext.approx(2 + 1j))
    rep = schur_weyl_check(rc, 2, Fraction(1), center=True)
    assert rep.dim_commutant == rep.dim_diagram_image == 10
    assert rep.faithful  # n = 3 > r = 2
    assert rep.center_dim == 4 == rep.lambda_count
    assert rep.ok


def test_brauer_duality_complex_q():
    rep = brauer_duality_check(RepContext(4, QContext.approx(2 + 1j)), 2)
    assert rep.dim_commutant == rep.dim_diagram_image == 3 == rep.dim_pb_abstract
    assert rep.faithful  # dim F = 3 >= r = 2, another witness that the
    assert not rep.faithful_expected  # stated 2r cutoff is only sufficient
    assert rep.double_centralizer_ok


def test_duality_relation_check_all_spaces():
    # every group generator commutes with every algebra generator image
    for tc, delta_prime in ((TensorContext(rc_exact(), 2), Fraction(5)),
                            (TensorContext(rc_approx(), 2), 5.0),
                            (TensorContext(rc_approx(5), 2, SPACE_REDUCED), 1)):
        for g in group_generators(tc):
            for a in algebra_generator_images(tc, delta_prime):
                assert (g @ a - a @ g).is_zero(), tc.space


def test_commutation_failure_raises(monkeypatch):
    # a group generator that fails to commute at two slots is a construction
    # bug: exact duality_check raises instead of reporting
    build = duality.group_generators

    def perturbed(tc):
        gens = build(tc)
        if tc.r == 2:
            unit = np.zeros((tc.dim, tc.dim), dtype=object)
            unit[0, 1] = 1
            gens[0] = gens[0] + Matrix.of(tc.mode, unit)
        return gens

    monkeypatch.setattr(duality, "group_generators", perturbed)
    with pytest.raises(ArithmeticError, match="t_1 does not commute"):
        schur_weyl_check(rc_exact(), 3)


def test_report_short_of_a_promised_faithful_image_is_not_ok():
    # n > r on E promises a faithful action; an image below dim PB_r fails
    # although the commutant matches it
    report = DualityReport(n=4, r=2, q=Fraction(4), delta_prime=Fraction(1), space=SPACE_FULL,
                           mode="exact", dim_commutant=9, dim_diagram_image=9,
                           dim_pb_abstract=10, admissibility=is_q_admissible(Fraction(4), 4))
    assert report.faithful_expected and report.double_centralizer_ok
    assert not report.faithful and not report.ok


def test_report_json_shape():
    report = schur_weyl_check(rc_exact(), 2, Fraction(1), center=True)
    j = report.to_json()
    for key in ("dim_commutant", "dim_diagram_image", "dim_pb_abstract",
                "faithful", "double_centralizer_ok", "center_dim",
                "lambda_count", "admissibility", "ok"):
        assert key in j
