import ast
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twindual
from twindual.duality import ENVELOPE_PRIME, enveloping_span_dimension
from twindual.hecke import RepContext, reduced_gram_matrix
from twindual.linalg import (
    Matrix,
    SpanTracker,
    annihilates,
    commutator,
    determinant,
    echelon_mod_p,
    kernel,
    kron,
    kron_power,
    nullspace,
    rank,
    span_dimension,
    stack_rows,
)
from twindual.scalars import TOLERANCE, QContext


def frac_matrix(rng, rows, cols, span=6):
    return Matrix.exact(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    )


def test_matmul_identity():
    rng = random.Random(0)
    a = frac_matrix(rng, 3, 3)
    assert (Matrix.identity(3) @ a).equals(a)
    assert (a @ Matrix.identity(3)).equals(a)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)


def test_kron_identity_sizes():
    assert kron(Matrix.identity(2), Matrix.identity(3)).equals(Matrix.identity(6))
    a = Matrix.exact([[1, 2], [3, 4]])
    assert kron(a, a).shape == (4, 4)


def test_kron_mixed_product():
    rng = random.Random(1)
    a, b = frac_matrix(rng, 2, 3), frac_matrix(rng, 2, 2)
    c, d = frac_matrix(rng, 3, 2), frac_matrix(rng, 2, 3)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert lhs.equals(rhs)


def test_kron_realizes_diagonal_action():
    rng = random.Random(2)
    g = frac_matrix(rng, 3, 3)
    u = frac_matrix(rng, 3, 1)
    v = frac_matrix(rng, 3, 1)
    tensor = kron(u, v)
    assert (kron(g, g) @ tensor).equals(kron(g @ u, g @ v))


def test_commutator_examples():
    a = Matrix.exact([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])   # e12 - e21
    b = Matrix.exact([[0, 0, 0], [0, 0, 1], [0, -1, 0]])   # e23 - e32
    expected = Matrix.exact([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])  # e13 - e31
    assert commutator(a, b).equals(expected)
    assert commutator(a, a).is_zero()
    assert commutator(Matrix.identity(3), b).is_zero()


def test_nullspace_examples():
    dim, basis = nullspace(Matrix.zero(4, 4))
    assert dim == 4 and len(basis) == 4
    dim, basis = nullspace(Matrix.exact([[2, 1], [1, 1]]))
    assert dim == 0 and basis == []
    dim, basis = nullspace(Matrix.exact([[1, -1]]))
    assert dim == 1
    v = basis[0]
    assert v[(0, 0)] == v[(1, 0)] != 0


def test_nullspace_vectors_are_kernel_vectors():
    rng = random.Random(3)
    a = frac_matrix(rng, 4, 7)
    dim, basis = nullspace(a)
    assert dim + rank(a) == 7
    for v in basis:
        assert (a @ v).is_zero()


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=25, deadline=None)
def test_rank_nullity_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    a = frac_matrix(rng, rows, cols)
    dim, _ = nullspace(a)
    assert dim + rank(a) == cols


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=25, deadline=None)
def test_exact_and_approx_rank_agree(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    a = frac_matrix(rng, rows, cols, span=4)
    assert rank(a) == rank(a.to_approx())


def test_span_dimension_examples():
    i2 = Matrix.identity(2)
    assert span_dimension([i2, i2.scale(2)]) == 1
    units = [
        Matrix.exact([[1, 0], [0, 0]]),
        Matrix.exact([[0, 1], [0, 0]]),
        Matrix.exact([[0, 0], [1, 0]]),
        Matrix.exact([[0, 0], [0, 1]]),
    ]
    assert span_dimension(units) == 4
    with pytest.raises(ValueError):
        span_dimension([i2, Matrix.identity(3)])


def test_matrix_pow():
    a = Matrix.exact([[1, 1], [0, 1]])
    assert a.pow(0).is_identity()
    assert a.pow(5)[(0, 1)] == 5
    # against repeated products: equal in exact mode (the stored pair is
    # reduced either way), within float rounding in approx mode
    rng = np.random.default_rng(3)
    b = Matrix.exact([[Fraction(int(x), 6) for x in row] for row in rng.integers(-5, 6, (3, 3))])
    c = Matrix.approx(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    for m, tol in ((b, 0), (c, 1e-12)):
        product = Matrix.identity(3, m.mode)
        for k in range(8):
            assert m.pow(k).mode == m.mode
            assert m.pow(k).equals(product, tol)
            product = product @ m
    with pytest.raises(ValueError, match="non-square"):
        Matrix.zero(2, 3).pow(2)
    with pytest.raises(ValueError, match="negative"):
        a.pow(-1)


def laplace_determinant(rows: list) -> object:
    """Oracle: cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * x * laplace_determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def test_determinant_examples():
    # a zero (1, 1) entry swaps two rows and flips the sign
    assert determinant(Matrix.exact([[0, 2, 1], [3, 1, 0], [1, 0, 0]])) == -1
    # singular, over den 2
    assert determinant(Matrix.exact([[1, 2], [Fraction(1, 2), 1]])) == 0
    # a zero pivot after the first step: the rows below swap in again
    assert determinant(Matrix.exact([[1, 2, 3], [2, 4, 5], [0, 1, 1]])) == 1
    assert determinant(Matrix.exact([[Fraction(1, 3), 0], [0, Fraction(3, 4)]])) == Fraction(1, 4)
    assert determinant(Matrix.zero(0, 0)) == 1
    with pytest.raises(ValueError):
        determinant(Matrix.zero(2, 3))


@pytest.mark.parametrize("seed", range(4))
def test_determinant_matches_laplace_oracle(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[0][0] = Fraction(0)  # a zero leading pivot
        if n > 1 and rng.random() < 0.2:
            rows[-1] = [2 * x for x in rows[0]]  # singular
        det = determinant(Matrix.exact(rows))
        assert isinstance(det, Fraction) and det == laplace_determinant(rows), rows
    # approx mode is numpy's determinant of the stored array
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        det = determinant(Matrix.approx(rows))
        assert det == complex(np.linalg.det(np.array(rows)))
        assert abs(det - laplace_determinant(rows)) < 1e-9


def test_determinant_of_the_leading_gram_minors():
    for s in (2, 3, Fraction(3, 2), Fraction(7, 3)):
        gram = reduced_gram_matrix(RepContext(5, QContext.exact(s)))
        for k in range(1, 5):
            minor = gram[:k, :k]
            rows = [[minor[i, j] for j in range(k)] for i in range(k)]
            assert determinant(minor) == laplace_determinant(rows) != 0


def test_placed_matches_the_written_grid():
    for mode in ("exact", "approx"):
        q = Fraction(9, 4) if mode == "exact" else 2 + 1j
        on_zero = Matrix.placed(mode, 3, {(0, 1): q, (2, 0): -1})
        assert on_zero.equals(Matrix.of(mode, [[0, q, 0], [0, 0, 0], [-1, 0, 0]]))
        on_identity = Matrix.placed(mode, 3, {(1, 1): 0, (1, 2): q}, identity=True)
        assert on_identity.equals(Matrix.of(mode, [[1, 0, 0], [0, 0, q], [0, 0, 1]]))
        assert Matrix.placed(mode, 2, {}, identity=True).equals(Matrix.identity(2, mode))
    # a real approx grid is stored as a float array, as Matrix.approx stores it
    assert Matrix.placed("approx", 2, {(0, 0): -1}, identity=True).data.dtype == np.float64


def test_span_tracker_matches_batch_rank():
    # rows added in blocks grow the same span as one row at a time, and
    # each call returns one index per dimension it added; over GF(p) the rank
    # of integer vectors never exceeds their rational rank, and at a large
    # prime it equals it here
    rng = random.Random(7)
    mats = [frac_matrix(rng, 3, 3) for _ in range(8)]
    dependent = mats[:3] + [mats[0] + mats[1].scale(2), mats[2].scale(-3)] + mats[3:5]
    witness = [Matrix.exact([[1, 1], [1, -1]]), Matrix.exact([[1, -1], [-1, -1]])]
    trackers = {"Q": lambda: SpanTracker(), "approx": lambda: SpanTracker(),
                "p": lambda: SpanTracker(prime=ENVELOPE_PRIME),
                "2": lambda: SpanTracker(prime=2)}
    for family in (mats, dependent, witness):
        k, stacked = len(family), stack_rows(family)
        integer, floats = stacked.data, stacked.to_approx().data
        for ends in (range(1, k + 1), sorted({min(3, k), k}), [k]):
            dims = {}
            for field, make in trackers.items():
                tracker, lo, dims[field] = make(), 0, []
                for hi in ends:
                    before = tracker.dimension
                    added = tracker.add_matrix((floats if field == "approx" else integer)[lo:hi])
                    assert len(added) == tracker.dimension - before, field
                    dims[field].append(tracker.dimension)
                    lo = hi
            expected = [span_dimension(family[:hi]) for hi in ends]
            assert dims["Q"] == dims["approx"] == dims["p"] == expected, list(ends)
            assert all(d <= e for d, e in zip(dims["2"], expected)), list(ends)
    assert dims["2"][-1] == 1 < span_dimension(witness)  # equal mod 2


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=30, deadline=None)
def test_span_tracker_returns_the_first_independent_rows(seed):
    # an integer family with planted dependencies (combinations of earlier
    # rows, zero rows, repeats): over Q and at a large prime,
    # every block split returns the indices of the first independent rows,
    # in order; in approx mode the returned rows span the same space
    rng = random.Random(seed)
    cols = rng.randint(4, 7)
    # unit leading entries at distinct columns: the basis is independent
    basis = [[0] * i + [1] + [rng.randint(-9, 9) for _ in range(cols - i - 1)] for i in range(4)]
    rows, independent = [], []
    for b in basis:
        independent.append(len(rows))
        rows.append(b)
        for _ in range(rng.randint(0, 2)):
            (u, v), (a, c) = rng.choices(rows, k=2), rng.choices(range(-5, 6), k=2)
            rows.append(rng.choice([[a * x + c * y for x, y in zip(u, v)], [0] * cols, u]))
    family = np.array(rows, dtype=object)
    cuts = sorted(rng.sample(range(1, len(rows)), rng.randint(0, len(rows) - 1)))
    for field, tracker in (("Q", SpanTracker()),
                           ("p", SpanTracker(prime=ENVELOPE_PRIME)),
                           ("approx", SpanTracker())):
        got, lo = [], 0
        for hi in cuts + [len(rows)]:
            block = family[lo:hi].astype(float) if field == "approx" else family[lo:hi]
            got += [lo + i for i in tracker.add_matrix(block)]
            lo = hi
        if field == "approx":
            assert len(got) == rank(Matrix.exact([rows[i] for i in got])) == rank(Matrix.exact(rows))
        else:
            assert got == independent, (field, cuts)


def test_approx_span_tracker_stops_at_the_row_length(monkeypatch):
    # at a cutoff of 1e-16, one projection off a full span leaves residuals
    # of about 3e-16 |v|, above it; the second leaves about 1e-31 |v|, so a
    # span as long as its rows accepts no more
    monkeypatch.setattr("twindual.linalg.TOLERANCE", 1e-16)
    tracker = SpanTracker()
    added = tracker.add_matrix(np.random.default_rng(0).standard_normal((40, 12)))
    assert added == list(range(12)) and tracker.dimension == 12
    assert tracker.add_matrix(np.eye(12)) == []



@pytest.mark.parametrize("seed", range(6))
def test_approx_span_tracker_matches_an_svd_rank_oracle(seed):
    # on well-conditioned random complex blocks a row grows the span exactly
    # when the SVD rank of the kept rows plus that row grows, at kernel's
    # cutoff sigma > TOLERANCE sigma_1; the blocks hold combinations,
    # multiples and a zero row, and the last one more rows than the span
    # has room for
    rng = np.random.default_rng(seed)
    cols = 9

    def draw(rows):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    base = draw(4)
    blocks = [np.vstack([base[:2], base[0] - 2j * base[1], base[2:]]),
              np.vstack([draw(2), (1 + 1j) * base[3:], np.zeros((1, cols))]),
              draw(2 * cols)]
    tracker, kept = SpanTracker(), np.zeros((0, cols), dtype=complex)
    for block in blocks:
        expected = []
        for i, v in enumerate(block):
            trial = np.vstack([kept, v])
            if cols - kernel(trial)[0] > len(kept):
                kept = trial
                expected.append(i)
        assert tracker.add_matrix(block) == expected
    assert tracker.dimension == len(kept) == cols

@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_modular_elimination_matches_rational_rank(seed):
    # the pivots never outnumber the rational rank and match it at a large
    # prime; the lifted kernel basis is a kernel basis mod p
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    ints = [[rng.choice([0, 0, 1, -1, rng.randint(-40, 40)]) for _ in range(cols)]
            for _ in range(rows)]
    exact = rank(Matrix.exact(ints))
    for prime in (ENVELOPE_PRIME, 3):
        a = np.array(ints, dtype=np.int64)
        pivot_rows, pivot_cols = echelon_mod_p(a, prime)
        assert len(pivot_rows) <= exact
        assert len(pivot_rows) == exact or prime == 3
        for i, c in zip(pivot_rows, pivot_cols):
            assert not a[i, :c].any() and a[i, c] == 1 and (0 <= a[i]).all() and (a[i] < prime).all()
        nullity, vecs = kernel(np.array(ints, dtype=np.int64), need_basis=True, prime=prime)
        assert vecs.shape == (nullity, cols) == (cols - len(pivot_cols), cols)
        assert not (np.array(ints, dtype=np.int64) @ vecs.T % prime).any()
    if exact < cols:
        # a rational kernel vector, checked in Python integers past int64
        v = nullspace(Matrix.exact(ints))[1][0].data
        assert annihilates(np.array(ints, dtype=object) * 2 ** 70, v)


def row_reduce_mod_p(rows, p):
    """Oracle for ``echelon_mod_p``: plain GF(p) row reduction in Python
    integers, each column's pivot the first row not yet a pivot that is
    nonzero there; returns the (row, column) pivots and the reduced rows."""
    work = [[x % p for x in row] for row in rows]
    free, pivots = list(range(len(work))), []
    for c in range(len(work[0])):
        i = next((i for i in free if work[i][c]), None)
        if i is None:
            continue
        inv = pow(work[i][c], -1, p)
        work[i] = [x * inv % p for x in work[i]]
        free.remove(i)
        for k in free:
            f = work[k][c]
            work[k] = [(x - f * y) % p for x, y in zip(work[k], work[i])]
        pivots.append((i, c))
    return pivots, work


@pytest.mark.parametrize("prime", [ENVELOPE_PRIME, 2])
@pytest.mark.parametrize("seed", range(12))
def test_modular_elimination_matches_python_row_reduction(seed, prime):
    # zero rows, zero columns and repeated rows, up to 299 rows so that
    # some updates span several 128-row chunks: every column is scanned,
    # and each pivot and reduced row is the one plain row reduction gives
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 300)), int(rng.integers(1, 40))
    a = rng.choice(np.array([0, 0, 0, 1, -1, 2, 7, -40, 2 ** 40]), size=(rows, cols))
    a[rng.random(rows) < 0.2] = 0
    a[:, rng.random(cols) < 0.2] = 0
    copies = rng.integers(0, rows, size=rows // 3)
    a[rng.integers(0, rows, size=copies.size)] = a[copies] * rng.integers(-3, 4, size=(copies.size, 1))
    pivots, reduced = row_reduce_mod_p(a.tolist(), prime)
    work = a.copy()
    pivot_rows, pivot_cols = echelon_mod_p(work, prime)
    assert list(zip(pivot_rows, pivot_cols)) == pivots
    assert (work % prime).tolist() == reduced


def test_modular_guard_raises_before_allocating(monkeypatch):
    # sums of products of residues mod a prime near 2^31 leave int64 with
    # only two columns; the guard refuses before the tracker keeps a row,
    # and before the envelope search multiplies two residue words
    prime = 2147483659
    with pytest.raises(ValueError, match="overflow int64"):
        echelon_mod_p(np.zeros((3, 2), dtype=np.int64), prime)
    with pytest.raises(ValueError, match="overflow int64"):
        kernel(np.zeros((1, 2), dtype=np.int64), need_basis=True, prime=prime)
    tracker = SpanTracker(prime=prime)
    with pytest.raises(ValueError, match="overflow int64"):
        tracker.add_matrix(np.ones((1, 2), dtype=np.int64))
    assert tracker.dimension == 0

    def refuse(*args):
        raise AssertionError("the envelope search reached the tracker")

    monkeypatch.setattr(SpanTracker, "add_matrix", refuse)
    with pytest.raises(ValueError, match="overflow int64"):
        enveloping_span_dimension([Matrix.exact([[0, 1], [1, 0]])], 2, prime=prime)
    monkeypatch.undo()
    echelon_mod_p(np.zeros((3, 2), dtype=np.int64), ENVELOPE_PRIME)
    # the exact product check moves to Python integers past int64
    assert not annihilates(np.array([[2 ** 70, 1]], dtype=object), np.array([[1], [-2 ** 69]]))
    assert annihilates(np.array([[1, 2 ** 70]], dtype=object), np.array([[2 ** 70], [-1]]))


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=30, deadline=None)
def test_block_annihilates_matches_exact_commutator(seed):
    # the commutation check of exact duality_check: g a - a g = [g | -a] [a ; g],
    # on integer forms whose products leave int64 at span 10^12
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    mats = [frac_matrix(rng, m, m, span=rng.choice([2, 10 ** 12])) for _ in range(3)]
    mats.append(mats[0] @ mats[0] + mats[0].scale(3))  # commutes with mats[0]
    g = mats[0].data
    for y in mats[rng.randint(1, 3):]:
        a = y.data
        expected = commutator(mats[0], y).is_zero()
        assert annihilates(np.hstack([g, -a]), np.vstack([a, g])) == expected


def test_approx_nullspace_orthonormal_kernel():
    arr = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    dim, basis = nullspace(Matrix.approx(arr))
    assert dim == 2
    for v in basis:
        assert np.allclose(arr @ v.data, 0, atol=1e-12)


def test_stack_rows_shape():
    mats = [Matrix.identity(2), Matrix.zero(2, 2)]
    stacked = stack_rows(mats)
    assert stacked.shape == (2, 4)


def test_kron_power():
    g = Matrix.exact([[0, 1], [1, 0]])
    g3 = kron_power(g, 3)
    assert g3.shape == (8, 8)
    assert (g3 @ g3).is_identity()


def test_matrix_json_roundtrip():
    m = Matrix.exact([[Fraction(-3, 7), 2], [0, Fraction(10) ** 12]])
    back = Matrix.from_json(m.to_json())
    assert back.equals(m)
    a = Matrix.approx(np.array([[0.5, -1.25 + 2j]]))
    back = Matrix.from_json(a.to_json())
    assert back.equals(a, 0)


def test_tall_stack_rank_keeps_relative_singular_value_cutoff():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((70, 70))
    tall = np.vstack([base for _ in range(5)])  # 350 x 70, rank 70
    assert rank(Matrix.approx(tall)) == 70
    deficient = tall.copy()
    deficient[:, -1] = deficient[:, 0]
    dim, basis = nullspace(Matrix.approx(deficient))
    assert dim == 1
    assert np.allclose(deficient @ basis[0].data, 0, atol=1e-8)
    # sigma = 1e-6 lies above the cutoff tol * sigma_1 = 1e-9; thresholding
    # squared singular values would drop it
    q_left, _ = np.linalg.qr(rng.standard_normal((400, 80)))
    q_right, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    sigma = np.ones(80)
    sigma[-1] = 1e-6
    graded = Matrix.approx((q_left * sigma) @ q_right.T)
    assert rank(graded) == 80
    assert nullspace(graded)[0] == 0


def test_only_linalg_calls_numpy_decompositions():
    # one rank primitive: every SVD, eigendecomposition or determinant goes
    # through linalg
    banned = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "det"}
    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in banned:
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                offenders += [f"{path.name}:{node.lineno}" for a in node.names if a.name in banned]
    assert not offenders


def test_only_linalg_names_the_kernel_internals():
    # one kernel primitive: other modules go through linalg.kernel, rank or nullspace
    private = {"_echelon_int", "_approx_rank_and_kernel", "_kernel_from_echelon", "_add_modular",
               "echelon_mod_p", "kernel_mod_p"}
    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else {getattr(node, "id", None), getattr(node, "attr", None)})
            offenders += [f"{path.name}:{node.lineno}" for _ in names & private]
    assert not offenders


def test_one_elimination_per_field():
    # the span tracker eliminates through echelon_mod_p and _echelon_int,
    # and every whole-system nullity is one linalg.kernel call on the
    # system's array; the private eliminations, converters and unused
    # checks they replaced stay gone, and so do the tracker's streamed GF(p)
    # elimination, which re-eliminating the kept rows with each block
    # replaced, the cache's binary codec, which Matrix.to_json / from_json
    # replaced, the commutant basis lift, which the center's one commutant
    # call replaced, the full-size commutation check modulo many primes,
    # which the exact check at two slots in duality_check replaced, the
    # envelope search's word cap, which its run to saturation replaced, the
    # pass-through accessors that Matrix.data and kron_power replaced, the
    # generator-image wrappers that diagram_matrix of the generator diagram
    # replaced, the closed form of L_(r,s), which its recursion replaced, and
    # the diagram cap and family list that the image's closed form replaced
    gone = {"_add_exact", "_add_modular", "_nullity_mod_p", "_solve", "_system", "_gram_matrix",
            "kernel_mod_p", "duality_relation_check", "encode_matrix", "decode_matrix",
            "CacheCorruption", "_lift_vector", "all_commute", "_primes_below", "_add_mod_p",
            "MAX_WORD_LEN", "scaled_array", "diagonal_group_action", "place_swap",
            "contraction_operator", "slot_projection", "_matrix_unit_diff",
            "DIAGRAM_COUNT_LIMIT", "diagram_family"}
    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, key, None) for key in ("name", "id", "attr")}
            offenders += [f"{path.name}:{node.lineno}" for _ in names & gone]
    assert not offenders


def test_every_src_def_has_a_caller():
    # a function, class or method of src/twindual must be named somewhere in
    # src/twindual or perfbench besides its own definition and body, so no
    # src survives that only tests reach; a string counts, since perfbench's
    # tracing looks its targets up by name.  A classmethod counts only
    # through a qualified mention (C.m, x.C.m, or cls.m inside C), so it
    # cannot hide behind another class's method of the same name
    kept = {
        "schur_weyl_check",      # names the paper's duality on E
        "brauer_duality_check",  # names the paper's duality on F
        "excluded_q",            # the paper's w+-(lambda); tests build excluded q from it
        "flip",                  # PartialDiagram.flip: test_duality's Gram oracle
                                 # _composed_trace_exponent uses it
    }

    def mentions(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    def reached(cls, method):
        # through C.m, x.C.m, or cls.m inside C, outside the method's own body
        own, inside = ({id(node) for node in ast.walk(tree)} for tree in (method, cls))
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == method.name and id(node) not in own:
                    names = {cls.name, "cls"} if id(node) in inside else {cls.name}
                    if (getattr(node.value, "attr", None) == cls.name
                            or getattr(node.value, "id", None) in names):
                        return True
        return False

    package = Path(twindual.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in
             sorted(package.glob("*.py")) + sorted((package.parents[1] / "perfbench").glob("*.py"))}
    src = [tree for path, tree in trees.items() if path.parent == package]
    classmethods = {method: cls for tree in src for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for method in cls.body if isinstance(method, ast.FunctionDef)
                    and any(getattr(d, "id", None) == "classmethod" for d in method.decorator_list)}
    counts = Counter(name for tree in trees.values() for name in mentions(tree))
    defs = [node for tree in src for node in ast.walk(tree) if node not in classmethods
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in defs:
        counts[node.name] -= sum(name == node.name for name in mentions(node))
    unused = {node.name for node in defs if counts[node.name] <= 0 and not node.name.startswith("__")}
    unused |= {f"{cls.name}.{method.name}" for method, cls in classmethods.items()
               if not reached(cls, method)}
    assert not sorted(unused - kept)


def test_one_approx_tolerance():
    # every approx comparison and rank reads scalars.TOLERANCE: no src
    # function takes a cutoff but Matrix.equals, whose caller
    # power_formula_check passes a k-scaled one, no class carries one, and
    # no subcommand accepts --tolerance
    cutoffs, allowed = {"tol", "tolerance"}, {"Matrix.equals"}

    def scan(node, scope=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                body = [s for s in child.body if isinstance(s, (ast.Assign, ast.AnnAssign))]
                fields = {t.id for s in body for t in getattr(s, "targets", None) or [s.target]
                          if isinstance(t, ast.Name)}
                yield from (f"{scope}{child.name}.{f}" for f in sorted(fields & cutoffs))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = {a.arg for a in child.args.posonlyargs + child.args.args
                          + child.args.kwonlyargs}
                # a method or property named for a cutoff is an attribute too
                if (scope + child.name not in allowed and cutoffs & params
                        or scope and child.name in cutoffs):
                    yield scope + child.name
            elif (isinstance(child, ast.Attribute) and child.attr in cutoffs
                  and isinstance(child.ctx, ast.Store)):
                yield scope + child.attr
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from scan(child, f"{scope}{child.name}." if named else scope)

    package = Path(twindual.__file__).parent
    offenders = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
                 for name in scan(ast.parse(path.read_text()))]
    assert not offenders
    from twindual.cli import build_parser

    subparsers = next(a for a in build_parser()._actions if a.choices)
    for command, sub in subparsers.choices.items():
        assert not any(opt.startswith("--tol") for opt in sub._option_string_actions), command


def test_no_float_literal_but_the_tolerance():
    # a private cutoff is a float literal: in src the only float literals
    # are 0.0 and 1.0, and TOLERANCE = 1e-9 itself
    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        tolerance = {node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["TOLERANCE"]}
        offenders += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and type(node.value) is float
                      and node.value not in (0.0, 1.0) and node not in tolerance]
    assert not offenders
    assert TOLERANCE == 1e-9


def test_only_linalg_knows_the_exact_layout():
    # one exact form: other modules build matrices with Matrix.of or
    # Matrix.scaled and slice them as matrices, never picking a constructor
    # by mode or indexing the stored array as nested lists
    def matrix_attrs(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "Matrix"}

    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.IfExp):
                picked = {frozenset(matrix_attrs(node.body)), frozenset(matrix_attrs(node.orelse))}
                if any("exact" in p for p in picked) and any("approx" in p for p in picked):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                  and isinstance(node.value.value, ast.Attribute)
                  and node.value.value.attr == "data"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
    # the stored pair: integers over their least common denominator, or
    # floats over 1
    exact, approx = Matrix.exact([[Fraction(1, 2), 3]]), Matrix.approx([[0.5, 3.0]])
    assert (exact.data.tolist(), exact.den) == ([[1, 6]], 2)
    assert (approx.data.tolist(), approx.den) == ([[0.5, 3.0]], 1)


def test_no_memo_layer_and_no_general_inverse():
    # every matrix is built on demand: no module keeps a memo, and the two
    # basis changes invert by transpose, so linalg has no general inverse
    package = Path(twindual.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                name = node.name
                if name == "cached" or (name == "inverse" and path.name == "linalg.py"):
                    offenders.append(f"{path.name}:{node.lineno} def {name}")
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if node.target.id == "_cache":
                    offenders.append(f"{path.name}:{node.lineno} field _cache")
            elif isinstance(node, ast.Attribute) and node.attr == "_cache":
                offenders.append(f"{path.name}:{node.lineno} attribute _cache")
    assert not offenders


FRACTIONS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _grid(rows, cols):
    return st.lists(st.lists(FRACTIONS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _operands(draw):
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))
    scalar = draw(st.sampled_from([Fraction(0), Fraction(-1), Fraction(-3, 7)]) | FRACTIONS)
    return draw(_grid(r, k)), draw(_grid(r, k)), draw(_grid(k, c)), scalar


def _oracle_matmul(x, y):
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), Fraction(0))
             for j in range(len(y[0]))] for i in range(len(x))]


def _assert_pair_holds(m, rows):
    # the stored pair is reduced, its den is the lcm of the entry
    # denominators, and it means exactly the oracle's entries
    assert m.den > 0 and all(type(v) is int for v in m.data.flat)
    assert math.gcd(m.den, *m.data.ravel().tolist()) == 1
    assert m.den == math.lcm(*(x.denominator for row in rows for x in row))
    assert m.flatten() == [x for row in rows for x in row]
    assert m.equals(Matrix.exact(rows))


@given(_operands())
@settings(max_examples=60, deadline=None)
def test_exact_storage_invariant_and_fraction_oracle(operands):
    x, y, z, s = operands
    a, b, c = Matrix.exact(x), Matrix.exact(y), Matrix.exact(z)
    _assert_pair_holds(a, x)
    _assert_pair_holds(a + b, [[u + v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)])
    _assert_pair_holds(a - b, [[u - v for u, v in zip(rx, ry)] for rx, ry in zip(x, y)])
    _assert_pair_holds(a @ c, _oracle_matmul(x, z))
    _assert_pair_holds(kron(a, c), [[u * v for u in rx for v in rz] for rx in x for rz in z])
    _assert_pair_holds(a.transpose(), [list(col) for col in zip(*x)])
    _assert_pair_holds(a.scale(s), [[s * u for u in row] for row in x])
    _assert_pair_holds(-a, [[-u for u in row] for row in x])
    gram = _oracle_matmul(x, [list(col) for col in zip(*x)])
    assert (a @ a.transpose()).trace() == sum(gram[i][i] for i in range(len(x)))
    assert a.equals(b) == (x == y)
    assert a[0, 0] == x[0][0]


def test_matrix_mode_follows_the_array():
    # no constructor stores a mode: it is "exact" exactly for an object array
    for mode in ("exact", "approx"):
        built = [Matrix.of(mode, [[1, 2], [3, 4]]),
                 Matrix.placed(mode, 2, {(0, 1): Fraction(1, 2)}, identity=True),
                 Matrix.scaled(mode, np.eye(2, dtype=int), 3),
                 Matrix.identity(2, mode), Matrix.zero(2, 3, mode),
                 Matrix.column([1, 2], mode)]
        built.append(Matrix.from_json(built[0].to_json()))
        m = built[0]
        built += [m.scale(Fraction(2, 3)), m @ m, m + m, -m, m.transpose(), m.pow(3),
                  m[:1, :], kron(m, m), stack_rows([m, m])]
        assert {x.mode for x in built} == {mode}
        assert all((x.data.dtype == object) == (mode == "exact") for x in built)
    assert Matrix.exact([[Fraction(1, 2)]]).mode == "exact"
    assert Matrix.approx(np.array([[1 + 2j]])).mode == "approx"
    assert Matrix.approx(np.array([[1, 2]], dtype=object)).mode == "approx"
    assert Matrix.exact([[1]]).to_approx().mode == "approx"


def test_span_tracker_reads_the_field_from_the_block():
    # integer rows without a prime are taken over Q: 2 e_1 and 2 e_2 vanish
    # mod 2 but span a plane; with the prime 2 they span nothing
    doubled = 2 * np.eye(2, dtype=np.int64)
    for block in (doubled, doubled.astype(object)):
        tracker = SpanTracker()
        assert tracker.add_matrix(block) == [0, 1] and tracker.dimension == 2
    assert SpanTracker(prime=2).add_matrix(doubled) == []
    # float rows go through the orthonormal array; a prime has no floats
    tracker = SpanTracker()
    assert tracker.add_matrix(np.array([[1.0, 0.0], [2.0, 0.0]])) == [0]
    for block in (np.eye(2), np.eye(2, dtype=complex)):
        tracker = SpanTracker(prime=ENVELOPE_PRIME)
        with pytest.raises(ValueError, match="integer rows"):
            tracker.add_matrix(block)
        assert tracker.dimension == 0
