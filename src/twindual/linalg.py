"""Dense matrices over exact rationals or complex doubles.

One Matrix class serves both scalar modes, and both store the same pair:
an array ``data`` and a positive integer ``den``, the matrix being
data / den.  An exact matrix holds an integer object array over one common
denominator, kept reduced (gcd(den, data) = 1, so den is the least common
denominator of its entries); an approx matrix holds a float or complex
array over den = 1.  So every product, sum, transpose and Kronecker product
is one numpy expression on the pair in either mode, and no Fraction matrix
is ever multiplied.  ``Matrix.pow`` is numpy's ``matrix_power`` on the
array over den**k, and ``Matrix.placed`` builds a small grid from an entry
map {(row, col): scalar} on a zero or identity background.

``kernel`` is the one kernel primitive, and it takes the system's 2-d
array in every field: a float or complex array goes through the SVD with a
threshold relative to the largest singular value; an integer array through
a fraction-free cross-multiplication elimination over Q with per-row
content stripping, which keeps the integer growth of the structured
systems that arise here small; an int64 residue array with a prime through
``echelon_mod_p``, the one GF(p) elimination (in place, with delayed
reduction).  ``rank`` and ``nullspace`` pass it a Matrix's stored array,
the same array form the duality layer reads from ``Matrix.data``.
``determinant`` keeps the scale that the kernel's content stripping drops:
a Bareiss pass over the integer array in exact mode, numpy's in approx.

A GF(p) rank is only a bound on the rational one (rank_p <= rank_Q), so
exact mode uses it inside sandwiches: a full rank, a lifted kernel that
``annihilates`` proves exact, or the bounds of the duality layer.  Every
GF(p) leg, the products of residue words in the duality layer among them,
shares one guard that keeps int64 sums of residue products exact.

``SpanTracker`` grows a row space one block of rows at a time and names
the block rows that grew it, through the same two eliminations,
``echelon_mod_p`` over GF(p) and the fraction-free elimination over Q, so
each field has exactly one; approx mode projects each row twice off one
orthonormal array.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .scalars import TOLERANCE, ScalarModeError, scalar_from_json, scalar_to_json


class Matrix:
    """Immutable dense matrix data / den; ``mode`` is "exact" or "approx"."""

    __slots__ = ("rows", "cols", "mode", "data", "den")

    def __init__(self, mode, data, den=1):
        """Wrap a 2-d array: integer objects in exact mode, reduced here
        against ``den``; floats with den = 1 in approx mode."""
        if den != 1:
            g = math.gcd(den, *data.ravel().tolist())
            if g > 1:
                data, den = data // g, den // g
        data.setflags(write=False)
        self.rows, self.cols = data.shape
        self.mode, self.data, self.den = mode, data, den

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, rows_of_entries) -> "Matrix":
        if isinstance(rows_of_entries, np.ndarray):
            rows_of_entries = rows_of_entries.tolist()
        rows = [[Fraction(x) for x in row] for row in rows_of_entries]
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        den = math.lcm(*(x.denominator for row in rows for x in row))
        data = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        return cls("exact", np.array(data, dtype=object).reshape(len(rows), c), den)

    @classmethod
    def approx(cls, array) -> "Matrix":
        arr = np.array(array, order="C")
        if arr.ndim != 2:
            raise ValueError("need a 2-d array")
        if arr.dtype == object:
            arr = arr.astype(complex)
        if np.iscomplexobj(arr) and not np.any(arr.imag):
            arr = arr.real
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        return cls("approx", arr)

    @classmethod
    def of(cls, mode: str, rows_of_entries) -> "Matrix":
        """The matrix with these entries in the given scalar mode."""
        return cls.exact(rows_of_entries) if mode == "exact" else cls.approx(rows_of_entries)

    @classmethod
    def placed(cls, mode: str, size: int, entries: dict, identity: bool = False) -> "Matrix":
        """The size x size zero (or identity) matrix with the scalars of the
        entry map ``{(row, col): scalar}`` placed at their positions."""
        grid = np.eye(size, dtype=object) if identity else np.zeros((size, size), dtype=object)
        for ij, x in entries.items():
            grid[ij] = x
        return cls.of(mode, grid)

    @classmethod
    def scaled(cls, mode: str, data, den: int = 1) -> "Matrix":
        """data / den, stored as the pair (``data``, ``den``): ``data`` is
        an integer array in exact mode and a float or complex one in approx
        mode, where ``den`` is 1."""
        if mode == "exact":
            return cls("exact", np.asarray(data).astype(object), den)
        return cls.approx(data)

    @classmethod
    def identity(cls, m: int, mode: str = "exact") -> "Matrix":
        return cls.scaled(mode, np.eye(m, dtype=int))

    @classmethod
    def zero(cls, r: int, c: int, mode: str = "exact") -> "Matrix":
        return cls.scaled(mode, np.zeros((r, c), dtype=int))

    @classmethod
    def column(cls, entries, mode: str = "exact") -> "Matrix":
        return cls.of(mode, [[x] for x in entries])

    # -- basics --------------------------------------------------------

    def __getitem__(self, ij):
        """An entry for a pair of indices, a Matrix for a pair of slices."""
        item = self.data[ij]
        if isinstance(item, np.ndarray):
            return Matrix.scaled(self.mode, item, self.den)
        return Fraction(item, self.den) if self.mode == "exact" else item

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_ndarray(self) -> np.ndarray:
        if self.mode == "approx":
            return self.data
        return (self.data / self.den).astype(np.float64)

    def to_approx(self) -> "Matrix":
        if self.mode == "approx":
            return self
        return Matrix.approx(self.to_ndarray())

    def entries(self):
        if self.mode == "exact":
            return (Fraction(x, self.den) for x in self.data.flat)
        return iter(self.data.flat)

    def flatten(self) -> list:
        return list(self.entries())

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        if self.mode == "exact":
            return Fraction(sum(self.data.diagonal()), self.den)
        return complex(np.trace(self.data))

    def max_abs(self) -> float:
        if self.mode == "exact":
            return max((abs(x) for x in self.entries()), default=0)
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    # -- arithmetic ----------------------------------------------------

    def _check_mode(self, other: "Matrix"):
        if self.mode != other.mode:
            raise ScalarModeError("cannot mix exact and approx matrices")

    def _combine(self, other: "Matrix", op) -> "Matrix":
        """op(self, other) for + or -, over the least common denominator."""
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        a, b = (m.data if m.den == den else m.data * (den // m.den) for m in (self, other))
        return Matrix.scaled(self.mode, op(a, b), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub)

    def scale(self, scalar) -> "Matrix":
        if self.mode == "exact":
            s = Fraction(scalar)
            return Matrix("exact", self.data * s.numerator, self.den * s.denominator)
        s = complex(scalar)
        if s.imag == 0 and not np.iscomplexobj(self.data):
            return Matrix.approx(self.data * s.real)
        return Matrix.approx(self.data * s)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        return Matrix.scaled(self.mode, self.data @ other.data, self.den * other.den)

    def transpose(self) -> "Matrix":
        return Matrix.scaled(self.mode, self.data.T, self.den)

    def pow(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        return Matrix.scaled(self.mode, np.linalg.matrix_power(self.data, k), self.den ** k)

    # -- comparisons ----------------------------------------------------

    def equals(self, other: "Matrix", tol: float = TOLERANCE) -> bool:
        if self.shape != other.shape:
            return False
        if self.mode == "exact" and other.mode == "exact":
            return self.den == other.den and np.array_equal(self.data, other.data)
        diff = self.to_ndarray() - other.to_ndarray()
        scale = max(1.0, self.max_abs(), other.max_abs())
        return float(np.max(np.abs(diff))) <= tol * scale if diff.size else True

    def is_zero(self) -> bool:
        if self.mode == "exact":
            return not any(self.data.flat)
        return self.data.size == 0 or float(np.max(np.abs(self.data))) <= TOLERANCE

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return self.equals(Matrix.identity(self.rows, self.mode))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "mode": self.mode,
            "entries": [scalar_to_json(x) for x in self.entries()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        rows, cols = obj["rows"], obj["cols"]
        entries = [scalar_from_json(x) for x in obj["entries"]]
        if len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        grid = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
        if obj.get("mode", "exact") == "exact":
            return cls.exact(grid)
        return cls.approx(np.array(grid, dtype=complex))


# -- basic operations ----------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the lexicographic product-basis convention:
    the r-fold kron of g realizes the diagonal action of g on the r-th
    tensor power."""
    a._check_mode(b)
    return Matrix.scaled(a.mode, np.kron(a.data, b.data), a.den * b.den)


def kron_power(a: Matrix, r: int) -> Matrix:
    result = Matrix.identity(1, a.mode)
    for _ in range(r):
        result = kron(result, a)
    return result


def commutator(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("commutator needs square matrices of equal size")
    return (a @ b) - (b @ a)


# -- exact elimination -----------------------------------------------------


def _strip_content(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _echelon_int(rows: list[list[int]], ncols: int):
    """Fraction-free elimination over the integers.

    Returns (echelon_rows, pivot_cols).  Row scalings never change the row
    space or the kernel, so the output has the same rank and nullspace as
    the input.  The pivot with the smallest magnitude is chosen at each
    column to limit entry growth, and every updated row is divided by its
    content.
    """
    work = [r for r in rows if any(r)]
    echelon: list[list[int]] = []
    pivot_cols: list[int] = []
    c = 0
    while work and c < ncols:
        cand_idx = [i for i, r in enumerate(work) if r[c]]
        if not cand_idx:
            c += 1
            continue
        piv_i = min(cand_idx, key=lambda i: abs(work[i][c]))
        piv = work.pop(piv_i)
        p = piv[c]
        piv_tail = piv[c:]
        new_work = []
        for r in work:
            f = r[c]
            if f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                tail = [a * x - b * y for x, y in zip(r[c:], piv_tail)]
                if any(tail):
                    tail = _strip_content(tail)
                    new_work.append(r[:c] + tail)
            else:
                new_work.append(r)
        work = new_work
        echelon.append(piv)
        pivot_cols.append(c)
        c += 1
    return echelon, pivot_cols


def _kernel_from_echelon(echelon, pivot_cols, ncols) -> list[list[int]]:
    """An integer kernel basis, one vector per free column f: positive at f,
    zero at the other free columns, content stripped.  Back substitution
    stays in the integers by scaling the vector whenever a pivot does not
    divide, which moves no span."""
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [0] * ncols
        x[f] = 1
        for i in range(len(pivot_cols) - 1, -1, -1):
            p = pivot_cols[i]
            row = echelon[i]
            s = 0
            for c in range(p + 1, ncols):
                if row[c] and x[c]:
                    s += row[c] * x[c]
            if s:
                g = math.gcd(s, row[p])
                a, b = row[p] // g, s // g
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    x = [a * v for v in x]
                x[p] = -b
        basis.append(_strip_content(x))
    return basis


# -- GF(p) elimination -------------------------------------------------------


def _fits_int64(terms: int, left: int, right: int) -> bool:
    """Whether every sum of ``terms`` products x y with |x| <= left and
    |y| <= right stays inside int64."""
    return terms * left * right < 2 ** 63


def _modular_guard(terms: int, p: int) -> None:
    """Raise unless sums of ``terms`` products of residues mod p fit in int64."""
    if not _fits_int64(terms, p - 1, p - 1):
        raise ValueError(f"GF({p}) sums of {terms} products overflow int64")


# rows one numpy update of ``echelon_mod_p`` touches: the temporaries stay
# a small multiple of 128 rows
_ELIM_CHUNK = 128


def echelon_mod_p(a: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Row-reduce the int64 array ``a`` over GF(p) in place; returns
    (pivot_rows, pivot_cols), in the order of the pivot columns.

    Row pivot_rows[t] ends with zeros left of pivot_cols[t], a 1 there and
    residues in [0, p) right of it; every other row is zero mod p.

    The reduction is delayed: each step reduces only the pivot row and the
    pivot column mod p, and subtracts multiples of the pivot row from the
    rows whose pivot-column entry is nonzero, 128 rows at a time; every
    other row is skipped, and no row moves.  A row takes at most one update
    per pivot, each below (p-1)^2 in size, so no entry leaves
    min(m, n) (p-1)^2 + p, which the guard keeps inside int64.
    """
    m, n = a.shape
    _modular_guard(min(m, n) + 1, p)
    np.remainder(a, p, out=a)
    free = np.arange(m)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    for c in range(n):
        col = a[free, c] % p
        nonzero = np.flatnonzero(col)
        if not nonzero.size:
            continue
        i = int(free[nonzero[0]])
        row = a[i, c:] % p * pow(int(col[nonzero[0]]), -1, p) % p
        a[i, :c] = 0
        a[i, c:] = row
        targets, factors = free[nonzero[1:]], col[nonzero[1:], None]
        free = np.delete(free, nonzero[0])
        for lo in range(0, targets.size, _ELIM_CHUNK):
            rows = targets[lo:lo + _ELIM_CHUNK]
            a[rows, c:] -= factors[lo:lo + _ELIM_CHUNK] * row
        pivot_rows.append(i)
        pivot_cols.append(c)
    return pivot_rows, pivot_cols


def annihilates(a: np.ndarray, v: np.ndarray) -> bool:
    """Whether the integer product a v is exactly zero: in int64 where no
    sum of products can leave its range, in Python integers otherwise."""
    if not (a.size and v.size):
        return True
    bounds = (int(np.max(np.abs(x))) for x in (a, v))
    dtype = np.int64 if _fits_int64(a.shape[1], *bounds) else object
    return not np.any(a.astype(dtype) @ v.astype(dtype))


def kernel(system: np.ndarray, need_basis: bool = False, prime: int | None = None):
    """Nullity of the 2-d array ``system`` and, with ``need_basis``, a
    kernel basis as the rows of one 2-d array (else None), by the one
    elimination of its field:

    * a float or complex array goes through the SVD, singular values above
      ``TOLERANCE`` times the largest counting toward the rank; the basis is
      orthonormal, and only a wide array builds the full V;
    * an integer array (object or int64) goes through the fraction-free
      elimination over Q; the basis holds one primitive integer vector per
      free column, positive there and zero at the other free columns;
    * an int64 array with a prime p goes through ``echelon_mod_p``, which
      overwrites it in place, so a caller hands over its residue system
      without a copy; the basis is the GF(p) one, 1 on each free column
      and 0 on the other free columns, lifted to the symmetric residues
      [-(p-1)/2, (p-1)/2] (for odd p)."""
    n = system.shape[1]
    if prime is not None:
        rows, cols = echelon_mod_p(system, prime)
        if not need_basis:
            return n - len(cols), None
        _modular_guard(n, prime)
        free = np.ones(n, dtype=bool)
        free[cols] = False
        basis = np.zeros((n - len(cols), n), dtype=np.int64)
        basis[np.arange(n - len(cols)), np.flatnonzero(free)] = 1
        for i, c in zip(reversed(rows), reversed(cols)):
            basis[:, c] = -(basis[:, c + 1:] @ system[i, c + 1:]) % prime
        basis[basis > prime // 2] -= prime
        return n - len(cols), basis
    if system.dtype.kind in "fc":
        if not system.size:
            return n, np.eye(n) if need_basis else None
        if need_basis:
            _, s, vh = np.linalg.svd(system, full_matrices=len(system) < n)
        else:
            s = np.linalg.svd(system, compute_uv=False)
        rank = int((s > TOLERANCE * s[0]).sum())
        return n - rank, vh[rank:].conj() if need_basis else None
    rows = [_strip_content(row) for row in system[(system != 0).any(axis=1)].tolist()]
    echelon, pivots = _echelon_int(rows, n)
    if not need_basis:
        return n - len(pivots), None
    basis = _kernel_from_echelon(echelon, pivots, n)
    return n - len(pivots), np.array(basis, dtype=object).reshape(len(basis), n)


def rank(a: Matrix) -> int:
    return a.cols - kernel(a.data)[0]


def determinant(a: Matrix):
    """det a: numpy's in approx mode; in exact mode a fraction-free
    (Bareiss) elimination of the integer array, which swaps in a lower row
    at a zero pivot, over den^n."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    if a.mode == "approx":
        return complex(np.linalg.det(a.data))
    m = np.array(a.data, dtype=object)
    sign, prev = 1, 1
    for k in range(a.rows):
        below = np.flatnonzero(m[k:, k])
        if not below.size:
            return Fraction(0)
        if below[0]:
            m[[k, k + below[0]]] = m[[k + below[0], k]]
            sign = -sign
        # every entry of the update is a minor of a, so the division is exact
        m[k + 1:, k + 1:] = (m[k + 1:, k + 1:] * m[k, k] - np.outer(m[k + 1:, k], m[k, k + 1:])) // prev
        prev = m[k, k]
    return Fraction(sign * prev, a.den ** a.rows)


def nullspace(a: Matrix):
    """Kernel dimension and a basis of column vectors of ``a``."""
    dim, basis = kernel(a.data, need_basis=True)
    return dim, [Matrix.scaled(a.mode, v[:, None]) for v in basis]


def stack_rows(mats: list[Matrix]) -> Matrix:
    """Stack the flattened matrices as the rows of one matrix."""
    if not mats:
        raise ValueError("nothing to stack")
    mode = mats[0].mode
    ncols = mats[0].rows * mats[0].cols
    if any(m.mode != mode or m.rows * m.cols != ncols for m in mats):
        raise ValueError("shape or mode mismatch")
    den = math.lcm(*(m.den for m in mats))
    stacked = np.vstack([m.data.reshape(1, -1) * (den // m.den) for m in mats])
    return Matrix.scaled(mode, stacked, den)


def span_dimension(mats: list[Matrix]) -> int:
    """Dimension of the linear span of the given equal-shape matrices."""
    if not mats:
        return 0
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("shape mismatch")
    return rank(stack_rows(mats))


class SpanTracker:
    """A row space grown one block of rows at a time: it keeps the accepted
    rows, and ``add_matrix`` returns the indices of the block rows that grew
    the span.

    An exact field finds them as the pivot columns of the transpose of the
    kept rows stacked over the block: a column is a pivot exactly when its
    row is independent of the rows above it, so the kept rows all stay
    pivots, and the block's pivots are its first independent rows in order.
    The transpose goes through the one elimination of its field:
    ``echelon_mod_p`` on its residues given a prime p (exact mode), and
    ``_echelon_int`` without one.  Vectors independent mod p are independent
    over Q, so the GF(p) rank of integer vectors never exceeds their
    rational rank.  Approx mode keeps the accepted rows as one orthonormal
    array U, projects each block row v off it twice, v - (v U^H) U ("twice
    is enough", Giraud-Langou-Rozloznik 2005), and accepts v when the
    residual w exceeds ``TOLERANCE * max(1, |v|)``: ``kernel``'s sigma_min >
    TOLERANCE sigma_1 read on [U; v], w being sigma_min of [U; w] and
    max(1, |v|) within a factor sqrt(2) of sigma_1 of [U; v].
    """

    def __init__(self, mode: str, prime: int | None = None):
        if prime is not None and mode != "exact":
            raise ValueError("a GF(p) span tracker needs exact mode")
        self.mode = mode
        self.prime = prime
        # the kept rows as one 2-d array: integers over Q, int64 residues
        # over GF(p), orthonormal complex rows in approx mode
        self._rows = np.zeros((0, 0))

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def add_matrix(self, block: np.ndarray) -> list[int]:
        """Add the rows of a 2-d array, integers in exact mode (such as
        rows of ``Matrix.data``) and floats in approx mode; returns the
        indices of the rows that grew the span, as a list."""
        if self.mode == "approx":
            block = block.astype(complex)
            u, grew = (self._rows if len(self._rows) else block[:0]), []
            for i, v in enumerate(block):
                cutoff = TOLERANCE * max(1.0, np.linalg.norm(v))
                for _ in range(2):
                    v = v - (v @ u.conj().T) @ u
                resid = np.linalg.norm(v)
                if resid > cutoff:
                    u = np.concatenate([u, v[None] / resid])
                    grew.append(i)
            self._rows = u
            return grew
        if self.prime is not None:
            block = np.remainder(block, self.prime).astype(np.int64, copy=False)
        k = len(self._rows)
        kept = self._rows if k else block[:0]
        # the transpose of the kept rows stacked over the block, one new array
        columns = np.concatenate([kept.T, block.T], axis=1)
        if self.prime is None:
            _, cols = _echelon_int([_strip_content(c) for c in columns.tolist()], columns.shape[1])
        else:
            _, cols = echelon_mod_p(columns, self.prime)
        grew = [c - k for c in cols[k:]]
        self._rows = np.concatenate([kept, block[grew]])
        return grew
