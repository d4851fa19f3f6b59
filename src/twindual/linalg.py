"""Dense matrices over exact rationals or complex doubles.

One Matrix class serves both scalar modes: exact matrices hold nested lists
of ``fractions.Fraction`` and go through fraction-free integer elimination
for rank/nullspace work; approx matrices wrap a numpy array and use the SVD
with a threshold relative to the largest singular value.

``kernel`` is the one kernel primitive: a list of integer rows goes through
a fraction-free cross-multiplication elimination with per-row content
stripping, which keeps the integer growth of the structured systems that
arise here small; a float array goes through the SVD.  ``rank`` and
``nullspace`` wrap it for Matrix objects, and ``scaled_array`` gives the
one array form of a Matrix that the duality layer computes with: exact
matrices times the least common denominator of their entries, as integer
object arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import DEFAULT_TOLERANCE, ScalarModeError


class Matrix:
    """Immutable dense matrix; ``mode`` is "exact" or "approx"."""

    __slots__ = ("rows", "cols", "mode", "data")

    def __init__(self, rows, cols, mode, data):
        self.rows = rows
        self.cols = cols
        self.mode = mode
        self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, rows_of_entries) -> "Matrix":
        data = [[Fraction(x) for x in row] for row in rows_of_entries]
        r = len(data)
        c = len(data[0]) if r else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return cls(r, c, "exact", data)

    @classmethod
    def approx(cls, array) -> "Matrix":
        arr = np.array(array)
        if arr.ndim != 2:
            raise ValueError("need a 2-d array")
        if arr.dtype == object:
            arr = arr.astype(complex)
        if np.iscomplexobj(arr) and not np.any(arr.imag):
            arr = arr.real
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        return cls(arr.shape[0], arr.shape[1], "approx", arr)

    @classmethod
    def identity(cls, m: int, mode: str = "exact") -> "Matrix":
        if mode == "exact":
            return cls.exact([[1 if i == j else 0 for j in range(m)] for i in range(m)])
        return cls.approx(np.eye(m))

    @classmethod
    def zero(cls, r: int, c: int, mode: str = "exact") -> "Matrix":
        if mode == "exact":
            return cls.exact([[0] * c for _ in range(r)])
        return cls.approx(np.zeros((r, c)))

    @classmethod
    def column(cls, entries, mode: str = "exact") -> "Matrix":
        if mode == "exact":
            return cls.exact([[x] for x in entries])
        return cls.approx(np.array([[complex(x)] for x in entries]))

    # -- basics --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j] if self.mode == "exact" else self.data[i, j]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_ndarray(self) -> np.ndarray:
        if self.mode == "approx":
            return self.data
        return np.array([[float(x) for x in row] for row in self.data])

    def to_approx(self) -> "Matrix":
        if self.mode == "approx":
            return self
        return Matrix.approx(self.to_ndarray())

    def entries(self):
        if self.mode == "exact":
            for row in self.data:
                yield from row
        else:
            yield from self.data.flat

    def flatten(self) -> list:
        return list(self.entries())

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        if self.mode == "exact":
            return sum(self.data[i][i] for i in range(self.rows))
        return complex(np.trace(self.data))

    def max_abs(self) -> float:
        if self.mode == "exact":
            return max((abs(x) for x in self.entries()), default=0)
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    # -- arithmetic ----------------------------------------------------

    def _check_mode(self, other: "Matrix"):
        if self.mode != other.mode:
            raise ScalarModeError("cannot mix exact and approx matrices")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        if self.mode == "exact":
            data = [
                [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
            ]
            return Matrix(self.rows, self.cols, "exact", data)
        return Matrix.approx(self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        if self.mode == "exact":
            data = [
                [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
            ]
            return Matrix(self.rows, self.cols, "exact", data)
        return Matrix.approx(self.data - other.data)

    def scale(self, scalar) -> "Matrix":
        if self.mode == "exact":
            s = Fraction(scalar)
            return Matrix(
                self.rows, self.cols, "exact", [[s * x for x in row] for row in self.data]
            )
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
        if self.mode == "approx":
            return Matrix.approx(self.data @ other.data)
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                aik = arow[k]
                if aik:
                    brow = bdata[k]
                    for j in range(other.cols):
                        bkj = brow[j]
                        if bkj:
                            orow[j] += aik * bkj
        return Matrix(self.rows, other.cols, "exact", out)

    def transpose(self) -> "Matrix":
        if self.mode == "approx":
            return Matrix.approx(self.data.T.copy())
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(self.cols, self.rows, "exact", data)

    def pow(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.rows, self.mode)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base_needed = k >> 1
            if base_needed:
                base = base @ base
            k >>= 1
        return result

    # -- comparisons ----------------------------------------------------

    def equals(self, other: "Matrix", tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.shape != other.shape:
            return False
        if self.mode == "exact" and other.mode == "exact":
            return self.data == other.data
        diff = self.to_ndarray() - other.to_ndarray()
        scale = max(1.0, self.max_abs(), other.max_abs())
        return float(np.max(np.abs(diff))) <= tol * scale if diff.size else True

    def is_zero(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.mode == "exact":
            return all(x == 0 for x in self.entries())
        return self.data.size == 0 or float(np.max(np.abs(self.data))) <= tol

    def is_identity(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        if self.rows != self.cols:
            return False
        return self.equals(Matrix.identity(self.rows, self.mode), tol)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"

    def to_json(self) -> dict:
        from .scalars import scalar_to_json

        return {
            "rows": self.rows,
            "cols": self.cols,
            "mode": self.mode,
            "entries": [scalar_to_json(x) for x in self.entries()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        from .scalars import scalar_from_json

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
    if a.mode == "approx":
        return Matrix.approx(np.kron(a.data, b.data))
    out = [[Fraction(0)] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for k in range(a.cols):
            aik = a.data[i][k]
            if not aik:
                continue
            for j in range(b.rows):
                orow = out[i * b.rows + j]
                brow = b.data[j]
                base = k * b.cols
                for l in range(b.cols):
                    if brow[l]:
                        orow[base + l] = aik * brow[l]
    return Matrix(a.rows * b.rows, a.cols * b.cols, "exact", out)


def kron_power(a: Matrix, r: int) -> Matrix:
    result = Matrix.identity(1, a.mode)
    for _ in range(r):
        result = kron(result, a)
    return result


def commutator(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("commutator needs square matrices of equal size")
    return (a @ b) - (b @ a)


def scaled_array(a: Matrix) -> tuple[np.ndarray, int]:
    """(c A as an array, c): in exact mode c is the least common denominator
    of the entries, making c A an integer object array; in approx mode A's
    own array and 1.  Scaling moves no span, kernel or commutant."""
    if a.mode == "approx":
        return a.data, 1
    c = math.lcm(*(x.denominator for x in a.entries()))
    return np.array([[x.numerator * (c // x.denominator) for x in row] for row in a.data],
                    dtype=object).reshape(a.shape), c


# -- exact elimination -----------------------------------------------------


def _integerize_row(row) -> list[int]:
    """Scale a row of Fractions to integers and strip the content gcd."""
    denom = math.lcm(*(x.denominator for x in row))
    return _strip_content([x.numerator * (denom // x.denominator) for x in row])


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


def _kernel_from_echelon(echelon, pivot_cols, ncols) -> list[list[Fraction]]:
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            p = pivot_cols[i]
            row = echelon[i]
            s = Fraction(0)
            for c in range(p + 1, ncols):
                if row[c] and x[c]:
                    s += row[c] * x[c]
            if s:
                x[p] = -s / row[p]
        basis.append(x)
    return basis


def _approx_rank_and_kernel(arr: np.ndarray, tol: float, want_basis: bool):
    """Rank and (optionally) an orthonormal kernel basis of an approx array:
    singular values above ``tol`` times the largest count toward the rank.

    Only a wide array needs the full V to span its kernel, so a tall stack
    never builds its rows x rows U.
    """
    m, n = arr.shape
    if arr.size == 0:
        basis = [np.eye(n)[:, [j]] for j in range(n)] if want_basis else None
        return 0, basis
    if want_basis:
        _, s, vh = np.linalg.svd(arr, full_matrices=m < n)
    else:
        s = np.linalg.svd(arr, compute_uv=False)
        vh = None
    smax = float(s[0]) if s.size else 0.0
    if smax == 0:
        rank = 0
    else:
        rank = int((s > tol * smax).sum())
    if not want_basis:
        return rank, None
    return rank, [vh[i, :].conj().reshape(-1, 1) for i in range(rank, vh.shape[0])]


def kernel(system, ncols: int, tol: float = DEFAULT_TOLERANCE, need_basis: bool = False):
    """Nullity (and optionally a kernel basis, as flat vectors) of a linear
    system in ``ncols`` unknowns: a list of integer rows goes through
    fraction-free elimination, a float array through the SVD rule
    sigma > tol * sigma_1."""
    if isinstance(system, list):
        echelon, pivots = _echelon_int(system, ncols)
        vecs = _kernel_from_echelon(echelon, pivots, ncols) if need_basis else None
        return ncols - len(pivots), vecs
    rank, vecs = _approx_rank_and_kernel(system, tol, need_basis)
    return ncols - rank, vecs


def _system(a: Matrix):
    """The rows of ``a`` in the form ``kernel`` takes."""
    return [_integerize_row(row) for row in a.data] if a.mode == "exact" else a.data


def rank(a: Matrix, tol: float = DEFAULT_TOLERANCE) -> int:
    return a.cols - kernel(_system(a), a.cols, tol)[0]


def nullspace(a: Matrix, tol: float = DEFAULT_TOLERANCE):
    """Kernel dimension and a basis of column vectors of ``a``."""
    dim, vecs = kernel(_system(a), a.cols, tol, need_basis=True)
    if a.mode == "exact":
        return dim, [Matrix.column(v, "exact") for v in vecs]
    return dim, [Matrix.approx(v) for v in vecs]


def inverse(a: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse, or numpy inverse in approx mode."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    if a.mode == "approx":
        return Matrix.approx(np.linalg.inv(a.data))
    m = a.rows
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
           for i, row in enumerate(a.data)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return Matrix.exact([row[m:] for row in aug])


def stack_rows(mats: list[Matrix]) -> Matrix:
    """Stack the flattened matrices as the rows of one matrix."""
    if not mats:
        raise ValueError("nothing to stack")
    mode = mats[0].mode
    ncols = mats[0].rows * mats[0].cols
    if any(m.mode != mode or m.rows * m.cols != ncols for m in mats):
        raise ValueError("shape or mode mismatch")
    if mode == "exact":
        return Matrix.exact([m.flatten() for m in mats])
    return Matrix.approx(np.vstack([m.data.reshape(1, -1) for m in mats]))


def span_dimension(mats: list[Matrix], tol: float = DEFAULT_TOLERANCE) -> int:
    """Dimension of the linear span of the given equal-shape matrices."""
    if not mats:
        return 0
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("shape mismatch")
    return rank(stack_rows(mats), tol)


class SpanTracker:
    """Incremental rank tracking for a growing family of vectors.

    Exact mode keeps integer rows in reduced echelon order; approx mode keeps
    an orthonormal family and accepts a vector when its residual after
    projection exceeds ``tol * max(1, |v|)``.
    """

    def __init__(self, mode: str, tol: float = DEFAULT_TOLERANCE):
        self.mode = mode
        self.tol = tol
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        self._ortho: list[np.ndarray] = []

    @property
    def dimension(self) -> int:
        return len(self._rows) if self.mode == "exact" else len(self._ortho)

    def add_matrix(self, m: np.ndarray) -> bool:
        """Add a 2-d array: an integer one in exact mode (see
        ``scaled_array``), a float one in approx mode."""
        if self.mode == "exact":
            return self._add_exact(_strip_content(m.ravel().tolist()))
        return self._add_approx(m.reshape(-1))

    def _add_exact(self, row: list[int]) -> bool:
        for p, existing in zip(self._pivots, self._rows):
            f = row[p]
            if f:
                pv = existing[p]
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                row = _strip_content([a * x - b * y for x, y in zip(row, existing)])
        pivot = next((i for i, v in enumerate(row) if v), None)
        if pivot is None:
            return False
        insert_at = 0
        while insert_at < len(self._pivots) and self._pivots[insert_at] < pivot:
            insert_at += 1
        self._pivots.insert(insert_at, pivot)
        self._rows.insert(insert_at, row)
        return True

    def _add_approx(self, vec: np.ndarray) -> bool:
        v = vec.astype(complex)
        norm0 = np.linalg.norm(v)
        for u in self._ortho:
            v = v - (u.conj() @ v) * u
        resid = np.linalg.norm(v)
        if resid <= self.tol * max(1.0, norm0):
            return False
        self._ortho.append(v / resid)
        return True
