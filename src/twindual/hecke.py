"""The n-dimensional reflection representation of the twin group.

Everything here is expressed over a fixed deformation parameter q and its
square root s, the positive rational root (exact) or the principal root
(approx).  The internal convention fixes the two Hecke parameters to
(1, -q), since all the operators below depend only on q.

Bases in play, each tagged on the matrices it produces:

* ``e``       -- the defining basis; the bilinear form is diag(1, q, ..., q^(n-1)).
* ``e_prime`` -- the rescaled basis e'_i = s^(1-i) e_i, orthonormal for the form.
* ``split``   -- the exact orthogonal (not orthonormal) basis adapted to the
  splitting E = L + F: the fixed vector followed by the Gram-Schmidt vectors
  v'_1, ..., v'_(n-1) of F.  Its Gram matrix is the diagonal
  ([n]_q, [1]_q[2]_q, ..., [n-1]_q[n]_q), all rational, so its matrix M
  inverts as diag(gram)^(-1) M^T.
* ``u``       -- the orthonormal version of ``split`` (floating point; the
  normalizations involve square roots that are rational only by accident).
  u^T u = 1 for the form, which is bilinear, not Hermitian, even at complex
  q, so u inverts as u^T.

Each function builds its matrix on demand from the context; nothing is
memoized, since every matrix here has side at most n.  A matrix that is a
few entries on a zero or identity background (the generators, the
diagonal forms, the Gram matrix of F and the blocks on its orthonormal
basis) is placed from its entry map by ``Matrix.placed``.

The generator images are reflections: t_i acts as the reflection fixing the
hyperplane orthogonal to f_i = s e'_i - e'_(i+1), with matrix
diag(I, Q, I), Q = [[1-q, 2s], [2s, q-1]] / (1+q) in the e'-basis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, commutator, determinant
from .reporting import CheckReport, matrix_witness
from .scalars import TOLERANCE, DomainError, QContext, q_factorial, q_int, scalar_is_zero


def _check_equal(report: CheckReport, name: str, lhs: Matrix, rhs: Matrix):
    """Record a matrix identity, attaching the residual as witness on failure."""
    ok = lhs.equals(rhs)
    report.add(name, ok, "" if ok else matrix_witness(lhs - rhs))


def _check_zero(report: CheckReport, name: str, value: Matrix):
    ok = value.is_zero()
    report.add(name, ok, "" if ok else matrix_witness(value))

BASIS_E = "e"
BASIS_E_PRIME = "e_prime"


@dataclass
class RepContext:
    """Dimension n and the q context; every matrix is built from them on demand."""

    n: int
    qc: QContext

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("n must be at least 2")

    @property
    def mode(self) -> str:
        return self.qc.mode

    @property
    def q(self):
        return self.qc.q

    @property
    def s(self):
        """The square root of q that the context carries."""
        return self.qc.sqrt_q

    def one(self):
        return self.qc.one()

    def q_int(self, k: int):
        return q_int(k, self.qc.q)

    def q_factorial(self, k: int):
        return q_factorial(k, self.qc.q)

    def require_splitting(self):
        if scalar_is_zero(self.q_int(self.n)):
            raise DomainError(f"[{self.n}]_q = 0: E does not split as L + F")

    def require_full_factorial(self):
        for k in range(1, self.n + 1):
            if scalar_is_zero(self.q_int(k)):
                raise DomainError(f"[{k}]_q = 0: the orthogonal basis of F does not exist")


def _index_check(i: int, upper: int, what: str):
    if not 1 <= i <= upper:
        raise DomainError(f"{what} index {i} out of range 1..{upper}")


# -- Hecke generators (Burau) ------------------------------------------------


def burau_generator(i: int, rc: RepContext) -> Matrix:
    """Image of the i-th Hecke generator on E in the e-basis.

    With parameters (q1, q2) = (1, -q) this is the block-diagonal matrix
    diag(q1 I, Q, q1 I), Q = [[q1+q2, -q2], [q1, 0]].
    """
    _index_check(i, rc.n - 1, "generator")
    q = rc.q
    entries = {(i - 1, i - 1): 1 - q, (i - 1, i): q, (i, i - 1): 1, (i, i): 0}
    return Matrix.placed(rc.mode, rc.n, entries, identity=True)


def hecke_quadratic_check(rc: RepContext) -> CheckReport:
    """(T_i - q1)(T_i - q2) = 0 for every generator, with (q1, q2) = (1, -q)."""
    report = CheckReport(f"hecke-quadratic n={rc.n}")
    ident = Matrix.identity(rc.n, rc.mode)
    q1, q2 = rc.one(), -rc.q
    for i in range(1, rc.n):
        t = burau_generator(i, rc)
        val = (t - ident.scale(q1)) @ (t - ident.scale(q2))
        _check_zero(report, f"(T_{i}-q1)(T_{i}-q2)=0", val)
    return report


def hecke_braid_check(rc: RepContext) -> CheckReport:
    """Braid and far-commutation relations for the Burau images."""
    report = CheckReport(f"hecke-braid n={rc.n}")
    for i in range(1, rc.n - 1):
        a, b = burau_generator(i, rc), burau_generator(i + 1, rc)
        _check_equal(report, f"T_{i}T_{i+1}T_{i} = T_{i+1}T_{i}T_{i+1}", a @ b @ a, b @ a @ b)
    for i in range(1, rc.n):
        for j in range(i + 2, rc.n):
            a, b = burau_generator(i, rc), burau_generator(j, rc)
            _check_equal(report, f"T_{i}T_{j} = T_{j}T_{i}", a @ b, b @ a)
    return report


# -- twin-group generators ---------------------------------------------------


def reflection_generator(i: int, rc: RepContext, basis: str = BASIS_E_PRIME) -> Matrix:
    """Image of the i-th twin generator: (2 T_i - (q1+q2)) / (q1-q2).

    In the e'-basis this is diag(I, Q, I) with the symmetric orthogonal
    block Q = [[1-q, 2s], [2s, q-1]] / (1+q).  ``basis`` is e' or e; the
    split and u forms are ``reflection_in_split_basis`` and
    ``reflection_in_orthonormal_basis``.
    """
    _index_check(i, rc.n - 1, "generator")
    if basis not in (BASIS_E, BASIS_E_PRIME):
        raise DomainError(f"unknown basis {basis!r}")
    q, s = rc.q, rc.s
    one = rc.one()
    denom = one + q
    if scalar_is_zero(denom):
        raise DomainError("q = -1: the reflections are undefined")
    a = (one - q) / denom
    if basis == BASIS_E_PRIME:
        b = c = 2 * s / denom
    else:
        b, c = 2 * q / denom, 2 * one / denom
    entries = {(i - 1, i - 1): a, (i - 1, i): b, (i, i - 1): c, (i, i): -a}
    return Matrix.placed(rc.mode, rc.n, entries, identity=True)


def form_matrix(rc: RepContext) -> Matrix:
    """Gram matrix of the bilinear form in the e-basis, diag(1, q, ..., q^(n-1))."""
    return Matrix.placed(rc.mode, rc.n, {(j, j): rc.q ** j for j in range(rc.n)})


def fixed_vector(rc: RepContext) -> Matrix:
    """The simultaneous fixed vector in the e'-basis, (1, s, ..., s^(n-1))
    (the all-ones vector in the e-basis)."""
    entries, p = [], rc.one()
    for _ in range(rc.n):
        entries.append(p)
        p = p * rc.s
    return Matrix.column(entries, rc.mode)


def simple_root_vector(i: int, rc: RepContext) -> Matrix:
    """The vector f_i = s e'_i - e'_(i+1) in e'-coordinates."""
    _index_check(i, rc.n - 1, "root")
    zero = rc.qc.zero()
    entries = [zero] * rc.n
    entries[i - 1] = rc.s
    entries[i] = -rc.one()
    return Matrix.column(entries, rc.mode)


def bilinear(v: Matrix, w: Matrix) -> object:
    """The form on e'-coordinate column vectors: the basis is orthonormal,
    so this is the 1 x 1 product v^T w (no conjugation)."""
    return (v.transpose() @ w)[0, 0]


def check_twin_relations(rc: RepContext) -> CheckReport:
    """Involutivity and far commutation of the reflection images (e'-basis)."""
    report = CheckReport(f"twin-relations n={rc.n} basis=e_prime")
    ident = Matrix.identity(rc.n, rc.mode)
    gens = [reflection_generator(i, rc) for i in range(1, rc.n)]
    for i, g in enumerate(gens, start=1):
        _check_equal(report, f"S_{i}^2 = 1", g @ g, ident)
    for i in range(1, rc.n):
        for j in range(i + 2, rc.n):
            a, b = gens[i - 1], gens[j - 1]
            _check_equal(report, f"S_{i}S_{j} = S_{j}S_{i}", a @ b, b @ a)
    return report


def orthogonality_check(rc: RepContext) -> CheckReport:
    """S^T J S = J in the e-basis and S^T S = 1 in the e'-basis."""
    report = CheckReport(f"orthogonality n={rc.n}")
    j = form_matrix(rc)
    ident = Matrix.identity(rc.n, rc.mode)
    for i in range(1, rc.n):
        se = reflection_generator(i, rc, BASIS_E)
        _check_equal(report, f"S_{i}^T J S_{i} = J (e-basis)", se.transpose() @ j @ se, j)
        sp = reflection_generator(i, rc, BASIS_E_PRIME)
        _check_equal(report, f"S_{i}^T S_{i} = 1 (e'-basis)", sp.transpose() @ sp, ident)
    return report


def braid_deviation(i: int, rc: RepContext) -> Matrix:
    """S_i S_(i+1) S_i - S_(i+1) S_i S_(i+1); equals
    -((1-q)^2/(1+q)^2) (S_i - S_(i+1)), so it vanishes exactly at q = 1."""
    _index_check(i, rc.n - 2, "braid-deviation")
    a = reflection_generator(i, rc)
    b = reflection_generator(i + 1, rc)
    return (a @ b @ a) - (b @ a @ b)


def braid_deviation_check(rc: RepContext) -> CheckReport:
    report = CheckReport(f"braid-deviation n={rc.n}")
    q = rc.q
    one = rc.one()
    coeff = -((one - q) ** 2) / ((one + q) ** 2)
    for i in range(1, rc.n - 1):
        lhs = braid_deviation(i, rc)
        rhs = (reflection_generator(i, rc) - reflection_generator(i + 1, rc)).scale(coeff)
        _check_equal(
            report,
            f"S_{i}S_{i+1}S_{i} - S_{i+1}S_{i}S_{i+1} = -((1-q)^2/(1+q)^2)(S_{i}-S_{i+1})",
            lhs,
            rhs,
        )
    return report


def line_projection_matrix(rc: RepContext) -> Matrix:
    """Orthogonal projection of E onto the fixed line, e'-basis: the matrix
    (s^(i+j-2) / [n]_q); rank one, trace one, commutes with every S_i."""
    rc.require_splitting()
    powers = fixed_vector(rc).flatten()
    norm = rc.q_int(rc.n)
    return Matrix.of(rc.mode, [[a * b / norm for b in powers] for a in powers])


def projection_check(rc: RepContext) -> CheckReport:
    report = CheckReport(f"projection n={rc.n}")
    p = line_projection_matrix(rc)
    _check_equal(report, "P^2 = P", p @ p, p)
    one = rc.one()
    report.add("trace(P) = 1", scalar_is_zero(p.trace() - one))
    for i in range(1, rc.n):
        s = reflection_generator(i, rc)
        _check_zero(report, f"[P, S_{i}] = 0", commutator(p, s))
    ell = fixed_vector(rc)
    norm = rc.q_int(rc.n)
    for j in range(rc.n):
        col = Matrix.column([p[(k, j)] for k in range(rc.n)], rc.mode)
        expected = ell.scale(ell[(j, 0)] / norm)
        report.add(f"P e'_{j+1} projects onto the fixed line", col.equals(expected))
    return report


# -- the reduced representation F and its bases ------------------------------


def reduced_gram_matrix(rc: RepContext) -> Matrix:
    """Tridiagonal Gram matrix of the f_i basis of F: diagonal [2]_q,
    off-diagonal -s.  Its k-th leading minor is [k+1]_q."""
    m = rc.n - 1
    entries = {(i, i): rc.q_int(2) for i in range(m)}
    for i in range(m - 1):
        entries[i, i + 1] = entries[i + 1, i] = -rc.s
    return Matrix.placed(rc.mode, m, entries)


def orthogonal_reduced_basis(rc: RepContext) -> list[Matrix]:
    """The rescaled Gram-Schmidt vectors v'_1, ..., v'_(n-1) of F in
    e'-coordinates, built by v'_1 = f_1, v'_i = [i]_q f_i + s v'_(i-1).

    Requires [k]_q != 0 for k <= n; raises naming the failing k otherwise.
    """
    rc.require_full_factorial()
    vecs = [simple_root_vector(1, rc)]
    for i in range(2, rc.n):
        prev = vecs[-1].scale(rc.s)
        vecs.append(simple_root_vector(i, rc).scale(rc.q_int(i)) + prev)
    return vecs


def split_gram_diagonal(rc: RepContext) -> list:
    """Diagonal Gram entries of the split basis: [n]_q for the fixed vector,
    then [i]_q [i+1]_q for v'_i."""
    return [rc.q_int(rc.n)] + [rc.q_int(i) * rc.q_int(i + 1) for i in range(1, rc.n)]


@dataclass
class SplitBasis:
    """Change of basis between e'-coordinates and the split basis."""

    matrix: Matrix          # columns: fixed vector, v'_1, ..., v'_(n-1)
    inverse: Matrix         # diag(gram)^(-1) matrix^T
    gram: list              # diagonal Gram entries, length n


def split_basis(rc: RepContext) -> SplitBasis:
    """The split basis; it is orthogonal for the form, so it inverts by transpose."""
    cols = [fixed_vector(rc)] + orthogonal_reduced_basis(rc)
    rows = [c.flatten() for c in cols]
    gram = split_gram_diagonal(rc)
    inv = Matrix.of(rc.mode, [[x / g for x in row] for row, g in zip(rows, gram)])
    return SplitBasis(Matrix.of(rc.mode, rows).transpose(), inv, gram)


def orthonormal_split_basis(rc: RepContext) -> Matrix:
    """Floating-point orthonormal basis adapted to E = L + F: columns are the
    normalized fixed vector u_0 followed by u_1, ..., u_(n-1), so u^T u = 1.
    The normalizations involve square roots, so this matrix is always approx."""
    sb = split_basis(rc)
    norms = np.array([cmath.sqrt(complex(g)) for g in sb.gram])
    return Matrix.approx(sb.matrix.to_approx().data.astype(complex) / norms)


def reflection_in_split_basis(i: int, rc: RepContext) -> Matrix:
    """The i-th reflection conjugated into the split basis (exact in exact
    mode; block diag(1, action on F))."""
    sb = split_basis(rc)
    return sb.inverse @ reflection_generator(i, rc, BASIS_E_PRIME) @ sb.matrix


def reflection_in_orthonormal_basis(i: int, rc: RepContext) -> Matrix:
    """The i-th reflection in the orthonormal split basis, u^T S_i u (always
    approx; block diag(1, action on F))."""
    u = orthonormal_split_basis(rc)
    return u.transpose() @ reflection_generator(i, rc, BASIS_E_PRIME).to_approx() @ u


def reflection_coefficient_a(i: int, q):
    """a_i = [2]_(q^i) / ([2]_q [i]_q), the diagonal entry of the 2x2 block
    through which S_i acts on the orthonormal basis of F, for i >= 1 and a
    bare q (Fraction or complex)."""
    return (1 + q ** i) / (q_int(2, q) * q_int(i, q))


def reflection_coefficient_b_squared(i: int, rc: RepContext):
    """b_i^2 = 4 q [i+1]_q [i-1]_q / ([2]_q [i]_q)^2, exact in exact mode."""
    _index_check(i, rc.n - 1, "coefficient")
    num = 4 * rc.q * rc.q_int(i + 1) * rc.q_int(i - 1)
    den = (rc.q_int(2) * rc.q_int(i)) ** 2
    return num / den


def orthonormal_reflection_block(i: int, rc: RepContext) -> Matrix:
    """The (n-1) x (n-1) matrix of S_i on the orthonormal basis of F.

    S_i fixes u_j for j not in {i-1, i} and acts on (u_(i-1), u_i) by
    [[a_i, b_i], [b_i, -a_i]]; for i = 1 this degenerates to u_1 -> -u_1.
    b_i = <u_(i-1), S_i u_i> is <v'_(i-1), S_i v'_i> = 2 s [i+1]_q [i-1]_q / [2]_q
    over the norms of v'_(i-1) and v'_i, the roots ``orthonormal_split_basis``
    takes, so b_i carries the sign of s.  Always approx: the norms are honest
    square roots.
    """
    _index_check(i, rc.n - 1, "generator")
    rc.require_full_factorial()
    if i == 1:
        entries = {(0, 0): -1}
    else:
        a = complex(reflection_coefficient_a(i, rc.q))
        gram = split_gram_diagonal(rc)
        norms = cmath.sqrt(complex(gram[i - 1])) * cmath.sqrt(complex(gram[i]))
        b = complex(2 * rc.s * rc.q_int(i + 1) * rc.q_int(i - 1) / rc.q_int(2)) / norms
        entries = {(i - 2, i - 2): a, (i - 2, i - 1): b, (i - 1, i - 2): b, (i - 1, i - 1): -a}
    return Matrix.placed("approx", rc.n - 1, entries, identity=True)


def gram_schmidt_check(rc: RepContext) -> CheckReport:
    """Build the orthogonal basis of F and verify the recurrence against the
    closed forms and the stated inner products."""
    report = CheckReport(f"gram-schmidt n={rc.n}")
    n, s = rc.n, rc.s
    vecs = orthogonal_reduced_basis(rc)
    norms = [rc.q_int(i) * rc.q_int(i + 1) for i in range(1, n)]

    report.add("v'_1 = f_1", vecs[0].equals(simple_root_vector(1, rc)))

    # closed form in terms of the f_j
    for i in range(1, n):
        acc = Matrix.zero(n, 1, rc.mode)
        for j in range(1, i + 1):
            acc = acc + simple_root_vector(j, rc).scale(s ** (i - j) * rc.q_int(j))
        report.add(f"v'_{i} closed form over the f-basis", acc.equals(vecs[i - 1]))

    # closed form in e'-coordinates
    for i in range(1, n):
        entries = [rc.qc.zero()] * n
        for j in range(1, i + 1):
            entries[j - 1] = s ** (i + j - 1)
        entries[i] = -rc.q_int(i)
        report.add(
            f"v'_{i} closed form over the e'-basis",
            Matrix.column(entries, rc.mode).equals(vecs[i - 1]),
        )

    for i in range(1, n):
        val = bilinear(vecs[i - 1], vecs[i - 1])
        report.add(
            f"<v'_{i}, v'_{i}> = [{i}]_q [{i + 1}]_q",
            scalar_is_zero(val - norms[i - 1]),
        )
        # the monic vectors v_i = v'_i / [i]_q have norm [i+1]_q / [i]_q
        vi = vecs[i - 1].scale(1 / rc.q_int(i))
        target = rc.q_int(i + 1) / rc.q_int(i)
        report.add(
            f"<v_{i}, v_{i}> = [{i + 1}]_q/[{i}]_q",
            scalar_is_zero(bilinear(vi, vi) - target),
        )

    for i in range(1, n):
        fi = simple_root_vector(i, rc)
        for j in range(1, n):
            val = bilinear(fi, vecs[j - 1])
            if j == i:
                expected = rc.q_int(i + 1)
            elif j == i - 1:
                expected = -s * rc.q_int(i - 1)
            else:
                expected = rc.qc.zero()
            report.add(
                f"<f_{i}, v'_{j}> as stated",
                scalar_is_zero(val - expected),
            )

    return report


def orthonormal_action_check(rc: RepContext) -> CheckReport:
    """Checks on the u-basis reflection blocks: a_i^2 + b_i^2 = 1 (exactly,
    via b_i^2), the alternative formula a_i = [i]_(q^2) [i]_q^(-2), agreement
    with the conjugated reflections, and orthogonality/involutivity/twin
    relations of the blocks."""
    rc.require_full_factorial()
    report = CheckReport(f"orthonormal-action n={rc.n}")
    one = rc.one()
    for i in range(1, rc.n):
        a = reflection_coefficient_a(i, rc.q)
        b2 = reflection_coefficient_b_squared(i, rc)
        report.add(f"a_{i}^2 + b_{i}^2 = 1", scalar_is_zero(a * a + b2 - one))
        alt = q_int(i, rc.q * rc.q) / (rc.q_int(i) ** 2)
        report.add(f"a_{i} = [i]_(q^2) [i]_q^(-2)", scalar_is_zero(a - alt))

    deltas = [orthonormal_reflection_block(i, rc) for i in range(1, rc.n)]
    ident = Matrix.identity(rc.n - 1, "approx")
    for i, d in enumerate(deltas, start=1):
        report.add(f"Delta_{i}^T Delta_{i} = 1", (d.transpose() @ d).equals(ident))
        report.add(f"Delta_{i}^2 = 1", (d @ d).equals(ident))
    for i in range(1, rc.n):
        for j in range(i + 2, rc.n):
            a, b = deltas[i - 1], deltas[j - 1]
            report.add(f"Delta_{i}Delta_{j} = Delta_{j}Delta_{i}", (a @ b).equals(b @ a))

    # the blocks must agree with conjugating the e'-basis reflections into
    # the orthonormal split basis (dropping the trivial first coordinate)
    if rc.mode == "exact" or abs(complex(rc.q).imag) < TOLERANCE:
        for i in range(1, rc.n):
            conj = reflection_in_orthonormal_basis(i, rc)
            sub = conj[1:, 1:]
            report.add(
                f"Delta_{i} matches the conjugated reflection",
                sub.equals(deltas[i - 1]),
            )
    return report


def appendix_check(rc: RepContext) -> CheckReport:
    """Whole appendix suite: Gram determinant, Gram-Schmidt identities, and
    the orthonormal-action coefficients."""
    report = CheckReport(f"appendix n={rc.n}")
    gram = reduced_gram_matrix(rc)
    for k in range(1, rc.n):
        det = determinant(gram[:k, :k])
        report.add(
            f"det of the leading {k}x{k} Gram block = [{k + 1}]_q",
            scalar_is_zero(det - rc.q_int(k + 1)),
        )
    report.extend(gram_schmidt_check(rc))
    report.extend(orthonormal_action_check(rc))
    return report
