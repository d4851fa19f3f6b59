"""Density machinery: rotation blocks of adjacent reflection products,
Chebyshev finite-order analysis, and the bracket-generated Lie elements
whose independence certifies density of the reflection group image.

The product of adjacent reflections S_i S_(i+1) is a rotation; its active
3x3 block R has a Rodrigues form R = I + z N + (1 - c) N^2, where N is the
antisymmetric cross-product matrix of the (normalized) axis, and

    z = 2 sqrt(q [3]_q) / [2]_q^2,    c = -[2]_(q^2) / [2]_q^2,

with z^2 + c^2 = 1 as a rational identity in q.  Powers follow Chebyshev
polynomials: S^k = I + z U_(k-1)(c) N + (1 - T_k(c)) N^2, so S has finite
order k exactly when U_(k-1)(c) = 0 and T_k(c) = 1.  Both the power formula
and the order criterion read the pair (T_k, U_(k-1)) from one recurrence,
``chebyshev_pairs``; the direct powers are ``Matrix.pow``.

Orders are decided, not searched: a rotation by arccos(c) has order k exactly
when arccos(c)/2pi has denominator k, so each rotation has one candidate
order (``rotation_order_candidate``; by Niven's theorem a rational c has one
only at 0, +-1/2, +-1), tested by a direct power and the Chebyshev criterion.

Exact mode note: N itself needs 1/sqrt([3]_q), which is usually irrational,
so exact computations carry M = sqrt([3]_q) N (entries polynomial in s,
the positive rational root (exact) or the principal root (approx) of q)
and push the scalar into each identity:
N^3 = -N becomes M^3 = -[3]_q M, and z N = (2 sqrt(q) / [2]_q^2) M.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .hecke import (
    RepContext,
    orthonormal_reflection_block,
    reflection_coefficient_a,
    reflection_generator,
)
from .linalg import Matrix, commutator, determinant, span_dimension
from .reporting import CheckReport
from .scalars import (
    RATIONAL_ANGLE_ORDERS,
    TOLERANCE,
    DomainError,
    approx_eq,
    finite_order_lambda,
    report_to_json,
    scalar_is_zero,
)


def _axis_index_check(i: int, rc: RepContext):
    if not 1 <= i <= rc.n - 2:
        raise DomainError(f"rotation index {i} out of range 1..{rc.n - 2}")


def scaled_rotation_axis_block(i: int, rc: RepContext) -> Matrix:
    """sqrt([3]_q) times the rotation-axis matrix of S_i S_(i+1): the
    antisymmetric block [[0, -q, s], [q, 0, -1], [-s, 1, 0]] embedded at
    rows/columns i, i+1, i+2 of an n x n zero matrix (e'-basis).  Exact in
    exact mode; satisfies M^3 = -[3]_q M."""
    _axis_index_check(i, rc)
    q, s = rc.q, rc.s
    a, b, c = i - 1, i, i + 1
    entries = {(a, b): -q, (a, c): s, (b, a): q, (b, c): -1, (c, a): -s, (c, b): 1}
    return Matrix.placed(rc.mode, rc.n, entries)


def rotation_axis_block(i: int, rc: RepContext) -> Matrix:
    """The normalized rotation-axis matrix N_i (always approx: the
    normalization 1/sqrt([3]_q) is generally irrational).  N^3 = -N."""
    _axis_index_check(i, rc)
    three = complex(rc.q_int(3))
    if scalar_is_zero(three):
        raise DomainError("[3]_q = 0: the rotation axis cannot be normalized")
    return scaled_rotation_axis_block(i, rc).to_approx().scale(1 / cmath.sqrt(three))


def adjacent_reflection_product(i: int, rc: RepContext) -> Matrix:
    """S_i S_(i+1) in the e'-basis."""
    _axis_index_check(i, rc)
    return reflection_generator(i, rc) @ reflection_generator(i + 1, rc)


def rotation_block_check(i: int, rc: RepContext) -> CheckReport:
    """The middle 3x3 block of S_i S_(i+1) equals
    [[a, ab, b^2], [b, -a^2, -ab], [0, b, -a]] with a = (1-q)/(1+q),
    b = 2 s/(1+q); the product has determinant 1."""
    _axis_index_check(i, rc)
    report = CheckReport(f"rotation-block i={i} n={rc.n}")
    q, s = rc.q, rc.s
    one = rc.one()
    a = (one - q) / (one + q)
    b = 2 * s / (one + q)
    block = [
        [a, a * b, b * b],
        [b, -a * a, -a * b],
        [rc.qc.zero(), b, -a],
    ]
    prod = adjacent_reflection_product(i, rc)
    o = i - 1
    sub = prod[o:o + 3, o:o + 3]
    report.add("middle 3x3 block has the displayed rotation form",
               sub.equals(Matrix.of(rc.mode, block)))
    report.add("det(S_i S_(i+1)) = 1", scalar_is_zero(determinant(prod) - one))
    return report


def rotation_sine_squared(rc: RepContext):
    """z^2 = 4 q [3]_q / [2]_q^4; z^2 + c^2 = 1 identically in q."""
    return 4 * rc.q * rc.q_int(3) / (rc.q_int(2) ** 4)


def rodrigues_check(i: int, rc: RepContext) -> CheckReport:
    """S_i S_(i+1) = I + z N + (1-c) N^2 with the stated z, c, and
    z^2 + c^2 = 1.  Exact mode verifies the scaled version
    S = I + (2s/[2]_q^2) M + ((1-c)/[3]_q) M^2."""
    _axis_index_check(i, rc)
    if scalar_is_zero(rc.q_int(3)):
        raise DomainError("[3]_q = 0: the Rodrigues normalization fails")
    report = CheckReport(f"rodrigues i={i} n={rc.n}")
    one = rc.one()
    c = finite_order_lambda(rc.q)
    z2 = rotation_sine_squared(rc)
    report.add("z^2 + c^2 = 1", scalar_is_zero(z2 + c * c - one))

    prod = adjacent_reflection_product(i, rc)
    ident = Matrix.identity(rc.n, rc.mode)
    m = scaled_rotation_axis_block(i, rc)
    three = rc.q_int(3)
    rhs = ident + m.scale(2 * rc.s / (rc.q_int(2) ** 2)) + (m @ m).scale((one - c) / three)
    report.add("rotation formula reproduces S_i S_(i+1)", prod.equals(rhs))

    n_mat = rotation_axis_block(i, rc)
    report.add("N^T = -N", n_mat.transpose().equals(-n_mat))
    cube = n_mat @ n_mat @ n_mat
    report.add("N^3 = -N", cube.equals(-n_mat))
    m3 = m @ m @ m
    report.add("M^3 = -[3]_q M (scaled, exactly)", m3.equals(m.scale(-three)))
    return report


def chebyshev_pairs(x):
    """The values (T_k(x), U_(k-1)(x)) for k = 0, 1, 2, ... (x a Fraction
    or complex), both from the recurrence P_(k+1) = 2x P_k - P_(k-1)."""
    one = Fraction(1) if isinstance(x, (Fraction, int)) else 1 + 0j
    t_prev, t, u_prev, u = one, x, 0 * one, one      # T_0, T_1, U_(-1), U_0
    yield t_prev, u_prev
    while True:
        yield t, u
        t_prev, t = t, 2 * x * t - t_prev
        u_prev, u = u, 2 * x * u - u_prev


def _chebyshev_pair(k: int, x):
    """(T_k(x), U_(k-1)(x))."""
    return next(itertools.islice(chebyshev_pairs(x), k, None))


def power_formula_check(i: int, k: int, rc: RepContext) -> CheckReport:
    """(S_i S_(i+1))^k = I + z U_(k-1)(c) N + (1 - T_k(c)) N^2."""
    _axis_index_check(i, rc)
    if k < 1:
        raise DomainError("k must be at least 1")
    if scalar_is_zero(rc.q_int(3)):
        raise DomainError("[3]_q = 0")
    report = CheckReport(f"power-formula i={i} k={k}")
    t_val, u_val = _chebyshev_pair(k, finite_order_lambda(rc.q))
    one = rc.one()
    m = scaled_rotation_axis_block(i, rc)
    ident = Matrix.identity(rc.n, rc.mode)
    rhs = ident + m.scale(2 * rc.s * u_val / (rc.q_int(2) ** 2)) + (m @ m).scale((one - t_val) / rc.q_int(3))
    lhs = adjacent_reflection_product(i, rc).pow(k)
    report.add(f"Chebyshev closed form matches the direct power k={k}",
               lhs.equals(rhs, TOLERANCE * k))
    return report


def rotation_order_candidate(c, k_max: int) -> int | None:
    """The only k <= k_max that can be the order of a rotation with cosine c:
    for a Fraction c, its entry in ``RATIONAL_ANGLE_ORDERS``; for a complex
    double, the denominator of the fraction t with denominator <= k_max
    closest to arccos(c)/2pi, if cos(2pi t) = c at TOLERANCE."""
    if isinstance(c, Fraction):
        k = RATIONAL_ANGLE_ORDERS.get(c, k_max + 1)
        return k if k <= k_max else None
    c = complex(c)
    turn = Fraction(math.acos(max(-1.0, min(1.0, c.real))) / (2 * math.pi)).limit_denominator(k_max)
    return turn.denominator if approx_eq(math.cos(2 * math.pi * turn), c) else None


def _known_q(rc: RepContext):
    """q as a Fraction whenever the run knows it exactly."""
    q = rc.qc.rational_knowledge()
    return rc.q if q is None else q


@dataclass(frozen=True)
class FiniteOrderReport:
    """The two witnesses of a rotation's candidate order k: ``order`` is k
    when S^k = 1 (exactly in exact mode, which sets ``exactly_confirmed``),
    ``chebyshev_order`` is k when U_(k-1)(c) = 0 and T_k(c) = 1 (exactly for
    a rational c); both are None without a candidate up to k_max."""

    VERDICTS = ("agree", "verdict")

    k_max: int
    order: int | None
    chebyshev_order: int | None
    exactly_confirmed: bool = False

    @property
    def agree(self) -> bool:
        return self.order == self.chebyshev_order

    @property
    def finite(self) -> bool:
        return self.order is not None

    @property
    def verdict(self) -> str:
        return f"finite({self.order})" if self.finite else f"no-order-up-to({self.k_max})"

    def to_json(self) -> dict:
        return report_to_json(self)


def finite_order_detect(i: int, rc: RepContext, k_max: int = 2000) -> FiniteOrderReport:
    """The order of S_i S_(i+1) if it is at most k_max: the candidate order
    of its cosine, from the rational q when the run knows it, tested by a
    direct power and by the Chebyshev criterion."""
    _axis_index_check(i, rc)
    c = finite_order_lambda(_known_q(rc))
    k = rotation_order_candidate(c, k_max)
    if k is None:
        return FiniteOrderReport(k_max=k_max, order=None, chebyshev_order=None)
    order = k if adjacent_reflection_product(i, rc).pow(k).is_identity() else None
    t, u = _chebyshev_pair(k, c)
    cheb = k if scalar_is_zero(u) and scalar_is_zero(t - 1) else None
    confirmed = order is not None and rc.mode == "exact"
    return FiniteOrderReport(k_max=k_max, order=order, chebyshev_order=cheb, exactly_confirmed=confirmed)


# -- Lie elements ------------------------------------------------------------


def lie_bracket_element(r: int, s: int, rc: RepContext) -> Matrix:
    """The bracket-generated element L_(r, s) of the orthogonal Lie algebra,
    1 <= r < s <= n-1, by its recursion: L_(r, r+1) = sqrt([3]_q) N_r, and
    L_(r, s+1) = [L_(r,s), L_(s,s+1)]."""
    if not 1 <= r < s <= rc.n - 1:
        raise DomainError(f"need 1 <= r < s <= {rc.n - 1}")
    if s == r + 1:
        return scaled_rotation_axis_block(r, rc)
    return commutator(lie_bracket_element(r, s - 1, rc), scaled_rotation_axis_block(s - 1, rc))


def lie_family(rc: RepContext) -> list[Matrix]:
    return [
        lie_bracket_element(r, s, rc)
        for r in range(1, rc.n - 1)
        for s in range(r + 1, rc.n)
    ]


@dataclass(frozen=True)
class IndependenceReport:
    VERDICTS = ("independent", "dependence_found")

    n: int
    dimension: int
    expected: int
    hypothesis_ok: bool  # [n-2]_q! != 0

    @property
    def independent(self) -> bool:
        return self.dimension == self.expected

    @property
    def dependence_found(self) -> bool:
        return self.dimension < self.expected

    def to_json(self) -> dict:
        return report_to_json(self)


def independence_test(rc: RepContext) -> IndependenceReport:
    """Span dimension of all L_(r,s) against the expected count
    (n-1 choose 2); a rank drop witnesses a dependence (which is expected
    exactly when some [j]_q = 0 for j <= n-2)."""
    family = lie_family(rc)
    dim = span_dimension(family)
    expected = math.comb(rc.n - 1, 2)
    hypothesis = not scalar_is_zero(rc.q_factorial(rc.n - 2))
    return IndependenceReport(rc.n, dim, expected, hypothesis)


def sign_flip_matrix(i: int, size: int) -> Matrix:
    """diag(1, ..., -1, ..., 1) with the -1 in position i (1-indexed)."""
    return Matrix.placed("approx", size, {(i - 1, i - 1): -1}, identity=True)


@dataclass(frozen=True)
class AltDensityReport:
    n: int
    hypothesis_ok: bool       # [n]_q! != 0
    orders: tuple             # entries: int or None per i = 1..n-2
    k_max: int

    @property
    def all_infinite(self) -> bool:
        return all(o is None for o in self.orders)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hypothesis_ok": self.hypothesis_ok,
            "orders": [o if o is not None else f"no-order-up-to({self.k_max})" for o in self.orders],
            "all_infinite_up_to_k_max": self.all_infinite,
            "k_max": self.k_max,
        }


def alt_density_check(rc: RepContext, k_max: int = 2000) -> AltDensityReport:
    """The alternative density route on F: for i = 1..n-2 form the product
    of the sign flip D_i with the reflection block of S_(i+1) on the
    orthonormal basis (a rotation in coordinates i, i+1 with cosine
    -a_(i+1)) and report its order up to k_max: the candidate order of that
    cosine, confirmed by a direct power; density follows when none is
    finite."""
    rc.require_full_factorial()
    hypothesis = not scalar_is_zero(rc.q_factorial(rc.n))
    q = _known_q(rc)
    orders = []
    for i in range(1, rc.n - 1):
        k = rotation_order_candidate(-reflection_coefficient_a(i + 1, q), k_max)
        if k is not None:
            rot = sign_flip_matrix(i, rc.n - 1) @ orthonormal_reflection_block(i + 1, rc)
            k = k if rot.pow(k).is_identity() else None
        orders.append(k)
    return AltDensityReport(rc.n, hypothesis, tuple(orders), k_max)
