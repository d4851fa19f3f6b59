"""Scalar arithmetic: exact rationals with the positive rational root of q
(exact) or complex doubles with its principal root (approx), quantum
integers, and the admissibility test for q.

Two scalar modes exist and never mix inside one computation:

* exact  -- ``fractions.Fraction``.  q is a rational square and s is its
  positive rational root, so every representation entry downstream stays
  rational.
* approx -- Python ``complex``, compared with the relative tolerance
  |a-b| <= TOLERANCE * max(1, |a|, |b|).

The admissibility test decides whether a parameter q is safe for the density
and duality computations: the quantum integer [n]_q and the quantum factorial
[n-2]_q! must be nonzero, and q must avoid the set of values
w(lam) = (-lam +- sqrt(-1-2*lam)) / (1+lam) with lam a cosine of a rational
angle.  For rational q the membership is decided exactly: the only candidate
is lam(q) = -(1+q^2)/(1+q)^2, which is rational, and by Niven's theorem the
rational cosines of rational angles are exactly 0, +-1/2, +-1.  For a complex
floating q we use the sufficient condition that q lies off the closed
positive real axis and off the unit circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, complex]

#: the one cutoff of every approx comparison and rank
TOLERANCE = 1e-9

#: the rational values of cos(2*pi*k/m), k/m in lowest terms, each with the
#: order m of a rotation by that angle: by Niven's theorem there are no others
RATIONAL_ANGLE_ORDERS = {
    Fraction(1): 1,
    Fraction(-1): 2,
    Fraction(-1, 2): 3,
    Fraction(0): 4,
    Fraction(1, 2): 6,
}


class ScalarModeError(TypeError):
    """Exact and approx scalars were mixed, or a mode is unsupported."""


class DomainError(ValueError):
    """A scalar parameter lies outside the domain of an operation."""


def approx_eq(a, b) -> bool:
    """Tolerance-based equality |a-b| <= TOLERANCE * max(1, |a|, |b|)."""
    a, b = complex(a), complex(b)
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, Fraction) or isinstance(x, int):
        return x == 0
    return abs(complex(x)) <= TOLERANCE


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def scalar_to_json(x: Scalar):
    """Rationals as "p/q" strings, complex doubles as {"re": .., "im": ..}."""
    if isinstance(x, (Fraction, int)):
        return str(x)
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def report_to_json(report) -> dict:
    """A report dataclass's fields in declaration order, then the
    properties its class names in ``VERDICTS``."""
    return {**vars(report), **{name: getattr(report, name) for name in report.VERDICTS}}


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict):
        return complex(obj["re"], obj["im"])
    raise ValueError(f"not a serialized scalar: {obj!r}")


@dataclass(frozen=True)
class QContext:
    """The deformation parameter q, its square root, and the mode.

    The root is the positive rational root (exact) or the principal root
    (approx); its sign only picks a conjugate copy of the representation.

    ``exact_q`` keeps the rational q of an approx context whose q is known
    to be rational (a rational square root, or a real ``--approx`` value),
    so admissibility and rotation orders are still decided exactly.
    """

    mode: str  # "exact" | "approx"
    q: Scalar
    sqrt_q: Scalar
    exact_q: Fraction | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "approx"):
            raise ScalarModeError(f"unknown scalar mode {self.mode!r}")
        if self.mode == "exact":
            if not isinstance(self.q, Fraction) or not isinstance(self.sqrt_q, Fraction):
                raise ScalarModeError("exact mode requires Fraction q and sqrt_q")
            if self.sqrt_q * self.sqrt_q != self.q:
                raise DomainError("sqrt_q**2 != q")
            if self.q == 0 or self.q == -1:
                raise DomainError("q = 0 and q = -1 are rejected")
        else:
            if not cmath.isfinite(complex(self.q)):
                raise DomainError(f"q = {self.q} is not finite")
            if not approx_eq(complex(self.sqrt_q) ** 2, complex(self.q)):
                raise DomainError("sqrt_q**2 != q (beyond tolerance)")
            if abs(complex(self.q)) <= TOLERANCE or approx_eq(complex(self.q), -1):
                raise DomainError("q = 0 and q = -1 are rejected")

    @classmethod
    def exact(cls, sqrt_q) -> "QContext":
        """Exact context with q = sqrt_q**2 for a rational sqrt_q."""
        s = Fraction(sqrt_q)
        return cls(mode="exact", q=s * s, sqrt_q=s)

    @classmethod
    def approx(cls, q, exact_q: Fraction | None = None) -> "QContext":
        """Approx context at the principal square root of q, keeping
        ``exact_q``, the rational value of q, when the caller knows it."""
        qz = complex(q)
        return cls(mode="approx", q=qz, sqrt_q=cmath.sqrt(qz), exact_q=exact_q)

    @classmethod
    def approx_from_exact(cls, sqrt_q) -> "QContext":
        """Approx context derived from a rational square root; keeps the
        rational q so admissibility stays exactly decidable."""
        s = Fraction(sqrt_q)
        q = s * s
        return cls(mode="approx", q=complex(q), sqrt_q=complex(s), exact_q=q)

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0j

    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1 + 0j

    def rational_knowledge(self) -> Fraction | None:
        """The rational value of q if known, regardless of mode."""
        if self.is_exact:
            return self.q  # type: ignore[return-value]
        return self.exact_q


def _as_q(q):
    if isinstance(q, QContext):
        return q.q
    if isinstance(q, int):
        return Fraction(q)
    return q


def q_int(n: int, q) -> Scalar:
    """The quantum integer [n]_q = 1 + q + ... + q**(n-1); [0]_q = 0.

    ``q`` may be a QContext or a bare scalar (Fraction, int, or complex).
    """
    if n < 0:
        raise DomainError("q_int requires n >= 0")
    qq = _as_q(q)
    total = Fraction(0) if isinstance(qq, Fraction) else 0j
    power = Fraction(1) if isinstance(qq, Fraction) else 1 + 0j
    for _ in range(n):
        total += power
        power *= qq
    return total


def q_factorial(n: int, q) -> Scalar:
    """The quantum factorial [n]_q! = [1]_q [2]_q ... [n]_q; empty product 1."""
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    qq = _as_q(q)
    result = Fraction(1) if isinstance(qq, Fraction) else 1 + 0j
    for k in range(1, n + 1):
        result *= q_int(k, qq)
    return result


def excluded_q(lam) -> tuple[Scalar, Scalar]:
    """The pair w+(lam), w-(lam) = (-lam +- sqrt(-1-2*lam)) / (1+lam).

    These are the parameter values at which the product of two adjacent
    reflections has finite order.  Their product is exactly 1.  The result is
    exact (a pair of Fractions) when lam is rational and -1-2*lam is a
    rational square; otherwise a pair of complex doubles.
    """
    if isinstance(lam, int):
        lam = Fraction(lam)
    if isinstance(lam, Fraction):
        if lam == -1:
            raise DomainError("lam = -1: denominator 1 + lam vanishes")
        disc = -1 - 2 * lam
        root = rational_sqrt(disc)
        if root is not None:
            return ((-lam + root) / (1 + lam), (-lam - root) / (1 + lam))
        lamz = complex(lam)
    else:
        lamz = complex(lam)
        if approx_eq(lamz, -1):
            raise DomainError("lam = -1: denominator 1 + lam vanishes")
    rootz = cmath.sqrt(-1 - 2 * lamz)
    return ((-lamz + rootz) / (1 + lamz), (-lamz - rootz) / (1 + lamz))


def finite_order_lambda(q) -> Scalar:
    """The unique lam with q in {w+(lam), w-(lam)}: lam = -(1+q^2)/(1+q)^2.

    Solving w(lam) = q by squaring gives the quadratic
    (1+q)^2 lam^2 + 2(q^2+q+1) lam + (1+q^2) = 0, whose roots are this value
    and the degenerate lam = -1.
    """
    qq = _as_q(q)
    one = Fraction(1) if isinstance(qq, Fraction) else 1 + 0j
    denom = (one + qq) ** 2
    if scalar_is_zero(denom):
        raise DomainError("q = -1 has no finite-order parameter")
    return -(one + qq * qq) / denom


EXCLUDED_PASS = "pass"
EXCLUDED_FAIL = "fail"
EXCLUDED_UNKNOWN = "unknown-sufficient-check-failed"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three hypotheses guarding the density and duality
    computations: [n]_q != 0, [n-2]_q! != 0, and q off the excluded set."""

    VERDICTS = ("admissible",)

    n: int
    q_int_nonzero: bool        # [n]_q != 0
    q_factorial_nonzero: bool  # [n-2]_q! != 0
    excluded_check: str        # pass | fail | unknown-sufficient-check-failed
    detail: str = ""

    @property
    def admissible(self) -> bool:
        return self.q_int_nonzero and self.q_factorial_nonzero and self.excluded_check == EXCLUDED_PASS

    def failed_hypotheses(self) -> list[str]:
        out = []
        if not self.q_int_nonzero:
            out.append(f"[{self.n}]_q = 0")
        if not self.q_factorial_nonzero:
            out.append(f"[{self.n - 2}]_q! = 0")
        if self.excluded_check != EXCLUDED_PASS:
            out.append(f"excluded-set check: {self.excluded_check}")
        return out

    def to_json(self) -> dict:
        return report_to_json(self)


class InadmissibleParameterError(ValueError):
    """Raised when a duality check is asked to run at an excluded or
    degenerate q without forcing."""

    def __init__(self, report: AdmissibilityReport):
        self.report = report
        failed = "; ".join(report.failed_hypotheses())
        super().__init__(f"q fails the duality hypotheses: {failed}")


def is_q_admissible(q, n: int) -> AdmissibilityReport:
    """Check the hypotheses [n]_q != 0, [n-2]_q! != 0, and q off the excluded set,
    for n >= 2; a smaller n is a DomainError, as for every representation.

    ``q`` may be a QContext, a Fraction (decided exactly) or a complex double
    (decided by the sufficient off-axis/off-circle condition, which reports
    "unknown-sufficient-check-failed" when it does not apply), compared at
    TOLERANCE.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    rational = None
    if isinstance(q, QContext):
        rational = q.rational_knowledge()
        qval = q.q
    elif isinstance(q, (Fraction, int)):
        rational = Fraction(q)
        qval = rational
    else:
        qval = complex(q)

    if rational is not None:
        if rational == 0 or rational == -1:
            raise DomainError("q = 0 and q = -1 are outside the domain")
        nonzero_int = q_int(n, rational) != 0
        nonzero_fact = q_factorial(n - 2, rational) != 0
        lam = finite_order_lambda(rational)
        if lam in RATIONAL_ANGLE_ORDERS:
            detail = f"q = w(lam) at lam = {lam}, a rational-angle cosine"
            return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_FAIL, detail)
        detail = (
            f"lam-solutions are -1 (degenerate) and {lam}; "
            "neither is a cosine of a rational angle"
        )
        return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_PASS, detail)

    nonzero_int = not scalar_is_zero(q_int(n, qval))
    nonzero_fact = not scalar_is_zero(q_factorial(n - 2, qval))
    on_positive_axis = abs(qval.imag) <= TOLERANCE * max(1.0, abs(qval)) and qval.real >= -TOLERANCE
    on_unit_circle = abs(abs(qval) - 1.0) <= TOLERANCE
    if not on_positive_axis and not on_unit_circle:
        detail = "q is off the closed positive real axis and off the unit circle"
        return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_PASS, detail)
    where = "the positive real axis" if on_positive_axis else "the unit circle"
    detail = f"q lies on {where}; the sufficient condition cannot decide membership"
    return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_UNKNOWN, detail)
