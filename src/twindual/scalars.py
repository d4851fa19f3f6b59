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
angle.  The only candidate is lam(q) = -(1+q^2)/(1+q)^2, and by Niven's
theorem the rational cosines of rational angles are exactly 0, +-1/2, +-1.
An exact q is decided exactly: lam(q) is rational.  An approx q is decided
as its run decides zeros, at TOLERANCE: a flag reads the float [k]_q, and
the check fails when lam(q) is within TOLERANCE of one of those cosines,
since the run cannot tell q from a point that fails.  A double that passes
is admissible exactly too.  It is a rational or a Gaussian rational, so
lam(q) lies in Q(i), where a cosine is rational and hence one of the five;
and the only roots of a [k]_q in Q(i) are -1 and +-i, where the float
[k]_q is exactly 0.
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
    """Exact and approx scalars were mixed."""


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
    """The deformation parameter q and its square root; the context is
    exact exactly when q is a Fraction.

    The root is the positive rational root (exact) or the principal root
    (approx); its sign only picks a conjugate copy of the representation.
    """

    q: Scalar
    sqrt_q: Scalar

    def __post_init__(self):
        if self.is_exact:
            if not isinstance(self.sqrt_q, Fraction):
                raise ScalarModeError("a Fraction q requires a Fraction sqrt_q")
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
        return cls(q=s * s, sqrt_q=s)

    @classmethod
    def approx(cls, q) -> "QContext":
        """Approx context at the principal square root of q."""
        qz = complex(q)
        return cls(q=qz, sqrt_q=cmath.sqrt(qz))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.q, Fraction)

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "approx"

    def zero(self) -> Scalar:
        return Fraction(0) if self.is_exact else 0j

    def one(self) -> Scalar:
        return Fraction(1) if self.is_exact else 1 + 0j

    def rational_knowledge(self) -> Fraction | None:
        """The exact value of q when it is real: the Fraction of an exact
        context, or the rational that a real approx double is."""
        if self.is_exact:
            return self.q  # type: ignore[return-value]
        return Fraction(self.q.real) if self.q.imag == 0 else None


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


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three hypotheses guarding the density and duality
    computations: [n]_q != 0, [n-2]_q! != 0, and q off the excluded set."""

    VERDICTS = ("admissible",)

    n: int
    q_int_nonzero: bool        # [n]_q != 0
    q_factorial_nonzero: bool  # [n-2]_q! != 0
    excluded_check: str        # pass | fail
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

    ``q`` may be a QContext, a Fraction or a complex double.  A Fraction is
    decided exactly.  A double is decided as the run that computes with it
    decides zeros: a flag is false when the quantity is zero at TOLERANCE,
    and the check fails when lam(q) is within TOLERANCE of a rational-angle
    cosine.  Every check the double passes, its exact value passes too.
    """
    if n < 2:
        raise DomainError("n must be at least 2")
    q = _as_q(q)
    if scalar_is_zero(q) or scalar_is_zero(q + 1):
        raise DomainError("q = 0 and q = -1 are outside the domain")
    nonzero_int = not scalar_is_zero(q_int(n, q))
    nonzero_fact = not scalar_is_zero(q_factorial(n - 2, q))
    lam = finite_order_lambda(q)
    if isinstance(lam, Fraction):
        if lam in RATIONAL_ANGLE_ORDERS:
            detail = f"q = w(lam) at lam = {lam}, a rational-angle cosine"
            return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_FAIL, detail)
        detail = (
            f"lam-solutions are -1 (degenerate) and {lam}; "
            "neither is a cosine of a rational angle"
        )
        return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_PASS, detail)
    # adding 0 prints lam(+-i) = -0.0 as 0
    lam_text = f"{lam.real + 0:.12g}" if lam.imag == 0 else f"{lam:.12g}"
    for c in RATIONAL_ANGLE_ORDERS:
        if approx_eq(lam, c):
            detail = f"lam(q) = {lam_text} is within TOLERANCE of {c}, a rational-angle cosine"
            return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_FAIL, detail)
    detail = (
        f"lam(q) = {lam_text} is farther than TOLERANCE from 0, +-1/2 and +-1, "
        "the only rational-angle cosines that lam of a double can be"
    )
    return AdmissibilityReport(n, nonzero_int, nonzero_fact, EXCLUDED_PASS, detail)
