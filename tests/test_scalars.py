import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindual.scalars import (
    DomainError,
    QContext,
    ScalarModeError,
    approx_eq,
    excluded_q,
    finite_order_lambda,
    is_q_admissible,
    q_factorial,
    q_int,
    rational_sqrt,
    scalar_from_json,
    scalar_to_json,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_q_int_examples():
    assert q_int(3, Fraction(2)) == 7
    for n in range(1, 9):
        assert q_int(n, Fraction(1)) == n
    assert q_int(2, Fraction(-1)) == 0
    assert q_int(0, Fraction(5)) == 0


def test_q_factorial_examples():
    assert q_factorial(0, Fraction(3)) == 1
    assert q_factorial(3, Fraction(2)) == 1 * 3 * 7
    assert q_factorial(2, Fraction(-1)) == 0


def test_q_int_accepts_context():
    ctx = QContext.exact(2)
    assert q_int(3, ctx) == 1 + 4 + 16
    assert q_factorial(2, ctx) == 5


@given(n=st.integers(min_value=1, max_value=12), q=rationals)
@settings(max_examples=60, deadline=None)
def test_geometric_series_identity(n, q):
    # (q - 1) [n]_q = q^n - 1
    assert (q - 1) * q_int(n, q) == q ** n - 1


def test_excluded_q_examples():
    plus, minus = excluded_q(Fraction(0))
    assert approx_eq(plus, 1j) and approx_eq(minus, -1j)
    assert excluded_q(Fraction(-1, 2)) == (Fraction(1), Fraction(1))
    assert excluded_q(Fraction(-17, 25)) == (Fraction(4), Fraction(1, 4))
    with pytest.raises(DomainError):
        excluded_q(Fraction(-1))


@given(lam=st.fractions(min_value=-10, max_value=10, max_denominator=30).filter(lambda x: x != -1))
@settings(max_examples=80, deadline=None)
def test_excluded_q_product_is_one(lam):
    plus, minus = excluded_q(lam)
    if isinstance(plus, Fraction):
        assert plus * minus == 1
    else:
        assert cmath.isclose(plus * minus, 1, rel_tol=1e-12, abs_tol=1e-12)


@given(lam=st.fractions(min_value=Fraction(-63, 64), max_value=Fraction(-1, 2), max_denominator=64))
@settings(max_examples=50, deadline=None)
def test_excluded_q_real_branch(lam):
    # for lam in (-1, -1/2]: w+ >= 1 >= w- > 0, both real
    plus, minus = excluded_q(lam)
    plus, minus = complex(plus), complex(minus)
    assert abs(plus.imag) < 1e-9 and abs(minus.imag) < 1e-9
    assert plus.real >= 1 - 1e-12
    assert 0 < minus.real <= 1 + 1e-12


@given(lam=st.fractions(min_value=Fraction(-31, 64), max_value=1, max_denominator=64))
@settings(max_examples=50, deadline=None)
def test_excluded_q_circle_branch(lam):
    plus, minus = excluded_q(lam)
    assert abs(abs(complex(plus)) - 1) < 1e-9
    assert abs(abs(complex(minus)) - 1) < 1e-9


def test_finite_order_lambda():
    # q = 4 corresponds to lam = -17/25 (and the degenerate lam = -1)
    assert finite_order_lambda(Fraction(4)) == Fraction(-17, 25)
    assert finite_order_lambda(Fraction(1)) == Fraction(-1, 2)


def test_admissibility_q4():
    report = is_q_admissible(Fraction(4), 4)
    assert report.q_int_nonzero and report.q_factorial_nonzero
    assert report.excluded_check == "pass"
    assert report.admissible


def test_admissibility_q1_fails():
    report = is_q_admissible(Fraction(1), 3)
    assert report.q_int_nonzero
    assert report.excluded_check == "fail"
    assert not report.admissible
    assert any("excluded" in h for h in report.failed_hypotheses())


@pytest.mark.parametrize("q", [Fraction(4), 2 + 1j])
@pytest.mark.parametrize("n", [1, 0, -3])
def test_admissibility_needs_n_at_least_2(q, n):
    # [n-2]_q! has no meaning below n = 2, the domain of every representation
    with pytest.raises(DomainError, match="n must be at least 2"):
        is_q_admissible(q, n)


def test_admissibility_complex_sufficient():
    report = is_q_admissible(2 + 1j, 5)
    assert report.admissible


def test_admissibility_real_double_states_its_lambda():
    # lam(4) = -17/25, far from every rational-angle cosine
    report = is_q_admissible(4.0 + 0j, 4)
    assert report.excluded_check == "pass" and report.admissible
    assert "lam(q) = -0.68 " in report.detail


@pytest.mark.parametrize("q", [1 + 1e-15j, 1e-12 + 1j, 1.00001 + 0j,
                               cmath.exp(2j * cmath.pi / 3)])
def test_admissibility_fails_a_double_within_tolerance_of_an_excluded_point(q):
    # the run computes at TOLERANCE and cannot tell these from 1, i, 1 and
    # e^(2 pi i/3), although each double is exactly none of them
    report = is_q_admissible(QContext.approx(q), 5)
    assert report.excluded_check == "fail" and not report.admissible
    assert "within TOLERANCE" in report.detail


def test_admissibility_unit_circle_double_is_a_gaussian_rational():
    # the double of e^(0.7i) is a Gaussian rational other than +-i
    report = is_q_admissible(cmath.exp(0.7j), 4)
    assert report.excluded_check == "pass" and report.admissible


def _gauss_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gauss_q_int(n, q):
    """[n]_q = 1 + q + ... + q^(n-1) in exact pairs (re, im) of Fractions."""
    total, power = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    for _ in range(n):
        total = (total[0] + power[0], total[1] + power[1])
        power = _gauss_mul(power, q)
    return total


gaussian_q = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6)).filter(
    lambda t: (t[0], t[1]) != (0, 0) and (t[0], t[1]) != (-t[2], 0))


@given(abd=gaussian_q, n=st.integers(min_value=2, max_value=9))
@settings(max_examples=300, deadline=None)
def test_admissibility_is_exact_on_gaussian_rationals(abd, n):
    # every double q = (a + bi)/d is a Gaussian rational; the oracle works
    # in its exact pairs, and only q = 1 and q = +-i are excluded
    a, b, d = abd
    z = complex(a / d, b / d)
    q = (Fraction(z.real), Fraction(z.imag))
    zero = (Fraction(0), Fraction(0))
    report = is_q_admissible(z, n)
    assert report.excluded_check in ("pass", "fail")
    assert (report.excluded_check == "fail") == (q in {(1, 0), (0, 1), (0, -1)})
    assert report.q_int_nonzero == (_gauss_q_int(n, q) != zero)
    assert report.q_factorial_nonzero == all(_gauss_q_int(k, q) != zero for k in range(1, n - 1))


def test_approx_of_a_rational_keeps_rational_knowledge():
    ctx = QContext.approx(4)
    assert ctx.mode == "approx"
    report = is_q_admissible(ctx, 4)
    assert report.admissible  # decided exactly despite the approx mode


def test_qcontext_rejects_degenerate_q():
    with pytest.raises(DomainError):
        QContext.exact(0)
    with pytest.raises(DomainError):
        QContext(q=Fraction(-1), sqrt_q=Fraction(1))
    with pytest.raises(DomainError):
        QContext.approx(-1.0)


@pytest.mark.parametrize("q", [complex("nan"), complex("inf"), complex(2, float("nan")),
                               complex(float("-inf"), 1)])
def test_qcontext_names_a_non_finite_q_first(q):
    # a non-finite q is named as such, not as a failed square-root check
    with pytest.raises(DomainError, match="is not finite"):
        QContext.approx(q)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


def test_scalar_json_roundtrip():
    assert scalar_from_json(scalar_to_json(Fraction(-7, 3))) == Fraction(-7, 3)
    z = scalar_from_json(scalar_to_json(1.5 - 2j))
    assert z == 1.5 - 2j
    assert scalar_to_json(Fraction(4)) == "4"


def test_qcontext_mode_follows_q():
    # a context is exact exactly when q is a Fraction
    for qc in (QContext.exact(2), QContext.exact(Fraction(-3, 2)),
               QContext(q=Fraction(9, 4), sqrt_q=Fraction(3, 2))):
        assert (qc.mode, qc.is_exact, qc.one()) == ("exact", True, Fraction(1))
    for qc in (QContext.approx(4), QContext.approx(Fraction(9, 4)), QContext.approx(2 + 1j),
               QContext(q=4.0, sqrt_q=2.0)):
        assert (qc.mode, qc.is_exact, qc.one()) == ("approx", False, 1 + 0j)
    with pytest.raises(ScalarModeError):
        QContext(q=Fraction(4), sqrt_q=2.0)
