import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from twindual.cli import main
from twindual.density import (
    alt_density_check,
    adjacent_reflection_product,
    chebyshev_pairs,
    finite_order_detect,
    independence_test,
    lie_bracket_element,
    lie_family,
    power_formula_check,
    rodrigues_check,
    rotation_axis_block,
    rotation_block_check,
    rotation_order_candidate,
    rotation_sine_squared,
    scaled_rotation_axis_block,
    sign_flip_matrix,
)
from twindual.hecke import RepContext, orthonormal_reflection_block
from twindual.linalg import Matrix
from twindual.scalars import (
    DomainError,
    QContext,
    excluded_q,
    finite_order_lambda,
    is_q_admissible,
)


def rc4(n=4):
    return RepContext(n, QContext.exact(2))


def test_scaled_axis_block_entries():
    rc = rc4(3)
    m = scaled_rotation_axis_block(1, rc)
    assert m.equals(Matrix.exact([[0, -4, 2], [4, 0, -1], [-2, 1, 0]]))
    assert (m + m.transpose()).is_zero()


def test_axis_block_q1():
    rc = RepContext(3, QContext.exact(1))
    n = rotation_axis_block(1, rc)
    s3 = 1 / math.sqrt(3)
    expected = Matrix.approx(
        [[0, -s3, s3], [s3, 0, -s3], [-s3, s3, 0]]
    )
    assert n.equals(expected, 1e-12)
    cube = n @ n @ n
    assert cube.equals(-n, 1e-9)


def test_axis_block_cube_identity():
    rc = rc4(5)
    for i in (1, 2, 3):
        n = rotation_axis_block(i, rc)
        assert (n @ n @ n).equals(-n, 1e-9)
        assert n.transpose().equals(-n, 1e-12)


def test_rotation_block_form():
    for n, s in [(3, 2), (4, 2), (5, 3)]:
        rc = RepContext(n, QContext.exact(s))
        for i in range(1, n - 1):
            assert rotation_block_check(i, rc).ok


def test_reflection_product_order_three_at_q1():
    rc = RepContext(3, QContext.exact(1))
    prod = adjacent_reflection_product(1, rc)
    assert prod.pow(3).is_identity()
    assert not prod.pow(2).is_identity()


def test_rodrigues_values():
    rc1 = RepContext(3, QContext.exact(1))
    assert finite_order_lambda(rc1.q) == Fraction(-1, 2)
    z2 = rotation_sine_squared(rc1)
    assert z2 == Fraction(3, 4)  # z = sqrt(3)/2
    rc = rc4(3)
    assert finite_order_lambda(rc.q) == Fraction(-17, 25)
    assert rodrigues_check(1, rc).ok
    assert rodrigues_check(1, rc1).ok
    # formal degenerate case: z = 0, c = 1 reproduces the identity matrix
    n = rotation_axis_block(1, rc)
    ident = Matrix.identity(rc.n, "approx")
    formal = ident + n.scale(0.0) + (n @ n).scale(1.0 - 1.0)
    assert formal.equals(ident, 0)


def test_sine_cosine_rational_identity():
    # z^2 + c^2 = 1 with denominators cleared reads
    # 4 q [3]_q + (1+q^2)^2 = (1+q)^4; check it coefficient-by-coefficient
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        size = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)]

    one_plus_q = [1, 1]
    q_poly = [0, 1]
    bracket3 = [1, 1, 1]                       # [3]_q
    lhs = poly_add(
        poly_mul(poly_mul([4], q_poly), bracket3),
        poly_mul([1, 0, 1], [1, 0, 1]),        # (1+q^2)^2
    )
    rhs = poly_mul(poly_mul(one_plus_q, one_plus_q), poly_mul(one_plus_q, one_plus_q))
    assert lhs == rhs

    # and numerically at sampled rationals
    for num in range(-8, 9):
        for den in (1, 2, 3):
            q = Fraction(num, den)
            if q in (0, -1):
                continue
            assert 4 * q * (1 + q + q * q) + (1 + q * q) ** 2 == (1 + q) ** 4


def chebyshev_t_u(k, x):
    """(T_k(x), U_k(x)), read from the pairs (T_j, U_(j-1))."""
    pairs = list(itertools.islice(chebyshev_pairs(x), k + 2))
    return pairs[k][0], pairs[k + 1][1]


def test_chebyshev_trig_identities():
    for k in range(0, 12):
        theta = 0.7
        t, u = chebyshev_t_u(k, complex(math.cos(theta)))
        assert abs(t - math.cos(k * theta)) < 1e-10
        assert abs(math.sin(theta) * u - math.sin((k + 1) * theta)) < 1e-10


def test_power_formula():
    rc = rc4()
    for k in (1, 2, 3, 5, 8, 13, 20):
        assert power_formula_check(1, k, rc).ok


def test_power_formula_random_admissible_q():
    import random

    rng = random.Random(17)
    for _ in range(8):
        q = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2.5))
        rc = RepContext(4, QContext.approx(q))
        for i in (1, 2):
            assert rodrigues_check(i, rc).ok
            for k in (2, 5, 12):
                assert power_formula_check(i, k, rc).ok
    rc1 = RepContext(3, QContext.exact(1))
    # k = 3 at q = 1: the cube is the identity (T_3(-1/2) = 1, U_2(-1/2) = 0)
    assert chebyshev_t_u(3, Fraction(-1, 2))[0] == 1
    assert chebyshev_t_u(2, Fraction(-1, 2))[1] == 0
    assert power_formula_check(1, 3, rc1).ok


def test_finite_order_q1():
    report = finite_order_detect(1, RepContext(3, QContext.exact(1)), 100)
    assert report.order == 3
    assert report.chebyshev_order == 3
    assert report.agree
    assert report.exactly_confirmed


def test_no_order_at_q4():
    report = finite_order_detect(1, rc4(), 2000)
    assert report.order is None
    assert report.chebyshev_order is None
    assert report.agree


@pytest.mark.parametrize(
    "lam, expected",
    [(math.cos(2 * math.pi / 5), 5), (math.cos(2 * math.pi / 7), 7), (-0.5, 3)],
)
def test_constructed_finite_orders(lam, expected):
    qplus, _ = excluded_q(lam)
    rc = RepContext(3, QContext.approx(qplus))
    report = finite_order_detect(1, rc, 64)
    assert report.order == expected
    assert report.chebyshev_order == expected
    assert report.agree


def test_lie_base_case():
    rc = rc4(3)
    el = lie_bracket_element(1, 2, rc)
    assert el.equals(scaled_rotation_axis_block(1, rc))


def closed_form_lie_element(r: int, s: int, rc: RepContext) -> Matrix:
    """Oracle for L_(r, s), t = s - r:
    (-1)^t ( q^(3/2) [t-1] E(r,s-1) + q^t E(r,s) - q^(1/2) [t] E(r,s+1)
             - sum_(i=1..t-2) q^((i+1)/2) E(r+i, s-1)
             + sum_(j=1..t) q^((j-1)/2) E(r+j, s+1) )
    with E(a,b) = e_(a,b) - e_(b,a) (1-indexed, n x n).  The leading
    exponent 3/2 was fitted symbolically from the recursion; it is the only
    q-power consistent with the bracket for every t."""
    def unit_diff(a, b):
        return Matrix.placed(rc.mode, rc.n, {(a - 1, b - 1): 1, (b - 1, a - 1): -1})

    t = s - r
    sq, q = rc.s, rc.q
    acc = Matrix.zero(rc.n, rc.n, rc.mode)
    if t - 1 > 0:
        acc = acc + unit_diff(r, s - 1).scale(sq ** 3 * rc.q_int(t - 1))
    acc = acc + unit_diff(r, s).scale(q ** t)
    acc = acc - unit_diff(r, s + 1).scale(sq * rc.q_int(t))
    for i in range(1, t - 1):
        acc = acc - unit_diff(r + i, s - 1).scale(sq ** (i + 1))
    for j in range(1, t + 1):
        acc = acc + unit_diff(r + j, s + 1).scale(sq ** (j - 1))
    return -acc if t % 2 == 1 else acc


def test_lie_recursive_equals_closed_form():
    for n, s in [(5, 2), (6, 3), (7, 2)]:
        rc = RepContext(n, QContext.exact(s))
        for r in range(1, n - 1):
            for t in range(r + 1, n):
                a = lie_bracket_element(r, t, rc)
                assert a.equals(closed_form_lie_element(r, t, rc)), (n, r, t)
                assert (a + a.transpose()).is_zero()


def test_lie_index_validation():
    with pytest.raises(DomainError):
        lie_bracket_element(2, 2, rc4())
    with pytest.raises(DomainError):
        lie_bracket_element(1, 4, rc4())  # s must be <= n-1


def test_independence():
    for n in (4, 5, 6, 7):
        rep = independence_test(RepContext(n, QContext.exact(2)))
        assert rep.independent
        assert rep.dimension == math.comb(n - 1, 2)
        assert rep.hypothesis_ok


def test_independence_rank_drop_at_cube_root():
    w = cmath.exp(2j * cmath.pi / 3)
    rc = RepContext(5, QContext.approx(w))
    rep = independence_test(rc)
    assert not rep.hypothesis_ok  # [3]_q = 0
    assert rep.dependence_found
    assert rep.dimension < rep.expected


def test_admissibility_agrees_with_the_independence_hypothesis_at_cube_root():
    rc = RepContext(5, QContext.approx(cmath.exp(2j * cmath.pi / 3)))
    report = is_q_admissible(rc.qc, rc.n)
    assert not independence_test(rc).hypothesis_ok  # [3]_q = 0
    assert not report.q_factorial_nonzero and not report.admissible


def test_lie_family_size():
    assert len(lie_family(rc4(5))) == 6


def test_alt_density():
    rc = rc4()
    rep = alt_density_check(rc, 2000)
    assert rep.hypothesis_ok
    assert rep.all_infinite
    # D_1 equals the first reflection block on the orthonormal basis
    d1 = sign_flip_matrix(1, rc.n - 1)
    assert d1.equals(orthonormal_reflection_block(1, rc), 1e-12)
    # each product is a rotation: the 2x2 active block has determinant 1
    for i in range(1, rc.n - 1):
        rot = sign_flip_matrix(i, rc.n - 1) @ orthonormal_reflection_block(i + 1, rc)
        block = rot.to_ndarray()[i - 1:i + 1, i - 1:i + 1]
        det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
        assert abs(det - 1) < 1e-9


def test_alt_density_finite_at_q1():
    rc = RepContext(4, QContext.exact(1))
    rep = alt_density_check(rc, 100)
    assert not rep.all_infinite  # q = 1 degenerates to the symmetric group


def test_matrix_order_stops_once_powers_blow_up():
    # at q = 3i the rotations are not unitary (their cosines are not real):
    # no order is a candidate, so no power is raised and nothing overflows
    rc = RepContext(4, QContext.approx(3j))
    with np.errstate(over="raise", invalid="raise"):
        assert alt_density_check(rc, 2000).orders == (None, None)
        assert finite_order_detect(1, rc, 2000).order is None


@pytest.mark.parametrize("c, k_max, expected", [
    (Fraction(1), 2000, 1),
    (Fraction(-1), 2000, 2),
    (Fraction(-1, 2), 2000, 3),
    (Fraction(0), 2000, 4),
    (Fraction(1, 2), 2000, 6),
    (Fraction(-17, 25), 2000, None),            # sqrt(q) = 2: no rational angle
    (math.cos(2 * math.pi / 5), 2000, 5),
    (Fraction(1, 2), 5, None),                  # the order exceeds k_max
    (math.cos(2 * math.pi / 5), 4, None),
    (finite_order_lambda(3j), 2000, None),      # not a real cosine
])
def test_rotation_order_candidate(c, k_max, expected):
    assert rotation_order_candidate(c, k_max) == expected


# q = (1 + 10^-5)^2: the rotation cosine is -1/2 - 5.0e-11, so the rotations
# come within about 1e-10 of order 3 but never reach it
NEAR_ONE = ("density", "--n", "4", "--q", "10000200001/10000000000", "--check", "order",
            "--check", "alt")


@pytest.mark.parametrize("mode", [(), ("--mode", "approx")])
def test_near_one_states_no_finite_order(capsys, mode):
    code = main(list(NEAR_ONE + mode))
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [o["verdict"] for o in payload["orders"]] == ["no-order-up-to(2000)"] * 2
    assert all(o["order"] is None and o["chebyshev_order"] is None for o in payload["orders"])
    assert payload["alt_density"]["orders"] == ["no-order-up-to(2000)"] * 2
    assert payload["alt_density"]["all_infinite_up_to_k_max"]


def test_orders_raise_one_power_per_candidate(monkeypatch):
    powers = []
    pow_ = Matrix.pow
    monkeypatch.setattr(Matrix, "pow", lambda self, k: powers.append(k) or pow_(self, k))
    rc = RepContext(5, QContext.exact(2))
    assert not any(finite_order_detect(i, rc).finite for i in (1, 2, 3))
    assert alt_density_check(rc).all_infinite
    assert powers == []
    rc = RepContext(4, QContext.exact(1))
    assert [finite_order_detect(i, rc).order for i in (1, 2)] == [3, 3]
    assert alt_density_check(rc).orders == (3, None)     # cosines -1/2 and -1/3
    assert powers == [3, 3, 3]
