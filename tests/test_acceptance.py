"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run pytest with -s to watch them stream).

Criterion 6 is split: its first two clauses pass; the third asserts a rank
deficiency at (n, r) = (3, 2) on the reduced space that provably does not
occur (the identity, the swap, and the rank-one contraction are linearly
independent on the 4-dimensional tensor square, witnessed here in exact
arithmetic), so that clause is implemented as stated and fails honestly.
"""

import contextlib
import math
import time
from fractions import Fraction

from twindual.cli import main as cli_main
from twindual.density import (
    alt_density_check,
    finite_order_detect,
    independence_test,
    power_formula_check,
    rodrigues_check,
    rotation_axis_block,
)
from twindual.diagrams import (
    AlgebraElement,
    enumerate_diagrams,
    multiply,
    random_diagram,
    scaling_iso_check,
    verify_presentation,
)
from twindual.duality import brauer_duality_check, lambda_count, schur_weyl_check
from twindual.hecke import (
    RepContext,
    appendix_check,
    braid_deviation,
    braid_deviation_check,
    check_twin_relations,
    hecke_braid_check,
    hecke_quadratic_check,
    orthogonality_check,
    projection_check,
)
from twindual.scalars import QContext, excluded_q


@contextlib.contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{label} took {elapsed:.2f}s (budget {budget_seconds}s)"


def test_criterion_1_relation_suite():
    with criterion("1 relation-suite", 5):
        for n in (3, 4, 5, 6):
            rc = RepContext(n, QContext.exact(2))
            assert hecke_quadratic_check(rc).ok
            assert hecke_braid_check(rc).ok
            assert check_twin_relations(rc).ok
            assert orthogonality_check(rc).ok
            assert braid_deviation_check(rc).ok
            assert projection_check(rc).ok


def test_criterion_2_appendix_suite():
    with criterion("2 appendix-suite", 5):
        for n in (3, 4, 5, 6):
            for sqrt_q in (2, 3, Fraction(1, 2)):  # q = 4, 9, 1/4
                assert appendix_check(RepContext(n, QContext.exact(sqrt_q))).ok


def test_criterion_3_density_suite():
    with criterion("3 density-suite", 30):
        rc = RepContext(4, QContext.exact(2))
        for i in (1, 2):
            axis = rotation_axis_block(i, rc)
            assert (axis @ axis @ axis).equals(-axis, 1e-9)
            assert rodrigues_check(i, rc).ok
        rc_approx = RepContext(4, QContext.approx_from_exact(2))
        for k in range(1, 21):
            assert power_formula_check(1, k, rc_approx).ok

        assert finite_order_detect(1, RepContext(3, QContext.exact(1)), 100).order == 3
        for lam in (math.cos(2 * math.pi / 5), math.cos(2 * math.pi / 7), -0.5):
            q_plus, _ = excluded_q(lam)
            report = finite_order_detect(1, RepContext(3, QContext.approx(q_plus)), 100)
            assert report.finite and report.agree

        for n in (4, 5, 6, 7):
            rep = independence_test(RepContext(n, QContext.exact(2)))
            assert rep.dimension == math.comb(n - 1, 2)

        import cmath

        rc_root = RepContext(5, QContext.approx(cmath.exp(2j * cmath.pi / 3)))
        drop = independence_test(rc_root)
        assert drop.dependence_found and not drop.hypothesis_ok

        assert alt_density_check(rc, 400).all_infinite


def test_criterion_4_diagram_suite():
    from test_diagrams import brute_force_small_block_partitions

    with criterion("4 diagram-suite", 60):
        oracle_counts = {}
        for r in (1, 2, 3, 4):
            oracle_counts[r] = len(brute_force_small_block_partitions(range(1, 2 * r + 1)))
            assert len(enumerate_diagrams(r)) == oracle_counts[r]
        assert [oracle_counts[r] for r in (1, 2, 3, 4)] == [2, 10, 76, 764]

        import random

        rng = random.Random(2024)
        for r in (2, 3, 4, 5):
            for _ in range(5):
                delta = Fraction(rng.randint(-6, 6))
                delta_prime = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                assert verify_presentation(r, delta, delta_prime).ok

        delta, delta_prime = Fraction(3), Fraction(5)
        for _ in range(1000):
            a, b, c = (AlgebraElement.from_diagram(random_diagram(4, rng)) for _ in range(3))
            lhs = multiply(multiply(a, b, delta, delta_prime), c, delta, delta_prime)
            rhs = multiply(a, multiply(b, c, delta, delta_prime), delta, delta_prime)
            assert lhs.equals(rhs)

        for r in (2, 3):
            assert scaling_iso_check(r, Fraction(2), Fraction(7)).ok


def test_criterion_5_schur_weyl_suite_exact():
    with criterion("5a schur-weyl exact r<=2", 30):
        rc = RepContext(4, QContext.exact(2))
        for delta_prime in (Fraction(1), Fraction(85)):
            rep1 = schur_weyl_check(rc, 1, delta_prime, center=True)
            assert rep1.dim_commutant == 2
            assert rep1.ok

            rep2 = schur_weyl_check(rc, 2, delta_prime, center=True)
            assert rep2.dim_commutant == rep2.dim_diagram_image == 10
            assert rep2.faithful  # n = 4 > r = 2
            assert rep2.center_dim == 4 == lambda_count(4, 2)
            assert rep2.ok


def test_criterion_5_schur_weyl_suite_exact_r3():
    with criterion("5c schur-weyl exact r=3", 30):
        rc = RepContext(4, QContext.exact(2))
        for delta_prime in (Fraction(1), Fraction(85)):
            rep3 = schur_weyl_check(rc, 3, delta_prime, center=True)
            assert rep3.dim_commutant == rep3.dim_diagram_image == 76
            assert rep3.faithful  # n = 4 > r = 3
            assert rep3.center_dim == 7 == lambda_count(4, 3)
            assert rep3.ok

        rep = schur_weyl_check(RepContext(3, QContext.exact(2)), 3, Fraction(1), center=True)
        assert rep.dim_commutant == rep.dim_diagram_image == 71
        assert rep.center_dim == 5 == lambda_count(3, 3)
        assert rep.ok


def test_criterion_5_schur_weyl_suite_approx_r3():
    with criterion("5b schur-weyl approx r=3", 120):
        rc = RepContext(4, QContext.approx_from_exact(2))
        for delta_prime in (Fraction(1), Fraction(85)):
            rep3 = schur_weyl_check(rc, 3, delta_prime)
            assert rep3.dim_commutant == rep3.dim_diagram_image
            assert rep3.faithful == (4 > 3) == rep3.faithful_expected
            assert rep3.ok

        rc3 = RepContext(3, QContext.approx_from_exact(2))
        rep = schur_weyl_check(rc3, 3, Fraction(1))
        assert not rep.faithful  # n = 3 <= r = 3
        assert rep.dim_commutant == rep.dim_diagram_image
        assert rep.ok


def test_criterion_5_schur_weyl_suite_frontier():
    with criterion("5d schur-weyl n=4, r=4 and n=5, r=3", 120):
        rc4 = RepContext(4, QContext.approx_from_exact(2))
        rep = schur_weyl_check(rc4, 4, Fraction(1))
        assert rep.dim_commutant == rep.dim_diagram_image == 750
        assert rep.dim_pb_abstract == 764
        assert not rep.faithful and not rep.faithful_expected  # n = 4 <= r = 4
        assert rep.ok

        for rc5 in (RepContext(5, QContext.approx_from_exact(2)), RepContext(5, QContext.exact(2))):
            rep = schur_weyl_check(rc5, 3, Fraction(1))
            assert rep.dim_commutant == rep.dim_diagram_image == 76 == rep.dim_pb_abstract
            assert rep.faithful  # n = 5 > r = 3
            assert rep.ok, rc5.mode


def test_criterion_6_brauer_on_f():
    with criterion("6 brauer-on-F", 30):
        rep = brauer_duality_check(RepContext(4, QContext.approx_from_exact(2)), 1)
        assert rep.dim_commutant == 1
        assert rep.ok

        rep = brauer_duality_check(RepContext(5, QContext.approx_from_exact(2)), 2)
        assert rep.dim_commutant == 3 == rep.dim_pb_abstract
        assert rep.faithful
        assert rep.ok


def test_criterion_6_stated_f_threshold_at_n3_r2():
    """Implemented exactly as stated: the reduced-space action at n = 3,
    r = 2 is asserted unfaithful.  The assertion fails, and must fail: the
    three Brauer diagram images are linearly independent (each occupies a
    matrix position the others do not: the contraction hits (0,3), the
    identity (1,1), the swap (1,2) in the 4-dimensional tensor square), so
    the image has full dimension 3 and the action is faithful.  The stated
    cutoff dim F >= 2r is a sufficient condition only; the sharp faithfulness
    threshold visible in these computations is dim F >= r (compare n = 3,
    r = 3, where dim F = 2 < 3 and the image genuinely drops to 10 < 15).
    """
    with criterion("6b stated F-threshold at n=3, r=2", 30):
        rep = brauer_duality_check(RepContext(3, QContext.approx_from_exact(2)), 2)
        assert rep.faithful is False, (
            "unattainable as stated: the computed image dimension is "
            f"{rep.dim_diagram_image} = dim B_2 = {rep.dim_pb_abstract}, so the "
            "action is faithful although dim F = 2 < 2r = 4"
        )


def test_criterion_7_negative_controls(capsys):
    with criterion("7 negative-controls", 30):
        rc1 = RepContext(4, QContext.exact(1))  # q = 1 is excluded: it equals w(-1/2)
        for i in (1, 2):
            assert braid_deviation(i, rc1).is_zero()
        assert finite_order_detect(1, rc1, 50).order == 3

        code = cli_main(["duality", "--n", "4", "--q", "1", "--r", "2"])
        assert code == 3
        capsys.readouterr()
        code = cli_main(["duality", "--n", "4", "--q", "1", "--r", "2", "--force"])
        assert code == 1  # runs under --force; the equality fails at q = 1
        capsys.readouterr()
