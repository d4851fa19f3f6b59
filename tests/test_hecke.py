import itertools
from fractions import Fraction

import numpy as np
import pytest

from twindual.hecke import (
    RepContext,
    appendix_check,
    bilinear,
    braid_deviation,
    braid_deviation_check,
    burau_generator,
    check_twin_relations,
    fixed_vector,
    form_matrix,
    gram_schmidt_check,
    hecke_braid_check,
    hecke_quadratic_check,
    line_projection_matrix,
    orthogonality_check,
    orthonormal_action_check,
    orthonormal_reflection_block,
    orthonormal_split_basis,
    orthogonal_reduced_basis,
    projection_check,
    reduced_gram_matrix,
    reflection_coefficient_a,
    reflection_coefficient_b_squared,
    reflection_generator,
    reflection_in_orthonormal_basis,
    simple_root_vector,
    split_basis,
    split_gram_diagonal,
)
from twindual.linalg import Matrix, determinant
from twindual.scalars import DomainError, QContext, q_int, scalar_is_zero
from twindual.tensor_action import SPACE_REDUCED, TensorContext


def rc4():
    return RepContext(4, QContext.exact(2))  # q = 4


# q = 4 exactly, in floats, and at a complex q
MODES = [RepContext(4, QContext.exact(2)), RepContext(4, QContext.approx(4.0)),
         RepContext(4, QContext.approx(2 + 1j))]


def test_burau_block_at_q1():
    rc = RepContext(2, QContext.exact(1))
    t = burau_generator(1, rc)
    assert t.equals(Matrix.exact([[0, 1], [1, 0]]))


def test_hecke_quadratic_and_braid():
    for n, s in [(3, 2), (4, 2), (5, 3), (4, Fraction(1, 2))]:
        rc = RepContext(n, QContext.exact(s))
        assert hecke_quadratic_check(rc).ok
        assert hecke_braid_check(rc).ok


def test_eigenvectors():
    # T_i V = V D: eigenvalue q1 = 1 on e_j (j != i, i+1), on e_i + e_(i+1)
    # and on the all-ones vector; q2 = -q on q e_i - e_(i+1)
    for rc in MODES:
        n, q = rc.n, rc.q
        d = Matrix.placed(rc.mode, n + 1, {(n, n): -q}, identity=True)
        for i in range(1, n):
            cols = [[int(k == j) for k in range(n)] for j in range(n) if j not in (i - 1, i)]
            cols += [[int(k in (i - 1, i)) for k in range(n)], [1] * n,
                     [q if k == i - 1 else -1 if k == i else 0 for k in range(n)]]
            v = Matrix.of(rc.mode, cols).transpose()
            assert (burau_generator(i, rc) @ v).equals(v @ d), (rc.q, i)


def test_reflection_block_q1_is_permutation():
    rc = RepContext(3, QContext.exact(1))
    s = reflection_generator(1, rc)
    assert s.equals(Matrix.exact([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))


def test_twin_relations_exact_and_approx():
    assert check_twin_relations(rc4()).ok
    assert check_twin_relations(RepContext(5, QContext.exact(1))).ok
    rc = RepContext(4, QContext.approx(2 + 1j))
    assert check_twin_relations(rc).ok


def test_orthogonality():
    for n, s in [(3, 2), (4, 2), (6, 3)]:
        assert orthogonality_check(RepContext(n, QContext.exact(s))).ok


def test_form_matrix_values():
    rc = RepContext(3, QContext.exact(2))  # q = 4
    j = form_matrix(rc)
    assert j[(0, 0)] == 1 and j[(1, 1)] == 4 and j[(2, 2)] == 16
    # the e'-basis e'_i = s^(1-i) e_i is orthonormal for the form
    to_e = Matrix.placed("exact", 3, {(k, k): Fraction(1, 2 ** k) for k in range(3)})
    assert (to_e.transpose() @ j @ to_e).is_identity()
    # q = 2 has no rational square root, so the e-basis diagonal with entries
    # 1, 2, 4 only exists in approx mode
    rc2 = RepContext(3, QContext.approx(2.0))
    j2 = form_matrix(rc2)
    assert abs(j2[(1, 1)] - 2) < 1e-12 and abs(j2[(2, 2)] - 4) < 1e-12


def test_root_vector_norm():
    rc = rc4()
    for i in range(1, 4):
        f = simple_root_vector(i, rc)
        assert bilinear(f, f) == 1 + rc.q
    # the form is the plain dot product, with no conjugation at complex q
    rc = RepContext(4, QContext.approx(2 + 1j))
    v, w = simple_root_vector(1, rc), simple_root_vector(2, rc)
    expected = sum(a * b for a, b in zip(v.flatten(), w.flatten()))
    assert abs(bilinear(v, w) - expected) < 1e-12 and abs(expected + rc.s) < 1e-12
    assert abs(bilinear(w, w) - (1 + rc.q)) < 1e-12


def test_braid_deviation_identity():
    rc = RepContext(3, QContext.exact(2))
    dev = braid_deviation(1, rc)
    coeff = Fraction(-9, 25)  # -(1-4)^2/(1+4)^2
    expected = (reflection_generator(1, rc) - reflection_generator(2, rc)).scale(coeff)
    assert dev.equals(expected)

    rc9 = RepContext(4, QContext.exact(3))  # q = 9
    dev = braid_deviation(2, rc9)
    coeff = Fraction(-(1 - 9) ** 2, (1 + 9) ** 2)
    expected = (reflection_generator(2, rc9) - reflection_generator(3, rc9)).scale(coeff)
    assert dev.equals(expected)
    assert braid_deviation_check(rc9).ok


def test_braid_deviation_vanishes_at_q1():
    rc = RepContext(4, QContext.exact(1))
    for i in (1, 2):
        assert braid_deviation(i, rc).is_zero()


def test_projection_small_case():
    rc = RepContext(2, QContext.exact(1))
    p = line_projection_matrix(rc)
    assert p.equals(Matrix.exact([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]))


def test_projection_properties():
    for n, s in [(3, 2), (4, 2), (5, 1)]:
        assert projection_check(RepContext(n, QContext.exact(s))).ok


def test_projection_requires_splitting():
    # q = primitive cube root of unity makes [3]_q = 0
    import cmath

    rc = RepContext(3, QContext.approx(cmath.exp(2j * cmath.pi / 3)))
    with pytest.raises(DomainError):
        line_projection_matrix(rc)


def test_reduced_gram_matrix_and_determinant():
    for n in (3, 4, 5, 6):
        rc = RepContext(n, QContext.exact(2))
        gram = reduced_gram_matrix(rc)
        assert determinant(gram) == q_int(n, Fraction(4))
        assert gram.equals(gram.transpose())
    rc1 = RepContext(3, QContext.exact(1))
    gram = reduced_gram_matrix(rc1)
    assert gram.equals(Matrix.exact([[2, -1], [-1, 2]]))
    assert determinant(gram) == 3
    complex_gram = reduced_gram_matrix(RepContext(4, QContext.approx(2 + 1j)))
    assert complex_gram.mode == "approx"
    assert abs(determinant(complex_gram) - q_int(4, 2 + 1j)) < 1e-9


def test_orthogonal_reduced_basis_q1():
    rc = RepContext(3, QContext.exact(1))
    vecs = orthogonal_reduced_basis(rc)
    assert vecs[0].equals(simple_root_vector(1, rc))
    expected = simple_root_vector(2, rc).scale(2) + simple_root_vector(1, rc)
    assert vecs[1].equals(expected)
    assert bilinear(vecs[1], vecs[1]) == 6  # [2]_1 [3]_1


def test_gram_schmidt_report():
    for n, s in [(3, 2), (4, 2), (5, 2), (4, Fraction(1, 2))]:
        report = gram_schmidt_check(RepContext(n, QContext.exact(s)))
        assert report.ok and report.title == f"gram-schmidt n={n}"
        # one e'-coordinate closed form per vector v'_1, ..., v'_(n-1)
        closed_forms = [c for c in report.items if c.name.endswith("over the e'-basis")]
        assert len(closed_forms) == n - 1


def test_gram_schmidt_specific_inner_products():
    rc = rc4()
    vecs = orthogonal_reduced_basis(rc)
    for i in (2, 3):
        val = bilinear(simple_root_vector(i, rc), vecs[i - 2])
        assert val == -rc.s * rc.q_int(i - 1)


def test_reflection_coefficients():
    rc = RepContext(5, QContext.exact(2))
    one = Fraction(1)
    for i in range(1, 5):
        a = reflection_coefficient_a(i, rc.q)
        b2 = reflection_coefficient_b_squared(i, rc)
        assert a * a + b2 == one
        # alternative expression a_i = [i]_{q^2} / [i]_q^2
        assert a == q_int(i, rc.q * rc.q) / (rc.q_int(i) ** 2)


def test_reflection_coefficients_q1():
    rc = RepContext(4, QContext.exact(1))
    assert reflection_coefficient_a(2, rc.q) == Fraction(1, 2)
    assert reflection_coefficient_b_squared(2, rc) == Fraction(3, 4)


def test_orthonormal_action():
    for n, s in [(4, 2), (5, 2), (4, 3), (5, Fraction(1, 2))]:
        assert orthonormal_action_check(RepContext(n, QContext.exact(s))).ok


def test_orthonormal_block_matches_conjugation():
    # b_i is read off the norms the u-basis takes, so it follows the sign of
    # s; at s < 0 or at a negative or complex q, the principal root of b_i^2
    # or of [i+1]_q [i-1]_q picks the other sign at some i
    contexts = [rc4()] + [RepContext(5, qc) for qc in (
        QContext.exact(-2), QContext.exact(Fraction(-3, 2)), QContext.approx(-4),
        QContext.approx(1 + 2j))]
    for rc in contexts:
        for i in range(1, rc.n):
            block = orthonormal_reflection_block(i, rc)
            conj = reflection_in_orthonormal_basis(i, rc)
            sub = Matrix.approx(conj.to_ndarray()[1:, 1:])
            assert block.equals(sub, 1e-9), (rc.q, rc.s, i)


@pytest.mark.parametrize("s", [2, Fraction(3, 2), Fraction(1, 2), Fraction(1001, 1000)])
def test_split_basis_inverts_by_transpose(s):
    # the split basis is orthogonal for the form: M^T M = diag(gram) exactly
    for n in range(2, 7):
        rc = RepContext(n, QContext.exact(s))
        sb = split_basis(rc)
        gram = Matrix.placed("exact", n, {(k, k): g for k, g in enumerate(split_gram_diagonal(rc))})
        assert (sb.matrix.transpose() @ sb.matrix).equals(gram)
        assert (sb.inverse @ sb.matrix).is_identity()


COMPLEX_Q = (complex(-3, 0.5), complex(-0.5, 2), 3j, complex(-2, -1))


@pytest.mark.parametrize("qc", [QContext.approx_from_exact(2), QContext.approx_from_exact(Fraction(3, 2)),
                                *map(QContext.approx, COMPLEX_Q)])
def test_orthonormal_basis_inverts_by_transpose(qc):
    # the form is bilinear, so u^T u = 1 also at complex q
    for n in range(2, 7):
        u = orthonormal_split_basis(RepContext(n, qc))
        assert (u.transpose() @ u).equals(Matrix.identity(n, "approx"), 1e-12)


@pytest.mark.parametrize("q", COMPLEX_Q)
def test_complex_f_site_matches_closed_form_block_up_to_signs(q):
    # the square roots in u and in the closed-form b_i may pick different
    # branches, so the two agree up to one diagonal +-1 conjugation D
    for n in (3, 4, 5):
        rc = RepContext(n, QContext.approx(q))
        tc = TensorContext(rc, 1, SPACE_REDUCED)
        sites = [site.to_ndarray() for site in tc.sites]
        blocks = [orthonormal_reflection_block(i, rc).to_ndarray() for i in range(1, n)]
        signs = [np.array(d) for d in itertools.product((1, -1), repeat=n - 1)]
        assert any(all(np.allclose(d[:, None] * site * d, block, atol=1e-12)
                       for site, block in zip(sites, blocks)) for d in signs)


def test_reflection_formula():
    # in the e'-basis S_i = I - 2 f_i f_i^T / <f_i, f_i> with <f_i, f_i> = 1 + q,
    # so S_i f_j is -f_j at j = i, f_j + (2s/(1+q)) f_i at |j - i| = 1, else f_j
    for rc in MODES:
        n, one = rc.n, rc.one()
        ident = Matrix.identity(n, rc.mode)
        roots = Matrix.of(rc.mode, [simple_root_vector(j, rc).flatten() for j in range(1, n)])
        roots = roots.transpose()
        for i in range(1, n):
            s, fi = reflection_generator(i, rc), simple_root_vector(i, rc)
            assert scalar_is_zero(bilinear(fi, fi) - (one + rc.q))
            assert s.equals(ident - (fi @ fi.transpose()).scale(2 / (one + rc.q)))
            coeff = [[-2 if j == i else 2 * rc.s / (one + rc.q) if abs(j - i) == 1 else 0
                      for j in range(1, n)]]
            assert (s @ roots).equals(roots + fi @ Matrix.of(rc.mode, coeff)), (rc.q, i)


def test_reflection_fixes_the_fixed_vector():
    rc = rc4()
    ell = fixed_vector(rc)
    for i in range(1, 4):
        assert (reflection_generator(i, rc) @ ell).equals(ell)


def test_appendix_sweep():
    for n in (3, 4):
        for s in (2, 3, Fraction(1, 2)):
            assert appendix_check(RepContext(n, QContext.exact(s))).ok


def test_split_basis_reflection_is_block_diagonal():
    # the split basis separates the fixed line from F exactly, so the
    # conjugated reflection must be exactly diag(1, action on F)
    from twindual.hecke import reflection_in_split_basis

    rc = RepContext(5, QContext.exact(2))
    for i in range(1, 5):
        m = reflection_in_split_basis(i, rc)
        assert m[(0, 0)] == 1
        for j in range(1, 5):
            assert m[(0, j)] == 0 and m[(j, 0)] == 0
        assert (m @ m).is_identity()


def test_failed_checks_carry_witnesses():
    from twindual.hecke import _check_equal, _check_zero
    from twindual.reporting import CheckReport

    report = CheckReport("witness plumbing")
    _check_equal(report, "forced mismatch", Matrix.identity(2), Matrix.identity(2).scale(2))
    _check_zero(report, "forced nonzero", Matrix.identity(2))
    assert not report.ok
    for item in report.items:
        assert not item.passed and item.detail  # the residual is attached


def test_gram_schmidt_error_names_failing_k():
    import cmath

    rc = RepContext(4, QContext.approx(cmath.exp(2j * cmath.pi / 3)))  # [3]_q = 0
    with pytest.raises(DomainError, match=r"\[3\]_q = 0"):
        orthogonal_reduced_basis(rc)
