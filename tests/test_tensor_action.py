import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from twindual.diagrams import PartialDiagram, compose, enumerate_diagrams, generator, random_diagram
from twindual.hecke import RepContext, orthonormal_split_basis
from twindual.linalg import Matrix, commutator, kron, kron_power
from twindual.scalars import DomainError, QContext
from twindual.tensor_action import (
    SPACE_FULL,
    SPACE_REDUCED,
    TensorContext,
    diagram_matrix,
    group_generators,
)


def tc_exact(n=4, r=2, space=SPACE_FULL):
    return TensorContext(RepContext(n, QContext.exact(2)), r, space)


def tc_approx(n=4, r=2, space=SPACE_FULL):
    return TensorContext(RepContext(n, QContext.approx_from_exact(2)), r, space)


def test_swap_involution_and_matrix():
    tc = tc_exact()
    s1 = diagram_matrix(generator("s", 1, 2), tc, 1)
    assert (s1 @ s1).is_identity()
    # n = 2, r = 2: the explicit 4x4 swap
    tc2 = TensorContext(RepContext(2, QContext.exact(2)), 2)
    swap = diagram_matrix(generator("s", 1, 2), tc2, 1)
    expected = Matrix.exact(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert swap.equals(expected)


def test_contraction_properties():
    tc = tc_exact()
    e1 = diagram_matrix(generator("e", 1, 2), tc, 1)
    assert (e1 @ e1).equals(e1.scale(4))  # e^2 = n e with n = 4
    s1 = diagram_matrix(generator("s", 1, 2), tc, 1)
    assert (s1 @ e1).equals(e1)
    assert (e1 @ s1).equals(e1)
    assert e1.trace() == 4


def test_slot_projection_properties():
    tc = tc_exact()
    dp = Fraction(7)
    p1 = diagram_matrix(generator("p", 1, 2), tc, dp)
    assert (p1 @ p1).equals(p1.scale(dp))  # p^2 = delta' p
    bare = diagram_matrix(generator("p", 1, 2), tc, Fraction(1))
    assert (bare @ bare).equals(bare)


def test_operators_commute_with_group_action():
    for tc in (tc_exact(), tc_approx()):
        gens = group_generators(tc)
        ops = [diagram_matrix(generator(kind, i, 2), tc, Fraction(3))
               for kind, i in (("s", 1), ("e", 1), ("p", 1), ("p", 2))]
        for g in gens:
            for op in ops:
                assert commutator(g, op).is_zero()


def test_group_action_squares_to_identity():
    tc = tc_exact()
    for g in group_generators(tc):
        assert (g @ g).is_identity()


def test_group_action_fixes_fixed_tensor():
    for tc in (tc_exact(), tc_approx()):
        v = Matrix.column([1] + [0] * (tc.dim - 1), tc.mode)  # u_0 x ... x u_0
        for g in group_generators(tc):
            assert (g @ v).equals(v, 1e-9)


def test_diagonal_action_r1_is_site_matrix():
    tc = tc_exact(4, 1)
    assert len(tc.sites) == 3
    for site in tc.sites:
        assert kron_power(site, tc.r).equals(site)


def test_one_site_data_is_built_from_the_context_alone():
    # sites and gram are no constructor arguments, and rebuilding from
    # (rc, space) at another r gives the same one-site data
    tc = tc_exact(4, 3, SPACE_REDUCED)
    with pytest.raises(TypeError):
        TensorContext(tc.rc, 2, sites=tc.sites)
    other = TensorContext(tc.rc, 1, SPACE_REDUCED)
    assert other.gram == tc.gram
    assert all(a.equals(b) for a, b in zip(other.sites, tc.sites, strict=True))


def test_generator_diagrams_map_to_operators():
    # no s or e diagram has a singleton, so delta' never enters its image:
    # the array, den and dtype are those at delta' = 1, in both modes and on
    # both spaces; a p image is delta' times its delta' = 1 value
    for mode_tc in (tc_exact, tc_approx):
        for space in (SPACE_FULL, SPACE_REDUCED):
            tc = mode_tc(4, 3, space)
            primes = [Fraction(3, 2), 5] + ([2 - 1j] if tc.mode == "approx" else [])
            for kind, i, dp in itertools.product("se", (1, 2), primes):
                image = diagram_matrix(generator(kind, i, 3), tc, dp)
                base = diagram_matrix(generator(kind, i, 3), tc, 1)
                assert image.den == base.den and image.data.dtype == base.data.dtype
                assert np.array_equal(image.data, base.data), (tc.mode, space, kind, i, dp)
    tc = tc_exact()
    dp = Fraction(5)
    p1 = diagram_matrix(generator("p", 1, 2), tc, dp)
    assert p1.equals(diagram_matrix(generator("p", 1, 2), tc, 1).scale(dp))
    assert diagram_matrix(PartialDiagram.identity(2), tc, dp).is_identity()


def per_tuple_diagram_matrix(d, tc, delta_prime):
    """Reference functor: sort the blocks into verticals, top and bottom
    pairs and singletons, then loop over every bottom index tuple and every
    common index of the top pairs, with the Gram weights in exact mode."""
    r, n_loc = tc.r, tc.local_dim
    verticals, top_pairs, bottom_pairs, top_singles, bottom_singles = [], [], [], [], []
    for b in d.blocks:
        if len(b) == 1:
            (top_singles if b[0] <= r else bottom_singles).append((b[0] - 1) % r)
        elif b[1] <= r:
            top_pairs.append((b[0] - 1, b[1] - 1))
        elif b[0] > r:
            bottom_pairs.append((b[0] - r - 1, b[1] - r - 1))
        else:
            verticals.append((b[0] - 1, b[1] - r - 1))
    exact = tc.mode == "exact"
    g = tc.gram
    singles = len(top_singles) + len(bottom_singles)
    scalar = tc.rc.one()
    if singles and exact:
        scalar *= Fraction(delta_prime) ** (singles // 2)
        scalar *= Fraction(g[0]) ** ((len(bottom_singles) - len(top_singles)) // 2)
    elif singles:
        scalar *= complex(delta_prime) ** (singles // 2)

    def flat(tup):
        return sum(k * n_loc ** (r - 1 - i) for i, k in enumerate(tup))

    arr = np.zeros((tc.dim, tc.dim), dtype=object)
    for bottom in itertools.product(range(n_loc), repeat=r):
        if any(bottom[a] != bottom[b] for a, b in bottom_pairs):
            continue
        if any(bottom[a] != 0 for a in bottom_singles):
            continue
        weight = scalar
        if exact:
            for a, _ in bottom_pairs:
                weight = weight * g[bottom[a]]
        top = [0] * r
        for a, b in verticals:
            top[a] = bottom[b]
        for values in itertools.product(range(n_loc), repeat=len(top_pairs)):
            w = weight
            for (a, b), v in zip(top_pairs, values):
                top[a] = top[b] = v
                if exact:
                    w = w / g[v]
            arr[flat(top), flat(bottom)] += w
    return Matrix.of(tc.mode, arr)


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("space", [SPACE_FULL, SPACE_REDUCED])
@pytest.mark.parametrize("n", [3, 4])
def test_functor_matches_per_tuple_oracle(n, space, mode):
    qc = QContext.exact(2) if mode == "exact" else QContext.approx_from_exact(2)
    rc = RepContext(n, qc)
    for r in (1, 2, 3):
        tc = TensorContext(rc, r, space)
        for dp in (Fraction(1), Fraction(5), Fraction(1, 3)):
            for d in enumerate_diagrams(r, "all" if space == SPACE_FULL else "brauer"):
                got, want = diagram_matrix(d, tc, dp), per_tuple_diagram_matrix(d, tc, dp)
                assert got.den == want.den and got.data.dtype == want.data.dtype, d
                if mode == "exact":
                    assert got.data.tolist() == want.data.tolist(), d
                else:
                    assert got.data.tobytes() == want.data.tobytes(), d


def test_functor_homomorphism_exact():
    tc = tc_exact()
    dp = Fraction(7)
    rng = random.Random(5)
    n = Fraction(4)
    for _ in range(500):
        d1, d2 = random_diagram(2, rng), random_diagram(2, rng)
        lhs = diagram_matrix(d1, tc, dp) @ diagram_matrix(d2, tc, dp)
        tr = compose(d1, d2)
        rhs = diagram_matrix(tr.result, tc, dp).scale(n ** tr.loops * dp ** tr.non_loops)
        assert lhs.equals(rhs), (d1, d2)


def test_functor_homomorphism_approx_against_algebra_multiply():
    # oracle route: multiply in the diagram algebra at (delta, delta') =
    # (n, dp), then push the resulting linear combination through the functor
    from twindual.diagrams import AlgebraElement, multiply
    from twindual.linalg import Matrix as M

    tc = tc_approx()
    dp = 3.0
    rng = random.Random(6)
    for _ in range(60):
        d1, d2 = random_diagram(2, rng), random_diagram(2, rng)
        lhs = diagram_matrix(d1, tc, dp) @ diagram_matrix(d2, tc, dp)
        product = multiply(
            AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2), 4.0, dp
        )
        rhs = M.zero(tc.dim, tc.dim, "approx")
        for d, coeff in product.terms.items():
            rhs = rhs + diagram_matrix(d, tc, dp).scale(coeff)
        assert lhs.equals(rhs, 1e-9)


def test_all_diagram_images_commute_with_group():
    tc = tc_exact()
    gens = group_generators(tc)
    for d in enumerate_diagrams(tc.r):
        image = diagram_matrix(d, tc, Fraction(7))
        for g in gens:
            assert commutator(g, image).is_zero()


@pytest.mark.parametrize("rc", [RepContext(3, QContext.exact(Fraction(7, 3))),
                                RepContext(3, QContext.approx_from_exact(Fraction(3, 2))),
                                RepContext(3, QContext.approx(2 + 1j))],
                         ids=["exact", "approx", "complex"])
def test_generator_images_act_on_their_own_slots(rc):
    # s_i and e_i act as I (x) X (x) I with X their image on two slots, and
    # p_j with X its image on one: the lemma that lets duality_check prove
    # commutation with the group at two slots for every r
    dp = Fraction(7, 2) if rc.mode == "exact" else 3.5
    for space, kinds in ((SPACE_FULL, "sep"), (SPACE_REDUCED, "se")):
        for r in (3, 4):
            tc = TensorContext(rc, r, space)
            for kind in kinds:
                width = 1 if kind == "p" else 2
                local_tc = TensorContext(rc, width, space)
                local = diagram_matrix(generator(kind, 1, width), local_tc, dp)
                for i in range(1, r - width + 2):
                    before = Matrix.identity(tc.local_dim ** (i - 1), rc.mode)
                    after = Matrix.identity(tc.local_dim ** (r - i - width + 1), rc.mode)
                    image = diagram_matrix(generator(kind, i, r), tc, dp)
                    assert image.equals(kron(kron(before, local), after)), (space, r, kind, i)


def test_exact_and_approx_images_are_conjugate_invariants():
    # traces agree between the exact split-basis functor and the approx
    # orthonormal one (similarity invariance)
    te, ta = tc_exact(), tc_approx()
    dp = Fraction(3)
    for d in enumerate_diagrams(te.r):
        tr_exact = complex(diagram_matrix(d, te, dp).trace())
        tr_approx = complex(diagram_matrix(d, ta, 3.0).trace())
        assert abs(tr_exact - tr_approx) < 1e-8


def _contraction_from_basis(u_cols: np.ndarray) -> np.ndarray:
    """The two-site contraction operator in e'-coordinates built from the
    given orthonormal columns: theta theta^T with theta = sum_k u_k x u_k.
    (For any basis with U^T U = I the operator sends x (x) y to <x, y> theta.)
    """
    n = u_cols.shape[0]
    theta = np.zeros(n * n, dtype=u_cols.dtype)
    for k in range(u_cols.shape[1]):
        theta += np.kron(u_cols[:, k], u_cols[:, k])
    return np.outer(theta, theta)


def test_contraction_independent_of_orthonormal_basis():
    rc = RepContext(4, QContext.approx_from_exact(2))
    u = orthonormal_split_basis(rc).data
    rng = np.random.default_rng(12)
    gauss = rng.standard_normal((rc.n - 1, rc.n - 1))
    q_rot, _ = np.linalg.qr(gauss)
    rotated = u.copy()
    rotated[:, 1:] = u[:, 1:] @ q_rot  # another orthonormal basis of F
    a_original = _contraction_from_basis(u)
    a_rotated = _contraction_from_basis(rotated)
    assert np.max(np.abs(a_original - a_rotated)) < 1e-9
    # and the operator, conjugated into the u-basis, is the functor's matrix
    tc = TensorContext(rc, 2)
    u2 = Matrix.approx(np.kron(u, u))
    conjugated = u2.transpose() @ Matrix.approx(a_original) @ u2
    assert conjugated.equals(diagram_matrix(generator("e", 1, 2), tc, 1), 1e-8)


def test_reduced_space_contraction():
    tc = tc_approx(4, 2, SPACE_REDUCED)
    e1 = diagram_matrix(generator("e", 1, 2), tc, 1)
    assert (e1 @ e1).equals(e1.scale(3.0), 1e-9)  # dim F = 3
    assert abs(complex(e1.trace()) - 3) < 1e-9


def test_reduced_space_rejects_partial_diagrams():
    tc = tc_exact(4, 2, SPACE_REDUCED)
    from twindual.diagrams import generator

    with pytest.raises(DomainError):
        diagram_matrix(generator("p", 1, 2), tc, Fraction(1))


def test_index_checks():
    tc = tc_exact()
    with pytest.raises(DomainError):
        diagram_matrix(generator("s", 2, 2), tc, 1)
    with pytest.raises(DomainError):
        diagram_matrix(generator("p", 3, 2), tc, Fraction(1))
    with pytest.raises(DomainError):
        diagram_matrix(PartialDiagram.identity(3), tc, Fraction(1))
