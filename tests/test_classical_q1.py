"""The q = 1 end of the paper's analogy as an oracle.

At q = 1 the twin group acts on E through the permutation representation of
S_n, and the duality is the classical one behind the partition algebra.  A
forced exact run there has closed-form answers:

* the commutant on E^(x)r is the partition algebra image,
  sum_(k <= n) S(2r, k) with S a Stirling number of the second kind; on
  F = E - trivial it follows by inclusion-exclusion over the slots;
* the group envelope, for r >= 2, is the image of C[S_n]: the sum of
  (f^lambda)^2 over the partitions lambda of n with n - lambda_1 <= r, f^lambda
  the number of standard Young tableaux of shape lambda.

No GF(p) sandwich closes at q = 1, so these runs take the rational routes.
n = 5, r = 3 is left out: a forced exact run there takes over three minutes.
"""

import math
from functools import cache

import pytest

from twindual import duality
from twindual.duality import brauer_duality_check, schur_weyl_check
from twindual.hecke import RepContext
from twindual.scalars import QContext


@cache
def stirling2(a: int, k: int) -> int:
    if a == k:
        return 1
    if a == 0 or k == 0:
        return 0
    return k * stirling2(a - 1, k) + stirling2(a - 1, k - 1)


def bell_upto(j: int, n: int) -> int:
    """Set partitions of j points into at most n blocks."""
    return sum(stirling2(j, k) for k in range(n + 1))


def commutant_on_e(n: int, r: int) -> int:
    return bell_upto(2 * r, n)


def commutant_on_f(n: int, r: int) -> int:
    return sum(math.comb(2 * r, j) * (-1) ** (2 * r - j) * bell_upto(j, n)
               for j in range(2 * r + 1))


def partitions(k: int, largest: int):
    if k == 0:
        yield ()
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def tableaux(shape: tuple) -> int:
    """f^lambda by the hook length formula."""
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = math.prod(shape[i] - j + conj[j] - i - 1
                      for i in range(len(shape)) for j in range(shape[i]))
    return math.factorial(sum(shape)) // hooks


def envelope(n: int, r: int) -> int:
    return sum(tableaux(lam) ** 2 for lam in partitions(n, n) if n - lam[0] <= r)


def test_closed_forms():
    # the values the grid below meets, by hand
    assert [commutant_on_e(n, r) for n, r in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]] == \
        [14, 15, 15, 122, 187]
    assert [commutant_on_f(n, r) for n, r in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]] == \
        [3, 4, 4, 11, 31]
    assert [envelope(n, r) for n, r in [(3, 2), (4, 2), (5, 2), (4, 3)]] == [6, 23, 78, 24]


GRID = [(n, r) for r in (1, 2) for n in (3, 4, 5)] + [(3, 3), (4, 3)]


@pytest.mark.parametrize("space", ["E", "F"])
@pytest.mark.parametrize("n,r", GRID, ids=[f"n{n}-r{r}" for n, r in GRID])
def test_forced_q1_matches_the_classical_duality(n, r, space):
    rc = RepContext(n, QContext.exact(1))
    if space == "E":
        rep, commutant, dim = schur_weyl_check(rc, r, force=True), commutant_on_e(n, r), n ** r
    else:
        rep, commutant = brauer_duality_check(rc, r, force=True), commutant_on_f(n, r)
        dim = (n - 1) ** r
    assert rep.forced and rep.dim_commutant == commutant
    assert (rep.dim_group_envelope is not None) == (dim <= duality.REVERSE_CHECK_DIM)
    if rep.dim_group_envelope is not None and r >= 2:
        assert rep.envelope_saturated and rep.dim_group_envelope == envelope(n, r)
