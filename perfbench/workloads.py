"""Seeded workloads of the twindual benchmark and their reference table.

Every operation is one fresh process.  CLI operations run
``python -m twindual.cli <argv>``; library operations run
``perfbench/libops.py <argv>``.  Each operation carries the answer it must
produce, so a round can be checked without trusting the program's own ``ok``
flag.  The reference dimensions do not depend on the drawn sqrt(q), delta'
or sample seed; ``test_perfbench.py`` confirms that over the whole pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# sqrt(q) is drawn from this pool; every value is admissible for n = 3, 4, 5.
SQRT_Q_POOL = ("2", "3", "3/2", "5/2", "7/3")
# delta' of the duality sweeps, the action emit and the presentation checks.
DELTA_PRIME_POOL = ("2", "3", "1/2", "3/2", "5")
# n of the diagram-rank workload: the frontier op ranks the 764 partial
# Brauer diagrams of r = 4 at dimension n (rank 750 or 764), the Brauer
# r = 4 image at n - 1 has rank 91 or 105, and n is delta of the
# presentation and associativity checks.
N_POOL = (4, 5)
R4_DIAGRAMS = 764

# A fixed near-degenerate sqrt(q), used by the large-integer exact reference
# and by the approx op that ROADMAP item 3 records as wrong at the seed.
NEAR_ONE_SQRT_Q = "1001/1000"
# The complex q of the approx grid.
COMPLEX_Q = "2,1"
# Emitted by the cold/warm action pair: a partial diagram with two
# singletons, so that delta' enters the matrix.
ACTION_DIAGRAM = "1-2,3-1',2',3'"
ASSOC_TRIPLES = 1000

NEAR_ONE_DEFECT = ("approx rank thresholds Gram eigenvalues, so the cutoff is "
                   "sqrt(tol); reports commutant 15 against 10 (ROADMAP item 3)")


@dataclass(frozen=True)
class Draw:
    """Everything a seed decides."""

    seed: int
    sqrt_q: str
    delta_prime: str
    n: int
    sample_seed: int

    @property
    def q(self) -> str:
        return _square(self.sqrt_q)


def draw(seed: int) -> Draw:
    rng = random.Random(seed)
    return Draw(
        seed=seed,
        sqrt_q=rng.choice(SQRT_Q_POOL),
        delta_prime=rng.choice(DELTA_PRIME_POOL),
        n=rng.choice(N_POOL),
        sample_seed=rng.randrange(2**31),
    )


def _square(sqrt_q: str) -> str:
    s = Fraction(sqrt_q)
    return str(s * s)


@dataclass(frozen=True)
class Op:
    """One operation of a round and its reference answer.

    ``expect`` is checked by ``check_payload``: ``reports`` lists, per
    duality report, the fields that report must carry (see ``_report``);
    other keys are compared with the same key of the payload.
    ``known_defect`` marks an op that is wrong at the seed; it still counts
    as failed whenever its answer differs from the reference.
    """

    id: str
    kind: str  # "cli" or "lib"
    argv: tuple[str, ...]
    expect: dict
    timeout: float
    frontier: bool = False
    same_output_as: str | None = None
    known_defect: str | None = None


def _report(dim: int, envelope: int | None = None, center: int | None = None) -> dict:
    """Reference fields of one duality report.

    Commutant and diagram image both have dimension ``dim``.  Where the
    program runs the reverse check (tensor dimension at most 32) the group
    envelope has dimension ``envelope``, is saturated, and the check holds.
    """
    report = {"dim_commutant": dim, "dim_diagram_image": dim}
    if envelope is not None:
        report.update(dim_group_envelope=envelope, envelope_saturated=True, reverse_ok=True)
    if center is not None:
        report.update(center_dim=center, center_ok=True)
    return report


def _q_args(sqrt_q: str) -> tuple[str, ...]:
    return ("--q", _square(sqrt_q))


def exact_grid(d: Draw) -> list[Op]:
    q = _q_args(d.sqrt_q)
    near = _q_args(NEAR_ONE_SQRT_Q)
    dp = d.delta_prime
    emit = ("action", "--n", "4", "--r", "3", "--delta-prime", dp,
            "--emit", f"diagram:{ACTION_DIAGRAM}") + q
    return [
        Op("duality-n5-r2-reverse", "cli", ("duality", "--n", "5", "--r", "2") + q,
           {"reports": [_report(10, envelope=134)]}, timeout=60, frontier=True),
        Op("duality-n4-r2-center", "cli", ("duality", "--n", "4", "--r", "2", "--center") + q,
           {"reports": [_report(10, envelope=44, center=4)]}, timeout=30),
        Op("duality-n3-r3", "cli", ("duality", "--n", "3", "--r", "3") + q,
           {"reports": [_report(71, envelope=14)]}, timeout=30),
        Op("duality-n5-r2-F", "cli", ("duality", "--n", "5", "--r", "2", "--on", "F") + q,
           {"reports": [_report(3, envelope=118)]}, timeout=45),
        Op("duality-n4-sweep", "cli",
           ("duality", "--n", "4", "--r", "1,2", "--delta-prime", f"1;{dp}") + q,
           {"reports": [_report(2, envelope=10)] * 2 + [_report(10, envelope=44)] * 2},
           timeout=30),
        Op("duality-n4-r2-near-one", "cli", ("duality", "--n", "4", "--r", "2") + near,
           {"reports": [_report(10, envelope=44)]}, timeout=30),
        Op("action-cold", "cli", emit, {"shape": (64, 64)}, timeout=30),
        Op("action-warm", "cli", emit, {"shape": (64, 64)}, timeout=30,
           same_output_as="action-cold"),
        Op("rep-n5", "cli", ("rep", "--n", "5") + q, {"ok": True}, timeout=30),
        Op("density-n5", "cli",
           ("density", "--n", "5", "--check", "independence", "--check", "order") + q,
           {"ok": True, "independence_dimension": 6, "orders": ["no-order-up-to(2000)"] * 3},
           timeout=30),
    ]


def approx_grid(d: Draw) -> list[Op]:
    q = _q_args(d.sqrt_q)
    approx = ("--mode", "approx")
    return [
        Op("approx-n4-r3", "cli",
           ("duality", "--n", "4", "--r", "3", "--delta-prime", d.delta_prime) + approx + q,
           {"reports": [_report(76)]}, timeout=60, frontier=True),
        Op("approx-n3-r3", "cli", ("duality", "--n", "3", "--r", "3") + approx + q,
           {"reports": [_report(71, envelope=14)]}, timeout=30),
        Op("complex-n3-r3", "cli", ("duality", "--n", "3", "--approx", COMPLEX_Q, "--r", "3"),
           {"reports": [_report(71, envelope=14)]}, timeout=30),
        Op("approx-n5-r2-F", "cli", ("duality", "--n", "5", "--r", "2", "--on", "F") + approx + q,
           {"reports": [_report(3, envelope=118)]}, timeout=30),
        Op("approx-n4-r2-F", "cli", ("duality", "--n", "4", "--r", "2", "--on", "F") + approx + q,
           {"reports": [_report(3, envelope=35)]}, timeout=30),
        Op("approx-n4-r2-near-one", "cli",
           ("duality", "--n", "4", "--r", "2") + approx + _q_args(NEAR_ONE_SQRT_Q),
           {"reports": [_report(10, envelope=44)]}, timeout=30, known_defect=NEAR_ONE_DEFECT),
    ]


def diagram_rank(d: Draw) -> list[Op]:
    n = str(d.n)
    present = ("--delta", n, "--delta-prime", d.delta_prime)
    return [
        Op("image-rank-r4", "lib", ("image-rank", "--r", "4", "--dim", n),
           {"rank": {4: 750, 5: 764}[d.n], "diagrams": R4_DIAGRAMS}, timeout=90, frontier=True),
        Op("brauer-rank-r4", "lib", ("image-rank", "--r", "4", "--dim", str(d.n - 1),
                                     "--family", "brauer"),
           {"rank": {4: 91, 5: 105}[d.n], "diagrams": 105}, timeout=30),
        Op("presentation-r4", "lib", ("presentation", "--r", "4") + present,
           {"ok": True, "relations": 83}, timeout=30),
        Op("presentation-r5", "lib", ("presentation", "--r", "5") + present,
           {"ok": True, "relations": 133}, timeout=30),
        Op("associativity-r5", "lib",
           ("associativity", "--r", "5", "--count", str(ASSOC_TRIPLES),
            "--seed", str(d.sample_seed)) + present,
           {"associative": ASSOC_TRIPLES}, timeout=30),
    ]


WORKLOADS = {
    "exact-grid": exact_grid,
    "approx-grid": approx_grid,
    "diagram-rank": diagram_rank,
}


def admissibility_checks(name: str, d: Draw) -> list[tuple[str, ...]]:
    """``twindual admissible`` argument lists that confirm every drawn or
    fixed q of the workload before any timing."""
    if name == "diagram-rank":
        # library ops take no q; n is what the seed drew
        return [("admissible", "--n", str(d.n)) + _q_args(d.sqrt_q)]
    checks = [("admissible", "--n", n) + _q_args(d.sqrt_q) for n in ("3", "4", "5")]
    checks.append(("admissible", "--n", "4") + _q_args(NEAR_ONE_SQRT_Q))
    if name == "approx-grid":
        checks.append(("admissible", "--n", "3", "--approx", COMPLEX_Q))
    return checks


def check_payload(op: Op, payload: dict) -> list[str]:
    """Differences between a payload and the op's reference answer."""
    errors = []
    for key, want in op.expect.items():
        if key == "reports":
            reports = payload.get("reports", [])
            got = [{k: r.get(k) for k in w} for r, w in zip(reports, want)]
            if len(reports) != len(want):
                got.append(f"{len(reports)} reports")
        elif key == "shape":
            mats = list(payload.get("matrices", {}).values())
            got = (mats[0]["rows"], mats[0]["cols"]) if len(mats) == 1 else None
            want = tuple(want)
        elif key == "independence_dimension":
            got = payload.get("independence", {}).get("dimension")
        elif key == "orders":
            got = [o.get("verdict") for o in payload.get("orders", [])]
        else:
            got = payload.get(key)
        if got != want:
            errors.append(f"{key}: got {got!r}, reference {want!r}")
    return errors
