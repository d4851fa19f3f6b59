"""Checks of the benchmark itself (slow: about fifteen minutes on 2 cores).

    python3 -m pytest perfbench/test_perfbench.py -q

* every op of every workload matches the reference table at every value of
  the sqrt(q), delta' and n pools, and every reverse check the program runs
  is pinned by the table;
* every per-layer metric fires on the workload it is meant to move, and
  counts repeat exactly between traced runs;
* without the program next to it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

POOL_DRAWS = [
    workloads.Draw(seed=-1, sqrt_q=s, delta_prime=d, n=workloads.N_POOL[i % 2], sample_seed=i)
    for i, (s, d) in enumerate(zip(workloads.SQRT_Q_POOL, workloads.DELTA_PRIME_POOL))
]

# per-layer metrics that must be non-zero on each workload
FIRES_ON = {
    "exact-grid": [
        "tensor_action.group_generators.s", "tensor_action.group_generators.max_dim",
        "tensor_action.algebra_generator_images.s", "tensor_action.diagram_matrix.calls",
        "tensor_action.diagram_matrix.s", "linalg.kron_power.s", "linalg.exact_elim.s",
        "linalg.exact_elim.calls", "linalg.exact_elim.max_rows", "linalg.exact_elim.max_cols",
        "linalg.SpanTracker.add_matrix.calls", "linalg.SpanTracker.add_matrix.accepted",
        "linalg.SpanTracker.add_matrix.accept_ratio", "linalg.SpanTracker.add_matrix.s",
        "linalg.nullspace.s", "duality.commutant_dimension.s",
        "duality.commutant_dimension.self_s", "duality.commutant_dimension.calls",
        "duality.commutant_dimension.max_unknowns", "duality.diagram_image_dimension.s",
        "duality.enveloping_span_dimension.s", "duality.center_dimension.s",
        "cache.MatrixCache.get_or_build.calls", "cache.MatrixCache.get_or_build.hits",
        "cache.MatrixCache.get_or_build.hit_ratio", "cache.MatrixCache.get_or_build.s",
        "density.independence_test.s", "density.finite_order_detect.s",
        "hecke.site_matrices.s",
    ],
    "approx-grid": [
        "linalg.float_decomp.s", "linalg.float_decomp.max_n", "duality.commutant_dimension.s",
        "duality.commutant_dimension.self_s", "duality.commutant_dimension.calls",
        "duality.commutant_dimension.max_unknowns", "duality.diagram_image_dimension.s",
        "hecke.site_matrices.s",
    ],
    "diagram-rank": [
        "duality.image_gram_rank.s", "duality.image_gram_rank.self_s",
        "duality.image_gram_rank.diagrams", "linalg.exact_elim.s", "linalg.exact_elim.calls",
        "diagrams.enumerate_diagrams.s", "diagrams.enumerate_diagrams.count",
        "diagrams.compose.calls", "diagrams.verify_presentation.s",
    ],
}
EVERYWHERE = ["cli.import_s", "scalars.is_q_admissible.s", "scalars.is_q_admissible.calls"]


def _run_op(op: workloads.Op, tmp_path: Path, outputs: dict) -> dict:
    runner = run.Runner(deadline=float("inf"), scratch=tmp_path)
    res = runner.spawn(run.command(op, None), run.op_env(tmp_path / "cache"), op.timeout)
    return run.judge(op, res, outputs)


@pytest.mark.parametrize("draw", POOL_DRAWS, ids=lambda d: f"sqrtq={d.sqrt_q},dp={d.delta_prime},n={d.n}")
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_table_holds_over_the_pools(workload, draw, tmp_path):
    outputs: dict[str, str] = {}
    for check in workloads.admissibility_checks(workload, draw):
        op = workloads.Op("admissible", "cli", check, {"ok": True}, timeout=30)
        assert not _run_op(op, tmp_path, outputs)["failed"], check
    for op in workloads.WORKLOADS[workload](draw):
        row = _run_op(op, tmp_path, outputs)
        for got, want in zip(row.get("answer") or [], op.expect.get("reports", [])):
            if "reverse_ok" in got:
                assert {"dim_group_envelope", "envelope_saturated", "reverse_ok"} <= set(want), op.id
        if op.known_defect:
            continue  # wrong at the seed; the run counts it as failed
        assert not row["failed"], (op.id, row.get("reason"))


def _bench(workload: str, seed: int, trace: int, cwd: Path = run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = _bench(workload, 11, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.tracing.PER_LAYER) == set(run.metric_units("per_layer"))
    for name in FIRES_ON[workload] + EVERYWHERE:
        assert metrics[name]["value"] > 0, name


def test_trace_counts_repeat_exactly():
    first, second = (_bench("diagram-rank", 5, 1) for _ in range(2))
    results = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in (first, second)]
    counts = {k for k, unit in run.metric_units("per_layer").items() if unit == "count"}
    assert {k: results[0][k] for k in counts} == {k: results[1][k] for k in counts}
    record = json.loads((run.WORK / "diagram-rank-seed5-trace1.json").read_text())
    frontier = next(r for r in record["rounds"][-1]["ops"] if r["id"] == "image-rank-r4")
    assert frontier["counters"]["diagrams.compose"] == workloads.R4_DIAGRAMS ** 2


def test_without_the_program_the_benchmark_refuses(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("approx-grid", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
