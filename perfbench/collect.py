"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --seeds 1-10 [--out perfbench/baseline.json]

Every workload runs once per seed, untraced, for the ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, and for every op the median wall and CPU time, the
largest peak RSS, the exit codes seen and how often it failed.  With --out
the summary is written as JSON: the before/after row of a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(workload: str, seeds: list[int], seconds: int) -> dict:
    results, ops = [], {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        record = json.loads((run.WORK / f"{workload}-seed{seed}-trace0.json").read_text())
        for row in (r for p in record["rounds"] for r in p["ops"]):
            o = ops.setdefault(row["id"], {"wall_s": [], "cpu_s": [], "rss_mb": [],
                                           "exits": set(), "failed": 0})
            o["wall_s"].append(row["wall_s"])
            o["cpu_s"].append(row["cpu_s"])
            o["rss_mb"].append(row["rss_mb"])
            o["exits"].add(row["exit"])
            o["failed"] += row["failed"]
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {line}", file=sys.stderr)
    metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
               | {"unit": results[0]["metrics"][name]["unit"]}
               for name in results[0]["metrics"]}
    return {
        "machine": {k: record.get(k) for k in ("commit", "nproc", "python", "numpy", "blas",
                                               "blas_version", "blas_threads")},
        "seeds": seeds,
        "correct": [r["correct"] for r in results],
        "failed": [r["failed"] for r in results],
        "attempted": [r["attempted"] for r in results],
        "metrics": metrics,
        "ops": {k: {"median_wall_s": statistics.median(v["wall_s"]),
                    "median_cpu_s": statistics.median(v["cpu_s"]),
                    "max_rss_mb": max(v["rss_mb"]), "exits": sorted(v["exits"], key=str),
                    "failed": v["failed"], "runs": len(v["wall_s"])}
                for k, v in ops.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        summary[workload] = collect(workload, seeds_from(args.seeds), spec["run_seconds"])
        for name, m in summary[workload]["metrics"].items():
            print(f"{workload:13s} {name:12s} median {m['median']:12.5g} {m['unit']:6s} "
                  f"q1 {m['q1']:10.5g} q3 {m['q3']:10.5g} spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
