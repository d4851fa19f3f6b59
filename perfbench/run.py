"""The twindual benchmark.

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is ``src/twindual``,
run straight from source.  Workloads and the reference table are in
``workloads.py``.  A run:

1. draws its inputs from ``--seed``;
2. confirms with ``twindual admissible`` that every q of the workload is
   admissible; these fresh processes, after one untimed warm-up, and as
   many again after the rounds, give ``setup_s`` as the median of at least
   ``2 * SETUP_SAMPLES`` spawns;
3. with ``--trace 0`` runs rounds, each op of the workload once, one fresh
   process at a time, until ``--seconds`` have been measured and at least
   ``MIN_ROUNDS`` rounds have run.  Each op's wall time, CPU time and peak
   RSS is the median over the rounds; ``wall_s`` and ``cpu_s`` sum those
   medians over the ops;
4. with ``--trace 1`` runs one untraced round and one round under
   ``launcher.py``, and reports the per-layer metrics of ``tracing.py``
   plus ``trace.overhead_s``, traced minus untraced round wall time.

An operation fails if it crashes, times out, exits with a code other than
0 or 1, prints no JSON, or gives an answer that differs from the reference
table.  Exit codes 0 and 1 are recorded, not judged.  An op marked as a
known defect counts as failed while it is wrong, but does not make the run
``correct: false``; any other failure does.

The last line of stdout is the result object; a run record with the
per-op breakdown goes to stderr and to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 4
# Every op is sampled at least this often in a run, however long its round.
MIN_ROUNDS = 2
# Every run must end well inside 180 s, whatever the ops do.
RUN_DEADLINE_S = 165.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values: dict[str, float], kind: str) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units(kind).items()}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def op_env(cache_dir: Path) -> dict:
    threads = str(nproc())
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "TWINDUAL_CACHE": str(cache_dir),
    })
    return env


class Runner:
    """Spawns operation processes one at a time, inside the run deadline."""

    def __init__(self, deadline: float, scratch: Path):
        self.deadline = deadline
        self.scratch = scratch
        self.count = 0

    def spawn(self, cmd: list[str], env: dict, timeout: float) -> dict:
        """Run ``cmd`` to completion; wall, CPU and peak RSS of that process."""
        self.count += 1
        out_path = self.scratch / f"out-{self.count}.txt"
        err_path = self.scratch / f"err-{self.count}.txt"
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"timed_out": True, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
                    "exit": None, "stdout": "", "stderr": "not started: run deadline"}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            done = threading.Event()
            timed_out = threading.Event()

            def kill():
                if not done.is_set():
                    timed_out.set()
                    os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: the op ends with the run
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                done.set()
                timer.cancel()
            wall = time.perf_counter() - start
            try:  # nothing the op left behind may run on into the next op
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"timed_out": timed_out.is_set(), "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
                "exit": proc.returncode, "stdout": out_path.read_text(),
                "stderr": err_path.read_text()[-2000:]}


def command(op: workloads.Op, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "launcher.py"), "--op", op.id, "--spans",
                str(spans), op.kind, *op.argv]
    if op.kind == "cli":
        return [sys.executable, "-m", "twindual.cli", *op.argv]
    return [sys.executable, str(HERE / "libops.py"), *op.argv]


def judge(op: workloads.Op, res: dict, outputs: dict) -> dict:
    """The op's row of the run record: timings, answer and failure reason."""
    row = {"id": op.id, "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
           "rss_mb": res["rss_mb"], "exit": res["exit"], "failed": True}
    if res["timed_out"]:
        row["reason"] = "timeout: " + res["stderr"][-200:]
        return row
    if res["exit"] not in (0, 1):
        row["reason"] = f"exit {res['exit']}: " + res["stderr"][-300:]
        return row
    try:
        payload = json.loads(res["stdout"])
    except ValueError:
        row["reason"] = "no JSON on stdout"
        return row
    errors = workloads.check_payload(op, payload)
    if op.same_output_as and res["stdout"] != outputs.get(op.same_output_as):
        errors.append(f"output differs from {op.same_output_as}")
    outputs[op.id] = res["stdout"]
    if "reports" in payload:
        row["answer"] = [{k: r[k] for k in ("dim_commutant", "dim_diagram_image",
                                             "dim_group_envelope", "envelope_saturated",
                                             "reverse_ok", "center_dim", "center_ok") if k in r}
                         for r in payload["reports"]]
    elif "matrices" not in payload:
        row["answer"] = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
    if errors:
        row["reason"] = "; ".join(errors)
        if op.known_defect:
            row["known_defect"] = op.known_defect
        return row
    row["failed"] = False
    return row


def run_round(ops, runner: Runner, round_dir: Path, traced: bool) -> dict:
    """Each op once, in order, in a fresh process, with a fresh matrix cache."""
    round_dir.mkdir(parents=True)
    env = op_env(round_dir / "cache")
    outputs: dict[str, str] = {}
    rows, dumps = [], []
    start = time.perf_counter()
    for op in ops:
        spans = round_dir / f"spans-{op.id}.json" if traced else None
        res = runner.spawn(command(op, spans), env, op.timeout)
        rows.append(judge(op, res, outputs))
        if spans is not None and spans.exists():
            dumps.append(json.loads(spans.read_text()))
            rows[-1]["counters"] = dumps[-1]["counters"]
    return {"wall_s": time.perf_counter() - start, "ops": rows, "dumps": dumps}


def setup(name: str, draw: workloads.Draw, runner: Runner, setup_dir: Path,
          traced: bool) -> dict:
    """Confirm every q of the workload with ``twindual admissible``; time it."""
    setup_dir.mkdir(parents=True)
    env = op_env(setup_dir / "cache")
    checks = workloads.admissibility_checks(name, draw)
    samples, dumps, refused = [], [], []
    for k in range(1 + max(SETUP_SAMPLES, len(checks))):
        argv = checks[k % len(checks)]
        op = workloads.Op(f"setup-{k}", "cli", argv, {"ok": True}, timeout=30)
        spans = setup_dir / f"spans-{k}.json" if traced else None
        res = runner.spawn(command(op, spans), env, op.timeout)
        row = judge(op, res, {})
        if row["failed"]:
            refused.append({"argv": list(argv), "reason": row.get("reason")})
        if k > 0 and not res["timed_out"]:  # the first spawn warms the bytecode cache
            samples.append(res["wall_s"])
        if spans is not None and spans.exists():
            dumps.append(json.loads(spans.read_text()))
    return {"setup_s": statistics.median(samples) if samples else None, "samples": samples,
            "refused": refused, "dumps": dumps}


def _blas_info(env: dict) -> dict:
    probe = r"""
import ctypes, json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path.lower() and ".so" in path:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
        break
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=30, cwd=ROOT)
        return json.loads(out.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        return {"error": str(exc)}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args, draw: workloads.Draw, run_dir: Path) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "draw": draw.__dict__ | {"q": draw.q},
            "commit": _commit(), "nproc": nproc(), "python": platform.python_version(),
            **_blas_info(op_env(run_dir / "cache")), "loadavg_start": os.getloadavg()}


def end_to_end(ops, setup_s: float, rounds: list[dict], attempted: int, failed: int) -> dict:
    """Per-op medians over the rounds, composed into one median pass."""
    per_op = list(zip(*(r["ops"] for r in rounds)))

    def median(i: int, key: str) -> float:
        return statistics.median(row[key] for row in per_op[i])

    frontier = next(i for i, op in enumerate(ops) if op.frontier)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(median(i, "wall_s") for i in range(len(ops))),
        "frontier_s": median(frontier, "wall_s"),
        "cpu_s": sum(median(i, "cpu_s") for i in range(len(ops))),
        "peak_rss_mb": max(median(i, "rss_mb") for i in range(len(ops))),
        "ok_frac": (attempted - failed) / attempted,
    }
    return with_units(values, "end_to_end")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twindual" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'twindual'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return _run(args, started, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, started: float, run_dir: Path) -> int:
    draw = workloads.draw(args.seed)
    record = run_record(args, draw, run_dir)
    runner = Runner(started + RUN_DEADLINE_S, run_dir)
    ops = workloads.WORKLOADS[args.workload](draw)
    traced = bool(args.trace)

    set_up = setup(args.workload, draw, runner, run_dir / "setup", traced)
    record["setup"] = {k: set_up[k] for k in ("setup_s", "samples", "refused")}
    if set_up["refused"]:
        _write_record(args, record)
        print(f"perfbench: admissibility not confirmed: {set_up['refused']}", file=sys.stderr)
        return 1

    rounds = []
    measure_start = time.monotonic()
    while True:
        rounds.append(run_round(ops, runner, run_dir / f"round-{len(rounds)}", traced=False))
        elapsed = time.monotonic() - measure_start
        if traced or (elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS):
            break
        if time.monotonic() + elapsed / len(rounds) > started + RUN_DEADLINE_S:
            break
    rows = [row for r in rounds for row in r["ops"]]
    if traced:
        traced_round = run_round(ops, runner, run_dir / "round-traced", traced=True)
        rounds_record = rounds + [traced_round]
        rows += traced_round["ops"]
    else:
        rounds_record = rounds
    attempted = len(rows)
    failed = sum(row["failed"] for row in rows)
    correct = not any(row["failed"] and not row.get("known_defect") for row in rows)
    record["rounds"] = [{k: v for k, v in r.items() if k != "dumps"} for r in rounds_record]

    if traced:
        dumps = set_up["dumps"] + traced_round["dumps"]
        metrics = with_units(tracing.per_layer_metrics(
            dumps, [d["import_s"] for d in dumps], traced_round["wall_s"] - rounds[0]["wall_s"]),
            "per_layer")
    else:
        # sample set-up again after the rounds, so that one slow moment of
        # the host does not set setup_s
        later = setup(args.workload, draw, runner, run_dir / "setup-after", traced=False)
        set_up["samples"] += later["samples"]
        setup_s = statistics.median(set_up["samples"])
        record["setup"].update(setup_s=setup_s, refused_after=later["refused"])
        metrics = end_to_end(ops, setup_s, rounds, attempted, failed)
    record["metrics"] = metrics
    _write_record(args, record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_record(args, record: dict) -> None:
    text = json.dumps(record, indent=1, sort_keys=True, default=str)
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(text + "\n")
    print(text, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
