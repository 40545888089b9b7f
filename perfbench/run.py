"""convmkit benchmark: runs each workload in a fresh worker process, checks
its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload tiny-da --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it holds the run's detail and metadata.
Only the standard library is imported here, so this process adds nothing
to a worker's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"

WORKLOADS = ("tiny-da", "tiny-source-only", "ref-frozen", "ref-align")

# One BLAS thread: steps are serial, and a second thread on a shared two-core
# machine adds more run-to-run spread than speed.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in BLAS_VARS})
    return env


def failure(reason: str) -> dict:
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "detail": {"failures": [reason]}}


def run_worker(argv, *, env=None, timeout=WORKER_TIMEOUT_S) -> dict:
    """Run one worker process to completion and parse its result line. A
    crash, a timeout or a missing result is one failed op."""
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return failure(f"worker timed out after {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failure(f"worker exited with code {proc.returncode} and no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return failure(f"worker printed no JSON result: {lines[-1][:200]!r}")
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        return failure("worker result lacks correct/attempted/failed/metrics")
    return result


def run_all(names, run_one) -> dict:
    """Run every workload in ``names`` through ``run_one``; a workload that
    fails is recorded and the rest still run."""
    return {name: run_one(name) for name in names}


def show(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<17} {metric:<34} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"workload": name, "correct": result["correct"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "detail": result.get("detail", {})}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="convmkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time per run, warm-up excluded")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "convmkit" / "__init__.py").is_file():
        print(f"convmkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()

    def run_one(name):
        return run_worker([sys.executable, str(WORKER), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], env=env)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = run_all(names, run_one)
    for name, result in results.items():
        show(name, result)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, result in results.items()
                   for metric, m in result["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
