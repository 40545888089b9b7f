"""The benchmark worker runs against the package as it stands.

A traced run patches every package name the benchmark's span tracer wraps,
so a renamed or deleted name fails here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_traced_tiny_da_worker_is_correct():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(WORKER), "--workload", "tiny-da",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result["detail"]["failures"]
