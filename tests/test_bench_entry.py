"""The benchmark's per-repetition entry point still runs on the package.

bench/child.py reaches into the library (parse_config and the quad
template, volume and box builders) to warm every workload; a renamed or
deleted name there would otherwise show only when the benchmark crashes.
With tracing on, bench/tracer.py also wraps every traced library name
first.  Setup mode stops after warming and writes no file.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("dorronsoro-norm", "lemma-sweeps", "pointwise-cli")


@pytest.mark.parametrize("workload, trace", [
    *(pytest.param(w, "0", id=w) for w in WORKLOADS),
    *(pytest.param(w, "1", id=f"{w}-traced") for w in WORKLOADS),
])
def test_bench_child_setup_runs(workload, trace):
    argv = [sys.executable, str(BENCH / "child.py"), workload,
            repr(time.monotonic()), trace, "1", "t", "setup"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["setup_s"] > 0
