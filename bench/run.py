"""heisbeta benchmark: three CLI workloads timed end to end, layers traced
from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Every repetition runs in a fresh process (bench/child.py), one at a time.
A run first starts SETUP_PROBES processes that only set up, then repeats
the workload while the next repetition is expected to end within S
seconds (at least one repetition).  With --trace 1, repetitions alternate
between untraced and traced, and the per-layer metrics are the medians of
the traced ones.

Every report of every repetition is checked (see workloads.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics of BENCHMARK.json, each with its unit.  Lines before it give
each timing's median, tail percentile and sample count, the provenance of
the run and every failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metric_units  # noqa: E402
from workloads import (  # noqa: E402
    FIXTURES,
    PROGRAM_SEED,
    WORKLOADS,
    call_argv,
    check_call,
    load_references,
    parse_output,
)

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a child that crashed)."""


def child(workload, trace, tiny, run_id, mode, deadline) -> dict:
    """Start child.py, wait for it, and return its result object."""
    launched = time.monotonic()
    timeout = max(1.0, deadline - launched)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, repr(launched),
         str(int(trace)), str(int(tiny)), run_id, mode],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"child exited with {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - launched
    return result


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None
    when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]


def describe(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = (
        f"p{tail[0]} {tail[1]:.6g} {unit}" if tail
        else "no tail percentile (fewer than 11 samples)"
    )
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"{tail_text}, n={len(values)}")


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def provenance(workload, seed, tiny) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heisbeta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "program_seed": PROGRAM_SEED,
        "budgets": [" ".join(call_argv(c, tiny)) for c in WORKLOADS[workload]],
    }


class Checker:
    """Checks every report of every repetition of one run."""

    def __init__(self, workload: str, tiny: bool):
        self.calls = WORKLOADS[workload]
        self.tiny = tiny
        self.refs = {} if tiny else load_references()
        self.fixtures = None if tiny else json.loads((ROOT / FIXTURES).read_text())
        self.digests: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, label, count, reason) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(f"{label}: {count} report(s) failed: {reason}")

    def expected(self, label) -> int:
        ref = self.refs.get(label)
        return len(ref) if ref is not None else self.counts.get(label, 1)

    def check(self, outputs: list[dict]) -> None:
        for call, out in zip(self.calls, outputs):
            label = call.label
            if out["error"] is not None or out["status"] != 0:
                why = out["error"] or f"exit status {out['status']}"
                self._fail(label, self.expected(label), why)
                continue
            digest = hashlib.sha256(out["text"].encode()).hexdigest()
            same = self.digests.setdefault(label, digest) == digest
            reports = parse_output(out["text"])
            self.counts.setdefault(label, len(reports))
            ref = self.refs.get(label)
            verdicts = check_call(label, reports, ref, self.fixtures)
            for rep, why in zip(reports, verdicts):
                if ref is None and not self.tiny:
                    why.append("no seed-commit reference recorded for these arguments")
                if not same:
                    why.append("output bytes differ from the run's first repetition")
                self.attempted += 1
                if why:
                    self.failed += 1
                    self.problems.append(f"{label}: {rep['name']}: {'; '.join(why)}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines to print
    before it."""
    if not (ROOT / "src" / "heisbeta" / "__init__.py").is_file():
        raise BenchError(f"no heisbeta package under {ROOT / 'src'}")
    run_id = f"{workload}-{seed}-{uuid.uuid4().hex[:12]}"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    checker = Checker(workload, tiny)
    setups, plain, traced = [], [], []

    for _ in range(SETUP_PROBES):
        setups.append(child(workload, False, tiny, run_id, "setup", deadline)["setup_s"])
    durations = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        rep = child(workload, use_trace, tiny, run_id, "run", deadline)
        checker.check(rep["outputs"])
        durations.append(rep["elapsed_s"])
        (traced if use_trace else plain).append(rep)
        if not use_trace:
            setups.append(rep["setup_s"])
        need_more = not plain or (trace and not traced)
        expected_end = time.monotonic() + statistics.median(durations)
        if not need_more and expected_end - start > seconds:
            break

    samples = {
        "wall_s": [rep["wall_s"] for rep in plain],
        "setup_s": setups,
        "cpu_s": [rep["cpu_s"] for rep in plain],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
    }
    lines = [f"heisbeta benchmark: workload={workload} seed={seed} "
             f"seconds={seconds:g} trace={int(trace)} run={run_id}"]
    lines.append("provenance: " + json.dumps(provenance(workload, seed, tiny), sort_keys=True))
    lines += [describe(name, samples[name], unit) for name, unit in END_TO_END.items()]
    failed_frac = checker.failed / checker.attempted
    lines.append(f"failed_frac: {failed_frac:.6g} ratio "
                 f"({checker.failed} of {checker.attempted} reports)")
    lines += [f"FAILED {problem}" for problem in checker.problems]

    if trace:
        metrics = {}
        for name, unit in layer_metric_units().items():
            if name == "trace.overhead_frac":
                value = (statistics.median(rep["wall_s"] for rep in traced)
                         / statistics.median(samples["wall_s"]) - 1.0)
            else:
                value = statistics.median(rep["layers"][name] for rep in traced)
            metrics[name] = {"value": value, "unit": unit}
        share = max(
            sum(v for k, v in rep["layers"].items() if k.endswith(".self_s"))
            / rep["trace_wall_s"] for rep in traced
        )
        lines.append(f"traced: {len(traced)} repetition(s); per-layer self times "
                     f"sum to at most {share:.4f} of the traced wall time")
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, lines


def emit(result: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PROGRAM_SEED,
                        help="recorded with the result; the program always runs "
                        "at the fixture seed (see workloads.py)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    emit(result, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
