"""Self-test of the benchmark at a tiny budget.

    python3 bench/selftest.py

Checks, from the root of a checkout:
  1. a tiny run of every workload prints every metric BENCHMARK.json names,
     each with its unit (end-to-end untraced, per-layer traced);
  2. scale_sweep called twice on the same inputs reads repeat_node_frac 0.5,
     and the tracer replaced every copied binding of the traced functions;
  3. per-layer self times sum to no more than the traced wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, call_argv  # noqa: E402

# copies made by `from .x import f` that the tracer must reach
COPIES = {
    "hgroup.group_mul": ("heisbeta.beta", "heisbeta.quad", "heisbeta.verify"),
    "hgroup.dilate": ("heisbeta.beta", "heisbeta.quad", "heisbeta.verify"),
    "affine.fit_from_values": ("heisbeta.beta", "heisbeta.verify"),
    "beta.scale_sweep": ("heisbeta.squarefn", "heisbeta.verify"),
    "fields.catalog": ("heisbeta.verify", "heisbeta.cli"),
}


def check_names(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.measure(name, 42, 0.1, trace, tiny=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.emit(result, lines)
            printed = json.loads(out.getvalue().splitlines()[-1])["metrics"]
            for metric in spec[key]:
                got = printed.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{name} trace={int(trace)}: {metric['name']} "
                                    f"not printed with unit {metric['unit']}")
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: failed reports: {lines}")


def check_tracer(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer("selftest")
    patched = tracer.install()
    for name, modules in COPIES.items():
        for module in modules:
            if not any(where.startswith(module + ".") for where in patched[name]):
                failures.append(f"{name} not rebound in {module}")

    import numpy as np
    from heisbeta import beta, fields, quad

    f = fields.catalog("gaussian")
    tpl = quad.ball_template(1, quad.QuadSpec(samples=256, seed=1))
    centers = np.array([[0.1, -0.2, 0.3], [0.5, 0.0, -0.1]])
    for _ in range(2):
        beta.scale_sweep(f, centers, [0.5, 1.0, 2.0], 1, 1.0, tpl)
    frac = tracer.layer_metrics()["beta.scale_sweep.repeat_node_frac"]
    if frac != 0.5:
        failures.append(f"repeat_node_frac after two equal sweeps is {frac}, not 0.5")

    from heisbeta.cli import parse_config
    from heisbeta.cli import run as cli_run

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for calls in WORKLOADS.values():
            for call in calls:
                cli_run(parse_config(call_argv(call, tiny=True)))
    wall = tracer.elapsed()
    layers = tracer.layer_metrics()
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if not 0.0 < self_sum <= wall:
        failures.append(f"self times sum to {self_sum} s, traced wall is {wall} s")


def main() -> int:
    failures: list[str] = []
    check_tracer(failures)
    check_names(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
