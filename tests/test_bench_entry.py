"""The benchmark's per-repetition entry point still runs on the package.

bench/child.py reaches into the library (parse_config and the quad
template, volume and box builders) to warm every workload; a renamed or
deleted name there would otherwise show only when the benchmark crashes.
With tracing on, bench/tracer.py also wraps every traced library name
first.  Setup mode stops after warming and writes no file.  A traced run
also fires every tracer hook and writes its spans under .bench_out/.

Run mode goes on through every call of the workload, and each report is
held to the benchmark's own checks: the seed commit's reference values
(bench/references.json, relative tolerance 1e-9) and the fixture bands of
tests/fixtures.json.  A kernel change that moves a reported number fails
here rather than only when the benchmark runs.

The name guards at the end read bench/ without running a workload and
name the traced or warmed library function that is missing.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("dorronsoro-norm", "lemma-sweeps", "pointwise-cli")


def _bench_module(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_child_run_passes_the_reference_check(workload):
    wl = _bench_module("workloads")
    argv = [sys.executable, str(BENCH / "child.py"), workload,
            repr(time.monotonic()), "0", "0", "t", "run"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout.splitlines()[-1])["outputs"]
    refs = wl.load_references()
    fixtures = json.loads((BENCH.parent / wl.FIXTURES).read_text())
    assert [out["label"] for out in outputs] == [c.label for c in wl.WORKLOADS[workload]]
    for out in outputs:
        assert out["error"] is None and out["status"] == 0, out
        assert out["label"] in refs  # recorded with the workload's current argv
        reports = wl.parse_output(out["text"])
        reasons = wl.check_call(out["label"], reports, refs[out["label"]], fixtures)
        failed = {rep["name"]: why for rep, why in zip(reports, reasons) if why}
        assert not failed, (out["label"], failed)


# the layers the square-function and verify code reach on each workload;
# the squarefn CLI sweeps without error estimates, past g_alpha, whose
# public call the Dorronsoro window probe makes
_TRACED_LAYERS = {
    "pointwise-cli": ("squarefn.lq_norm_bound", "beta.scale_sweep"),
    "lemma-sweeps": ("verify.run_lemma_suite",),
    "dorronsoro-norm": ("verify.dorronsoro_ratio", "squarefn.g_alpha"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_child_traced_run_records_the_layers(workload):
    # traced, at the self-test's tiny budgets: every tracer hook fires, and
    # the spans go to .bench_out/spans-<workload>.jsonl
    argv = [sys.executable, str(BENCH / "child.py"), workload,
            repr(time.monotonic()), "1", "1", "t", "run"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    for out in result["outputs"]:
        assert out["error"] is None and out["status"] == 0, out
    for layer in _TRACED_LAYERS[workload]:
        assert result["layers"][f"{layer}.calls"] > 0, layer


def test_traced_names_exist_in_the_package():
    """Every module.function bench/tracer.py wraps is still a function of
    heisbeta, so a --trace 1 run cannot lose a layer to a deleted name."""
    traced = _bench_module("tracer").TRACED
    for mod_name, fn_names in traced.items():
        module = importlib.import_module(f"heisbeta.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_warmed_quad_names_exist_in_the_package():
    """Every quad.<name> that bench/child.py's _warm reaches is in heisbeta.quad."""
    tree = ast.parse((BENCH / "child.py").read_text())
    warm = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_warm")
    names = {node.attr for node in ast.walk(warm)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "quad"}
    assert names  # the walk found the warm-up calls
    quad = importlib.import_module("heisbeta.quad")
    missing = sorted(name for name in names if not hasattr(quad, name))
    assert not missing, missing


def test_tracer_installs_on_the_package():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "from tracer import Tracer\n"
        "patched = Tracer('t').install()\n"
        "print(sorted(name for name, where in patched.items() if not where))\n"
    )
    src = BENCH.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH), str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"  # every traced name was rebound somewhere
