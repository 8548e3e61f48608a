"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script once per repetition so that every repetition
pays the import and template set-up that a user's run pays:

    child.py WORKLOAD LAUNCHED TRACE TINY RUN_ID MODE

LAUNCHED is the parent's time.monotonic() just before the start, so
setup_s covers interpreter start, ``import heisbeta`` and building the ball
and box templates and ball constants the workload uses.  MODE is "setup" to
stop there, or "run" to go on through every CLI call of the workload.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# box-template budget of squarefn.lq_norm_bound, by n
_NORM_BOX_PER_AXIS = {1: 32, 2: 12}


def _import_heisbeta():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import heisbeta

    if Path(heisbeta.__file__).resolve().parent != (src / "heisbeta").resolve():
        raise ImportError(f"heisbeta imported from {heisbeta.__file__}, not {src}")
    return heisbeta


def _warm(configs) -> None:
    """Build, through the public quad functions, the lru_cached templates and
    ball constants the workload's calls will use."""
    from heisbeta import quad

    for config in configs:
        n = config.n
        if config.suite in ("beta", "squarefn"):
            quad.ball_template(n, config.quad_spec)
        else:
            quad.ball_template(n, config.harness_config().sweep_spec)
        if config.suite != "beta":
            quad.ball_volume(1.0, n)
        if config.suite in ("squarefn", "lemmas", "dorronsoro"):
            box = quad.QuadSpec(mode="grid", grid_per_axis=_NORM_BOX_PER_AXIS.get(n, 8))
            quad.box_nodes(n, 1.0, box)


def main(argv: list[str]) -> None:
    workload, launched, trace, tiny, run_id, mode = argv
    launched = float(launched)
    trace, tiny = trace == "1", tiny == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, call_argv

    _import_heisbeta()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    from heisbeta.cli import parse_config, run

    calls = WORKLOADS[workload]
    argvs = [call_argv(call, tiny) for call in calls]
    _warm([parse_config(args) for args in argvs])
    result = {"setup_s": time.monotonic() - launched}
    if mode == "run":
        outputs = []
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for call, args in zip(calls, argvs):
            sink = io.StringIO()
            status, error = None, None
            try:
                with contextlib.redirect_stdout(sink):
                    status = run(parse_config(args))
            except Exception as exc:  # one failed call fails its reports only
                error = f"{type(exc).__name__}: {exc}"
            outputs.append({"label": call.label, "status": status, "error": error,
                            "text": sink.getvalue()})
        wall = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "wall_s": wall,
            "cpu_s": (usage1.ru_utime - usage0.ru_utime)
            + (usage1.ru_stime - usage0.ru_stime),
            "peak_rss_mb": usage1.ru_maxrss / 1024.0,
            "outputs": outputs,
        })
        if tracer is not None:
            result["trace_wall_s"] = tracer.elapsed()
            result["layers"] = tracer.layer_metrics()
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{workload}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
