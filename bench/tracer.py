"""Outside-in tracer for heisbeta: spans around the public functions of each
module, installed from the benchmark's own files with nothing changed
under src/.

``from .x import f`` copies f into the importing module, so the tracer
rebinds every attribute of every heisbeta module that holds the original
function object.  Field evaluations are traced through the fields that
``catalog`` returns.  Spans (id, parent id, name, start, end) stay in
memory under one run id and are written out once, at the end.

A layer's self time is its span's duration minus the durations of its
child spans.  Work done by the tracer's own hooks (node keys, page-fault
counters) is timed and taken out of the enclosing span's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "hgroup": ("group_mul", "dilate", "gauge"),
    "quad": ("ball_template", "ball_volume", "mean_stderr", "box_nodes",
             "domain_integrate_lp"),
    "affine": ("fit_from_values",),
    "beta": ("scale_sweep", "beta_number", "beta_profile", "check_monotonicity"),
    "squarefn": ("g_alpha", "s_alpha", "lq_norm_bound", "gradient_comparison"),
    "verify": ("dorronsoro_ratio", "dorronsoro_stability", "poincare_ratio",
               "poincare_stability", "run_lemma_suite"),
    "cli": ("run", "parse_config"),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
SPAN_NAMES.insert(SPAN_NAMES.index("quad.ball_template"), "fields.eval")

# derived per-layer metrics and their units
EXTRA_METRICS = {
    "beta.scale_sweep.nodes": "count",
    "beta.scale_sweep.ns_per_node": "ns",
    "beta.scale_sweep.repeat_node_frac": "ratio",
    "beta.scale_sweep.minflt": "count",
    "fields.eval.points": "count",
    "fields.eval.ns_per_point": "ns",
    "hgroup.group_mul.points": "count",
    "quad.ball_template.builds": "count",
    "quad.ball_template.max_nodes": "count",
    "squarefn.lq_norm_bound.repeat_frac": "ratio",
    "process.minflt": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        out[f"{name}.self_s"] = "s"
    out.update(EXTRA_METRICS)
    return out


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.hook_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.started = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_nodes: set[int] = set()
        self._seen_norms: set[tuple] = set()
        self._templates: dict[int, object] = {}
        # objects whose id() is part of a key stay alive, so ids stay unique
        self._keep: list[object] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; before(bound args) and after(result, token)
        run outside the span's timed interval."""
        sig = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            hook_start = time.perf_counter()
            token = None
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                token = before(bound.arguments)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(out, token)
            if parent:
                hook = (start - hook_start) + (time.perf_counter() - end)
                with self._lock:
                    self.hook_s[parent] += hook
            return out

        return traced

    # -- hooks -------------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _sweep_before(self, args):
        f, template = args["f"], args["template"]
        ev = getattr(f, "eval", f)
        centers = np.atleast_2d(np.asarray(args["centers"], dtype=float))
        rs = np.atleast_1d(np.asarray(args["rs"], dtype=float))
        m = len(template.nodes)
        self._keep.extend((ev, template))
        head = (id(ev), id(template))
        rbytes = [r.tobytes() for r in rs]
        repeats = 0
        with self._lock:
            for row in centers:
                cb = row.tobytes()
                for rb in rbytes:
                    key = hash((head, cb, rb))
                    if key in self._seen_nodes:
                        repeats += 1
                    else:
                        self._seen_nodes.add(key)
            self.counts["beta.scale_sweep.nodes"] += len(centers) * len(rs) * m
            self.counts["beta.scale_sweep.repeat_nodes"] += repeats * m
        return _minflt()

    def _sweep_after(self, out, faults_before):
        self._add("beta.scale_sweep.minflt", _minflt() - faults_before)

    def _norm_before(self, args):
        f = args["f"]
        key = (f.label, f.n, float(args["q"]))
        with self._lock:
            if key in self._seen_norms:
                self.counts["squarefn.lq_norm_bound.repeats"] += 1
            self._seen_norms.add(key)

    def _eval_after(self, out, _):
        self._add("fields.eval.points", np.size(out))

    def _mul_after(self, out, _):
        self._add("hgroup.group_mul.points", out.size // out.shape[-1])

    def _template_after(self, tpl, _):
        with self._lock:
            self._templates[id(tpl)] = tpl
            self.counts["quad.ball_template.max_nodes"] = max(
                self.counts["quad.ball_template.max_nodes"], len(tpl.nodes)
            )

    # -- installation ------------------------------------------------------

    def install(self, package: str = "heisbeta") -> dict[str, list[str]]:
        """Wrap every function in TRACED and field evals from catalog.

        Returns, per traced name, the modules whose binding was replaced.
        """
        hooks = {
            "beta.scale_sweep": (self._sweep_before, self._sweep_after),
            "squarefn.lq_norm_bound": (self._norm_before, None),
            "hgroup.group_mul": (None, self._mul_after),
            "quad.ball_template": (None, self._template_after),
        }
        patched = {}
        for mod_name, fn_names in TRACED.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(module, fn_name)
                before, after = hooks.get(name, (None, None))
                patched[name] = self._rebind(
                    package, orig, self.wrap(name, orig, before, after)
                )
        fields = importlib.import_module(f"{package}.fields")
        orig_catalog = fields.catalog

        @functools.wraps(orig_catalog)
        def catalog(*args, **kwargs):
            f = orig_catalog(*args, **kwargs)
            traced = self.wrap("fields.eval", f.eval, after=self._eval_after)
            return dataclasses.replace(f, eval=traced)

        patched["fields.catalog"] = self._rebind(package, orig_catalog, catalog)
        return patched

    @staticmethod
    def _rebind(package: str, orig, replacement) -> list[str]:
        where = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)
                    where.append(f"{mod_name}.{attr}")
        return where

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, total and self seconds, plus the boundary counts."""
        child_s: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_s[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for sid, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[sid] - self.hook_s[sid]
        c = self.counts
        nodes = c["beta.scale_sweep.nodes"]
        points = c["fields.eval.points"]
        norm_calls = out["squarefn.lq_norm_bound.calls"]
        out.update({
            "beta.scale_sweep.nodes": nodes,
            "beta.scale_sweep.ns_per_node":
                1e9 * out["beta.scale_sweep.total_s"] / nodes if nodes else 0.0,
            "beta.scale_sweep.repeat_node_frac":
                c["beta.scale_sweep.repeat_nodes"] / nodes if nodes else 0.0,
            "beta.scale_sweep.minflt": c["beta.scale_sweep.minflt"],
            "fields.eval.points": points,
            "fields.eval.ns_per_point":
                1e9 * out["fields.eval.self_s"] / points if points else 0.0,
            "hgroup.group_mul.points": c["hgroup.group_mul.points"],
            "quad.ball_template.builds": len(self._templates),
            "quad.ball_template.max_nodes": c["quad.ball_template.max_nodes"],
            "squarefn.lq_norm_bound.repeat_frac":
                c["squarefn.lq_norm_bound.repeats"] / norm_calls if norm_calls else 0.0,
            "process.minflt": _minflt(),
        })
        return out

    def elapsed(self) -> float:
        """Seconds since the tracer was created."""
        return time.perf_counter() - self.started

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as sink:
            for sid, parent, name, start, end in self.spans:
                sink.write(json.dumps({
                    "run": self.run_id, "span": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
