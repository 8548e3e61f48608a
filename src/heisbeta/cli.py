"""Command-line front end: flat key-value configuration, suite
orchestration, and deterministic CSV/JSON emission.

Every output file is self-describing: it begins with an echo of the
effective configuration (one ``key = value`` per line) that can be saved
and re-parsed to reproduce the run byte for byte.  The echo omits keys
that cannot change the result rows (workers, out) and the timestamp
metadata, which ``--no-timestamp`` drops entirely.

Exit codes: 0 on success, 2 for usage/validation problems (including
template requests above quad.NODE_CEILING) and for failed or all-degenerate
check suites, 1 for runtime errors (such as out of memory or a failed template).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import dataclasses
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .fields import catalog
from .hgroup import origin
from .quad import NODE_CEILING, QuadSpec, check_template_request
from .squarefn import g_alpha
from .beta import beta_profile
from .verify import (
    HarnessConfig,
    _admissible_window,
    _poincare_range,
    dorronsoro_ratio,
    dorronsoro_stability,
    poincare_ratio,
    poincare_stability,
    run_identity_suite,
    run_lemma_suite,
)

_SUITES = ("beta", "squarefn", "identities", "lemmas", "dorronsoro", "poincare")
_FORMATS = ("csv", "json")
_MODE_ALIASES = {"mc": "montecarlo", "montecarlo": "montecarlo", "grid": "grid"}


class UsageError(ValueError):
    """Configuration problem: unknown key, bad value, inadmissible run."""


# metadata of the RunConfig fields that never shape the result rows, which
# the config echo leaves out
_UNECHOED = {"echo": False}


@dataclass(frozen=True)
class RunConfig:
    """Fully materialized run description.

    Its fields are the config-file keys (field_params read from dotted
    ``field.key`` lines or the ``name:key=value`` flag syntax), and their
    order is the order of the config echo.  Harness and quadrature
    defaults are those of HarnessConfig and QuadSpec.  workers, out and
    timestamp never influence result bytes.
    """

    suite: str = "identities"
    n: int = HarnessConfig.n
    field: str = "gaussian"
    field_params: dict = dataclasses.field(default_factory=dict)
    p: float = HarnessConfig.p
    q: float = HarnessConfig.q
    alpha: float = HarnessConfig.alpha
    r_min: float = HarnessConfig.r_min
    r_max: float = HarnessConfig.r_max
    per_decade: int = HarnessConfig.per_decade
    t_min: float = HarnessConfig.t_min
    t_max: float = HarnessConfig.t_max
    t_per_decade: int = HarnessConfig.t_per_decade
    box_radius: float = HarnessConfig.box_radius
    mode: str = QuadSpec.mode
    samples: int = QuadSpec.samples
    grid_per_axis: int = QuadSpec.grid_per_axis
    seed: int = QuadSpec.seed
    workers: int = dataclasses.field(default=HarnessConfig.workers, metadata=_UNECHOED)
    out: str | None = dataclasses.field(default=None, metadata=_UNECHOED)
    format: str = "csv"
    timestamp: bool = dataclasses.field(default=True, metadata=_UNECHOED)

    @property
    def quad_spec(self) -> QuadSpec:
        return QuadSpec(
            mode=self.mode,
            samples=self.samples,
            seed=self.seed,
            grid_per_axis=self.grid_per_axis,
        )

    def harness_config(self) -> HarnessConfig:
        shared = {f.name for f in fields(HarnessConfig)} & {f.name for f in fields(self)}
        return HarnessConfig(
            spec=self.quad_spec, **{key: getattr(self, key) for key in shared}
        )

    def make_field(self):
        return catalog(self.field, n=self.n, **self.field_params)


# config-file keys and their annotated types; field_params comes from
# dotted field.NAME keys instead
_KEY_TYPES = {
    key: kind for key, kind in get_type_hints(RunConfig).items()
    if key != "field_params"
}


def _parse_scalar(text: str):
    """Best-effort typed value for a field parameter: int, float,
    comma-separated float tuple, or the raw string."""
    if "," in text:
        try:
            return tuple(float(part) for part in text.split(","))
        except ValueError:
            raise UsageError(f"bad field parameter list: {text!r}") from None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


_CASTS = {int: int, float: float, bool: _parse_bool}


def _coerce(key: str, raw: str):
    """Typed value of a config-file string for key."""
    raw = raw.strip()
    cast = _CASTS.get(_KEY_TYPES[key])
    if cast is None:
        return raw
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"bad value for {key}: {raw!r}") from None


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; `#` starts a comment; field.NAME keys
    collect into field_params."""
    settings: dict = {}
    params: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("field."):
            params[key[len("field."):]] = _parse_scalar(value)
        elif key in _KEY_TYPES:
            settings[key] = _coerce(key, value)
        else:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
    if params:
        settings["field_params"] = params
    return settings


def _parse_field_flag(text: str) -> tuple[str, dict]:
    """--field syntax: NAME or NAME:key=value,key=value.

    A comma token without '=' continues the previous value, so vector
    parameters read naturally: affine:a=1.5,-0.5,b=2.
    """
    name, sep, rest = text.partition(":")
    params: dict = {}
    if sep:
        items: list[str] = []
        for token in rest.split(","):
            if "=" in token:
                items.append(token)
            elif items:
                items[-1] += "," + token
            else:
                raise UsageError(
                    f"bad --field parameter {token!r}, expected key=value"
                )
        for item in items:
            key, _, value = item.partition("=")
            params[key.strip()] = _parse_scalar(value.strip())
    return name.strip(), params


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose rejections are UsageErrors, so that main prints
    them as one line instead of the usage block."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heisbeta",
        description="Multiscale affine approximation sweeps and inequality "
        "checks on the Heisenberg group.",
    )
    parser.add_argument("suite", nargs="?", choices=_SUITES,
                        help="which sweep or check suite to run")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--n", type=int)
    parser.add_argument("--field",
                        help="catalog field, NAME or NAME:key=value,...")
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--rmin", dest="r_min", type=float)
    parser.add_argument("--rmax", dest="r_max", type=float)
    parser.add_argument("--per-decade", dest="per_decade", type=int)
    parser.add_argument("--box-radius", dest="box_radius", type=float)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--grid-per-axis", dest="grid_per_axis", type=int)
    parser.add_argument("--mode", choices=sorted(_MODE_ALIASES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=_FORMATS)
    parser.add_argument("--no-timestamp", dest="timestamp",
                        action="store_const", const=False)
    return parser


def parse_config(argv=None) -> RunConfig:
    """Assemble a validated RunConfig from flags and an optional config
    file; explicit flags override file values, which override defaults."""
    args = _build_parser().parse_args(argv)
    settings: dict = {}
    if args.config:
        settings.update(_read_config_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            settings[f.name] = value
    if args.field is not None:
        # the flag names a complete field; stale file params must not leak in
        settings["field"], settings["field_params"] = _parse_field_flag(args.field)
    return _validated(RunConfig(**settings))


def _validated(config: RunConfig) -> RunConfig:
    """Checks no library object makes, then the library's, whose ValueError
    becomes a UsageError: HarnessConfig checks every harness value and its
    three grids (scales, t shifts, norm shells), an inequality suite its
    exponent rule on them.  Builds no template."""
    if config.suite not in _SUITES:
        raise UsageError(f"suite must be one of {_SUITES}, got {config.suite!r}")
    if config.mode not in _MODE_ALIASES:
        raise UsageError(f"mode must be grid, mc, or montecarlo, got {config.mode!r}")
    config = replace(config, mode=_MODE_ALIASES[config.mode])
    if config.format not in _FORMATS:
        raise UsageError(f"format must be csv or json, got {config.format!r}")
    try:
        harness = config.harness_config()
        if config.suite == "dorronsoro":
            _admissible_window(harness)
        elif config.suite == "poincare":
            _poincare_range(harness)
    except ValueError as exc:
        raise UsageError(str(exc).replace("points_per_decade", "--per-decade")) from None
    try:
        check_template_request(config.n, config.quad_spec)
    except ValueError as exc:
        if config.mode == "grid":  # too many mesh points, or too few to keep a node
            over = config.grid_per_axis ** (2 * config.n + 1) > NODE_CEILING
            knob = ("lower" if over else "raise") + " --grid-per-axis"
        else:
            knob = "lower --samples" if config.samples > NODE_CEILING else "lower --n"
        raise UsageError(f"{exc}; {knob}") from None
    # beta_profile refits its slopes on the half-resolution twin for its
    # error estimate, and at 2 or 3 per axis that twin is the origin alone
    if config.suite == "beta" and config.mode == "grid" and config.grid_per_axis < 4:
        raise UsageError(
            f"beta fits slopes on the half-resolution twin, which at "
            f"grid_per_axis={config.grid_per_axis} holds only the origin; "
            f"raise --grid-per-axis"
        )
    try:
        config.make_field()
    except (ValueError, TypeError) as exc:
        raise UsageError(f"field configuration rejected: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(repr(float(part)) for part in value)
    return str(value)


def _echo_lines(config: RunConfig) -> list[str]:
    """Effective-config echo: every key that shapes the result rows, in
    field order, with one field.NAME line per field parameter."""
    lines = []
    for f in fields(config):
        if f.name == "field_params":
            lines += [
                f"field.{key} = {_fmt(config.field_params[key])}"
                for key in sorted(config.field_params)
            ]
        elif f.metadata.get("echo", True):
            lines.append(f"{f.name} = {_fmt(getattr(config, f.name))}")
    return lines


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit_csv(config: RunConfig, columns, rows) -> str:
    out = [f"# heisbeta {__version__}"]
    if config.timestamp:
        out.append(f"# generated = {_timestamp()}")
    out.extend(f"# {line}" for line in _echo_lines(config))
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(out) + "\n"


def _emit_json(config: RunConfig, columns, rows, reports=None) -> str:
    doc: dict = {"version": __version__}
    if config.timestamp:
        doc["generated"] = _timestamp()
    doc["config"] = dict(line.split(" = ", 1) for line in _echo_lines(config))
    if reports is not None:
        doc["reports"] = reports
    else:
        doc["rows"] = [_json_safe(dict(zip(columns, row))) for row in rows]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (np.floating, np.integer)):
        return _json_safe(float(value))
    if isinstance(value, tuple):
        return [_json_safe(part) for part in value]
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return value


# ---------------------------------------------------------------------------
# suites


def _probe_points(config: RunConfig):
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 71]))
    dim = 2 * config.n + 1
    pts = [origin(config.n)]
    for _ in range(4):
        x = np.empty(dim)
        x[:-1] = rng.uniform(-1.5, 1.5, size=dim - 1)
        x[-1] = rng.uniform(-2.0, 2.0)
        pts.append(x)
    return pts


def _run_beta(config: RunConfig):
    f = config.make_field()
    grid = config.harness_config().scale_grid
    prof = beta_profile(f, origin(config.n), 1, config.q, grid, config.quad_spec)
    rows = list(zip(prof.grid.nodes(), prof.values, prof.stderrs))
    return ("r", "beta", "stderr"), [tuple(map(float, row)) for row in rows], None


def _run_squarefn(config: RunConfig):
    f = config.make_field()
    grid = config.harness_config().scale_grid
    rows = []
    for x_id, x in enumerate(_probe_points(config)):
        res = g_alpha(f, x, config.alpha, grid, config.quad_spec)
        rows.append((x_id, config.alpha, res.value, res.truncation_low,
                     res.truncation_high))
    return ("x_id", "alpha", "value", "trunc_low", "trunc_high"), rows, None


def _run_reports(reports):
    rows = [(rep.name, rep.lhs, rep.rhs, rep.ratio, rep.degenerate) for rep in reports]
    dicts = [_json_safe(dataclasses.asdict(rep)) for rep in reports]
    return ("name", "lhs", "rhs", "ratio", "degenerate"), rows, dicts


def _run_suite(config: RunConfig):
    if config.suite == "beta":
        return _run_beta(config)
    if config.suite == "squarefn":
        return _run_squarefn(config)
    harness = config.harness_config()
    if config.suite == "identities":
        return _run_reports(run_identity_suite(harness))
    if config.suite == "lemmas":
        return _run_reports(run_lemma_suite(harness))
    ratio, stability, dilations = {
        "dorronsoro": (dorronsoro_ratio, dorronsoro_stability, (0.5, 1.0, 2.0)),
        "poincare": (poincare_ratio, poincare_stability, (0.5, 2.0)),
    }[config.suite]
    f = config.make_field()
    base = ratio(f, harness)
    return _run_reports([base] + [stability(f, harness, s, base) for s in dilations])


def run(config: RunConfig) -> int:
    """Execute the configured suite and write its artifact; returns the
    exit status (0 ok; 2, with one stderr line, failed checks or every
    report degenerate; 1 runtime error or out of memory).  numpy does not
    warn: reports carry inf and nan, and finiteness checks name the node."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            columns, rows, dicts = _run_suite(config)
        if config.format == "csv":
            text = _emit_csv(config, columns, rows)
        else:
            text = _emit_json(config, columns, rows, reports=dicts)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as sink:
                sink.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, FloatingPointError, ValueError, RuntimeError,
            MemoryError) as exc:
        print(f"heisbeta: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    if dicts and all(rep["degenerate"] for rep in dicts):  # written, but no ratio formed
        print("heisbeta: every report is degenerate (rhs at or below its vanishing "
              "floor), so no ratio was formed", file=sys.stderr)
        return 2
    failed = [rep["name"] for rep in dicts or () if rep["params"].get("pass") is False]
    if failed:
        checks = sum("pass" in rep["params"] for rep in dicts)
        print(f"heisbeta: {len(failed)} of {checks} checks failed (first: {failed[0]})",
              file=sys.stderr)
    return 2 if failed else 0


def main(argv=None) -> None:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"heisbeta: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
