"""Command line front end: parsing, output formats, exit codes."""

import warnings

import numpy as np
import pytest

from heisbeta import beta, quad
from heisbeta.cli import RunConfig, UsageError, main, parse_config, run
from heisbeta.quad import NODE_CEILING

from conftest import strict_json

FAST_BETA = [
    "beta", "--mode", "grid", "--grid-per-axis", "8",
    "--rmin", "0.1", "--rmax", "10", "--per-decade", "4", "--no-timestamp",
]
FAST_SUITE = [
    "--mode", "grid", "--grid-per-axis", "8", "--rmin", "0.01", "--rmax", "10",
    "--per-decade", "4", "--box-radius", "2.0", "--no-timestamp",
]


def run_main(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


def test_parse_defaults():
    cfg = parse_config(["identities"])
    assert cfg.suite == "identities"
    assert cfg.mode == "montecarlo" and cfg.samples == 100_000
    assert cfg.field == "gaussian" and cfg.field_params == {}
    assert cfg.workers == 1 and cfg.timestamp is True and cfg.format == "csv"


def test_parse_flags_and_aliases():
    cfg = parse_config(
        ["dorronsoro", "--p", "1.5", "--q", "2", "--mode", "mc",
         "--samples", "5000", "--seed", "7", "--format", "json"]
    )
    assert cfg.suite == "dorronsoro" and cfg.p == 1.5 and cfg.q == 2.0
    assert cfg.mode == "montecarlo" and cfg.samples == 5000 and cfg.seed == 7


def test_parse_field_flag():
    cfg = parse_config(["beta", "--field", "vertical-wave:omega=4"])
    assert cfg.field == "vertical-wave"
    assert cfg.field_params == {"omega": 4}
    cfg = parse_config(["beta", "--field", "affine:a=1.5,-0.5,b=2"])
    assert cfg.field_params == {"a": (1.5, -0.5), "b": 2}


def test_config_file_roundtrip(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# comment line\n"
        "suite = lemmas\n"
        "mode = grid\n"
        "grid_per_axis = 9\n"
        "field = vertical-wave\n"
        "field.omega = 2.5\n"
        "seed = 11\n"
    )
    cfg = parse_config(["--config", str(conf)])
    assert cfg.suite == "lemmas" and cfg.mode == "grid" and cfg.grid_per_axis == 9
    assert cfg.field == "vertical-wave" and cfg.field_params == {"omega": 2.5}
    # flags override the file; --field resets file-level field params
    cfg2 = parse_config(["--config", str(conf), "--field", "gaussian", "--seed", "3"])
    assert cfg2.field == "gaussian" and cfg2.field_params == {} and cfg2.seed == 3


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("samples = 100\nbogus_key = 3\n")
    with pytest.raises(UsageError, match="bogus_key"):
        parse_config(["--config", str(conf)])


def test_usage_errors_exit_2(tmp_path):
    assert run_main(["no-such-suite"]) == 2
    assert run_main(["beta", "--mode", "quantum"]) == 2
    assert run_main(["beta", "--field", "unknown-field"]) == 2
    assert run_main(["dorronsoro", "--p", "2", "--q", "4"]) == 2  # gate rejects
    assert run_main(["poincare", "--p", "3"]) == 2
    assert run_main(["beta", "--samples", "0"]) == 2


def test_worker_flag():
    assert parse_config(["identities", "--workers", "2"]).workers == 2


def test_beta_csv_output(tmp_path):
    out = tmp_path / "beta.csv"
    assert run_main(FAST_BETA + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# heisbeta ")
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# suite = beta") for ln in meta)
    assert not any("generated" in ln for ln in meta)  # --no-timestamp
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "r,beta,stderr"
    data = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(data) == 8  # 4 points/decade over [0.1, 10]
    assert all(len(row) == 3 for row in data)
    rs = [float(row[0]) for row in data]
    assert rs == sorted(rs)


def test_squarefn_csv_columns(tmp_path):
    out = tmp_path / "g.csv"
    code = run_main(
        ["squarefn", "--alpha", "0.8", "--mode", "grid", "--grid-per-axis", "6",
         "--rmin", "0.1", "--rmax", "10", "--per-decade", "4",
         "--no-timestamp", "--out", str(out)]
    )
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "x_id,alpha,value,trunc_low,trunc_high"
    assert len(lines) == 6  # origin plus four probe points


def test_squarefn_sweeps_degree_1_at_alpha_above_1(swept_degrees, tmp_path):
    # alpha = 1.5 fits slopes; no row prints an error estimate, so none is formed
    code = run_main(
        ["squarefn", "--alpha", "1.5", "--mode", "grid", "--grid-per-axis", "6",
         "--rmin", "0.1", "--rmax", "10", "--per-decade", "4",
         "--no-timestamp", "--out", str(tmp_path / "g.csv")]
    )
    assert code == 0
    assert swept_degrees == [(1, False)] * 5  # origin plus four probe points


def test_identities_json_and_worker_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["identities"] + FAST_SUITE + ["--format", "json"]
    assert run_main(argv + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_main(argv + ["--workers", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = strict_json(out1.read_text())
    assert doc["version"] and "generated" not in doc
    assert doc["config"]["suite"] == "identities"
    assert len(doc["reports"]) == 8
    for rep in doc["reports"]:
        assert rep["params"]["pass"] is True and rep["ratio"] == 1.0


def test_dorronsoro_bytes_do_not_depend_on_workers(capsys):
    # 576 polar points x 10 radii x 184 nodes: each norm sweep runs 17 tiles
    argv = ["dorronsoro", "--samples", "256", "--per-decade", "2", "--box-radius", "2",
            "--format", "json", "--no-timestamp"]
    outputs = []
    for workers in ("1", "2", "3"):
        assert run_main(argv + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert strict_json(outputs[0])["reports"][0]["name"] == "dorronsoro"


def test_lemmas_bytes_do_not_depend_on_workers(capsys):
    # at these budgets every sweep of the suite but near-optimal spans 2 to
    # 40 tiles: the g-vs-s sweep, both sides of the monotonicity ball list
    # and the 1 + 2n gradient-pair ball lists (5 sweeps at n = 2)
    for n, samples in (("1", "2048"), ("2", "8192")):
        argv = ["lemmas", "--n", n, "--samples", samples, "--per-decade", "8",
                "--format", "json", "--no-timestamp"]
        outputs = []
        for workers in ("1", "2", "3"):
            assert run_main(argv + ["--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(strict_json(outputs[0])["reports"]) == 5


def test_identities_starved_budget_exits_2(tmp_path):
    out = tmp_path / "starved.csv"
    code = run_main(
        ["identities", "--mode", "mc", "--samples", "10", "--rmin", "0.1",
         "--rmax", "10", "--per-decade", "4", "--box-radius", "2.0",
         "--no-timestamp", "--out", str(out)]
    )
    assert code == 2
    assert out.exists()  # report still written for inspection


def test_exact_covariance_identity_at_n2_on_a_grid_exits_0(capsys):
    """Far-out gaussian placements at s = 2 have betas near 6.5e-13 that
    agree to 15 digits; one amax-scaled roundoff floor decides both which
    placements count and whether the report is degenerate.  Every valid
    placement is exact to roundoff, so the report shows the first one.  The
    covariance check does not read --per-decade, which only shortens the g
    checks."""
    argv = ["identities", "--n", "2", "--mode", "grid", "--grid-per-axis", "8",
            "--per-decade", "2", "--format", "json", "--no-timestamp"]
    assert run_main(argv) == 0
    reports = {rep["name"]: rep for rep in strict_json(capsys.readouterr().out)["reports"]}
    rep = reports["beta-covariance:gaussian:s=2"]
    assert not rep["degenerate"] and rep["params"]["pass"] is True
    assert rep["params"]["valid"] == 5 and abs(rep["ratio"] - 1.0) < 1e-12


def test_tiny_dorronsoro_bytes_on_the_shared_radius_products(monkeypatch, capsys):
    """At this budget the norm sweeps hold every radius in one tile and
    span many center blocks, so they form r u_j and r^2 u_t once per
    sweep; the bytes equal those of per-tile products at 1 and 2 workers."""
    argv = ["dorronsoro", "--samples", "256", "--per-decade", "2", "--box-radius", "2",
            "--format", "json", "--no-timestamp", "--workers"]
    formed = []
    shared = beta.radius_products
    monkeypatch.setattr(beta, "radius_products",
                        lambda rs, u: formed.append(len(rs)) or shared(rs, u))
    outs = []
    for workers in ("1", "2"):
        assert run_main(argv + [workers]) == 0
        outs.append(capsys.readouterr().out)
    assert formed
    monkeypatch.setattr(beta, "radius_products", lambda rs, u: None)
    assert run_main(argv + ["1"]) == 0
    assert outs[0] == outs[1] == capsys.readouterr().out


def test_report_csv_columns(tmp_path):
    out = tmp_path / "lem.csv"
    assert run_main(["lemmas"] + FAST_SUITE + ["--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "name,lhs,rhs,ratio,degenerate"
    assert len(lines) == 6


def test_echo_roundtrip_reproduces_bytes(tmp_path):
    out1 = tmp_path / "first.csv"
    assert run_main(["lemmas"] + FAST_SUITE + ["--out", str(out1)]) == 0
    echoed = [
        ln[2:] for ln in out1.read_text().splitlines()
        if ln.startswith("# ") and " = " in ln
    ]
    conf = tmp_path / "echo.conf"
    conf.write_text("\n".join(echoed) + "\n")
    out2 = tmp_path / "second.csv"
    assert run_main(
        ["--config", str(conf), "--no-timestamp", "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_reports_runtime_error(tmp_path):
    cfg = parse_config(FAST_BETA + ["--out", str(tmp_path / "missing" / "x.csv")])
    assert run(cfg) == 1  # unwritable path surfaces as runtime failure


def test_stdout_default(capsys):
    assert run_main(FAST_BETA) == 0
    captured = capsys.readouterr().out
    assert "r,beta,stderr" in captured


@pytest.mark.parametrize("exc", [
    MemoryError(),
    RuntimeError("rejection sampling produced no ball nodes"),
], ids=["memory", "template"])
def test_runtime_failures_exit_1_with_one_line(monkeypatch, capsys, exc):
    def builder(*args):
        raise exc

    monkeypatch.setattr(quad, "_ball_template_cached", builder)
    assert run(parse_config(FAST_BETA)) == 1
    err = capsys.readouterr().err
    assert err.startswith("heisbeta: error: ") and err.count("\n") == 1


@pytest.fixture
def builder_calls(monkeypatch):
    """Template and ball-constant builders patched to record and refuse."""
    calls = []

    def builder(*args):
        calls.append(args)
        raise AssertionError("template builder reached")

    for name in ("_ball_template_cached", "_grid_ball_template",
                 "_mc_ball_template", "_sign_orbit", "_midpoint_mesh",
                 "_ball_constant"):
        monkeypatch.setattr(quad, name, builder)
    return calls


def test_oversized_template_rejected_before_allocation(builder_calls, capsys):
    # 24^7 = 4.6e9 mesh points
    assert run_main(["identities", "--n", "3", "--mode", "grid"]) == 2
    assert "--grid-per-axis" in capsys.readouterr().err
    assert run_main(["beta", "--samples", str(NODE_CEILING + 1)]) == 2
    assert "--samples" in capsys.readouterr().err
    # the sign orbit alone has 2^25 nodes
    assert run_main(["beta", "--n", "12"]) == 2
    assert "lower --n" in capsys.readouterr().err
    assert not builder_calls
    # the largest default request, 24^5 mesh points at n = 2, is admitted
    assert parse_config(["identities", "--n", "2", "--mode", "grid"]).n == 2


@pytest.mark.parametrize("n, per_axis", [(2, 2), (2, 4), (2, 5), (3, 2), (3, 4), (3, 5)])
def test_ball_grid_that_keeps_no_node_rejected_before_building(builder_calls, capsys,
                                                                n, per_axis):
    argv = ["beta", "--n", str(n), "--mode", "grid", "--grid-per-axis", str(per_axis)]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert "keeps no ball node" in err and "raise --grid-per-axis" in err
    assert err.count("\n") == 1
    assert not builder_calls


@pytest.mark.parametrize("argv", [
    ["beta", "--grid-per-axis", "2"],
    ["beta", "--grid-per-axis", "3"],
    ["beta", "--n", "2", "--grid-per-axis", "3"],
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_slope_fits_on_an_origin_only_twin_rejected_before_building(builder_calls,
                                                                     capsys, argv):
    assert run_main(argv + ["--mode", "grid"]) == 2
    err = capsys.readouterr().err
    assert "holds only the origin" in err and "raise --grid-per-axis" in err
    assert err.count("\n") == 1
    assert not builder_calls


_NO_TWIN_SLOPES = {
    "squarefn": ["squarefn", "--alpha", "0.5"], "squarefn-alpha-1": ["squarefn"],
    "squarefn-alpha-1.5": ["squarefn", "--alpha", "1.5"], "dorronsoro": ["dorronsoro"],
    "lemmas": ["lemmas"], "identities": ["identities"], "poincare": ["poincare"],
}


# at n = 2 a grid of 2 per axis keeps no ball node, so that case runs at 3 only
@pytest.mark.parametrize("per_axis, argv", [
    pytest.param(per_axis, argv, id=f"{per_axis}-{name}")
    for per_axis in ("2", "3") for name, argv in _NO_TWIN_SLOPES.items()
] + [pytest.param("3", ["dorronsoro", "--n", "2"], id="3-dorronsoro-n-2")])
def test_suites_without_twin_slopes_run_on_grids_of_2_and_3(tmp_path, argv, per_axis):
    argv = argv + ["--mode", "grid", "--grid-per-axis", per_axis,
                   "--out", str(tmp_path / "x.csv")]
    assert run_main(argv) == 0


@pytest.mark.parametrize("argv, conf", [
    (["beta", "--per-decade", "0"], None),
    (["identities", "--box-radius", "0.005"], None),
    (["beta", "--seed", "-1"], None),
    (["identities"], "t_min = 5\nt_max = 1\n"),
    (["identities"], "t_per_decade = 0\n"),
    (["beta", "--rmax", "inf"], None),
    (["poincare", "--box-radius", "inf"], None),
    (["identities"], "t_max = inf\n"),
    (["dorronsoro", "--p", "inf"], None),
    (["lemmas", "--q", "inf"], None),
    (["dorronsoro", "--workers", "0"], None),
    (["squarefn", "--mode", "grid", "--grid-per-axis", "1", "--alpha", "0.5"], None),
    (["beta", "--rmin", "1e-300", "--rmax", "1e300", "--per-decade", "1"], None),
    (["poincare"], "t_min = 1e-300\nt_max = 1e300\n"),
    (["poincare", "--box-radius", "1e77", "--mode", "grid", "--grid-per-axis", "6"], None),
    (["dorronsoro", "--box-radius", "1e200"], None),
], ids=["per-decade-0", "box-radius-below-rho-min", "seed-negative", "t-grid-reversed",
        "t-per-decade-0", "rmax-inf", "box-radius-inf", "t-max-inf", "p-inf", "q-inf",
        "workers-0", "grid-per-axis-1", "scale-range-overflows", "t-range-overflows",
        "domain-volume-overflows", "domain-volume-overflows-far"])
def test_out_of_range_values_exit_2_with_one_line(builder_calls, capsys, tmp_path,
                                                   argv, conf):
    if conf is not None:
        path = tmp_path / "run.conf"
        path.write_text(conf)
        argv = argv + ["--config", str(path)]
    assert run_main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("heisbeta: ") and err.count("\n") == 1
    assert not builder_calls


def test_scale_grid_above_the_ceiling_is_a_usage_error(builder_calls, tmp_path):
    # parsed only: a run would ask for 5e8 radii
    with pytest.raises(UsageError, match="exceeds the ceiling.*lower --per-decade$"):
        parse_config(["beta", "--per-decade", "100000000"])
    path = tmp_path / "run.conf"
    path.write_text("t_per_decade = 100000000\n")
    with pytest.raises(UsageError, match="^t grid: .*lower t_per_decade$"):
        parse_config(["poincare", "--config", str(path)])
    assert not builder_calls


def test_working_box_radii_are_admitted():
    # the domain volume c_1 (2e70)^4 is about 2e281
    assert parse_config(["poincare", "--box-radius", "1e70"]).box_radius == 1e70
    with pytest.raises(UsageError, match="overflows the domain volume"):
        parse_config(["poincare", "--n", "2", "--box-radius", "1e70"])


@pytest.mark.parametrize("field", [
    "affine:a=inf,1", "affine:b=nan", "vertical-wave:omega=nan",
    "vertical-wave:omega=inf", "coordinate:axis=1.5", "quadratic:j=1.9,k=2",
])
def test_unusable_field_params_exit_2_with_one_line(builder_calls, capsys, field):
    assert run_main(["squarefn", "--field", field]) == 2
    err = capsys.readouterr().err
    assert err.startswith("heisbeta: field configuration rejected: ")
    assert err.count("\n") == 1
    assert not builder_calls


@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_field_parameter_list_exits_2_with_one_line(builder_calls, capsys,
                                                               tmp_path, source):
    if source == "flag":
        argv = ["beta", "--field", "affine:a=x,y"]
    else:
        conf = tmp_path / "run.cfg"
        conf.write_text("suite = beta\nfield = affine\nfield.a = 1,zz\n")
        argv = ["--config", str(conf)]
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("heisbeta: bad field parameter list: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not builder_calls


def test_non_finite_truncation_is_strict_json(capsys):
    """The affine field is annihilated, so its shell means are roundoff and
    its truncations read inf; every non-finite report number is a string."""
    argv = ["dorronsoro", "--field", "affine", "--samples", "256", "--per-decade", "2",
            "--box-radius", "2", "--format", "json", "--no-timestamp"]
    assert run_main(argv) == 0
    reports = strict_json(capsys.readouterr().out)["reports"]
    assert reports[0]["truncation"] == ["inf", "inf"]


def test_poincare_non_finite_field_exits_1_without_a_report(capsys, tmp_path):
    out = tmp_path / "p.csv"
    argv = ["poincare", "--field", "vertical-wave:omega=1e308", "--out", str(out)]
    with np.errstate(all="ignore"):
        assert run_main(argv) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("heisbeta: error: non-finite domain integrand at node ")
    assert not out.exists()


def test_overflowing_vertical_wave_exits_1_with_one_line_and_no_warning(capsys):
    """omega t overflows to inf and sin(inf) is nan: the sweep's finiteness
    check reports it, and numpy warns of neither step."""
    argv = ["beta", "--field", "vertical-wave:omega=1e308", "--samples", "256",
            "--per-decade", "2", "--no-timestamp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_main(argv) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.err.startswith("heisbeta: error: non-finite ball integrand")
    assert captured.err.count("\n") == 1 and not captured.out


@pytest.mark.parametrize("argv", [
    ["dorronsoro", "--p", "1e308", "--per-decade", "2"],
    ["dorronsoro", "--field", "affine:a=0,0", "--per-decade", "2"],
    ["poincare", "--field", "affine:a=0,0"],
], ids=["dorronsoro-underflow", "dorronsoro-constant", "poincare-constant"])
def test_every_report_degenerate_exits_2_with_one_line(capsys, tmp_path, argv):
    """|.|^p underflows at p = 1e308, and a constant field has no gradient:
    every report is degenerate, so no ratio was measured.  The rows are
    still written, as they are for failed checks."""
    out = tmp_path / "r.csv"
    common = ["--box-radius", "2", "--samples", "256", "--no-timestamp", "--out", str(out)]
    assert run_main(argv + common) == 2
    err = capsys.readouterr().err
    assert err.startswith("heisbeta: every report is degenerate") and err.count("\n") == 1
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0].endswith(",degenerate") and len(rows) > 2
    assert all(row.endswith(",nan,true") for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["beta", "--n", "abc"],
    ["beta", "--mode", "quantum"],
    ["no-such-suite"],
    ["beta", "--bogus"],
], ids=["int-value", "choice", "suite", "unknown-flag"])
def test_argparse_rejections_exit_2_with_one_line(capsys, argv):
    assert run_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("heisbeta: ") and captured.err.count("\n") == 1
    assert not captured.out


def test_help_prints_usage_to_stdout_and_exits_0(capsys):
    assert run_main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: heisbeta") and not captured.err
