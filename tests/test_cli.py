"""Command line front end: parsing, output formats, exit codes."""

import json

import pytest

from heisbeta import quad
from heisbeta.cli import RunConfig, UsageError, main, parse_config, run
from heisbeta.quad import NODE_CEILING

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


def test_env_worker_default(monkeypatch):
    monkeypatch.setenv("HEIS_BETA_WORKERS", "3")
    assert parse_config(["identities"]).workers == 3
    # explicit flag wins over the environment
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


def test_identities_json_and_worker_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["identities"] + FAST_SUITE + ["--format", "json"]
    assert run_main(argv + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_main(argv + ["--workers", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
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
    assert json.loads(outputs[0])["reports"][0]["name"] == "dorronsoro"


def test_identities_starved_budget_exits_2(tmp_path):
    out = tmp_path / "starved.csv"
    code = run_main(
        ["identities", "--mode", "mc", "--samples", "10", "--rmin", "0.1",
         "--rmax", "10", "--per-decade", "4", "--box-radius", "2.0",
         "--no-timestamp", "--out", str(out)]
    )
    assert code == 2
    assert out.exists()  # report still written for inspection


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
                 "_mc_ball_template", "_sign_orbit", "_unit_box_template_cached",
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
], ids=["per-decade-0", "box-radius-below-rho-min", "seed-negative", "t-grid-reversed",
        "t-per-decade-0", "rmax-inf", "box-radius-inf", "t-max-inf", "p-inf", "q-inf",
        "workers-0"])
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
