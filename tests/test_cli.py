import json
import subprocess
import sys
import warnings

import pytest

from driftlearn import cli, harness, suites
from driftlearn.datagen import read_stream_csv


def run_cli(*argv):
    return cli.main(list(argv))


def test_gen_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    base = ["gen", "--kind", "A", "--T", "10", "--d", "10", "--seed", "1"]
    assert run_cli(*base, "--out", str(out1)) == 0
    assert run_cli(*base, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stream = read_stream_csv(out1)
    assert stream.T == 10 and stream.dim == 10


def test_gen_matches_fresh_subprocess(tmp_path, subprocess_env):
    # byte-identical across interpreter invocations, not just calls
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["gen", "--kind", "B", "--T", "8", "--d", "10", "--seed", "3"]
    assert run_cli(*argv, "--out", str(out1)) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "driftlearn.cli", *argv, "--out", str(out2)],
        capture_output=True, env=subprocess_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_run_on_stream_file_reproduces_hand_trace(tmp_path):
    data = tmp_path / "hand.csv"
    data.write_text(
        "t,x_1,y,u_1\n"
        "1,1,1,0.5\n"
        "2,1,0.5,0.5\n"
    )
    prefix = tmp_path / "hand"
    code = run_cli("run", "--algo", "laser", "--b", "1", "--c", "2",
                   "--data", str(data), "--out-prefix", str(prefix))
    assert code == 0
    lines = (tmp_path / "hand_report.csv").read_text().splitlines()
    assert lines[0] == "algo,seed,t,yhat,y,loss,cumloss"
    yhats = [float(line.split(",")[3]) for line in lines[1:]]
    assert yhats == pytest.approx([0.0, 0.25], abs=1e-12)


def test_run_generated_multi_seed_and_report(tmp_path):
    prefix = tmp_path / "exp"
    code = run_cli(
        "run", "--algo", "laser", "--b", "1", "--c", "100",
        "--kind", "A", "--T", "30", "--d", "4", "--seeds", "3",
        "--out-prefix", str(prefix),
    )
    assert code == 0
    report_csv = f"{prefix}_report.csv"
    summary = tmp_path / "summary.csv"
    plot = tmp_path / "curves.gp"
    code = run_cli("report", "--inputs", report_csv,
                   "--out", str(summary), "--plot", str(plot))
    assert code == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "algo,t,mean_cumloss,stderr,n"
    assert len(lines) == 1 + 30
    assert all(line.endswith(",3") for line in lines[1:])
    script = plot.read_text()
    assert "gnuplot" not in script.lower()  # plain commands, no shebang
    assert "strcol(1) eq 'laser'" in script
    assert str(summary) in script


def test_report_stable_under_row_reordering(tmp_path):
    prefix = tmp_path / "exp"
    run_cli("run", "--algo", "nlms", "--eta", "0.5", "--eps", "1e-6",
            "--kind", "A", "--T", "12", "--d", "4", "--seeds", "2",
            "--out-prefix", str(prefix))
    report_csv = tmp_path / "exp_report.csv"
    lines = report_csv.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("\n".join([header] + rows[::-1]) + "\n")

    out1, out2 = tmp_path / "sum1.csv", tmp_path / "sum2.csv"
    run_cli("report", "--inputs", str(report_csv), "--out", str(out1))
    run_cli("report", "--inputs", str(reordered), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_writes_best_params_json(tmp_path):
    out = tmp_path / "best.json"
    code = run_cli(
        "sweep", "--algo", "laser",
        "--grid", '{"b": [1.0, 5.0], "c": [2.0, 50.0]}',
        "--kind", "A", "--T", "30", "--d", "4", "--tuning-seed", "7",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["algo"] == "laser"
    assert set(payload["best_params"]) == {"b", "c"}
    assert payload["evaluated"] == 3
    assert payload["skipped"][0]["params"] == {"b": 5.0, "c": 2.0}


def test_sweep_json_lists_every_evaluated_points_loss(tmp_path):
    out = tmp_path / "best.json"
    assert run_cli("sweep", "--algo", "nlms", "--grid", '{"eta": [0.25, 0.5, 1.0]}',
                   "--kind", "C", "--T", "30", "--d", "4", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    losses = payload["losses"]
    assert [entry["params"] for entry in losses] == [{"eta": 0.25}, {"eta": 0.5}, {"eta": 1.0}]
    assert payload["evaluated"] == len(losses)
    assert min(entry["L_T"] for entry in losses) == payload["best_loss"]
    best = next(entry for entry in losses if entry["L_T"] == payload["best_loss"])
    assert best["params"] == payload["best_params"]


def test_sweep_reads_grid_from_file(tmp_path):
    grid_file = tmp_path / "grid.json"
    grid_file.write_text('{"b": [0.5, 2.0]}')
    out = tmp_path / "best.json"
    code = run_cli("sweep", "--algo", "aar", "--grid", f"@{grid_file}",
                   "--kind", "A", "--T", "20", "--d", "4", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["algo"] == "aar"


def test_verify_oracle_suite_exits_zero(capsys):
    assert run_cli("verify", "--suite", "oracle", "--trials", "40", "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "oracle equivalence" in out and "[ok]" in out


def test_verify_kernel_suite_exits_zero(capsys):
    assert run_cli("verify", "--suite", "kernel") == 0
    out = capsys.readouterr().out
    assert "batched kernel vs direct recursion" in out and "[ok]" in out
    assert "tol 1.0e-10" in out


def test_verify_violation_exits_one(monkeypatch, capsys):
    fake = suites.SuiteResult(name="fake", cases=1, worst=1.0, tol=1e-9, ok=False)
    monkeypatch.setattr(suites, "run_suites", lambda *a, **k: [fake])
    assert run_cli("verify", "--suite", "oracle") == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "bogus")
    assert exc.value.code == 2
    # run without a data source is a usage error too
    assert run_cli("run", "--algo", "aar", "--b", "1") == 2


def test_invalid_params_exit_two(tmp_path):
    data = tmp_path / "s.csv"
    run_cli("gen", "--kind", "A", "--T", "5", "--d", "10", "--seed", "0",
            "--out", str(data))
    code = run_cli("run", "--algo", "laser", "--b", "5", "--c", "2",
                   "--data", str(data), "--out-prefix", str(tmp_path / "x"))
    assert code == 2


def test_config_file_provides_defaults_and_flags_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "A", "T": 9, "d": 10, "seed": 5}))
    out1 = tmp_path / "c1.csv"
    assert run_cli("--config", str(config), "gen", "--out", str(out1)) == 0
    assert read_stream_csv(out1).T == 9
    out2 = tmp_path / "c2.csv"
    assert run_cli("--config", str(config), "gen", "--T", "4", "--out", str(out2)) == 0
    assert read_stream_csv(out2).T == 4


def test_missing_input_file_exits_nonzero(tmp_path):
    code = run_cli("run", "--algo", "aar", "--b", "1",
                   "--data", str(tmp_path / "absent.csv"),
                   "--out-prefix", str(tmp_path / "x"))
    assert code == 1


def test_header_only_stream_csv_exits_two(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("t,x_1,x_2,y,u_1,u_2\n")
    code = run_cli("run", "--algo", "laser", "--b", "1", "--c", "2",
                   "--data", str(data), "--out-prefix", str(tmp_path / "x"))
    assert code == 2
    assert "no rows" in capsys.readouterr().err


def test_config_values_get_the_flags_type_conversion(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "A", "T": "9", "d": 10}))
    out = tmp_path / "s.csv"
    assert run_cli("--config", str(config), "gen", "--out", str(out)) == 0
    assert read_stream_csv(out).T == 9
    config.write_text(json.dumps({"kind": "A", "T": "nine"}))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(config), "gen", "--out", str(out))
    assert exc.value.code == 2
    config.write_text(json.dumps({"kind": "Z"}))
    assert run_cli("--config", str(config), "gen", "--out", str(out)) == 2


def test_abbreviated_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"base_seed": 7}))
    prefix = tmp_path / "r"
    assert run_cli("--config", str(config), "run", "--algo", "aar", "--b", "1",
                   "--kind", "A", "--T", "5", "--d", "4", "--base", "0",
                   "--out-prefix", str(prefix)) == 0
    rows = (tmp_path / "r_report.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"0"}


# bad user input: each must exit 2 with an error line, not a traceback
BAD_INPUTS = {
    "gen-T-0": ["gen", "--kind", "A", "--T", "0", "--out", "TMP/x.csv"],
    "gen-switch-period-0": ["gen", "--kind", "A", "--switch-period", "0", "--out", "TMP/x.csv"],
    "gen-noise-on-kind-A": ["gen", "--kind", "A", "--noise-var", "1", "--out", "TMP/x.csv"],
    "sweep-grid-list": ["sweep", "--algo", "laser", "--grid", "[1]"],
    "sweep-grid-scalar": ["sweep", "--algo", "laser", "--grid", '{"b": 1, "c": [10]}'],
    "sweep-grid-text": ["sweep", "--algo", "laser", "--grid", '{"b": ["x"], "c": [10]}'],
    "sweep-grid-non-integral": ["sweep", "--algo", "crrls", "--grid",
                                '{"reset_period": [2.5], "b_reset": [1]}'],
    "report-on-stream-csv": ["report", "--inputs", "TMP/stream.csv", "--out", "TMP/s.csv"],
    "report-non-numeric": ["report", "--inputs", "TMP/bad_report.csv", "--out", "TMP/s.csv"],
    "verify-trials-0": ["verify", "--trials", "0"],
    "verify-trials-negative": ["verify", "--trials", "-1"],
    "tuned-regime-with-b": ["run", "--algo", "laser", "--tuned-regime", "low",
                            "--eps-ratio", "0.1", "--b", "3", "--out-prefix", "TMP/r"],
    "eps-ratio-without-tuned-regime": ["run", "--algo", "laser", "--b", "1", "--c", "10",
                                       "--eps-ratio", "0.1", "--out-prefix", "TMP/r"],
    "laser-b-text": ["run", "--algo", "laser", "--b", "x", "--out-prefix", "TMP/r"],
    "crrls-reset-period-non-integral": ["run", "--algo", "crrls", "--reset-period", "2.5",
                                        "--b-reset", "1", "--out-prefix", "TMP/r"],
    "tuned-regime-unknown": ["run", "--algo", "laser", "--tuned-regime", "mid",
                             "--eps-ratio", "0.1", "--out-prefix", "TMP/r"],
    "laser-b-reciprocal-overflows": ["run", "--algo", "laser", "--b", "1e-310", "--c", "1",
                                     "--out-prefix", "TMP/r"],
    "aar-b-reciprocal-overflows": ["run", "--algo", "aar", "--b", "1e-310",
                                   "--out-prefix", "TMP/r"],
    "hinf-b-reciprocal-overflows": ["run", "--algo", "hinf", "--a", "2", "--b", "1e-310",
                                    "--c", "1", "--out-prefix", "TMP/r"],
    "crrls-b-reset-reciprocal-overflows": ["run", "--algo", "crrls", "--reset-period", "3",
                                           "--b-reset", "1e-310", "--out-prefix", "TMP/r"],
    **{f"{algo}-overflowing-inputs": ["run", "--algo", algo, *flags, "--data", "TMP/huge.csv",
                                      "--out-prefix", "TMP/r"]
       for algo, flags in [("laser", ["--b", "1", "--c", "10"]), ("aar", ["--b", "1"]),
                           ("hinf", ["--a", "2", "--b", "1", "--c", "1"]),
                           ("crrls", ["--reset-period", "3", "--b-reset", "1"]),
                           ("nlms", ["--eta", "0.5"])]},
}
# the reason each of these must name in its error line
BAD_INPUT_REASONS = {
    "sweep-grid-text": "parameter 'b': could not convert string to float: 'x'",
    "sweep-grid-non-integral": "parameter 'reset_period': expected an integer, got 2.5",
    "eps-ratio-without-tuned-regime": "eps_ratio applies only with tuned_regime",
    "laser-b-text": "parameter 'b': could not convert string to float: 'x'",
    "crrls-reset-period-non-integral": "parameter 'reset_period': expected an integer, got '2.5'",
    "tuned-regime-unknown": "parameter 'tuned_regime': 'mid' is not a valid DriftRegime",
    "laser-b-reciprocal-overflows": "finite reciprocal, got 1e-310",
    "aar-b-reciprocal-overflows": "finite reciprocal, got 1e-310",
    "hinf-b-reciprocal-overflows": "finite reciprocals, got b=1e-310",
    "crrls-b-reset-reciprocal-overflows": "finite reciprocal, got 1e-310",
    **{f"{algo}-overflowing-inputs": "x^T P' x overflowed at round 1"
       for algo in ("laser", "aar", "hinf", "crrls")},
    "nlms-overflowing-inputs": "eps + |x|^2 overflowed at round 1",
}
SWEEP_DATA = ["--kind", "A", "--T", "20", "--d", "4", "--out", "TMP/best.json"]
RUN_DATA = ["--kind", "A", "--T", "20", "--d", "4"]


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_two_without_traceback(case, tmp_path, capsys):
    argv = BAD_INPUTS[case]
    stream = tmp_path / "stream.csv"
    assert run_cli("gen", "--kind", "A", "--T", "5", "--d", "4", "--out", str(stream)) == 0
    (tmp_path / "bad_report.csv").write_text(
        "algo,seed,t,yhat,y,loss,cumloss\nlaser,0,1,x,1,1,1\n"
    )
    (tmp_path / "huge.csv").write_text(
        "t,x_1,x_2,y,u_1,u_2\n1,1e200,2e200,1,0,0\n2,-1e200,3e200,1,0,0\n"
    )
    extra = {"sweep": SWEEP_DATA, "run": RUN_DATA}.get(argv[0], [])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*[a.replace("TMP", str(tmp_path)) for a in argv + extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert BAD_INPUT_REASONS.get(case, "") in err
    # the error line is all the user sees: no second line, no numpy warning
    assert err.count("\n") == 1 and not [str(w.message) for w in caught]


FLAG_VALUES = {"b": 1.0, "c": 2.0, "a": 3.0, "eta": 0.5, "eps": 0.1, "reset_period": 4,
               "b_reset": 5.0, "clip_bound": 6.0, "tuned_regime": "low", "eps_ratio": 0.25}


@pytest.mark.parametrize("algo", harness.ALGO_IDS)
def test_cli_params_are_the_learner_table(algo):
    every_flag = []
    for name, value in FLAG_VALUES.items():
        every_flag += ["--" + name.replace("_", "-"), str(value)]
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--algo", algo, *every_flag])
    table = harness.LEARNER_PARAMS[algo]
    assert cli._params_from_args(args) == {name: str(FLAG_VALUES[name]) for name in table}
    assert cli._params_from_args(parser.parse_args(["run", "--algo", algo])) == {}
