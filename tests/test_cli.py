import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftlearn import cli, harness, suites
from driftlearn.datagen import DatasetSpec, gen_truth, read_stream_csv


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


def test_hand_trace_csv_bytes(tmp_path):
    # the exact text of every CSV the hand stream yields: %.17g floats,
    # %d integers, unquoted names and bare newlines
    data = tmp_path / "hand.csv"
    data.write_text("t,x_1,y,u_1\n1,1,1,0.5\n2,1,0.5,0.5\n")
    prefix = tmp_path / "hand"
    assert run_cli("run", "--algo", "laser", "--b", "1", "--c", "2",
                   "--data", str(data), "--out-prefix", str(prefix)) == 0
    summary = tmp_path / "summary.csv"
    assert run_cli("report", "--inputs", f"{prefix}_report.csv", "--out", str(summary)) == 0
    assert (tmp_path / "hand_report.csv").read_bytes() == (
        b"algo,seed,t,yhat,y,loss,cumloss\n"
        b"laser,0,1,0,1,1,1\n"
        b"laser,0,2,0.25,0.5,0.0625,1.0625\n"
    )
    assert (tmp_path / "hand_bounds.csv").read_bytes() == (
        b"algo,seed,bound_name,lhs,rhs,slack\n"
        b"laser,0,comparator_cumloss_bound,1.0625,1.5,0.4375\n"
        b"laser,0,logdet_quad_bound,1,2.6931471805599445,1.6931471805599445\n"
        b"laser,0,eig_cap,1.9999999999999996,3,1.0000000000000004\n"
    )
    assert summary.read_bytes() == (
        b"algo,t,mean_cumloss,stderr,n\n"
        b"laser,1,1,0,1\n"
        b"laser,2,1.0625,0,1\n"
    )


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


def test_sweep_skips_infinite_eta_and_writes_strict_json(tmp_path, capsys):
    # eta = 50 diverges on this stream until its loss overflows: written as null
    out = tmp_path / "best.json"
    assert run_cli("sweep", "--algo", "nlms", "--grid", '{"eta": ["inf", 0.5, 50]}',
                   "--kind", "C", "--T", "200", "--d", "4", "--out", str(out)) == 0

    def refuse(name):
        raise ValueError(f"not valid JSON: {name}")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert [entry["params"] for entry in payload["losses"]] == [{"eta": 0.5}, {"eta": 50}]
    assert payload["losses"][1]["L_T"] is None
    assert payload["best_params"] == {"eta": 0.5}
    assert payload["skipped"] == [{"params": {"eta": "inf"},
                                   "reason": "eta must be positive and finite, got inf"}]
    assert "skipped {'eta': 'inf'}" in capsys.readouterr().err


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


def test_randomized_suites_and_all_take_trials_and_seed(monkeypatch, capsys):
    assert run_cli("verify", "--suite", "lemma3", "--trials", "20", "--seed", "5") == 0
    assert "20 cases" in capsys.readouterr().out
    calls = []

    def runner(key):
        return lambda trials, seed: calls.append((key, trials, seed)) or []

    monkeypatch.setattr(suites, "_SUITES", {key: runner(key) for key in suites._SUITES})
    assert suites.run_suites("all", trials=3, seed=5) == []
    assert calls == [(key, 3, 5) for key in suites._SUITES]
    suites.run_suites("lemma6")
    assert calls[-1] == ("lemma6", None, 0)


def test_verify_violation_exits_one(monkeypatch, capsys):
    fake = suites.SuiteResult(name="fake", cases=1, worst=1.0, tol=1e-9)
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
    # the config's dataset values do not count as flags given next to --data
    prefix = tmp_path / "r"
    assert run_cli("--config", str(config), "run", "--algo", "aar", "--b", "1", "--data",
                   str(out2), "--base-seed", "3", "--out-prefix", str(prefix)) == 0
    rows = (tmp_path / "r_report.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and {row.split(",")[1] for row in rows} == {"3"}


def test_missing_input_file_exits_nonzero(tmp_path):
    code = run_cli("run", "--algo", "aar", "--b", "1",
                   "--data", str(tmp_path / "absent.csv"),
                   "--out-prefix", str(tmp_path / "x"))
    assert code == 1


def test_header_only_stream_csv_exits_two(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    for body in (b"", b"\n", b"\r\n\r\n"):  # blank lines are no rows either
        data.write_bytes(b"t,x_1,x_2,y,u_1,u_2\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("run", "--algo", "laser", "--b", "1", "--c", "2",
                           "--data", str(data), "--out-prefix", str(tmp_path / "x"))
        assert code == 2
        assert "no rows" in capsys.readouterr().err
        assert not [str(w.message) for w in caught]


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
    config.write_text(json.dumps({"kind": "Z"}))  # not one of --kind's choices
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", str(config), "gen", "--out", str(out))
    assert exc.value.code == 2


def test_config_switch_flag_takes_only_a_bool(tmp_path, capsys):
    config, out = tmp_path / "cfg.json", tmp_path / "s.csv"
    argv = ["--config", str(config), "gen", "--kind", "B", "--T", "30", "--d", "4",
            "--switch-period", "5", "--out", str(out)]
    config.write_text(json.dumps({"no_wrap": True}))
    assert run_cli(*argv) == 0
    frozen = gen_truth(DatasetSpec(kind="B", T=30, d=4, switch_period=5, wrap_pairs=False))
    assert np.array_equal(read_stream_csv(out).truth.us, frozen.us)
    config.write_text(json.dumps({"no_wrap": "true"}))
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: config 'no_wrap' must be true or false, got 'true'\n"


def test_config_list_for_a_flag_of_several_values(monkeypatch, tmp_path):
    # report's --inputs takes a list, or one value, as strings; an explicit
    # --inputs wins, and the config's other entries still apply
    prefix, config = tmp_path / "r", tmp_path / "cfg.json"
    with monkeypatch.context() as m:
        m.setitem(cli._COMMANDS, "report", lambda args: args.inputs)
        for given, want in ((["a.csv", 2], ["a.csv", "2"]), ("a.csv", ["a.csv"])):
            config.write_text(json.dumps({"inputs": given}))
            assert run_cli("--config", str(config), "report", "--out", "s.csv") == want
    # an empty list exits 2, as --inputs with no value does, and a stray word
    # after the subcommand is not taken for one more input
    for given, stray in (([], []), (["a.csv"], ["stray"])):
        config.write_text(json.dumps({"inputs": given}))
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", str(config), "report", *stray, "--out", str(tmp_path / "s.csv"))
        assert exc.value.code == 2 and not (tmp_path / "s.csv").exists()
    assert run_cli("run", "--algo", "aar", "--b", "1", "--kind", "A", "--T", "5", "--d", "4",
                   "--out-prefix", str(prefix)) == 0
    config.write_text(json.dumps({"inputs": ["absent.csv"], "plot": str(tmp_path / "c.gp")}))
    assert run_cli("--config", str(config), "report", "--inputs", f"{prefix}_report.csv",
                   "--out", str(tmp_path / "s.csv")) == 0
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 6
    assert (tmp_path / "c.gp").read_text().count("title 'aar'") == 1


def test_config_ignores_help_and_passes_values_that_begin_with_a_dash(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"help": True, "out": "-x.csv"}))
    assert run_cli("--config", "cfg.json", "gen", "--kind", "A", "--T", "5", "--d", "2") == 0
    assert read_stream_csv("-x.csv").T == 5


def test_config_grid_object_matches_the_grid_string(tmp_path):
    config, dataset = tmp_path / "cfg.json", ["--kind", "C", "--T", "20", "--d", "4"]
    config.write_text(json.dumps({"grid": {"eta": [0.5, 1]}}))
    assert run_cli("--config", str(config), "sweep", "--algo", "nlms", *dataset,
                   "--out", str(tmp_path / "object.json")) == 0
    assert run_cli("sweep", "--algo", "nlms", "--grid", '{"eta": [0.5, 1]}', *dataset,
                   "--out", str(tmp_path / "string.json")) == 0
    assert (tmp_path / "object.json").read_bytes() == (tmp_path / "string.json").read_bytes()


def test_abbreviated_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"base_seed": 7}))
    prefix = tmp_path / "r"
    assert run_cli("--config", str(config), "run", "--algo", "aar", "--b", "1",
                   "--kind", "A", "--T", "5", "--d", "4", "--base", "0",
                   "--out-prefix", str(prefix)) == 0
    rows = (tmp_path / "r_report.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"0"}


def test_data_from_config_refuses_only_explicit_generated_flags(tmp_path, capsys):
    # --data given only through --config: the config's own T serves gen and is
    # not refused, while an explicit --T is
    stream, config = tmp_path / "s.csv", tmp_path / "cfg.json"
    assert run_cli("gen", "--kind", "A", "--T", "5", "--d", "4", "--out", str(stream)) == 0
    config.write_text(json.dumps({"data": str(stream), "T": 20}))
    argv = ["--config", str(config), "run", "--algo", "aar", "--b", "1",
            "--out-prefix", str(tmp_path / "r")]
    assert run_cli(*argv) == 0
    assert len((tmp_path / "r_report.csv").read_text().splitlines()) == 6
    capsys.readouterr()
    assert run_cli(*argv, "--T", "20") == 2
    assert capsys.readouterr().err == (
        "error: --T applies to generated streams only, not with --data\n")


def test_config_supplies_required_flags(tmp_path, capsys):
    # the config is read before the parse, so it can give flags argparse requires:
    # run's --algo and the learner's parameters, report's --inputs and --out
    stream, prefix, config = tmp_path / "s.csv", tmp_path / "r", tmp_path / "cfg.json"
    assert run_cli("gen", "--kind", "A", "--T", "5", "--d", "4", "--out", str(stream)) == 0
    config.write_text(json.dumps({"algo": "laser", "b": 1, "kind": "A", "T": 5, "d": 4}))
    # --c after the subcommand is laser's, not an abbreviated --config
    assert run_cli("--config", str(config), "run", "--c", "2", "--out-prefix", str(prefix)) == 0
    assert "laser,0,1," in (tmp_path / "r_report.csv").read_text()
    config.write_text(json.dumps({"inputs": [f"{prefix}_report.csv"], "out": "absent/s.csv"}))
    assert run_cli("--conf", str(config), "report", "--out", str(tmp_path / "sum.csv")) == 0
    assert len((tmp_path / "sum.csv").read_text().splitlines()) == 6
    config.write_text(json.dumps({"algo": "aar", "b": 1, "data": str(stream)}))
    argv = ["--config", str(config), "run", "--out-prefix", str(prefix)]
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--T", "20") == 2
    assert capsys.readouterr().err == (
        "error: --T applies to generated streams only, not with --data\n")


def test_full_runs_at_full_scale_over_any_T_d_and_seeds(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(harness, "experiment", lambda *args: calls.append(args) or [])
    base = ["run", "--algo", "aar", "--b", "1", "--kind", "C", "--base-seed", "7", "--full",
            "--out-prefix", str(tmp_path / "r")]
    for extra in ([], ["--T", "300", "--d", "4", "--seeds", "2"]):
        assert run_cli(*base, *extra) == 0
        dataset, algos, seeds = calls.pop()
        assert (dataset.kind, dataset.T, dataset.d) == ("C", 2000, 20)
        assert algos == [("aar", {"b": "1"})] and seeds == list(range(7, 107))


def test_run_warns_of_failed_checks_and_exits_zero(tmp_path, capsys):
    assert run_cli("run", "--algo", "hinf", "--a", "32", "--b", "1", "--c", "1", "--kind", "C",
                   "--T", "200", "--d", "4", "--out-prefix", str(tmp_path / "r")) == 0
    assert capsys.readouterr().err == (
        "warning: seed 0: failed checks: regret_alpha_0.1, regret_alpha_0.5, regret_alpha_1, "
        "regret_alpha_2, regret_alpha_opt\n")


# generated-run flags given next to --data, which would ignore them: (argv, the flag named)
DATA_IGNORES = {
    "seeds-5": (["--seeds", "5"], "--seeds"),
    "seeds-0": (["--seeds", "0"], "--seeds"),
    "full": (["--full"], "--full"),
    "kind": (["--kind", "A"], "--kind"),
    "T": (["--T", "20"], "--T"),
    "d": (["--d", "4"], "--d"),
    "seed": (["--seed", "1"], "--seed"),
    "rotation-rate-abbreviated": (["--rot", "0.1"], "--rotation-rate"),
    "switch-period": (["--switch-period", "9"], "--switch-period"),
    "noise-var": (["--noise-var", "0"], "--noise-var"),
    "no-wrap": (["--no-wrap"], "--no-wrap"),
}
# bad user input: each must exit 2 with an error line, not a traceback
BAD_INPUTS = {
    "gen-T-0": ["gen", "--kind", "A", "--T", "0", "--out", "TMP/x.csv"],
    "gen-switch-period-0": ["gen", "--kind", "A", "--switch-period", "0", "--out", "TMP/x.csv"],
    "gen-noise-on-kind-A": ["gen", "--kind", "A", "--noise-var", "1", "--out", "TMP/x.csv"],
    "gen-seed-negative": ["gen", "--kind", "A", "--seed", "-1", "--out", "TMP/x.csv"],
    "gen-seed-2-64": ["gen", "--kind", "A", "--seed", str(2**64), "--out", "TMP/x.csv"],
    "run-base-seed-negative": ["run", "--algo", "aar", "--b", "1", "--base-seed", "-1",
                               "--out-prefix", "TMP/r"],
    **{f"run-data-base-seed-{name}": ["run", "--algo", "aar", "--b", "1", "--data",
                                      "TMP/stream.csv", "--base-seed", seed,
                                      "--out-prefix", "TMP/r"]
       for name, seed in (("negative", "-1"), ("2-64", str(2**64)))},
    "stream-not-utf8": ["run", "--algo", "laser", "--b", "1", "--c", "10",
                        "--data", "TMP/not-utf8-stream.csv", "--out-prefix", "TMP/r"],
    "report-not-utf8": ["report", "--inputs", "TMP/not-utf8-report.csv", "--out", "TMP/s.csv"],
    "config-not-utf8": ["--config", "TMP/not-utf8-config.json", "gen", "--out", "TMP/x.csv"],
    "config-not-an-object": ["--config", "TMP/list-config.json", "gen", "--out", "TMP/x.csv"],
    "config-missing": ["--config", "TMP/missing.json", "gen", "--out", "TMP/x.csv"],
    "sweep-grid-not-utf8": ["sweep", "--algo", "laser", "--grid", "@TMP/not-utf8-grid.json"],
    "sweep-grid-list": ["sweep", "--algo", "laser", "--grid", "[1]"],
    "sweep-grid-bad-json": ["sweep", "--algo", "laser", "--grid", '{"b": [1]'],
    "sweep-grid-scalar": ["sweep", "--algo", "laser", "--grid", '{"b": 1, "c": [10]}'],
    "sweep-grid-text": ["sweep", "--algo", "laser", "--grid", '{"b": ["x"], "c": [10]}'],
    "sweep-grid-non-integral": ["sweep", "--algo", "crrls", "--grid",
                                '{"reset_period": [2.5], "b_reset": [1]}'],
    "report-on-stream-csv": ["report", "--inputs", "TMP/stream.csv", "--out", "TMP/s.csv"],
    "report-non-numeric": ["report", "--inputs", "TMP/bad_report.csv", "--out", "TMP/s.csv"],
    "report-step-gap": ["report", "--inputs", "TMP/gap_report.csv", "--out", "TMP/s.csv"],
    "verify-trials-0": ["verify", "--trials", "0"],
    "verify-trials-negative": ["verify", "--trials", "-1"],
    "verify-lemma6-trials": ["verify", "--suite", "lemma6", "--trials", "1"],
    **{f"verify-{suite}-seed": ["verify", "--suite", suite, "--seed", "5"]
       for suite in ("lemma5", "lemma7", "bounds", "kernel")},
    "verify-oracle-seed-negative": ["verify", "--suite", "oracle", "--seed", "-1"],
    "verify-all-seed-negative": ["verify", "--seed", "-1"],
    "run-seeds-0": ["run", "--algo", "laser", "--b", "1", "--c", "10", "--seeds", "0",
                    "--out-prefix", "TMP/r"],
    "run-seeds-negative": ["run", "--algo", "laser", "--b", "1", "--c", "10", "--seeds", "-1",
                           "--out-prefix", "TMP/r"],
    "nlms-eta-inf": ["run", "--algo", "nlms", "--eta", "inf", "--out-prefix", "TMP/r"],
    "nlms-eps-nan": ["run", "--algo", "nlms", "--eta", "0.5", "--eps", "nan",
                     "--out-prefix", "TMP/r"],
    "hinf-a-inf": ["run", "--algo", "hinf", "--a", "inf", "--b", "1", "--c", "1",
                   "--out-prefix", "TMP/r"],
    "hinf-b-inf": ["run", "--algo", "hinf", "--a", "2", "--b", "inf", "--c", "1",
                   "--out-prefix", "TMP/r"],
    "crrls-b-reset-inf": ["run", "--algo", "crrls", "--reset-period", "3", "--b-reset", "inf",
                          "--out-prefix", "TMP/r"],
    "aar-missing-b": ["run", "--algo", "aar", "--kind", "C", "--T", "20", "--d", "4",
                      "--out-prefix", "TMP/r"],
    "hinf-weak-prior": ["run", "--algo", "hinf", "--a", "2", "--b", "1e-150", "--c", "1",
                        "--kind", "D", "--T", "30", "--d", "4", "--out-prefix", "TMP/r"],
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
    **{f"stream-{name}": ["run", "--algo", "laser", "--b", "1", "--c", "10",
                          "--data", f"TMP/{name}.csv", "--out-prefix", "TMP/r"]
       for name in ("ragged", "non-numeric", "nan", "bad-header", "one-underscore-zero",
                    "no-inputs", "huge-label", "short-header")},
    # finite labels whose losses overflow from round 2 on
    **{f"{algo}-overflowing-loss": ["run", "--algo", algo, *flags, "--data", "TMP/huge-loss.csv",
                                    "--out-prefix", "TMP/r"]
       for algo, flags in [("laser", ["--b", "1", "--c", "10"]), ("nlms", ["--eta", "0.5"])]},
    # finite labels and comparator whose residual y - u x overflows when squared
    "comparator-overflowing-loss": ["run", "--algo", "laser", "--b", "1", "--c", "10",
                                    "--data", "TMP/huge-comparator-loss.csv",
                                    "--out-prefix", "TMP/r"],
    # eta = 50 diverges on this stream until its loss overflows
    "sweep-every-point-diverges": ["sweep", "--algo", "nlms", "--grid", '{"eta": [50]}',
                                   "--kind", "C", "--T", "200", "--d", "4"],
    **{f"sweep-grid-{name}": ["sweep", "--algo", "laser", "--grid",
                              f'{{"b": [1], "c": [{name}]}}']
       for name in ("Infinity", "NaN")},
    # a number that overflows a double reads as inf unless refused
    "sweep-grid-overflowing-number": ["sweep", "--algo", "laser", "--grid",
                                      '{"b": [1], "c": [1e400]}'],
    # an integer too large for a double: sorting the grid must not convert it
    "sweep-grid-huge-integer": ["sweep", "--algo", "laser", "--grid",
                                '{"b": [1], "c": [1%s]}' % ("0" * 400)],
    "aar-stream-no-inputs": ["run", "--algo", "aar", "--b", "1", "--data", "TMP/no-inputs.csv",
                             "--out-prefix", "TMP/r"],
    **{f"run-data-with-{case}": ["run", "--algo", "aar", "--b", "1", "--data", "TMP/stream.csv",
                                 *flags, "--out-prefix", "TMP/r"]
       for case, (flags, _) in DATA_IGNORES.items()},
    "run-data-empty": ["run", "--algo", "aar", "--b", "1", "--data", "", "--out-prefix", "TMP/r"],
    "run-data-empty-with-T": ["run", "--algo", "aar", "--b", "1", "--data", "", "--T", "5",
                              "--out-prefix", "TMP/r"],
    # non-finite stream settings; 1e308 rad a step overflows the angle from step 2 on
    **{f"{cmd}-{flag}-{value}": [cmd, "--kind", kind, f"--{flag}", value, *out]
       for cmd, out in (("gen", ["--out", "TMP/x.csv"]),
                        ("run", ["--algo", "laser", "--b", "1", "--c", "10",
                                 "--out-prefix", "TMP/r"]))
       for flag, kind, values in (("noise-var", "C", ("nan", "inf")),
                                  ("rotation-rate", "A", ("nan", "inf", "1e308")))
       for value in values},
}
# malformed stream CSVs for the stream-* cases, at d = 2 except no-inputs, and
# the labels of the *-overflowing-loss cases
BAD_STREAMS = {
    "ragged": "t,x_1,x_2,y,u_1,u_2\n1,1,2,1,0,0\n2,1,2,1,0\n",
    "non-numeric": "t,x_1,x_2,y,u_1,u_2\n1,1,2,1,0,0\n2,1,two,1,0,0\n",
    "nan": "t,x_1,x_2,y,u_1,u_2\n1,1,2,1,0,0\n2,1,nan,1,0,0\n",
    "bad-header": "s,x_1,x_2,y,u_1,u_2\n1,1,2,1,0,0\n",
    "one-underscore-zero": "t,x_1,x_2,y,u_1,u_2\n1,1_0,2,1,0,0\n",
    "no-inputs": "t,y\n1,1\n",
    "huge-label": "t,x_1,x_2,y,u_1,u_2\n1,1,2,1e300,0,0\n",
    "huge-loss": "t,x_1,y,u_1\n1,1,1.3e154,0\n2,1,-1.3e154,0\n3,1,1.3e154,0\n",
    "huge-comparator-loss": "t,x_1,y,u_1\n1,1,9e153,-9e153\n",
    "short-header": "t,x_1,x_2,y,u_1\n1,1,2,1,0\n",
}
# files with one 0xff byte, which is not UTF-8, for the *-not-utf8 cases
NOT_UTF8 = {
    "stream.csv": b"t,x_1,x_2,y,u_1,u_2\n1,1,\xff,1,0,0\n",
    "report.csv": b"algo,seed,t,yhat,y,loss,cumloss\nlaser,0,1,\xff,1,1,1\n",
    "config.json": b'{"kind": "\xff"}',
    "grid.json": b'{"b": [1], "c": [\xff]}',
}
# the reason each of these must name in its error line
BAD_INPUT_REASONS = {
    "sweep-grid-text": "parameter 'b': could not convert string to float: 'x'",
    "sweep-grid-bad-json": "bad grid JSON: Expecting ',' delimiter",
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
    **{f"{algo}-overflowing-loss": f"{algo}: the cumulative loss overflows at round 2"
       for algo in ("laser", "nlms")},
    "comparator-overflowing-loss": "the comparator's cumulative loss overflows",
    "sweep-every-point-diverges": "no grid point has a finite loss: each of the 1 evaluated "
                                  "diverged",
    **{f"sweep-grid-{name}": f"bad grid JSON: {name} is not JSON"
       for name in ("Infinity", "NaN")},
    "sweep-grid-overflowing-number": "bad grid JSON: 1e400 overflows; write it as a string",
    "sweep-grid-huge-integer": "parameter 'c': int too large to convert to float)",
    "aar-missing-b": "missing parameter(s): ['b']",
    "report-step-gap": "run 'laser' has gaps in its step index",
    "config-not-an-object": "list-config.json must hold a JSON object of flag defaults",
    "config-missing": "missing.json: [Errno 2] No such file or directory",
    "verify-lemma6-trials": "suite 'lemma6' does not read trials",
    **{f"verify-{suite}-seed": f"suite '{suite}' does not read seed"
       for suite in ("lemma5", "lemma7", "bounds", "kernel")},
    "verify-oracle-seed-negative": "seed must be non-negative, got -1",
    "verify-all-seed-negative": "seed must be non-negative, got -1",
    "run-seeds-0": "an experiment needs at least one seed",
    "run-seeds-negative": "an experiment needs at least one seed",
    "nlms-eta-inf": "eta must be positive and finite, got inf",
    "nlms-eps-nan": "eps must be non-negative and finite, got nan",
    "hinf-a-inf": "a must be finite and exceed 1, got inf",
    "hinf-b-inf": "b must be finite, got inf",
    "crrls-b-reset-inf": "b_reset must be positive and finite with a finite reciprocal, got inf",
    "hinf-weak-prior": "state lost definiteness at round 7: 1 + weight x^T P' x = ",
    "gen-seed-negative": "seed must lie in [0, 2**64), got -1",
    "gen-seed-2-64": f"seed must lie in [0, 2**64), got {2**64}",
    "run-base-seed-negative": "seed must lie in [0, 2**64), got -1",
    "run-data-base-seed-negative": "seed must lie in [0, 2**64), got -1",
    "run-data-base-seed-2-64": f"seed must lie in [0, 2**64), got {2**64}",
    **{f"{case}-not-utf8": "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
       for case in ("stream", "report", "config", "sweep-grid")},
    "stream-ragged": "a row does not have the 6 fields of the header",
    "stream-non-numeric": "non-numeric field: could not convert string 'two'",
    "stream-nan": "non-finite values",
    "stream-bad-header": "not a stream CSV: bad header",
    "stream-one-underscore-zero": "non-numeric field: could not convert string '1_0'",
    "stream-short-header": "header implies d=2 but has 5 columns",
    **{case: "stream CSV has no input columns"
       for case in ("stream-no-inputs", "aar-stream-no-inputs")},
    "stream-huge-label": "stream overflows: max y^2, max |u_t|^2 or the drift V is not finite",
    **{f"run-data-with-{case}": f"{flag} applies to generated streams only, not with --data"
       for case, (_, flag) in DATA_IGNORES.items()},
    **{case: "--data needs the path of a stream CSV, got an empty one"
       for case in ("run-data-empty", "run-data-empty-with-T")},
    **{f"{cmd}-noise-var-{value}": f"noise_var must be finite and non-negative, got {value}"
       for cmd in ("gen", "run") for value in ("nan", "inf")},
    **{f"{cmd}-rotation-rate-{value}": "rotation_rate must be finite, and so must the angle "
                                       f"rotation_rate * T, got {float(value)}"
       for cmd in ("gen", "run") for value in ("nan", "inf", "1e308")},
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
    (tmp_path / "gap_report.csv").write_text(
        "algo,seed,t,yhat,y,loss,cumloss\nlaser,0,1,0,1,1,1\nlaser,0,3,0,1,1,2\n"
    )
    (tmp_path / "list-config.json").write_text("[1]")
    (tmp_path / "huge.csv").write_text(
        "t,x_1,x_2,y,u_1,u_2\n1,1e200,2e200,1,0,0\n2,-1e200,3e200,1,0,0\n"
    )
    for name, text in BAD_STREAMS.items():
        (tmp_path / f"{name}.csv").write_text(text)
    for name, data in NOT_UTF8.items():
        (tmp_path / f"not-utf8-{name}").write_bytes(data)
    # right after the subcommand, so that a case's own dataset flags come later and win
    extra = {"sweep": SWEEP_DATA, "run": RUN_DATA}.get(argv[0], []) if "--data" not in argv else []
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*[a.replace("TMP", str(tmp_path)) for a in argv[:1] + extra + argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert BAD_INPUT_REASONS.get(case, "") in err
    # the error line is all the user sees: no second line, no numpy warning
    assert err.count("\n") == 1 and not [str(w.message) for w in caught]


def test_thread_count_that_is_not_an_integer_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DRIFTLEARN_THREADS", "two")
    assert run_cli("run", "--algo", "aar", "--b", "1", "--kind", "C", "--T", "5", "--d", "2",
                   "--out-prefix", str(tmp_path / "r")) == 2
    assert capsys.readouterr().err == (
        "error: DRIFTLEARN_THREADS must be a non-negative integer, got 'two'\n")
    assert not list(tmp_path.iterdir())


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
