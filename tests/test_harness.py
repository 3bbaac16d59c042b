import io

import numpy as np
import pytest

from driftlearn import harness, oracle
from driftlearn.datagen import DatasetSpec, LabeledStream, gen_stream
from driftlearn.errors import BadStream, InvalidParams, LengthMismatch, UnknownAlgo


def hand_stream():
    xs = np.array([[1.0], [1.0]])
    us = np.array([[0.5], [0.5]])
    ys = np.array([1.0, 0.5])
    return LabeledStream(
        xs=xs,
        ys=ys,
        truth=oracle.ComparatorSequence(us),
    )


def test_run_learner_hand_trace():
    report = harness.run_learner("laser", {"b": 1.0, "c": 2.0}, hand_stream())
    np.testing.assert_allclose(report.yhats, [0.0, 0.25], atol=1e-12)
    np.testing.assert_allclose(report.losses, [1.0, 0.0625], atol=1e-12)
    assert report.L_T == pytest.approx(1.0625, abs=1e-12)
    assert report.cumlosses[-1] == report.L_T
    assert all(b.holds for b in report.bound_checks)


def test_bound_check_holds_within_its_tolerance_and_only_at_a_finite_lhs():
    check = harness.BoundCheck
    assert check("b", 1.0 + 1e-7, 1.0, 1e-6).holds and not check("b", 1.0 + 1e-5, 1.0, 1e-6).holds
    assert check("b", 5.0, np.inf, 1e-6).holds  # c = inf with drift: an infinite ceiling
    assert not any(check("b", lhs, np.inf, 1e-6).holds for lhs in (np.inf, np.nan))
    assert not check("b", 1.0, np.nan, 1e-6).holds
    assert check("b", 1.0, 3.0, 0.0).slack == 2.0


def test_run_learner_zero_stream_gives_zero_loss():
    T, d = 5, 2
    stream = LabeledStream(
        xs=np.zeros((T, d)),
        ys=np.zeros(T),
        truth=oracle.ComparatorSequence(np.zeros((T, d))),
    )
    for algo, params in [
        ("laser", {"b": 1.0, "c": 2.0}),
        ("aar", {"b": 1.0}),
        ("nlms", {"eta": 0.5, "eps": 0.1}),
        ("crrls", {"reset_period": 2, "b_reset": 1.0}),
        ("hinf", {"a": 2.0, "b": 1.0, "c": 2.0}),
    ]:
        report = harness.run_learner(algo, params, stream)
        assert report.L_T == 0.0


def test_unknown_algo_and_bad_params():
    stream = hand_stream()
    with pytest.raises(UnknownAlgo):
        harness.run_learner("sgd", {}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner("laser", {"b": 1.0}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner("laser", {"b": 1.0, "c": 2.0, "bogus": 3}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner("laser", {"b": 3.0, "c": 2.0}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner("hinf", {"a": 2.0, "b": "x", "c": 2.0}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner("laser", {"b": 1.0, "c": 2.0, "clip_bound": "x"}, stream)
    # converted, not coerced: int() would truncate, bool() read "false" as True
    for period in (2.5, True, "2.5", float("inf")):
        with pytest.raises(InvalidParams, match="reset_period"):
            harness.run_learner("crrls", {"reset_period": period, "b_reset": 1.0}, stream)
    for track_f in ("false", 1, None):
        with pytest.raises(InvalidParams, match="track_f"):
            harness.run_learner("laser", {"b": 1.0, "c": 2.0, "track_f": track_f}, stream)
    harness.run_learner("crrls", {"reset_period": 2.0, "b_reset": 1.0}, stream)


def test_realizable_regret_equals_loss():
    stream = gen_stream(DatasetSpec(kind="A", T=100, d=4, seed=0))
    report = harness.run_learner("laser", {"b": 1.0, "c": 100.0}, stream)
    assert report.regret_vs_truth == pytest.approx(report.L_T)


def test_replay_is_bit_for_bit():
    stream = gen_stream(DatasetSpec(kind="C", T=80, d=4, seed=1))
    r1 = harness.run_learner("laser", {"b": 1.0, "c": 50.0}, stream)
    r2 = harness.run_learner("laser", {"b": 1.0, "c": 50.0}, stream)
    assert np.array_equal(r1.yhats, r2.yhats)
    assert np.array_equal(r1.cumlosses, r2.cumlosses)
    assert np.array_equal(r1.quad_trace, r2.quad_trace)


def test_bound_checks_populated_and_hold():
    stream = gen_stream(DatasetSpec(kind="B", T=120, d=6, seed=2))
    report = harness.run_learner("laser", {"b": 1.0, "c": 100.0}, stream)
    names = {b.name for b in report.bound_checks}
    assert {"comparator_cumloss_bound", "logdet_quad_bound", "eig_cap"} <= names
    failed = [b.name for b in report.bound_checks if not b.holds]
    assert failed == []


def test_tuned_run_adds_closed_form_check():
    stream = gen_stream(DatasetSpec(kind="A", T=200, d=4, seed=3))
    report = harness.run_learner(
        "laser", {"tuned_regime": "low", "eps_ratio": 0.1}, stream
    )
    names = [b.name for b in report.bound_checks]
    assert "tuned_low_drift_bound" in names
    assert all(b.holds for b in report.bound_checks)
    with pytest.raises(InvalidParams):
        harness.run_learner("laser", {"tuned_regime": "low"}, stream)
    with pytest.raises(InvalidParams):
        harness.run_learner(
            "laser", {"tuned_regime": "low", "eps_ratio": 0.1, "c": 5.0}, stream
        )


def test_stationary_sentinel_run():
    stream = gen_stream(DatasetSpec(kind="A", T=50, d=4, seed=4))
    report = harness.run_learner("laser", {"b": 1.0, "c": float("inf")}, stream)
    names = {b.name for b in report.bound_checks}
    assert "eig_cap" not in names  # no finite cap in the stationary limit
    assert all(b.holds for b in report.bound_checks)


def test_aggregate_identical_and_two_point_groups():
    stream = gen_stream(DatasetSpec(kind="A", T=10, d=4, seed=5))
    r1 = harness.run_learner("aar", {"b": 1.0}, stream, seed=0)
    r2 = harness.run_learner("aar", {"b": 1.0}, stream, seed=1)
    rows = harness.aggregate([r1, r2])
    assert all(row.stderr == 0.0 for row in rows)
    np.testing.assert_allclose([row.mean_cumloss for row in rows], r1.cumlosses)

    r2.cumlosses = r1.cumlosses + 2.0  # means 1 and 3 pattern => stderr 1
    rows = harness.aggregate([r1, r2])
    np.testing.assert_allclose(
        [row.mean_cumloss for row in rows], r1.cumlosses + 1.0
    )
    assert all(row.stderr == pytest.approx(1.0) for row in rows)
    assert all(row.n == 2 for row in rows)


def test_aggregate_curves_monotone_for_multi_seed_experiment():
    dataset = DatasetSpec(kind="A", T=60, d=4, seed=0)
    reports = harness.experiment(dataset, [("aar", {"b": 1.0})], seeds=list(range(20)))
    rows = harness.aggregate(reports)
    curve = [row.mean_cumloss for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))


def test_aggregate_rejects_unequal_horizons():
    s1 = gen_stream(DatasetSpec(kind="A", T=10, d=4, seed=0))
    s2 = gen_stream(DatasetSpec(kind="A", T=11, d=4, seed=0))
    r1 = harness.run_learner("aar", {"b": 1.0}, s1)
    r2 = harness.run_learner("aar", {"b": 1.0}, s2)
    with pytest.raises(LengthMismatch):
        harness.aggregate([r1, r2])


def test_experiment_order_independent_of_input_order():
    dataset = DatasetSpec(kind="A", T=30, d=4, seed=0)
    algos = [("aar", {"b": 1.0}), ("nlms", {"eta": 0.5, "eps": 1e-6})]
    reports = harness.experiment(dataset, algos, seeds=[3, 1, 2])
    keys = [(r.algo_id, r.seed) for r in reports]
    assert keys == sorted(keys)


def test_sweep_single_point_and_invalid_points():
    dataset = DatasetSpec(kind="A", T=40, d=4, seed=0)
    spec = harness.SweepSpec(algo_id="aar", grid={"b": [2.0]}, tuning_seed=1)
    result = harness.sweep(spec, dataset)
    assert result.best_params == {"b": 2.0}

    spec = harness.SweepSpec(
        algo_id="laser", grid={"b": [1.0, 5.0], "c": [2.0, 50.0]}, tuning_seed=1
    )
    result = harness.sweep(spec, dataset)
    assert len(result.skipped) == 1  # b=5, c=2 violates 0 < b < c
    assert result.skipped[0][0] == {"b": 5.0, "c": 2.0}
    assert len(result.evaluated) == 3
    assert result.best_loss == min(l for _, l in result.evaluated)


def test_sweep_tie_break_prefers_smallest_tuple():
    # eps of 0 and 1e-300 produce bitwise-identical runs, so the tie must
    # resolve to the lexicographically smallest parameter tuple
    dataset = DatasetSpec(kind="A", T=40, d=4, seed=0)
    spec = harness.SweepSpec(
        algo_id="nlms", grid={"eta": [0.5], "eps": [1e-300, 0.0]}, tuning_seed=1
    )
    result = harness.sweep(spec, dataset)
    assert result.best_params["eps"] == 0.0


def test_sweep_passes_over_a_diverging_learner_that_a_run_refuses():
    # NLMS with eta = 50 diverges on this stream until its loss overflows: the
    # sweep scores that point inf and picks another, a certified run refuses it
    dataset = DatasetSpec(kind="C", T=200, d=4, seed=0)
    spec = harness.SweepSpec(algo_id="nlms", grid={"eta": [0.5, 1.0, 50.0]}, tuning_seed=0)
    result = harness.sweep(spec, dataset)
    assert result.best_params == {"eta": 1.0}
    assert result.evaluated[-1] == ({"eta": 50.0}, np.inf)
    assert np.isfinite([loss for _, loss in result.evaluated[:2]]).all()
    with pytest.raises(BadStream, match="nlms: the cumulative loss overflows at round .*: "
                                        "predictions or labels too large"):
        harness.run_learner("nlms", {"eta": 50.0}, gen_stream(dataset))


def test_sweep_keeps_a_nan_loss_without_warnings():
    # at the default T and d, NLMS with eta = 5 overflows its weights and then
    # predicts NaN; the sweep keeps that loss and warns of nothing (warnings fail here)
    dataset = DatasetSpec(kind="C")
    spec = harness.SweepSpec(algo_id="nlms", grid={"eta": [0.5, 1, 5]}, tuning_seed=0)
    result = harness.sweep(spec, dataset)
    assert result.best_params == {"eta": 1}
    assert result.evaluated[-1][0] == {"eta": 5} and np.isnan(result.evaluated[-1][1])


def test_sweep_runs_points_equal_once_converted_once():
    # 0.5, 0.5 and "0.5" are one point, and the first in candidate order stays;
    # a value the table refuses has no converted form, so each is skipped
    dataset = DatasetSpec(kind="C", T=40, d=4, seed=0)
    spec = harness.SweepSpec(algo_id="nlms", grid={"eta": [0.5, "x", 1, 0.5, "0.5", "1.0", "x"]},
                             tuning_seed=0)
    result = harness.sweep(spec, dataset)
    assert [params for params, _ in result.evaluated] == [{"eta": 0.5}, {"eta": 1}]
    assert [params for params, _ in result.skipped] == [{"eta": "x"}] * 2
    alone = harness.sweep(harness.SweepSpec("nlms", {"eta": [0.5, 1]}, 0), dataset)
    assert result.evaluated == alone.evaluated


def test_sweep_skips_an_integer_too_large_for_a_double():
    # the grid sorts without converting its values; the conversion refuses this one
    dataset = DatasetSpec(kind="C", T=20, d=4, seed=0)
    huge = 10**400
    result = harness.sweep(harness.SweepSpec("laser", {"b": [1], "c": [huge, 100]}, 0), dataset)
    assert [params for params, _ in result.evaluated] == [{"b": 1, "c": 100}]
    assert result.skipped == [({"b": 1, "c": huge},
                               "parameter 'c': int too large to convert to float")]


def test_run_batch_refuses_mismatched_streams_and_parameter_sets():
    short, long = (gen_stream(DatasetSpec(kind="A", T=T, d=4, seed=0)) for T in (20, 30))
    with pytest.raises(LengthMismatch, match="the streams of one batch must share T and d"):
        harness.run_batch("aar", [{"b": 1.0}] * 2, [short, long])
    with pytest.raises(LengthMismatch, match="1 parameter sets for 2 streams"):
        harness.run_batch("aar", [{"b": 1.0}], [short, short])


def test_sweep_all_invalid_raises():
    dataset = DatasetSpec(kind="A", T=10, d=4, seed=0)
    spec = harness.SweepSpec(algo_id="laser", grid={"b": [5.0], "c": [1.0]}, tuning_seed=0)
    with pytest.raises(InvalidParams):
        harness.sweep(spec, dataset)


def test_resolve_workers_env_semantics(monkeypatch):
    monkeypatch.delenv("DRIFTLEARN_THREADS", raising=False)
    assert harness.resolve_workers() == 1
    assert harness.resolve_workers(4) == 4
    monkeypatch.setenv("DRIFTLEARN_THREADS", "2")
    assert harness.resolve_workers() == 2
    assert harness.resolve_workers(8) == 2  # env caps explicit requests
    monkeypatch.setenv("DRIFTLEARN_THREADS", "0")
    assert harness.resolve_workers() >= 1
    for bad in ("two", "-1", "1.5"):  # not a non-negative integer
        monkeypatch.setenv("DRIFTLEARN_THREADS", bad)
        with pytest.raises(InvalidParams, match=f"non-negative integer, got '{bad}'"):
            harness.resolve_workers()


def test_report_csv_roundtrip_and_reorder_invariance():
    dataset = DatasetSpec(kind="A", T=20, d=4, seed=0)
    reports = harness.experiment(
        dataset, [("aar", {"b": 1.0}), ("nlms", {"eta": 0.5, "eps": 1e-6})], seeds=[0, 1]
    )
    buf = io.StringIO()
    harness.write_report_csv(reports, buf)
    rows = harness.read_report_csv(io.StringIO(buf.getvalue()))
    assert len(rows) == 2 * 2 * 20

    summary1 = harness.summarize_report_rows(rows)
    rng = np.random.default_rng(0)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    summary2 = harness.summarize_report_rows(shuffled)
    assert summary1 == summary2

    direct = harness.aggregate(reports)
    assert [(s.algo_id, s.t, s.n) for s in summary1] == [
        (s.algo_id, s.t, s.n) for s in direct
    ]
    np.testing.assert_allclose(
        [s.mean_cumloss for s in summary1], [s.mean_cumloss for s in direct]
    )


def test_bounds_csv_contains_slack_column():
    stream = gen_stream(DatasetSpec(kind="A", T=30, d=4, seed=0))
    report = harness.run_learner("laser", {"b": 1.0, "c": 100.0}, stream)
    buf = io.StringIO()
    harness.write_bounds_csv([report], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "algo,seed,bound_name,lhs,rhs,slack"
    assert len(lines) == 1 + len(report.bound_checks)
