"""Batched execution: a member's results do not depend on its batch.

Each learner runs a set of mixed members (different parameters, streams,
forms) alone and inside batches of several sizes and orders; predictions,
L_T, quads, spectral summaries and bound checks must agree to TOL. Each
member's predictions equal, bit for bit, those of the learner's public
single-state step function, and both refuse an overflowing round at the
same round. The sweep must match a per-point run_learner
loop, and experiments must not depend on the worker count: an experiment
runs every learner's members in one batch, each member as its own
learner's batch would, and writes pinned bytes.
"""

import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from driftlearn import baselines, harness, hinf, laser, oracle
from driftlearn.datagen import DatasetSpec, LabeledStream, gen_stream
from driftlearn.errors import BadStream, InvalidParams

TOL = 1e-12  # relative to max |yhat| for predictions, to max(1, |v|) for scalars
T, D = 200, 4


def scaled(stream, k):
    """The stream with inputs and labels multiplied by k (same target)."""
    return LabeledStream(stream.xs * k, stream.ys * k, stream.truth)


STREAM_C = gen_stream(DatasetSpec(kind="C", T=T, d=D, seed=1))
STREAM_A = gen_stream(DatasetSpec(kind="A", T=T, d=D, seed=3))
BIG = scaled(gen_stream(DatasetSpec(kind="C", T=T, d=D, seed=5)), 1e6)
ZERO = LabeledStream(np.zeros((T, D)), np.zeros(T), oracle.ComparatorSequence(np.zeros((T, D))))

MEMBERS = {
    "laser": [
        ({"b": 1.0, "c": 100.0}, STREAM_C),
        ({"b": 1.0, "c": math.inf}, STREAM_C),
        ({"b": 1.0, "c": 50.0, "clip_bound": 0.5}, STREAM_C),
        ({"b": 1.0, "c": 100.0}, STREAM_A),
        ({"tuned_regime": "low", "eps_ratio": 0.1}, STREAM_A),
        ({"b": 1.0, "c": 1e12}, BIG),  # these two move to square-root information form
        ({"b": 1e-3, "c": 1e12}, BIG),  # at round 1
    ],
    "aar": [
        ({"b": 0.5}, STREAM_C),
        ({"b": 2.0}, STREAM_A),
        ({"b": 1.0}, BIG),  # moves to square-root information form
        ({"b": 1.0}, STREAM_C),
        ({"b": 1e-3}, BIG),  # moves at round 1
        ({"b": 0.1}, STREAM_C),  # moves at round 34
    ],
    "hinf": [
        ({"a": 8.0, "b": 500.0, "c": 500.0}, STREAM_C),
        ({"a": 2.0, "b": 20.0, "c": 50.0}, STREAM_A),
        ({"a": 2.0, "b": 1.0, "c": 1e12}, BIG),
        ({"a": 32.0, "b": 1.0, "c": 1.0}, STREAM_C),
    ],
    "nlms": [
        ({"eta": 0.5}, STREAM_C),
        ({"eta": 1.5, "eps": 1e-6}, STREAM_A),
        ({"eta": 0.25}, BIG),
        ({"eta": 1.0}, ZERO),  # zero denominators
    ],
    "crrls": [
        ({"reset_period": 10, "b_reset": 0.1}, STREAM_C),
        ({"reset_period": 25, "b_reset": 1.0}, STREAM_A),
        ({"reset_period": 7, "b_reset": 1.0}, BIG),
        ({"reset_period": 1, "b_reset": 2.0}, ZERO),
    ],
}


def close(a, b):
    return a == b or abs(a - b) <= TOL * max(1.0, abs(b))  # a == b: equal infinities


def assert_same_run(got, ref):
    scale = max(1.0, float(np.max(np.abs(ref.yhats))))
    assert np.max(np.abs(got.yhats - ref.yhats)) <= TOL * scale
    assert close(got.L_T, ref.L_T)
    assert (got.quad_trace is None) == (ref.quad_trace is None)
    if ref.quad_trace is not None:
        np.testing.assert_allclose(got.quad_trace, ref.quad_trace, rtol=0, atol=TOL)
    assert [b.name for b in got.bound_checks] == [b.name for b in ref.bound_checks]
    for b, r in zip(got.bound_checks, ref.bound_checks):
        assert close(b.lhs, r.lhs) and close(b.rhs, r.rhs) and b.holds == r.holds


def batches(n):
    """Index batches of several sizes and orders covering members 0..n-1."""
    idx = list(range(n))
    return [idx, idx[::-1], idx[0::2], idx[1::2], idx[:3], idx[3:]]


@pytest.mark.parametrize("algo", harness.ALGO_IDS)
def test_member_alone_matches_member_in_batches(algo):
    members = MEMBERS[algo]
    alone = [harness.run_learner(algo, p, s, seed=i) for i, (p, s) in enumerate(members)]
    for batch in batches(len(members)):
        reports = harness.run_batch(algo, [members[i][0] for i in batch],
                                    [members[i][1] for i in batch], batch)
        for i, report in zip(batch, reports):
            assert report.seed == i
            assert_same_run(report, alone[i])


def step_predictions(algo, params, stream):
    """The member's predictions from the learner's public step function."""
    d = stream.dim
    if algo == "laser":
        state = laser.laser_init(harness._laser_params(params, stream)[0], d)

        def step(state, x, y):
            yhat, innovation = laser.laser_predict(state, x)
            return yhat, laser.laser_update(state, x, y, innovation)
    elif algo == "aar":
        state, step = baselines.aar_init(params["b"], d), baselines.aar_step
    elif algo == "hinf":
        state, step = hinf.hinf_init(hinf.HInfParams(**params), d), hinf.hinf_step
    elif algo == "nlms":
        state, step = baselines.nlms_init(d, **params), baselines.nlms_step
    else:
        state, step = baselines.crrls_init(d, **params), baselines.crrls_step
    yhats = []
    for x, y in zip(stream.xs, stream.ys):
        yhat, state = step(state, x, y)
        yhats.append(yhat)
    return np.array(yhats)


@pytest.mark.parametrize("algo", harness.ALGO_IDS)
def test_step_function_matches_batch_member_bit_for_bit(algo):
    members = MEMBERS[algo]
    reports = harness.run_batch(algo, [p for p, _ in members], [s for _, s in members])
    for (params, stream), report in zip(members, reports):
        assert np.array_equal(step_predictions(algo, params, stream), report.yhats), params


def assert_same_record(got, want):
    """Equal CovMember records: every field, the P arrays by value."""
    assert got._fields == want._fields
    for name, a, b in zip(got._fields, got, want):
        assert (np.array_equal(a, b) if name == "P" else a == b), name


def test_step_loop_runs_the_record_the_single_state_init_builds():
    for params, stream in MEMBERS["hinf"]:
        state = hinf.hinf_init(hinf.HInfParams(**params), D)
        assert_same_record(harness._member("hinf", params, stream)[2],
                           state.member._replace(keep_w=True))
    for params, stream in MEMBERS["crrls"]:
        assert_same_record(harness._member("crrls", params, stream)[2],
                           baselines.crrls_init(D, **params).member)
    # a reset returns the state to the record's start, which no round has written into
    state = baselines.crrls_init(D, reset_period=7, b_reset=0.1)
    start = state.member.P.copy()
    for x, y in zip(STREAM_C.xs[:6], STREAM_C.ys):
        _, state = baselines.crrls_step(state, x, y)
    assert not np.array_equal(state.P, start)
    _, state = baselines.crrls_step(state, STREAM_C.xs[6], STREAM_C.ys[6])
    assert state.t == 7 and np.array_equal(state.P, start)
    assert np.array_equal(state.member.P, start)


# two good rounds, then an input whose x^T P' x overflows (|x|^2 ~ 5e400)
OVERFLOW_AT_3 = LabeledStream(np.array([[1.0, 2.0], [-0.5, 1.0], [1e200, 2e200]]),
                              np.array([1.0, -1.0, 1.0]),
                              oracle.ComparatorSequence(np.zeros((3, 2))))
COV_OVERFLOW = r"x\^T P' x overflowed at round 3: inputs too large for the prior"
NLMS_OVERFLOW = r"eps \+ \|x\|\^2 overflowed at round 3: inputs too large"
# (params, the refusal's message) of each learner
OVERFLOW_PARAMS = {"laser": ({"b": 1.0, "c": 10.0}, COV_OVERFLOW),
                   "aar": ({"b": 1.0}, COV_OVERFLOW),
                   "hinf": ({"a": 2.0, "b": 1.0, "c": 10.0}, COV_OVERFLOW),
                   "nlms": ({"eta": 0.5}, NLMS_OVERFLOW),
                   # resets after round 2
                   "crrls": ({"reset_period": 2, "b_reset": 1.0}, COV_OVERFLOW)}


@pytest.mark.parametrize("algo", OVERFLOW_PARAMS)
def test_step_and_loop_refuse_an_overflow_at_the_same_later_round(algo):
    (params, match), stream = OVERFLOW_PARAMS[algo], OVERFLOW_AT_3
    good = replace(stream, xs=stream.xs[:2], ys=stream.ys[:2],
                   truth=oracle.ComparatorSequence(np.zeros((2, 2))))
    report, = harness.run_batch(algo, [params], [good])
    assert np.array_equal(step_predictions(algo, params, good), report.yhats)
    with pytest.raises(BadStream, match=match):
        step_predictions(algo, params, stream)
    with pytest.raises(BadStream, match=match):
        harness.run_batch(algo, [params], [stream])


def test_laser_spectra_and_states_do_not_depend_on_the_batch():
    members = MEMBERS["laser"]
    lps = [harness._laser_params(p, s)[0] for p, s in members]
    alone = [laser.laser_trajectories([lp], s.xs[:, None], s.ys[:, None], spectra=True)[0]
             for lp, (_, s) in zip(lps, members)]
    switched = [tr.state.sqrt_info is not None for tr in alone]
    assert switched == [s is BIG for _, s in members]
    for batch in batches(len(members)):
        streams = [members[i][1] for i in batch]
        trajs = laser.laser_trajectories([lps[i] for i in batch],
                                         *harness._batch_inputs(streams), spectra=True)
        for i, traj in zip(batch, trajs):
            ref = alone[i]
            for name in ("quads", "trace_D", "lam_peak_D", "logdet_D"):
                got, want = getattr(traj, name), getattr(ref, name)
                assert np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))), name
            assert traj.state.t == ref.state.t and close(traj.state.f, ref.state.f)
            P = ref.state.P
            np.testing.assert_allclose(traj.state.P, P, rtol=0, atol=TOL * np.abs(P).max())


def test_shared_stream_batch_matches_stacked_copies():
    params = [p for p, s in MEMBERS["laser"] if s is STREAM_C]
    shared = harness.run_batch("laser", params, [STREAM_C] * len(params))
    copies = [replace(STREAM_C, xs=STREAM_C.xs.copy()) for _ in params]
    stacked = harness.run_batch("laser", params, copies)
    for got, ref in zip(shared, stacked):
        assert_same_run(got, ref)


def test_shared_stream_is_read_in_place():
    xs, ys = harness._batch_inputs([STREAM_C] * 3)
    assert xs.shape == (T, 3, D) and ys.shape == (T, 3)
    assert np.shares_memory(xs, STREAM_C.xs) and np.shares_memory(ys, STREAM_C.ys)
    xs, ys = harness._batch_inputs([STREAM_C, STREAM_A, STREAM_C])
    assert not np.shares_memory(xs, STREAM_C.xs) and not np.shares_memory(ys, STREAM_C.ys)
    assert np.array_equal(xs[:, 1], STREAM_A.xs) and np.array_equal(ys[:, 2], STREAM_C.ys)


def per_point_sweep(spec, dataset):
    """The sweep as a loop of run_learner calls, one per grid point."""
    stream = gen_stream(replace(dataset, seed=spec.tuning_seed))
    evaluated, skipped = [], []
    for params in harness._grid_candidates(spec.grid):
        try:
            report = harness.run_learner(spec.algo_id, params, stream, seed=spec.tuning_seed)
        except InvalidParams as exc:
            skipped.append((params, str(exc)))
            continue
        evaluated.append((params, report.L_T))
    return min(evaluated, key=lambda e: e[1])[0], evaluated, skipped


SWEEPS = {
    "laser": {"b": [1.0, 5.0, 10.0], "c": [2.0, 50.0, 300.0, math.inf], "clip_bound": [None, 3.0]},
    "aar": {"b": [0.1, 1.0, 100.0]},
    "nlms": {"eta": [0.25, 0.5, 1.0, 1.5], "eps": [0.0, 1e-6]},
    "crrls": {"reset_period": [10, 25, 0], "b_reset": [0.1, 1.0]},
    "hinf": {"a": [0.5, 2.0, 8.0], "b": [20.0, 500.0], "c": [50.0, 500.0]},
}


@pytest.mark.parametrize("algo", harness.ALGO_IDS)
def test_sweep_matches_per_point_run_learner(algo):
    dataset = DatasetSpec(kind="C", T=100, d=6, seed=0)
    spec = harness.SweepSpec(algo_id=algo, grid=SWEEPS[algo], tuning_seed=7)
    result = harness.sweep(spec, dataset)
    best, evaluated, skipped = per_point_sweep(spec, dataset)
    assert result.best_params == best
    assert [p for p, _ in result.evaluated] == [p for p, _ in evaluated]
    assert all(close(a, b) for (_, a), (_, b) in zip(result.evaluated, evaluated))
    assert result.skipped == skipped
    assert (len(skipped) > 0) == (algo in ("laser", "crrls", "hinf"))


def test_experiment_agrees_across_worker_counts(monkeypatch):
    monkeypatch.delenv("DRIFTLEARN_THREADS", raising=False)
    dataset = DatasetSpec(kind="D", T=60, d=5, seed=0)
    algos = [(algo, MEMBERS[algo][0][0]) for algo in harness.ALGO_IDS]
    seeds = [4, 0, 3, 1, 2]
    serial = harness.experiment(dataset, algos, seeds, workers=1)
    parallel = harness.experiment(dataset, algos, seeds, workers=2)
    assert [(r.algo_id, r.seed) for r in serial] == [(r.algo_id, r.seed) for r in parallel]
    assert len(serial) == len(algos) * len(seeds)
    for got, ref in zip(parallel, serial):
        assert_same_run(got, ref)
    alone = harness.run_learner("laser", algos[0][1], gen_stream(replace(dataset, seed=3)), seed=3)
    assert_same_run(next(r for r in serial if (r.algo_id, r.seed) == ("laser", 3)), alone)


# the five learners of the pinned experiment, and a hinf whose prior is so
# weak that x^T P' x overflows at round 4 of that experiment's seed-0 stream
FIVE = [("laser", {"b": 1.0, "c": 100.0}), ("aar", {"b": 0.5}),
        ("hinf", {"a": 8.0, "b": 500.0, "c": 500.0}), ("nlms", {"eta": 0.5}),
        ("crrls", {"reset_period": 10, "b_reset": 0.1})]
WEAK_HINF = ("hinf", {"a": 8.0, "b": 2e-306, "c": 1.0})
PINNED = Path(__file__).parent / "data"
# the pinned experiments, by file prefix: the five learners (kind D, T = 30,
# d = 4, three seeds), as written when each learner ran its own step loop,
# and laser and hinf (kind C, T = 40, two seeds) on both sides of
# laser.MEMBERWISE_D, as written when a batched scipy.linalg.inv served
# certification below it
CERTIFY = [FIVE[0], FIVE[2]]
PINNED_RUNS = {"five_learner": (DatasetSpec(kind="D", T=30, d=4, seed=0), FIVE, [0, 1, 2]),
               "certify_d20": (DatasetSpec(kind="C", T=40, d=20, seed=0), CERTIFY, [0, 1]),
               "certify_d40": (DatasetSpec(kind="C", T=40, d=40, seed=0), CERTIFY, [0, 1])}


@pytest.mark.parametrize("workers", [1, 2])
def test_five_learner_experiment_csv_bytes(workers, tmp_path, monkeypatch):
    # the exact text of the report and bounds CSVs of each pinned experiment
    monkeypatch.delenv("DRIFTLEARN_THREADS", raising=False)
    for prefix, (dataset, algos, seeds) in PINNED_RUNS.items():
        reports = harness.experiment(dataset, algos, seeds, workers=workers)
        harness.write_report_csv(reports, tmp_path / "report.csv")
        harness.write_bounds_csv(reports, tmp_path / "bounds.csv")
        for name in ("report", "bounds"):
            want = (PINNED / f"{prefix}_{name}.csv").read_bytes()
            assert (tmp_path / f"{name}.csv").read_bytes() == want, (prefix, name)


def test_mixed_experiment_matches_single_learner_batches_bit_for_bit(monkeypatch):
    # seeds 0, 1, 2 read STREAM_C, BIG and ZERO; laser (1, 1e12) and aar
    # move to square-root form on BIG. One serial experiment generates each
    # stream once and runs every covariance-family member in one loop.
    streams = [STREAM_C, BIG, ZERO]
    calls = Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.delenv("DRIFTLEARN_THREADS", raising=False)
    monkeypatch.setattr(harness, "gen_stream", counted("gen_stream", lambda s: streams[s.seed]))
    monkeypatch.setattr(laser, "cov_rounds", counted("cov_rounds", laser.cov_rounds))
    algos = [("laser", {"b": 1.0, "c": 1e12}), ("aar", {"b": 1.0}),
             ("hinf", MEMBERS["hinf"][2][0]), ("nlms", MEMBERS["nlms"][0][0]),
             ("crrls", MEMBERS["crrls"][2][0])]
    reports = harness.experiment(DatasetSpec(kind="C", T=T, d=D), algos, [2, 0, 1], workers=1)
    assert calls == {"gen_stream": 3, "cov_rounds": 1}
    for algo, params in algos:
        got = [r for r in reports if r.algo_id == algo]
        for r, ref in zip(got, harness.run_batch(algo, [params] * 3, streams, [0, 1, 2]),
                          strict=True):
            assert r.seed == ref.seed
            assert np.array_equal(r.yhats, ref.yhats)
            assert np.array_equal(np.signbit(r.yhats), np.signbit(ref.yhats))
            assert r.L_T == ref.L_T
            for name in ("quad_trace", "post_update_w"):
                a, b = getattr(r, name), getattr(ref, name)
                assert (a is None and b is None) or np.array_equal(a, b), name
            assert [(b.name, b.lhs, b.rhs) for b in r.bound_checks] == [
                (b.name, b.lhs, b.rhs) for b in ref.bound_checks]


def test_experiment_raises_the_earliest_failing_round():
    # only the hinf member fails, at round 4, whatever the learners' order
    dataset = DatasetSpec(kind="D", T=30, d=4, seed=0)
    for algos in ([*FIVE[:2], WEAK_HINF, *FIVE[3:]], [*FIVE[3:], WEAK_HINF]):
        with pytest.raises(BadStream, match=r"x\^T P' x overflowed at round 4"):
            harness.experiment(dataset, algos, [0], workers=1)
    assert len(harness.experiment(dataset, FIVE, [0], workers=1)) == 5
