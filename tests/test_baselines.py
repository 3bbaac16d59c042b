import math
import warnings

import numpy as np
import pytest

from driftlearn import baselines, hinf, laser, linalg
from driftlearn.errors import BadStream, InvalidParams


def test_aar_two_step_trace():
    st = baselines.aar_init(1.0, 1)
    yhat, st = baselines.aar_step(st, [1.0], 1.0)
    assert yhat == 0.0
    yhat, st = baselines.aar_step(st, [1.0], 1.0)
    assert yhat == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_aar_min_eigenvalue_never_decreases():
    rng = np.random.default_rng(0)
    b = 0.7
    st = baselines.aar_init(b, 3)
    prev = b
    for _ in range(50):
        _, st = baselines.aar_step(st, rng.standard_normal(3), rng.standard_normal())
        lam = linalg.eig_extremes(st.D)[0]  # A = b I + sum x x^T
        assert lam >= prev - 1e-10
        assert lam >= b - 1e-12
        prev = lam


def test_nlms_trace_and_validation():
    st = baselines.nlms_init(1, eta=1.0, eps=0.0)
    yhat, st = baselines.nlms_step(st, [1.0], 1.0)
    assert yhat == 0.0
    assert st.w[0] == pytest.approx(1.0)

    st = baselines.nlms_init(2, eta=1.0, eps=0.5)
    w_before = st.w.copy()
    yhat, st = baselines.nlms_step(st, [0.0, 0.0], 3.0)
    assert yhat == 0.0
    np.testing.assert_allclose(st.w, w_before)

    st = baselines.NlmsState(w=np.array([1.0]), eta=0.5, eps=0.0)
    yhat, st = baselines.nlms_step(st, [2.0], 0.0)
    assert yhat == pytest.approx(2.0)
    assert st.w[0] == pytest.approx(0.5)  # 1 + 0.5 * (-2) * 2 / 4

    with pytest.raises(InvalidParams):
        baselines.nlms_init(1, eta=0.0)


def test_nlms_zero_error_is_noop():
    rng = np.random.default_rng(1)
    w = rng.standard_normal(3)
    st = baselines.NlmsState(w=w.copy(), eta=0.8, eps=0.1)
    x = rng.standard_normal(3)
    y = float(x @ w)
    _, st = baselines.nlms_step(st, x, y)
    np.testing.assert_allclose(st.w, w, atol=1e-14)


def test_nlms_overflowing_denominator_is_bad_stream():
    xs, ys = np.full((2, 1, 2), 7e153), np.ones((2, 1))  # |x|^2 ~ 1e308 is finite
    yhats = baselines.nlms_trajectories([baselines.nlms_init(2, eta=0.5)], xs, ys)
    assert np.isfinite(yhats).all() and yhats[0, 1] > 0.0
    with pytest.raises(BadStream, match="overflowed at round 1"):
        baselines.nlms_trajectories([baselines.nlms_init(2, eta=0.5, eps=1e308)], xs, ys)


# each single-state step on a fresh state of dimension 2
STEPS = {
    "laser": lambda x, y=1.0: laser.laser_update(
        laser.laser_init(laser.LaserParams(b=1.0, c=10.0), 2), x, y),
    "cov": lambda x, y=1.0: laser.cov_step(laser.laser_init(laser.LaserParams(b=1.0), 2), x, y),
    "aar": lambda x, y=1.0: baselines.aar_step(baselines.aar_init(1.0, 2), x, y),
    "hinf": lambda x, y=1.0: hinf.hinf_step(
        hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=1.0), 2), x, y),
    "crrls": lambda x, y=1.0: baselines.crrls_step(baselines.crrls_init(2, 3, 1.0), x, y),
    "nlms": lambda x, y=1.0: baselines.nlms_step(baselines.nlms_init(2, eta=0.5), x, y),
}


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("learner", STEPS)
def test_single_state_step_refuses_a_non_finite_label(learner, y):
    # as a stream carrying it is refused, not folded into inf or NaN weights
    with pytest.raises(BadStream, match=r"label .* at round 1 is not finite"):
        STEPS[learner]([1.0, 1.0], y)


@pytest.mark.parametrize("learner", STEPS)
def test_single_state_step_refuses_a_non_finite_input(learner):
    with pytest.raises(BadStream, match="vector has non-finite entries"):
        STEPS[learner]([1.0, math.nan])


@pytest.mark.parametrize("learner", STEPS)
def test_single_state_step_on_overflowing_inputs_is_bad_stream(learner):
    # as their step loops do: the round is refused, not silently dropped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BadStream, match="overflowed"):
            STEPS[learner]([1e200, 2e200])
    assert not [str(w.message) for w in caught]


# each multi-member loop on xs (T, S, d) and ys (T, S)
LOOPS = {
    "laser": lambda xs, ys: laser.laser_trajectories([laser.LaserParams(1.0, 10.0)], xs, ys),
    "nlms": lambda xs, ys: baselines.nlms_trajectories([baselines.nlms_init(2, 0.5)], xs, ys),
}


@pytest.mark.parametrize("bad", ["nan label", "inf input"])
@pytest.mark.parametrize("loop", LOOPS)
def test_loop_refuses_a_non_finite_stream_before_round_1(loop, bad):
    # not NaN predictions and weights, and not a numpy warning before the refusal
    xs, ys = np.ones((3, 1, 2)), np.ones((3, 1))
    if bad == "nan label":
        ys[1] = math.nan
    else:
        xs[1, 0, 0] = math.inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BadStream, match="stream has non-finite inputs or labels"):
            LOOPS[loop](xs, ys)
    assert not [str(w.message) for w in caught]


def test_crrls_first_step_trace():
    st = baselines.crrls_init(1, reset_period=10, b_reset=1.0)
    yhat, st = baselines.crrls_step(st, [1.0], 1.0)
    assert yhat == 0.0
    assert st.P[0, 0] == pytest.approx(0.5)
    assert st.w[0] == pytest.approx(0.5)


def test_crrls_period_one_always_resets():
    rng = np.random.default_rng(2)
    st = baselines.crrls_init(3, reset_period=1, b_reset=2.0)
    for _ in range(5):
        _, st = baselines.crrls_step(st, rng.standard_normal(3), rng.standard_normal())
        np.testing.assert_allclose(st.P, np.eye(3) / 2.0)


def test_crrls_trace_after_reset_is_d_over_breset():
    rng = np.random.default_rng(3)
    d, N, b_reset = 4, 5, 2.5
    st = baselines.crrls_init(d, reset_period=N, b_reset=b_reset)
    for step in range(1, 3 * N + 1):
        _, st = baselines.crrls_step(st, rng.standard_normal(d), rng.standard_normal())
        if step % N == 0:
            assert float(np.trace(st.P)) == d / b_reset  # exact reset


def test_crrls_diverges_from_forward_ridge_at_second_step():
    # same priors, never reset: the forward ridge folds the new input
    # into its statistics before predicting, plain RLS does not, so they
    # agree only on the first (zero) prediction of a 3-step stream
    xs = [[1.0], [1.0], [1.0]]
    ys = [1.0, 1.0, 1.0]
    aar = baselines.aar_init(1.0, 1)
    rls = baselines.crrls_init(1, reset_period=10**9, b_reset=1.0)
    preds = []
    for x, y in zip(xs, ys):
        pa, aar = baselines.aar_step(aar, x, y)
        pr, rls = baselines.crrls_step(rls, x, y)
        preds.append((pa, pr))
    assert preds[0][0] == preds[0][1] == 0.0
    assert preds[1][0] != preds[1][1]
    assert preds[1][0] == pytest.approx(1.0 / 3.0)
    assert preds[1][1] == pytest.approx(0.5)


def test_crrls_validation():
    with pytest.raises(InvalidParams):
        baselines.crrls_init(1, reset_period=0, b_reset=1.0)
    with pytest.raises(InvalidParams):
        baselines.crrls_init(1, reset_period=5, b_reset=0.0)
    # a period that is not an integer: 2.5 would reset at t = 5 and 10, True every round
    for period in (2.5, True, False, float("inf")):
        with pytest.raises(InvalidParams, match="expected an integer"):
            baselines.crrls_init(2, period, 1.0)
    # one beyond a double's range, which float() would not convert
    with pytest.raises(InvalidParams, match="int too large to convert to float"):
        baselines.crrls_init(2, 10**400, 1.0)
    # an integral one is taken as an int
    assert type(baselines.crrls_init(2, np.int64(3), 1.0).member.reset) is int
    assert baselines.crrls_init(2, 3.0, 1.0).member.reset == 3


# each init of dimension d, for the dimension refusal
INITS = {
    "laser": lambda d: laser.laser_init(laser.LaserParams(b=1.0, c=10.0), d),
    "aar": lambda d: baselines.aar_init(1.0, d),
    "hinf": lambda d: hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=1.0), d),
    "crrls": lambda d: baselines.crrls_init(d, 3, 1.0),
    "nlms": lambda d: baselines.nlms_init(d, eta=0.5),
}


@pytest.mark.parametrize("d", [0, -1, -2, 2.5, True])
@pytest.mark.parametrize("learner", INITS)
def test_init_refuses_a_dimension_below_one(learner, d):
    # a d that is not an integer, or a bool, is refused as a reset period is
    message = f"d must be >= 1, got {d}" if type(d) is int else f"expected an integer, got {d}"
    with pytest.raises(InvalidParams, match=message):
        INITS[learner](d)
