import math

import numpy as np
import pytest

from driftlearn import laser, linalg, oracle
from driftlearn.errors import InvalidParams, NotPositiveDefinite

# Two-round fixture on (x, y) = (1, 1), (1, 0.5) with b=1, c=2. Values
# below were derived by hand from the recursions and confirmed against
# the brute-force stacked solve (see test_trace_matches_brute_force).
TRACE_B, TRACE_C = 1.0, 2.0
TRACE_XS = np.array([[1.0], [1.0]])
TRACE_YS = np.array([1.0, 0.5])
TRACE_YHATS = (0.0, 0.25)
TRACE_D = (2.0, 2.0)
TRACE_E = (1.0, 1.0)
TRACE_F = (1.0, 1.0)
TRACE_MIN_COST = (0.5, 0.5)


def run_trace():
    params = laser.LaserParams(b=TRACE_B, c=TRACE_C)
    state = laser.laser_init(params, 1)
    steps = []
    for x, y in zip(TRACE_XS, TRACE_YS):
        yhat, step = laser.laser_predict(state, x)
        state = laser.laser_update(state, x, y, step=step)
        steps.append((yhat, state))
    return steps


def test_init_matches_closed_form():
    state = laser.laser_init(laser.LaserParams(b=1.0, c=2.0), 1)
    np.testing.assert_allclose(state.D, [[2.0]])  # bc/(c-b) = 2
    np.testing.assert_allclose(state.e, [0.0])
    assert state.t == 0


def test_init_stationary_sentinel():
    state = laser.laser_init(laser.LaserParams(b=1.0, c=math.inf), 3)
    np.testing.assert_allclose(state.D, np.eye(3))
    np.testing.assert_allclose(state.e, np.zeros(3))


def test_init_rejects_b_not_below_c():
    with pytest.raises(InvalidParams):
        laser.LaserParams(b=2.0, c=1.0)
    with pytest.raises(InvalidParams):
        laser.LaserParams(b=2.0, c=2.0)
    with pytest.raises(InvalidParams):
        laser.LaserParams(b=0.0, c=1.0)


def test_hand_trace_all_quantities():
    steps = run_trace()
    for i, (yhat, state) in enumerate(steps):
        assert yhat == pytest.approx(TRACE_YHATS[i], abs=1e-12)
        assert state.D[0, 0] == pytest.approx(TRACE_D[i], abs=1e-12)
        assert state.e[0] == pytest.approx(TRACE_E[i], abs=1e-12)
        assert state.f == pytest.approx(TRACE_F[i], abs=1e-12)
        assert laser.laser_min_cost(state) == pytest.approx(TRACE_MIN_COST[i], abs=1e-12)


def test_trace_matches_brute_force():
    for n in (1, 2):
        value, _ = oracle.brute_min_cost(TRACE_XS[:n], TRACE_YS[:n], TRACE_B, TRACE_C)
        assert value == pytest.approx(TRACE_MIN_COST[n - 1], abs=1e-12)


def test_predict_zero_input_predicts_zero():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 2)
    state = laser.laser_update(state, [1.0, 0.0], 1.0)
    yhat, step = laser.laser_predict(state, [0.0, 0.0])
    assert yhat == 0.0
    # propagation only: D becomes (D^{-1} + c^{-1} I)^{-1}, so P becomes P + I/c
    propagated = laser.laser_update(state, [0.0, 0.0], 0.0, step=step)
    np.testing.assert_allclose(propagated.P, state.P + np.eye(2) / 2.0, atol=1e-12)


def test_update_zero_round_decays_e_only():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 1)
    state = laser.laser_update(state, [1.0], 1.0)
    e_prev, f_prev, D_prev = state.e.copy(), state.f, state.D.copy()
    state = laser.laser_update(state, [0.0], 0.0)
    decayed = e_prev / (1.0 + D_prev[0, 0] / 2.0)
    np.testing.assert_allclose(state.e, decayed, atol=1e-14)
    # f still pays the quadratic shrink term from the recursion
    expected_f = f_prev - e_prev[0] ** 2 / (2.0 + D_prev[0, 0])
    assert state.f == pytest.approx(expected_f, abs=1e-14)


def test_update_from_fresh_state_with_zero_round_is_noop():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 1)
    state = laser.laser_update(state, [0.0], 0.0)
    assert state.e[0] == 0.0 and state.f == 0.0


def test_first_committed_D_is_base_case():
    rng = np.random.default_rng(11)
    for d in (1, 3, 6):
        b, c = 0.7, 3.1
        x = rng.standard_normal(d)
        state = laser.laser_init(laser.LaserParams(b=b, c=c), d)
        state = laser.laser_update(state, x, rng.standard_normal())
        np.testing.assert_allclose(state.D, b * np.eye(d) + np.outer(x, x), atol=1e-12)


def test_forward_property():
    # the prediction equals the offline-optimal model fitted on the
    # history extended with the new input under a zero label
    rng = np.random.default_rng(12)
    params = laser.LaserParams(b=0.5, c=4.0)
    state = laser.laser_init(params, 3)
    for t in range(30):
        x = rng.standard_normal(3)
        y = rng.standard_normal()
        yhat, step = laser.laser_predict(state, x)
        ghost = laser.laser_update(state, x, 0.0, step=step)
        forward = float(x @ linalg.spd_solve(ghost.D, ghost.e))
        assert abs(yhat - forward) <= 1e-12
        state = laser.laser_update(state, x, y, step=step)


def test_eigenvalue_cap_along_trajectory():
    rng = np.random.default_rng(13)
    params = laser.LaserParams(b=1.5, c=20.0)
    state = laser.laser_init(params, 4)
    x_sq_max = 0.0
    for t in range(200):
        x = rng.standard_normal(4) * rng.uniform(0.1, 2.0)
        x_sq_max = max(x_sq_max, float(x @ x))
        state = laser.laser_update(state, x, rng.standard_normal())
        lam = linalg.eig_extremes(state.D)[1]
        assert lam <= oracle.eig_cap(x_sq_max, params.b, params.c) + 1e-9


def test_stationary_reduction_to_forward_ridge(forward_ridge):
    rng = np.random.default_rng(14)
    T, d = 100, 5
    xs = rng.standard_normal((T, d))
    ys = rng.standard_normal(T)

    def laser_preds(c):
        state = laser.laser_init(laser.LaserParams(b=1.0, c=c), d)
        preds = []
        for t in range(T):
            yhat, step = laser.laser_predict(state, xs[t])
            state = laser.laser_update(state, xs[t], ys[t], step=step)
            preds.append(yhat)
        return np.array(preds)

    ridge = forward_ridge(xs, ys, 1.0)
    np.testing.assert_allclose(laser_preds(1e12), ridge, rtol=0, atol=1e-6)
    np.testing.assert_allclose(laser_preds(math.inf), ridge, rtol=0, atol=1e-10)


def test_per_step_regret_identity():
    # (y - yhat)^2 + min_cost_{t-1} - min_cost_t <= y^2 x^T D_t^{-1} x
    rng = np.random.default_rng(15)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        params = laser.LaserParams(b=rng.uniform(0.2, 2.0), c=rng.uniform(2.5, 30.0))
        state = laser.laser_init(params, d)
        prev_cost = 0.0
        for t in range(25):
            x = rng.standard_normal(d)
            y = rng.standard_normal()
            yhat, step = laser.laser_predict(state, x)
            state = laser.laser_update(state, x, y, step=step)
            cost = laser.laser_min_cost(state)
            lhs = (y - yhat) ** 2 + prev_cost - cost
            rhs = y * y * state.last_x_quad
            assert lhs <= rhs + 1e-9
            prev_cost = cost


def test_clip_bound_applies_to_predictions():
    assert laser.clip(3.0, 1.0) == 1.0
    assert laser.clip(-3.0, 1.0) == -1.0
    assert laser.clip(0.25, 1.0) == 0.25
    params = laser.LaserParams(b=1.0, c=2.0, clip_bound=0.1)
    state = laser.laser_init(params, 1)
    state = laser.laser_update(state, [1.0], 1.0)
    yhat, _ = laser.laser_predict(state, [1.0])
    assert yhat == pytest.approx(0.1)  # unclipped value is 0.25


def test_min_cost_requires_history():
    state = laser.laser_init(laser.LaserParams(b=1.0, c=2.0), 1)
    with pytest.raises(ValueError):
        laser.laser_min_cost(state)


def test_zero_labels_give_zero_min_cost():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 2)
    rng = np.random.default_rng(16)
    for _ in range(10):
        state = laser.laser_update(state, rng.standard_normal(2), 0.0)
    assert laser.laser_min_cost(state) == pytest.approx(0.0, abs=1e-12)


def test_update_without_predict_recomputes_propagation():
    rng = np.random.default_rng(17)
    params = laser.LaserParams(b=1.0, c=5.0)
    a = laser.laser_init(params, 3)
    b = laser.laser_init(params, 3)
    for _ in range(5):
        x, y = rng.standard_normal(3), rng.standard_normal()
        _, step = laser.laser_predict(a, x)
        a = laser.laser_update(a, x, y, step=step)
        b = laser.laser_update(b, x, y)
    np.testing.assert_allclose(a.D, b.D, atol=1e-14)
    np.testing.assert_allclose(a.e, b.e, atol=1e-14)


def _indefinite_start():
    """P = diag(1, -1e-3), a slightly negative eigenvalue in a direction the
    input x = (1, 0) never touches, at c = 1e6: (P, xs, ys, inflation)."""
    return np.diag([1.0, -1e-3])[None], np.array([[[1.0, 0.0]]]), np.ones((1, 1)), np.array([1e-6])


def test_cov_rounds_guard_catches_lost_definiteness():
    P, xs, ys, inflation = _indefinite_start()
    with pytest.raises(NotPositiveDefinite, match="at round 1"):
        laser.cov_rounds(P, xs, ys, inflation, guard=np.array([True]))


def test_cov_rounds_spectra_check_the_start():
    # P's own lambda_min, before round 1 moves it to -1e-3 + 1e-6
    P, xs, ys, inflation = _indefinite_start()
    with pytest.raises(NotPositiveDefinite, match="lambda_min = -1.000e-03"):
        laser.cov_rounds(P, xs, ys, inflation, spectra=True)
