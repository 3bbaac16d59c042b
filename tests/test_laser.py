import math

import numpy as np
import pytest

from driftlearn import baselines, harness, hinf, laser, linalg, oracle
from driftlearn.datagen import DatasetSpec, gen_stream
from driftlearn.errors import BadStream, InvalidParams, NotPositiveDefinite

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
        yhat = laser.laser_predict(state, x)
        state = laser.laser_update(state, x, y)
        steps.append((yhat, state))
    return steps


def test_init_matches_closed_form():
    state = laser.laser_init(laser.LaserParams(b=1.0, c=2.0), 1)
    np.testing.assert_allclose(state.D, [[2.0]])  # bc/(c-b) = 2
    np.testing.assert_allclose(state.e, [0.0])
    assert state.t == 0
    assert state.min_cost == 0.0  # the minimum over the empty prefix


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
        assert state.min_cost == pytest.approx(TRACE_MIN_COST[i], abs=1e-12)


def test_trace_matches_brute_force():
    for n in (1, 2):
        value, _ = oracle.brute_min_cost(TRACE_XS[:n], TRACE_YS[:n], TRACE_B, TRACE_C)
        assert value == pytest.approx(TRACE_MIN_COST[n - 1], abs=1e-12)


def test_predict_zero_input_predicts_zero():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 2)
    state = laser.laser_update(state, [1.0, 0.0], 1.0)
    yhat = laser.laser_predict(state, [0.0, 0.0])
    assert yhat == 0.0
    # propagation only: D becomes (D^{-1} + c^{-1} I)^{-1}, so P becomes P + I/c
    propagated = laser.laser_update(state, [0.0, 0.0], 0.0)
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
        yhat = laser.laser_predict(state, x)
        ghost = laser.laser_update(state, x, 0.0)
        forward = float(x @ linalg.spd_solve(ghost.D, ghost.e))
        assert abs(yhat - forward) <= 1e-12
        state = laser.laser_update(state, x, y)


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
            yhat = laser.laser_predict(state, xs[t])
            state = laser.laser_update(state, xs[t], ys[t])
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
            yhat = laser.laser_predict(state, x)
            state = laser.laser_update(state, x, y)
            cost = state.min_cost
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
    yhat = laser.laser_predict(state, [1.0])
    assert yhat == pytest.approx(0.1)  # unclipped value is 0.25


def test_zero_labels_give_zero_min_cost():
    params = laser.LaserParams(b=1.0, c=2.0)
    state = laser.laser_init(params, 2)
    rng = np.random.default_rng(16)
    for _ in range(10):
        state = laser.laser_update(state, rng.standard_normal(2), 0.0)
    assert state.min_cost == pytest.approx(0.0, abs=1e-12)


def test_a_huge_c_names_the_round_whose_drift_update_fails():
    # at b = 0.01 the covariance form holds while |x|^2 <= 100; round 3's
    # input moves the state to square-root form, where the drift rows of c =
    # 1e100, sqrt(c) each, swamp R and leave R' singular
    state = laser.laser_init(laser.LaserParams(0.01, 1e100), 2)
    for x in ([1.0, 0.0], [0.0, 1.0]):
        state = laser.laser_update(state, x, 1.0)
    with pytest.raises(NotPositiveDefinite, match=r"R' is singular at round 3: c = 1e\+100 "):
        laser.laser_update(state, [20.0, 5.0], 1.0)


def test_update_without_predict_recomputes_propagation():
    rng = np.random.default_rng(17)
    params = laser.LaserParams(b=1.0, c=5.0)
    a = laser.laser_init(params, 3)
    b = laser.laser_init(params, 3)
    for _ in range(5):  # laser_predict leaves the state as it was
        x, y = rng.standard_normal(3), rng.standard_normal()
        laser.laser_predict(a, x)
        a = laser.laser_update(a, x, y)
        b = laser.laser_update(b, x, y)
    np.testing.assert_allclose(a.D, b.D, atol=1e-14)
    np.testing.assert_allclose(a.e, b.e, atol=1e-14)
    assert _same_state(a, b)


def _indefinite_start():
    """P = diag(1, -1e-3), a slightly negative eigenvalue in a direction the
    input x = (1, 0) never touches, at c = 1e6: (member, xs, ys). The member
    is a laser-round one, drifting without spectra, so it is guarded."""
    member = laser.CovMember(np.diag([1.0, -1e-3]), 1e-6, laser=laser.LaserParams(1.0, 1e6))
    return member, np.array([[[1.0, 0.0]]]), np.ones((1, 1))


def test_cov_rounds_guard_catches_lost_definiteness():
    member, xs, ys = _indefinite_start()
    with pytest.raises(NotPositiveDefinite, match="at round 1"):
        laser.cov_rounds([member], xs, ys)


def test_cov_rounds_derives_the_guard_from_the_record():
    # the same start as a stationary laser member: it is not guarded, and
    # its untouched negative direction raises nothing
    member, xs, ys = _indefinite_start()
    (traj,) = laser.cov_rounds([member._replace(inflation=0.0, laser=laser.LaserParams(1.0))],
                               xs, ys)
    assert traj.state.form[1, 1] == -1e-3 and traj.yhats[0] == 0.0


def test_cov_rounds_spectra_check_the_start():
    # P's own lambda_min, before round 1 moves it to -1e-3 + 1e-6
    member, xs, ys = _indefinite_start()
    with pytest.raises(NotPositiveDefinite, match="lambda_min = -1.000e-03"):
        laser.cov_rounds([member._replace(spectra=True)], xs, ys)


def _same(a, b):
    """Bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                                          np.signbit(b))


def _same_or_none(a, b):
    """Both None, or the same bit for bit."""
    return a is b is None or (a is not None and b is not None and _same(a, b))


STATE_FIELDS = ("w", "form", "t", "max_xsq", "min_cost", "last_x_quad")
SPECTRA = ("trace_D", "lam_peak_D", "logdet_D")


def _switched(state):
    """Whether the state has moved to square-root information form."""
    return isinstance(state.form, laser.SqrtInformation)


def _same_state(got, want):
    """Equal CovStates: every field but the record bit for bit, form in the
    same form in both."""
    for name in STATE_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(g, tuple) != isinstance(w, tuple):
            return False
        if not (all(map(_same, g, w)) if isinstance(g, tuple) else _same(g, w)):
            return False
    return True


def test_cov_rounds_mixed_rows_match_their_own_calls():
    # one call mixing every member kind: certified laser rows, hinf rows
    # (weight a - 1, gain a, kept weights), CR-RLS rows with a reset,
    # stationary rows on an all-zero stream, one of them from a P whose
    # diagonal holds a -0.0 that adding a zero inflation would turn into
    # 0.0, and rows that switch to square-root form and keep their rows,
    # frozen: a certified laser row at round 0, an AAR row at round 3, a
    # guarded laser row at round 5 and a laser row with kept weights at round
    # 8, which clips its predictions; each row must equal its own call
    T, d = 40, 3
    s = gen_stream(DatasetSpec(kind="C", T=T, d=d, seed=2))
    big, zero, I = s.xs * 1e6, np.zeros((T, d)), np.eye(d)

    def late(k):  # the stream, scaled by 1e6 from round k on
        return np.concatenate((s.xs[:k], big[k:])), np.concatenate((s.ys[:k], s.ys[k:] * 1e6))

    drifting = laser.LaserParams(1.0, 1e12)
    clipped = laser.LaserParams(1.0, 1e12, clip_bound=1.0)
    rows = [  # (xs, ys, member)
        (s.xs, s.ys, laser.CovMember(0.99 * I, 0.01, spectra=True)),
        (s.xs, s.ys, laser.CovMember(9.0 * I, 0.1, 1.0, 2.0, keep_w=True)),
        (s.xs, s.ys, laser.CovMember(10.0 * I, reset=7)),
        (zero, zero[:, 0], laser.CovMember(np.diag([1.0, -0.0, 1.0]))),
        (s.xs, s.ys, laser.CovMember(1.9 * I, 0.5, spectra=True)),
        (big, s.ys * 1e6, laser.CovMember((1.0 - 1e-12) * I, 1e-12, spectra=True,
                                          laser=laser.LaserParams(1.0, 1e12))),
        (s.xs, s.ys, laser.CovMember(0.5 * I, 1 / 50, 7.0, 8.0, keep_w=True)),
        (*late(3), laser.CovMember(I, laser=laser.LaserParams(1.0))),  # b = 1, c = inf: AAR
        (zero, zero[:, 0], laser.CovMember(2.0 * I, reset=5)),
        (*late(5), laser.laser_init(drifting, d).member),  # guarded: drifts, no spectra
        (*late(8), laser.laser_init(clipped, d).member._replace(keep_w=True)),
    ]
    assert [laser._switch_round(rows[i][2].laser, np.maximum.accumulate(np.vecdot(x, x)))
            for i, x in ((5, big), (7, late(3)[0]), (9, late(5)[0]), (10, late(8)[0]))] \
        == [0, 3, 5, 8]

    def call(members):
        return laser.cov_rounds([m[2] for m in members],
                                np.stack([m[0] for m in members], axis=1),
                                np.stack([m[1] for m in members], axis=1))

    mixed = call(rows)
    assert all(_switched(mixed[i].state) for i in (5, 7, 9, 10))
    assert np.abs(mixed[10].yhats).max() == 1.0 < np.abs(mixed[10].xw).max()  # it clips
    for got, row in zip(mixed, rows):
        member, (alone,) = row[2], call([row])
        for name in ("xw", "q", "ws", *SPECTRA):
            assert _same_or_none(getattr(got, name), getattr(alone, name))
        assert _same_state(got.state, alone.state)
        # the record's own view of its rows: predictions, kept weights, spectra
        if member.laser is None:
            assert got.yhats is got.xw and got.quads is None
        else:
            yhats, bound = got.xw / (1.0 + got.q), member.laser.clip_bound
            assert _same(got.yhats, yhats if bound is None else laser.clip(yhats, bound))
            assert _same(got.quads, got.q / (1.0 + got.q))
        assert (got.ws is None) == (not member.keep_w)
        assert all((getattr(got, name) is None) == (not member.spectra) for name in SPECTRA)


# b = 0.05 at c = inf moves this desk stream's state to square-root
# information form at round 3
SQRT_DESK = gen_stream(DatasetSpec(kind="C", T=200, d=4, seed=0))
SQRT_PARAMS = laser.LaserParams(b=0.05, c=math.inf)


def test_kept_weights_of_a_switching_member_are_the_single_state_weights():
    s = SQRT_DESK
    member = laser.laser_init(SQRT_PARAMS, s.dim).member._replace(keep_w=True)
    (traj,) = laser.cov_rounds([member], s.xs[:, None], s.ys[:, None])
    assert _switched(traj.state)
    state, ws = laser.laser_init(SQRT_PARAMS, s.dim), []
    for x, y in zip(s.xs, s.ys):
        state = laser.laser_update(state, x, y)
        ws.append(state.w)
    assert _switched(state) and _same(traj.ws, ws)


def test_step_and_loop_reach_the_same_state():
    # a laser member that moves to square-root form in its fourth round, an AAR
    # member, a hinf member and a CR-RLS member that resets at rounds 7,
    # 14, ...: each member's final state in one cov_rounds call is the state
    # its own step function reaches from its init, field for field
    s = SQRT_DESK
    steps = [(laser.laser_init(SQRT_PARAMS, s.dim), laser.laser_update),
             (baselines.aar_init(1.0, s.dim), lambda st, x, y: baselines.aar_step(st, x, y)[1]),
             (hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=10.0), s.dim),
              lambda st, x, y: hinf.hinf_step(st, x, y)[1]),
             (baselines.crrls_init(s.dim, 7, 0.5),
              lambda st, x, y: baselines.crrls_step(st, x, y)[1])]
    trajs = laser.cov_rounds([st.member for st, _ in steps],
                             *(np.repeat(a[:, None], len(steps), axis=1) for a in (s.xs, s.ys)))
    for (state, step), final in zip(steps, (tr.state for tr in trajs)):
        for x, y in zip(s.xs, s.ys):
            state = step(state, x, y)
        assert final.member is state.member and _same_state(final, state)
    assert _switched(trajs[0].state) and trajs[0].state.min_cost > 0.0


def test_cov_step_commits_a_laser_record_as_laser_update():
    # through the switch to square-root form in the fourth round
    s, state = SQRT_DESK, laser.laser_init(SQRT_PARAMS, SQRT_DESK.dim)
    for t, (x, y) in enumerate(zip(s.xs[:10], s.ys), start=1):
        yhat, got = laser.cov_step(state, x, y)
        want = laser.laser_update(state, x, y)
        assert yhat == laser.laser_predict(state, x) and _same_state(got, want)
        assert _switched(got) == (t >= 4)
        state = want
    # a laser state's P is D_t^{-1}, not P + I/c
    _, drifting = laser.cov_step(laser.laser_init(laser.LaserParams(1.0, 10.0), 2), [1.0, 0.0], 1.0)
    assert drifting.P is drifting.form


def test_cov_step_predicts_as_the_loop():
    # a clipped laser record, an AAR record that moves to square-root form at
    # round 3, a hinf record and a CR-RLS record: cov_step predicts laser_predict's
    # shrunk, clipped value for the first two and x . w for the others, as
    # Trajectory.yhats does for the same record in cov_rounds
    s = SQRT_DESK
    states = [laser.laser_init(laser.LaserParams(1.0, 100.0, clip_bound=2.0), s.dim),
              baselines.aar_init(0.05, s.dim),
              hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=10.0), s.dim),
              baselines.crrls_init(s.dim, 7, 0.5)]
    trajs = laser.cov_rounds([st.member for st in states],
                             *(np.repeat(a[:, None], len(states), axis=1) for a in (s.xs, s.ys)))
    for state, traj in zip(states, trajs):
        yhats = []
        for x, y in zip(s.xs, s.ys):
            want = (laser.laser_predict(state, x) if state.member.laser
                    else float(np.vecdot(x, state.w)))
            yhat, state = laser.cov_step(state, x, y)
            assert yhat == want
            yhats.append(yhat)
        assert _same(yhats, traj.yhats)
    assert np.abs(trajs[0].yhats).max() == 2.0 < np.abs(trajs[0].xw / (1.0 + trajs[0].q)).max()
    assert _switched(trajs[1].state)


def _stepped(state, *xs):
    """state after rounds on the inputs xs, with label 1."""
    for x in xs:
        state = laser.laser_update(state, x, 1.0)
    return state


def test_laser_predict_is_cov_steps_prediction():
    # at b = 0.01, c = 1e6 the covariance form holds while |x|^2 < 100, and the
    # input (30, 40) moves the state to square-root form
    switching = _stepped(laser.laser_init(laser.LaserParams(0.01, 1e6), 2), [1.0, 2.0])
    cases = [  # (state, its next input)
        (_stepped(laser.laser_init(laser.LaserParams(1.0, 10.0, 0.3), 2), [1.0, 2.0]),
         [0.5, -1.0]),
        (_stepped(baselines.aar_init(0.5, 2), [1.0, 2.0], [-1.0, 0.5]), [2.0, 1.0]),
        (switching, [30.0, 40.0]),
        (_stepped(switching, [30.0, 40.0]), [0.5, -1.0]),
    ]
    assert [_switched(st) for st, _ in cases] == [False, False, False, True]
    assert _switched(laser.cov_step(switching, [30.0, 40.0], 0.0)[1])
    for state, x in cases:
        arrays = (state.w, *(state.form if _switched(state) else (state.form,)))
        before = [a.copy() for a in arrays]
        for y in (0.0, 1.5, -1e3):
            assert _same(laser.laser_predict(state, x), laser.cov_step(state, x, y)[0])
        assert all(map(_same, arrays, before))
    # hinf and CR-RLS records predict x . w
    for state in (hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=10.0), 2),
                  baselines.crrls_init(2, 7, 0.5)):
        state = _stepped(state, [1.0, 2.0], [-1.0, 0.5])
        x = np.array([2.0, 1.0])
        assert _same(laser.laser_predict(state, x), float(np.vecdot(x, state.w)))


def test_stationary_report_in_square_root_form_reads_ln_det_D():
    s = SQRT_DESK
    (traj,) = laser.laser_trajectories([SQRT_PARAMS], s.xs[:, None], s.ys[:, None])
    assert _switched(traj.state)
    sign, want = np.linalg.slogdet(oracle.laser_direct(s.xs, s.ys, 0.05, math.inf).Ds[-1])
    assert sign == 1.0 and laser.logdet_D(traj.state) == pytest.approx(want, rel=1e-12)
    report = harness.run_learner("laser", {"b": 0.05, "c": math.inf}, s)
    (check,) = [b for b in report.bound_checks if b.name == "logdet_quad_bound"]
    assert check.rhs == pytest.approx(want - s.dim * math.log(0.05), rel=1e-12) and check.holds


# -- _factor's size rule: one batched Cholesky below MEMBERWISE_D, potrf per member from it

@pytest.mark.parametrize("d", [laser.MEMBERWISE_D - 1, laser.MEMBERWISE_D])
def test_certification_paths_agree(d, monkeypatch):
    # Only _factor reads MEMBERWISE_D, so this tests its two paths alone:
    # every factor takes the same trtri inverse, and the paths differ only
    # in the rounding of the Cholesky factor, a batched one against one
    # potrf per member. Tr D and ln det D agree to about eps times the
    # condition of P: tens of ulps for the first two members, hundreds to
    # thousands for the ill-conditioned b = 0.1, c = 1. The tolerance is
    # tests/test_batch.py's batch-independence TOL. (0.01, 1e12) moves to
    # square-root form in round 1, so its one-member run certifies an empty
    # stack from then on.
    s = gen_stream(DatasetSpec(kind="C", T=60, d=d, seed=4))
    members = [[laser.LaserParams(1.0, 100.0), laser.LaserParams(10.0, 1000.0),
                laser.LaserParams(0.1, 1.0), laser.LaserParams(0.01, 1e12)],
               [laser.LaserParams(0.01, 1e12)]]
    runs = {}
    for threshold in (d, d + 1):  # per member, then batched
        monkeypatch.setattr(laser, "MEMBERWISE_D", threshold)
        runs[threshold] = [tr for params in members
                           for tr in laser.laser_trajectories(
                               params, np.repeat(s.xs[:, None], len(params), axis=1),
                               np.repeat(s.ys[:, None], len(params), axis=1), spectra=True)]
    assert _switched(runs[d][-1].state)
    for per_member, batched in zip(runs[d], runs[d + 1]):
        for name in ("trace_D", "logdet_D"):
            got, want = getattr(per_member, name), getattr(batched, name)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(per_member.lam_peak_D, batched.lam_peak_D)
        assert np.array_equal(per_member.yhats, batched.yhats)


def test_lost_definiteness_reads_the_same_on_both_paths(monkeypatch):
    # two of three members indefinite: the error names the round and the
    # least eigenvalue of the failing members on either of _factor's paths,
    # batched or potrf per member, with spectra (round 0) and with the
    # guard (round 1)
    d = laser.MEMBERWISE_D
    P = np.stack([np.eye(d)] * 3)
    P[1, 3, 3], P[2, 5, 5] = -1e-3, -2e-2
    xs = np.zeros((1, 3, d))
    xs[..., 0] = 1.0
    members = {"spectra": [laser.CovMember(A, 1e-6, spectra=True) for A in P],
               "guard": [laser.CovMember(A, 1e-6, laser=laser.LaserParams(1.0, 1e6)) for A in P]}
    messages = {}
    for threshold in (d, d + 1):
        monkeypatch.setattr(laser, "MEMBERWISE_D", threshold)
        for key, batch in members.items():
            with pytest.raises(NotPositiveDefinite) as exc:
                laser.cov_rounds(batch, xs, np.ones((1, 3)))
            messages[threshold, key] = str(exc.value)
    assert messages[d, "spectra"] == messages[d + 1, "spectra"] == (
        "state lost definiteness at round 0: lambda_min = -2.000e-02")
    assert messages[d, "guard"] == messages[d + 1, "guard"]
    assert "at round 1: lambda_min = -2.000e-02" in messages[d, "guard"]


def _with_inf(d, *entries):
    A = np.eye(d)
    for i, j in entries:
        A[i, j] = A[j, i] = math.inf
    return A


@pytest.mark.parametrize("A", [[[math.inf, math.inf], [math.inf, math.inf]],
                               [[math.nan, 0.0], [0.0, 1.0]],
                               _with_inf(4, (1, 1), (0, 2))])  # eigvalsh does not converge
def test_non_finite_factor_fails_on_both_paths(A, monkeypatch):
    # np.linalg.cholesky, like potrf, factors the first two into an inf or NaN
    # diagonal; lambda_min is that of the finite failing members, here none
    d = len(A)
    rounds = [(1, np.eye(d)[None]), (2, np.stack([np.eye(d), A]))]
    for threshold in (d, d + 1):  # per member, then batched
        monkeypatch.setattr(laser, "MEMBERWISE_D", threshold)
        with pytest.raises(NotPositiveDefinite, match="at round 2: lambda_min = nan"):
            laser._factor(rounds)


# -- certification in blocks of rounds: the block size moves no output ---------

def _block_budgets(round_bytes):
    """BLOCK_BYTES for blocks of one round, of three rounds and of a whole
    stream, given the bytes one round holds."""
    return {"one round": 1, "three rounds": 3 * round_bytes, "whole stream": 2**62}


@pytest.mark.parametrize("d", [laser.MEMBERWISE_D - 1, laser.MEMBERWISE_D])
def test_block_size_moves_no_output(d, monkeypatch):
    # spectra rows, a guarded row, hinf and CR-RLS rows (one with a reset,
    # kept weights) and square-root members with spectra, one from round 0
    # and one from round 3: every output and the eigvalsh calls must not
    # depend on how many rounds a block holds. The last member's laser
    # params (c = 1e12, not 1/inflation) only put its switch at round 3,
    # the first of its rows scaled by 1e6.
    T = 40
    s = gen_stream(DatasetSpec(kind="C", T=T, d=d, seed=6))
    big, I = s.xs * 1e6, np.eye(d)
    late = (np.concatenate((s.xs[:3], big[3:])), np.concatenate((s.ys[:3], s.ys[3:] * 1e6)))
    switching = laser.LaserParams(1.0, 1e12)
    rows = [  # (xs, ys, member); the third is guarded
        (s.xs, s.ys, laser.CovMember(0.99 * I, 0.01, spectra=True)),
        (s.xs, s.ys, laser.CovMember(1.9 * I, 0.5, spectra=True)),
        (s.xs, s.ys, laser.CovMember(0.9 * I, 0.1, laser=laser.LaserParams(1.0, 10.0))),
        (s.xs, s.ys, laser.CovMember(9.0 * I, 0.1, 1.0, 2.0, keep_w=True)),
        (s.xs, s.ys, laser.CovMember(10.0 * I, reset=7, keep_w=True)),
        (big, s.ys * 1e6,
         laser.CovMember((1.0 - 1e-12) * I, 1e-12, spectra=True, laser=switching)),
        (*late, laser.CovMember(0.99 * I, 0.01, spectra=True, laser=switching)),
    ]
    members = [m[2] for m in rows]
    xs, ys = (np.stack([m[k] for m in rows], axis=1) for k in (0, 1))
    assert [laser._switch_round(switching, np.maximum.accumulate(np.vecdot(x, x)))
            for x in (big, late[0])] == [0, 3]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(1) or eigvalsh(A))
    certified = sum(m.spectra or m.laser is not None for m in members)
    runs = {}
    for name, budget in _block_budgets(certified * d * d * 8).items():
        monkeypatch.setattr(laser, "BLOCK_BYTES", budget)
        calls.clear()
        runs[name] = laser.cov_rounds(members, xs, ys), len(calls)
    (want, want_calls), = [runs.pop("one round")]
    assert _switched(want[5].state) and _switched(want[6].state) \
        and want_calls > 0
    for got, got_calls in runs.values():
        assert got_calls == want_calls
        for g, w in zip(got, want):
            for name in ("xw", "q", "ws", *SPECTRA):
                assert _same_or_none(getattr(g, name), getattr(w, name))
            assert _same_state(g.state, w.state)


def _falling_start(T=10):
    """A member on an all-zero stream from P = 1.125 I at inflation -1/4, so
    P_t = (1.125 - t/4) I exactly, indefinite from round 5 on: (member, xs,
    ys). Its laser params, of a finite c, make it a guarded laser member."""
    member = laser.CovMember(1.125 * np.eye(2), -0.25, laser=laser.LaserParams(1.0, 4.0))
    return member, np.zeros((T, 1, 2)), np.zeros((T, 1))


@pytest.mark.parametrize("block", ["one round", "three rounds", "whole stream"])
def test_lost_definiteness_in_a_later_block_names_its_round(block, monkeypatch):
    # three-round blocks hold rounds 1-3 and 4-6: round 5 fails in the second
    member, xs, ys = _falling_start()
    monkeypatch.setattr(laser, "BLOCK_BYTES", _block_budgets(member.P.nbytes)[block])
    with pytest.raises(NotPositiveDefinite,
                       match="state lost definiteness at round 5: lambda_min = -1.250e-01"):
        laser.cov_rounds([member], xs, ys)


def test_lost_definiteness_wins_over_a_later_overflow(monkeypatch):
    # round 7 overflows x^T P' x while round 5 still waits in the block: the
    # earlier round's error is the one raised
    member, xs, ys = _falling_start()
    xs[6, 0, 0] = 1e200
    monkeypatch.setattr(laser, "BLOCK_BYTES", 2**62)
    with pytest.raises(NotPositiveDefinite, match="at round 5:"):
        laser.cov_rounds([member], xs, ys)
    with pytest.raises(BadStream, match="overflowed at round 7"):
        laser.cov_rounds([member._replace(laser=None)], xs, ys)
