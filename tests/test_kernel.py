"""The covariance-form learners against their references.

Three references, each independent of the kernel's floating-point path:
the literal (D, e, f) transcriptions in `oracle` on well-conditioned
streams, the brute-force offline optimum, and the same covariance
recursion carried out in 40-digit `mpmath` arithmetic, which stays exact
where the direct transcription loses digits (large inputs, c close to b).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from driftlearn import baselines, harness, hinf, laser, oracle
from driftlearn.datagen import DatasetSpec, LabeledStream, gen_stream


def kernel_run(xs, ys, b, c):
    """Predictions and every committed state of the covariance-form kernel."""
    state = laser.laser_init(laser.LaserParams(b=b, c=c), xs.shape[1])
    yhats, states = [], [state]
    for x, y in zip(xs, ys):
        yhat, step = laser.laser_predict(state, x)
        state = laser.laser_update(state, x, y, step=step)
        yhats.append(yhat)
        states.append(state)
    return np.array(yhats), states


def mp_predictions(xs, ys, b, c, dps=40):
    """The covariance recursion of laser.py in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        d = xs.shape[1]
        b = mpmath.mpf(b)
        inflation = mpmath.mpf(0) if math.isinf(c) else 1 / mpmath.mpf(c)
        p0 = 1 / b - inflation
        P = [[p0 if i == j else mpmath.mpf(0) for j in range(d)] for i in range(d)]
        w = [mpmath.mpf(0)] * d
        yhats = []
        for x_row, y in zip(xs, ys):
            x = [mpmath.mpf(float(v)) for v in x_row]
            for i in range(d):
                P[i][i] += inflation
            Px = [mpmath.fsum(P[i][j] * x[j] for j in range(d)) for i in range(d)]
            s = 1 + mpmath.fsum(x[i] * Px[i] for i in range(d))
            xw = mpmath.fsum(x[i] * w[i] for i in range(d))
            yhats.append(xw / s)
            P = [[P[i][j] - Px[i] * Px[j] / s for j in range(d)] for i in range(d)]
            err = (mpmath.mpf(float(y)) - xw) / s
            w = [w[i] + Px[i] * err for i in range(d)]
        return np.array([float(v) for v in yhats])


def rel_dev(yhats, ref):
    return float(np.max(np.abs(yhats - ref)) / max(np.max(np.abs(ref)), 1e-300))


# -- agreement with the direct transcription ----------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_kernel_matches_direct_recursion(seed):
    rng = np.random.default_rng(seed)
    T, d = int(rng.integers(1, 31)), int(rng.integers(1, 6))
    lo, hi = np.sort(rng.uniform(0.1, 10.0, size=2))
    b, c = float(lo), float(hi) if seed % 4 else math.inf
    xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
    yhats, states = kernel_run(xs, ys, b, c)
    ref = oracle.laser_direct(xs, ys, b, c)
    np.testing.assert_allclose(yhats, ref.yhats, rtol=0, atol=1e-12 * (1 + np.abs(ref.yhats).max()))
    for t, state in enumerate(states):
        scale = 1.0 + np.abs(ref.Ds[t]).max()
        np.testing.assert_allclose(state.D, ref.Ds[t], rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(state.e, ref.es[t], rtol=0, atol=1e-10 * scale)
        assert state.f == pytest.approx(ref.fs[t], rel=1e-10, abs=1e-10)
    mins = np.array([laser.laser_min_cost(s) for s in states[1:]])
    np.testing.assert_allclose(mins, ref.min_costs, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose([s.last_x_quad for s in states[1:]], ref.quads, atol=1e-12)


def test_innovation_min_cost_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        T, d = int(rng.integers(1, 21)), int(rng.integers(1, 6))
        lo, hi = np.sort(rng.uniform(0.1, 10.0, size=2))
        xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
        _, states = kernel_run(xs, ys, float(lo), float(hi))
        value, _ = oracle.brute_min_cost(xs, ys, float(lo), float(hi))
        assert laser.laser_min_cost(states[-1]) == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_hinf_matches_direct_recursion():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        a, b, c = rng.uniform(1.1, 30.0), rng.uniform(0.5, 500.0), rng.uniform(0.5, 500.0)
        xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
        st_ = hinf.hinf_init(hinf.HInfParams(a=a, b=b, c=c), d)
        yhats, ws = [], []
        for x, y in zip(xs, ys):
            yhat, st_ = hinf.hinf_step(st_, x, y)
            yhats.append(yhat)
            ws.append(st_.w)
        ref_yhats, ref_ws, ref_Ps = oracle.hinf_direct(xs, ys, a, b, c)
        np.testing.assert_allclose(yhats, ref_yhats, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ws, ref_ws, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(st_.P, ref_Ps[-1], rtol=1e-10, atol=1e-12)


def test_aar_is_laser_at_infinite_c():
    stream = gen_stream(DatasetSpec(kind="C", T=60, d=4, seed=2))
    st_ = baselines.aar_init(0.5, 4)
    yhats = []
    for x, y in zip(stream.xs, stream.ys):
        yhat, st_ = baselines.aar_step(st_, x, y)
        yhats.append(yhat)
    report = harness.run_learner("aar", {"b": 0.5}, stream)
    assert np.array_equal(report.yhats, yhats)
    assert report.bound_checks == [] and report.quad_trace is None
    ref = oracle.laser_direct(stream.xs, stream.ys, 0.5, math.inf).yhats
    np.testing.assert_allclose(yhats, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_trajectory_spectra_match_direct_matrices():
    stream = gen_stream(DatasetSpec(kind="D", T=40, d=4, seed=5))
    (traj,) = laser.laser_trajectories([laser.LaserParams(b=1.0, c=100.0)], stream.xs[:, None],
                                       stream.ys[:, None], spectra=True)
    ref = oracle.laser_direct(stream.xs, stream.ys, 1.0, 100.0)
    lam = np.linalg.eigvalsh(ref.Ds)
    np.testing.assert_allclose(traj.trace_D, lam.sum(axis=1), rtol=1e-10)
    # lambda_max D_0, then the running maximum over t >= 1
    peak = np.concatenate((lam[:1, -1], np.maximum.accumulate(lam[1:, -1])))
    np.testing.assert_allclose(traj.lam_peak_D, peak, rtol=1e-10)
    np.testing.assert_allclose(traj.logdet_D, np.log(lam).sum(axis=1), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(traj.quads, ref.quads, atol=1e-12)


SPECTRA_STREAMS = [(gen_stream(DatasetSpec(kind=k, T=200, d=4, seed=2)), 1.0, 100.0)
                   for k in "ABCD"] + [(gen_stream(DatasetSpec(kind="C", T=300, d=20, seed=6)),
                                        1.0, 1e4)]


def stepped_ps(xs, ys, b, c):
    """P_0..P_T of the single-state step functions, all in covariance form."""
    _, states = kernel_run(xs, ys, b, c)
    assert states[-1].sqrt_info is None
    return np.array([st_.cov for st_ in states])


@pytest.mark.parametrize("k", range(len(SPECTRA_STREAMS)))
def test_spectra_peak_is_the_running_maximum_of_eigvalsh(k):
    # the screened rounds skip eigvalsh only where it cannot raise the peak,
    # so the peak is the running maximum of the exact values, bit for bit
    stream, b, c = SPECTRA_STREAMS[k]
    (traj,) = laser.laser_trajectories([laser.LaserParams(b=b, c=c)], stream.xs[:, None],
                                       stream.ys[:, None], spectra=True)
    lam = 1.0 / np.linalg.eigvalsh(stepped_ps(stream.xs, stream.ys, b, c))[:, 0]
    assert np.array_equal(traj.lam_peak_D,
                          np.concatenate((lam[:1], np.maximum.accumulate(lam[1:]))))


TRACE_STREAMS = SPECTRA_STREAMS + [(gen_stream(DatasetSpec(kind="C", T=100, d=100, seed=7)),
                                     10.0, 1000.0)]


@pytest.mark.parametrize("k", range(len(TRACE_STREAMS)))
def test_cholesky_trace_and_logdet_match_eigvalsh(k):
    stream, b, c = TRACE_STREAMS[k]
    (traj,) = laser.laser_trajectories([laser.LaserParams(b=b, c=c)], stream.xs[:, None],
                                       stream.ys[:, None], spectra=True)
    ev = np.linalg.eigvalsh(stepped_ps(stream.xs, stream.ys, b, c))
    np.testing.assert_allclose(traj.trace_D, (1.0 / ev).sum(axis=1), rtol=1e-10, atol=0)
    np.testing.assert_allclose(traj.logdet_D, -np.log(ev).sum(axis=1), rtol=1e-10, atol=0)


def test_spectra_when_every_member_has_switched_form():
    # b = 1e-3 at input scale 1e6 moves both members to square-root form at
    # round 1, which leaves the stacked arrays empty
    xs, ys = big_stream(1e6, T=40)
    lps = [laser.LaserParams(b=1e-3, c=1e12), laser.LaserParams(b=1e-3)]
    trajs = laser.laser_trajectories(lps, np.stack((xs, xs), axis=1), np.stack((ys, ys), axis=1),
                                     spectra=True)
    for lp, traj in zip(lps, trajs):
        _, states = kernel_run(xs, ys, lp.b, lp.c)
        assert all(st_.sqrt_info is not None for st_ in states[1:])
        Rs = [st_.sqrt_info.R for st_ in states[1:]]
        np.testing.assert_allclose(traj.trace_D[1:], [np.sum(R * R) for R in Rs], rtol=1e-12)
        lam = [np.linalg.svd(R, compute_uv=False)[0] ** 2 for R in Rs]
        np.testing.assert_allclose(traj.lam_peak_D[1:], np.maximum.accumulate(lam), rtol=1e-12)
        assert np.isfinite(traj.logdet_D).all()


# -- high-precision reference ---------------------------------------------------

@pytest.mark.parametrize("b, c", [(0.1, 0.2), (1.0, 100.0), (10.0, 1000.0), (1.0, math.inf)])
def test_kernel_matches_40_digit_reference(b, c):
    stream = gen_stream(DatasetSpec(kind="C", T=400, d=6, seed=11))
    yhats, _ = kernel_run(stream.xs, stream.ys, b, c)
    assert rel_dev(yhats, mp_predictions(stream.xs, stream.ys, b, c)) <= 1e-13


def test_kernel_holds_at_large_input_scale():
    # at scale 1e6 the inflation I/c dominates P's small eigenvalues and the
    # covariance form keeps full accuracy; the direct (D, e) transcription
    # loses about 1e-5 relative here, in its I + D/c solves
    rng = np.random.default_rng(1)
    xs, ys = rng.standard_normal((300, 5)) * 1e6, rng.standard_normal(300) * 1e6
    yhats, _ = kernel_run(xs, ys, 1.0, 100.0)
    assert rel_dev(yhats, mp_predictions(xs, ys, 1.0, 100.0, dps=50)) <= 1e-13


@pytest.mark.parametrize("algo, params", [("aar", {"b": 1e-3}), ("laser", {"b": 1e-3, "c": 1e12})])
def test_weak_prior_at_input_scale_1e6_matches_high_precision(algo, params):
    # kappa ~ 1e15: the state moves to square-root information form at round 1
    base = gen_stream(DatasetSpec(kind="C", T=200, d=4, seed=5))
    stream = LabeledStream(base.xs * 1e6, base.ys * 1e6, base.truth)
    report = harness.run_learner(algo, params, stream)
    ref = mp_predictions(stream.xs, stream.ys, params["b"], params.get("c", math.inf))
    assert rel_dev(report.yhats, ref) <= 1e-12


@st.composite
def hard_streams(draw):
    """Short streams at input scale 1e-6..1e6, with c/b near 1, c = 1e12
    or moderate, and some all-zero inputs."""
    d = draw(st.integers(1, 4))
    T = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-6, 6))
    b = 10.0 ** draw(st.floats(-2.0, 2.0))
    c = draw(st.sampled_from(["near", "huge", "ratio"]))
    if c == "near":
        c = b * (1.0 + 10.0 ** draw(st.floats(-9.0, -1.0)))
    elif c == "huge":
        c = 1e12
    else:
        c = b * 10.0 ** draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((T, d)) * scale
    xs[rng.random(T) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    ys = rng.standard_normal(T) * scale
    return xs, ys, b, c


def kappa_of(xs, b, c):
    """min(max_t |x_t|^2, c) / b: how far a round can shrink P below its
    prior scale 1/b."""
    return min(float(np.max(np.einsum("td,td->t", xs, xs), initial=0.0)), c) / b


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(hard_streams())
def test_stress_stays_spd_and_matches_high_precision(case):
    """The held matrix stays exactly symmetric and positive definite (P),
    or exactly triangular and nonsingular (R), and the predictions agree with the
    40-digit reference to 1e-12 of max |yhat|. Streams with kappa > 1e3
    (weak prior against the inputs, slow forgetting) are the known defect
    covered by the xfail tests below: on 300 such draws the covariance
    form reached 1.4e-12 and, on streams shorter than d, the square-root
    information form 2.1e-9."""
    xs, ys, b, c = case
    assume(kappa_of(xs, b, c) <= 1e3)
    yhats, states = kernel_run(xs, ys, b, c)
    for state in states:
        if state.sqrt_info is None:
            assert np.array_equal(state.cov, state.cov.T)
            assert np.linalg.eigvalsh(state.cov)[0] > 0.0
        else:
            R = state.sqrt_info.R
            assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) != 0.0)
    ref = mp_predictions(xs, ys, b, c)
    if not np.any(ref):
        assert not np.any(yhats)
        return
    assert rel_dev(yhats, ref) <= 1e-12


def big_stream(scale, seed=1, T=300, d=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((T, d)) * scale, rng.standard_normal(T) * scale


@pytest.mark.parametrize("b, c", [(1.0, 1e12), (1.0, math.inf), (0.01, 1e12)])
def test_weak_prior_slow_forgetting_switches_to_information_form(b, c):
    # at |x| ~ 1e6 the covariance downdate would cancel about
    # log10(min(|x|^2, c)/b) digits; the state moves to square-root
    # information form
    xs, ys = big_stream(1e6)
    yhats, states = kernel_run(xs, ys, b, c)
    assert states[0].sqrt_info is None and states[-1].sqrt_info is not None
    assert rel_dev(yhats, mp_predictions(xs, ys, b, c, dps=50)) <= 1e-13


def test_moderate_inputs_stay_in_covariance_form():
    stream = gen_stream(DatasetSpec(kind="C", T=250, d=20, seed=4))
    for b, c in [(10.0, 300.0), (10.0, 10000.0), (300.0, 1000.0), (100.0, math.inf)]:
        _, states = kernel_run(stream.xs, stream.ys, b, c)
        assert states[-1].sqrt_info is None


KNOWN_DEFECT = ("known defect: with max|x|^2/b >> 1e4 while some direction still "
                "sits at the prior scale, the square-root information form is 1.1e-8 "
                "off the 40-digit run at c = 1e12 (in its drift update) and 3.8e-12 "
                "at c = inf; the direct (D, e) transcription is 1.3e-6 and 2.9e-6 off")


@pytest.mark.xfail(strict=True, reason=KNOWN_DEFECT)
@pytest.mark.parametrize("c", [1e12, math.inf])
def test_short_stream_with_weak_prior(c):
    # four rounds in four dimensions at |x| ~ 2e4 with b = 0.01
    xs, ys = big_stream(1e4, seed=0, T=4, d=4)
    yhats, _ = kernel_run(xs, ys, 0.01, c)
    assert rel_dev(yhats, mp_predictions(xs, ys, 0.01, c)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="known defect: at c <= sqrt(b max|x|^2) with "
                   "max|x|^2/b >> 1e8 the switch rule keeps the covariance form when the "
                   "largest input comes first, which is 5.2e-11 off the 50-digit run")
def test_largest_input_first_at_intermediate_forgetting():
    xs, ys = big_stream(1e6)
    xsq = np.einsum("td,td->t", xs, xs)
    first = int(np.argmax(xsq))
    order = np.r_[first, np.delete(np.arange(len(xs)), first)]
    xs, ys = xs[order], ys[order]
    b = 1.0
    c = 0.999 * math.sqrt(b * float(xsq[first]))
    yhats, _ = kernel_run(xs, ys, b, c)
    assert rel_dev(yhats, mp_predictions(xs, ys, b, c, dps=50)) <= 1e-12


def test_largest_input_first_at_moderate_forgetting_keeps_covariance_form():
    # the counter-case for switching on kappa > KAPPA_MAX alone: at b = 1,
    # c = 2e4 on the stream above today's rule keeps the covariance form, which
    # is about 3.5e-13 off the 50-digit run; the square-root form is 1.2e-11 off
    xs, ys = big_stream(1e6)
    first = int(np.argmax(np.einsum("td,td->t", xs, xs)))
    order = np.r_[first, np.delete(np.arange(len(xs)), first)]
    xs, ys = xs[order], ys[order]
    yhats, states = kernel_run(xs, ys, 1.0, 2e4)
    assert all(st_.sqrt_info is None for st_ in states)
    assert rel_dev(yhats, mp_predictions(xs, ys, 1.0, 2e4, dps=50)) <= 1e-12


def test_large_inputs_at_intermediate_forgetting():
    # c = sqrt(b max|x|^2): the state moves to square-root form at round 1
    xs, ys = big_stream(1e6)
    b = 1.0
    c = math.sqrt(b * float(np.max(np.einsum("td,td->t", xs, xs))))
    yhats, _ = kernel_run(xs, ys, b, c)
    assert rel_dev(yhats, mp_predictions(xs, ys, b, c, dps=50)) <= 1e-12


# -- hinf and CR-RLS members of the shared step loop ----------------------------

LOOP_TOL = 1e-12  # relative to the reference's max |yhat| (max |w| for weights)
LOOP_STREAMS = [gen_stream(DatasetSpec(kind=k, T=200, d=4, seed=s)) for k, s in zip("ACD", range(3))]


def normal_stream(seed, T=60, d=4):
    """Standard normal inputs and labels, on which the two-inverse
    transcriptions keep their digits (desk inputs reach |x|^2 ~ 1e3)."""
    rng = np.random.default_rng(seed)
    xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
    return LabeledStream(xs, ys, oracle.ComparatorSequence(np.zeros((T, d))))


def run_loop_members(algo, params, streams):
    """Every parameter set on every stream, all in one batch."""
    members = [(p, s) for p in params for s in streams]
    reports = harness.run_batch(algo, [p for p, _ in members], [s for _, s in members])
    return [(p, s, r) for (p, s), r in zip(members, reports)]


def within(got, ref):
    return float(np.max(np.abs(got - ref))) <= LOOP_TOL * float(np.max(np.abs(ref)))


def test_hinf_loop_members_match_direct_recursion():
    params = [
        {"a": 2.0, "b": 20.0, "c": 50.0},
        {"a": 2.0, "b": 50.0, "c": 20.0},      # b > c: the held P - I/c starts negative
        {"a": 8.0, "b": 500.0, "c": 500.0},    # b = c: it starts at zero
        {"a": 8.0, "b": 500.0, "c": math.inf},  # no refresh
    ]
    for p, stream, report in run_loop_members("hinf", params, LOOP_STREAMS):
        yhats, ws, _ = oracle.hinf_direct(stream.xs, stream.ys, **p)
        assert within(report.yhats, yhats), p
        assert within(report.post_update_w, ws), p


def mp_hinf(xs, ys, a, b, c, dps=40):
    """The covariance-form hinf round of hinf.py in dps-digit arithmetic:
    (predictions, post-update weights)."""
    with mpmath.workdps(dps):
        d = xs.shape[1]
        a, b, c = (mpmath.mpf(v) for v in (a, b, c))
        P = [[1 / b if i == j else mpmath.mpf(0) for j in range(d)] for i in range(d)]
        w = [mpmath.mpf(0)] * d
        yhats, ws = [], []
        for x_row, y in zip(xs, ys):
            x = [mpmath.mpf(float(v)) for v in x_row]
            Px = [mpmath.fsum(P[i][j] * x[j] for j in range(d)) for i in range(d)]
            s = 1 + (a - 1) * mpmath.fsum(x[i] * Px[i] for i in range(d))
            xw = mpmath.fsum(x[i] * w[i] for i in range(d))
            yhats.append(xw)
            # Ptilde = P - (a-1) Px Px^T / s, and a Ptilde x = a Px / s
            err = a * (mpmath.mpf(float(y)) - xw) / s
            w = [w[i] + Px[i] * err for i in range(d)]
            ws.append(w)
            P = [[P[i][j] - (a - 1) * Px[i] * Px[j] / s + (1 / c if i == j else 0)
                  for j in range(d)] for i in range(d)]
        return np.array([float(v) for v in yhats]), np.array([[float(v) for v in w] for w in ws])


def test_hinf_member_matches_40_digit_reference():
    # (a, b, c) = (32, 1, 1) sets the kernel suite's worst gap, against
    # oracle.hinf_direct, whose two inverses per round are about 1e-11 off
    # here; the learner itself is within a few eps of the 40-digit run
    stream = gen_stream(DatasetSpec(kind="C", T=200, d=4, seed=0))
    report = harness.run_learner("hinf", {"a": 32, "b": 1, "c": 1}, stream)
    yhats, ws = mp_hinf(stream.xs, stream.ys, 32, 1, 1)
    for got, ref in ((report.yhats, yhats), (report.post_update_w, ws)):
        assert float(np.max(np.abs(got - ref))) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))


def test_crrls_loop_members_match_two_inverse_reference(crrls_reference):
    params = [
        {"reset_period": 1, "b_reset": 2.0},
        {"reset_period": 7, "b_reset": 0.1},   # does not divide T
        {"reset_period": 50, "b_reset": 1.0},
        {"reset_period": 10**9, "b_reset": 1.0},
    ]
    for p, stream, report in run_loop_members("crrls", params, [normal_stream(s) for s in range(3)]):
        assert within(report.yhats, crrls_reference(stream.xs, stream.ys, **p)), p
