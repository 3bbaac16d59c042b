import numpy as np
import pytest

from driftlearn import hinf, linalg, oracle
from driftlearn.datagen import DatasetSpec, gen_stream
from driftlearn.errors import InvalidParams, LengthMismatch
from driftlearn.harness import run_learner


def test_init_literal_values():
    st = hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=2.0), 1)
    np.testing.assert_allclose(st.w, [0.0])
    np.testing.assert_allclose(st.P, [[1.0]])
    st = hinf.hinf_init(hinf.HInfParams(a=2.0, b=4.0, c=1.0), 2)
    np.testing.assert_allclose(st.P, 0.25 * np.eye(2))


def test_params_validation():
    with pytest.raises(InvalidParams):
        hinf.HInfParams(a=1.0, b=1.0, c=1.0)
    with pytest.raises(InvalidParams):
        hinf.HInfParams(a=2.0, b=0.0, c=1.0)
    with pytest.raises(InvalidParams):
        hinf.HInfParams(a=2.0, b=1.0, c=-1.0)


def test_step_hand_trace():
    st = hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=2.0), 1)
    yhat, st = hinf.hinf_step(st, [1.0], 1.0)
    assert yhat == 0.0
    assert st.w[0] == pytest.approx(1.0, abs=1e-14)   # 2 * 0.5 * 1 * 1
    assert st.P[0, 0] == pytest.approx(1.0, abs=1e-14)  # 0.5 + 0.5
    yhat, st = hinf.hinf_step(st, [1.0], 1.0)
    assert yhat == pytest.approx(1.0, abs=1e-12)


def test_step_zero_input():
    st = hinf.hinf_init(hinf.HInfParams(a=2.0, b=1.0, c=4.0), 2)
    w_before, P_before = st.w.copy(), st.P.copy()
    yhat, st = hinf.hinf_step(st, [0.0, 0.0], 17.0)
    assert yhat == 0.0
    np.testing.assert_allclose(st.w, w_before)
    np.testing.assert_allclose(st.P, P_before + np.eye(2) / 4.0, atol=1e-14)


def test_P_stays_above_refresh_floor():
    rng = np.random.default_rng(0)
    params = hinf.HInfParams(a=3.0, b=2.0, c=5.0)
    st = hinf.hinf_init(params, 3)
    for _ in range(100):
        _, st = hinf.hinf_step(st, rng.standard_normal(3), rng.standard_normal())
        lam_min = linalg.eig_extremes(st.P)[0]
        assert lam_min >= 1.0 / params.c - 1e-12


def test_filter_loss_values():
    comp = oracle.comparator_from_us(np.array([[0.5], [0.5]]))
    xs = np.array([[1.0], [1.0]])
    assert hinf.hinf_filter_loss(np.array([[0.5], [0.5]]), xs, comp) == 0.0
    assert hinf.hinf_filter_loss(np.array([[1.0], [1.0]]), xs, comp) == pytest.approx(0.5)
    with pytest.raises(LengthMismatch):
        hinf.hinf_filter_loss(np.array([[1.0]]), xs, comp)


def test_filter_loss_matches_naive_sum():
    rng = np.random.default_rng(1)
    T, d = 20, 3
    ws = rng.standard_normal((T, d))
    xs = rng.standard_normal((T, d))
    comp = oracle.comparator_from_us(rng.standard_normal((T, d)))
    naive = sum((xs[t] @ ws[t] - xs[t] @ comp.us[t]) ** 2 for t in range(T))
    assert hinf.hinf_filter_loss(ws, xs, comp) == pytest.approx(naive, rel=1e-12)


def test_optimized_alpha_undefined_for_realizable_data():
    params = hinf.HInfParams(a=2.0, b=1.0, c=1.0)
    assert hinf.optimized_alpha(params, 0.0, 1.0, 0.5) is None
    alpha = hinf.optimized_alpha(params, 4.0, 1.0, 0.5)
    assert alpha == pytest.approx(np.sqrt(4.0 / (2.0 * 4.0 + 1.0 * 0.5 + 1.0 * 1.0)))


def test_bounds_hold_at_certification_params_on_desk_streams():
    from driftlearn.suites import HINF_CERT

    for kind in "AC":
        stream = gen_stream(DatasetSpec(kind=kind, T=200, d=4, seed=0))
        report = run_learner("hinf", dict(HINF_CERT), stream)
        names = [b.name for b in report.bound_checks]
        assert "filter_error_bound" in names
        assert sum(n.startswith("regret_alpha_") for n in names) >= 5
        assert all(b.holds for b in report.bound_checks), names
        # noisy stream has positive comparator loss, so the optimized
        # alpha applies there; the noise-free one uses only the grid
        assert ("regret_alpha_opt" in names) == (kind == "C")


def test_stationary_sentinel_without_drift_gives_finite_bounds():
    # c V reads 0 at V = 0, so c = inf leaves every right side finite
    inf_c = {"a": 8.0, "b": 500.0, "c": float("inf")}
    for kind in "AC":
        stream = gen_stream(DatasetSpec(kind=kind, T=50, d=4, seed=0, rotation_rate=0.0))
        assert stream.truth.V == 0.0
        report = run_learner("hinf", inf_c, stream)
        assert all(np.isfinite(b.rhs) and b.holds for b in report.bound_checks)
        assert ("regret_alpha_opt" in [b.name for b in report.bound_checks]) == (kind == "C")


def test_stationary_sentinel_with_drift_has_no_optimized_alpha():
    params = hinf.HInfParams(a=8.0, b=500.0, c=float("inf"))
    assert hinf.optimized_alpha(params, 4.0, 1.0, 0.5) is None
    stream = gen_stream(DatasetSpec(kind="C", T=50, d=4, seed=0))
    assert stream.truth.V > 0.0
    report = run_learner("hinf", {"a": 8.0, "b": 500.0, "c": float("inf")}, stream)
    assert "regret_alpha_opt" not in [b.name for b in report.bound_checks]
    assert all(b.rhs == np.inf and b.holds for b in report.bound_checks)
