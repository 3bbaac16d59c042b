import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from driftlearn import laser, linalg, oracle, suites
from driftlearn.errors import (
    DomainError,
    LengthMismatch,
    RegimeViolation,
    SingularSystem,
    TooLarge,
)

# float.hex of brute_min_cost's value and argmin on pinned_streams(), (cases,
# worst.hex()) of three suites and a digest of the eigenvalue map on the
# scalar-map grid, all written by the code before brute_min_cost and the
# scalar-map suite moved to array operations
PINS = json.loads((Path(__file__).parent / "data" / "oracle_pins.json").read_text())


def test_brute_min_cost_two_step_closed_form():
    # stationarity system: 8u1 - 4u2 = 2, 6u2 - 4u1 = 1 => u = (0.5, 0.5)
    xs = np.array([[1.0], [1.0]])
    ys = np.array([1.0, 0.5])
    value, comp = oracle.brute_min_cost(xs, ys, 1.0, 2.0)
    assert value == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(comp.us, [[0.5], [0.5]], atol=1e-12)


def test_brute_min_cost_zero_labels():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((6, 3))
    value, comp = oracle.brute_min_cost(xs, np.zeros(6), 0.5, 2.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(comp.us, np.zeros((6, 3)), atol=1e-12)


def test_brute_min_cost_huge_c_collapses_to_ridge():
    rng = np.random.default_rng(1)
    T, d = 3, 2
    xs = rng.standard_normal((T, d))
    ys = rng.standard_normal(T)
    b = 1.3
    value, comp = oracle.brute_min_cost(xs, ys, b, 1e12)
    spread = np.max(np.abs(comp.us - comp.us[0]))
    assert spread <= 1e-5
    # independent single-u ridge solve; allowing per-step motion can only
    # lower the optimum, and at c = 1e12 the slack is O(1e-5)
    A = b * np.eye(d) + xs.T @ xs
    g = xs.T @ ys
    u = np.linalg.solve(A, g)
    ridge_value = float(ys @ ys - g @ u)
    assert value <= ridge_value + 1e-10
    assert value == pytest.approx(ridge_value, abs=1e-4)


def test_brute_min_cost_budget_guard():
    with pytest.raises(TooLarge):
        oracle.brute_min_cost(np.zeros((500, 5)), np.zeros(500), 1.0, 2.0)


def pinned_streams():
    """The streams of PINS["brute"]: standard normal ones at T in {1, 2, 20}
    and d in {1, 4, 5}, then one with zero labels and one whose inputs are
    all zero, of both signs."""
    for T in (1, 2, 20):
        for d in (1, 4, 5):
            rng = np.random.default_rng(100 * T + d)
            yield f"T{T}-d{d}", rng.standard_normal((T, d)), rng.standard_normal(T)
    rng = np.random.default_rng(7)
    yield "zero-labels", rng.standard_normal((20, 4)), np.zeros(20)
    xs = np.zeros((20, 4))
    xs[::2] = -0.0
    yield "zero-inputs", xs, rng.standard_normal(20)


def test_brute_min_cost_pinned_bits():
    b, c = PINS["brute_b_c"]
    names = []
    for name, xs, ys in pinned_streams():
        value, comp = oracle.brute_min_cost(xs, ys, b, c)
        assert value.hex() == PINS["brute"][name]["value"], name
        assert [u.hex() for u in comp.us.ravel().tolist()] == PINS["brute"][name]["argmin"], name
        names.append(name)
    assert names == list(PINS["brute"])


def loop_normal_equations(xs, ys, b, c):
    """The stacked normal equations assembled block by block: the order of
    additions brute_min_cost reproduces entry for entry."""
    T, d = xs.shape
    H, g, I = np.zeros((T * d, T * d)), np.zeros(T * d), np.eye(d)
    for s in range(T):
        blk = slice(s * d, (s + 1) * d)
        H[blk, blk] += np.outer(xs[s], xs[s])
        g[blk] = ys[s] * xs[s]
    H[:d, :d] += b * I
    for s in range(T - 1):
        lo, hi = slice(s * d, (s + 1) * d), slice((s + 1) * d, (s + 2) * d)
        H[lo, lo] += c * I
        H[hi, hi] += c * I
        H[lo, hi] -= c * I
        H[hi, lo] -= c * I
    return H, g


def test_brute_min_cost_solves_the_loop_assembly_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        T, d = int(rng.integers(1, 21)), int(rng.integers(1, 6))
        xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
        xs[rng.random((T, d)) < 0.2] = -0.0  # signed zeros in x_s x_s^T
        b, c = rng.uniform(0.1, 10.0, size=2).tolist()
        H, g = loop_normal_equations(xs, ys, b, c)
        u = linalg._cho_solve(linalg._cholesky(H), g)
        value, comp = oracle.brute_min_cost(xs, ys, b, c)
        assert value.hex() == float(ys @ ys - g @ u).hex()
        assert comp.us.tobytes() == u.reshape(T, d).tobytes()


PINNED_SUITES = {
    "scalar_map_suite()": lambda: suites.scalar_map_suite(),
    "oracle_equivalence_suite(50, 3)": lambda: suites.oracle_equivalence_suite(50, 3),
    "comparator_bound_suite(T=40, seeds=(0, 1))":
        lambda: suites.comparator_bound_suite(T=40, seeds=(0, 1)),
}


@pytest.mark.parametrize("call", PINNED_SUITES)
def test_suite_pinned_bits(call):
    result = PINNED_SUITES[call]()
    assert [result.cases, result.worst.hex()] == PINS["suites"][call]


def test_brute_min_cost_unsolvable_systems_are_singular_system():
    # b is lost next to c = 2**1000, leaving [[c, -c], [-c, c]]: the factorization fails
    with pytest.raises(SingularSystem, match="potrf"):
        oracle.brute_min_cost(np.zeros((2, 1)), np.ones(2), 1.0, 2.0**1000)
    # x x^T overflows to inf
    with np.errstate(over="ignore"), pytest.raises(SingularSystem, match="overflowed"):
        oracle.brute_min_cost(np.array([[1e200, 1e200]]), np.ones(1), 1.0, 2.0)


def test_brute_minimizer_first_order_stationarity():
    # analytic gradient at the minimizer is ~0; the analytic gradient is
    # itself cross-checked against central finite differences
    rng = np.random.default_rng(2)
    for _ in range(20):
        T = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        xs = rng.standard_normal((T, d))
        ys = rng.standard_normal(T)
        b, c = rng.uniform(0.1, 5.0), rng.uniform(0.2, 8.0)
        value, comp = oracle.brute_min_cost(xs, ys, b, c)
        g = oracle.tracking_cost_gradient(comp.us, xs, ys, b, c)
        rhs_norm = np.linalg.norm((ys[:, None] * xs).reshape(-1))
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + rhs_norm)

        # finite-difference check of the gradient at a random point
        us = rng.standard_normal((T, d))
        g = oracle.tracking_cost_gradient(us, xs, ys, b, c)
        h = 1e-6
        flat = us.reshape(-1).copy()
        for idx in rng.choice(T * d, size=min(3, T * d), replace=False):
            up, dn = flat.copy(), flat.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (
                oracle.tracking_cost(up.reshape(T, d), xs, ys, b, c)
                - oracle.tracking_cost(dn.reshape(T, d), xs, ys, b, c)
            ) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_brute_value_matches_direct_cost_at_minimizer():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((8, 2))
    ys = rng.standard_normal(8)
    value, comp = oracle.brute_min_cost(xs, ys, 0.8, 3.0)
    assert value == pytest.approx(oracle.tracking_cost(comp.us, xs, ys, 0.8, 3.0), abs=1e-10)
    # a constant comparator pays no drift penalty, even at c = inf
    still = np.tile(comp.us[:1], (8, 1))
    cost = oracle.tracking_cost(still, xs, ys, 0.8, 3.0)
    assert oracle.tracking_cost(still, xs, ys, 0.8, math.inf) == cost


def test_comparator_bookkeeping():
    us = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    comp = oracle.ComparatorSequence(us)
    assert comp.V == pytest.approx(2.0)
    with pytest.raises(TypeError):  # V is computed from us, never given
        oracle.ComparatorSequence(us=us, V=5.0)


def test_comparator_loss_perfect_and_mismatched_lengths():
    xs = np.array([[1.0], [2.0]])
    us = np.array([[0.5], [0.5]])
    comp = oracle.ComparatorSequence(us)
    ys = np.einsum("td,td->t", xs, us)
    assert oracle.comparator_loss(comp, xs, ys) == 0.0
    with pytest.raises(LengthMismatch):
        oracle.comparator_loss(comp, xs[:1], ys[:1])


# ---------------------------------------------------------------------------
# per-step regret certificate
# ---------------------------------------------------------------------------

def test_certificate_scalar_case():
    gap = oracle.regret_certificate_gap(np.array([[2.0]]), [1.0], 2.0)
    assert gap == pytest.approx(-0.0625, abs=1e-12)
    exact = oracle.regret_certificate_exact(np.array([[2.0]]), [1.0], 2.0)
    assert exact[0, 0] == pytest.approx(-0.0625, abs=1e-12)


def test_certificate_zero_input_collapses():
    gap = oracle.regret_certificate_gap(np.diag([2.0, 0.5]), [0.0, 0.0], 2.0)
    assert abs(gap) <= 1e-12


def test_certificate_randomized_and_closed_form_agree():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d))
        D = M @ M.T + rng.uniform(0.05, 2.0) * np.eye(d)
        x = rng.standard_normal(d)
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        gap = oracle.regret_certificate_gap(D, x, c)
        assert gap <= 1e-10
        exact_gap = linalg.eig_extremes(oracle.regret_certificate_exact(D, x, c))[1]
        assert gap == pytest.approx(exact_gap, abs=1e-9)


# ---------------------------------------------------------------------------
# cumulative-loss bound and log-det inequality
# ---------------------------------------------------------------------------

def test_cumloss_bound_single_step_equality_case():
    # one round (x, y) = (1, 1), b = 1, c = 2: the learner predicts 0 and
    # loses 1; against u = 0.5 with Y = 1 the bound is exactly 1.0
    comp = oracle.ComparatorSequence(np.array([[0.5]]))
    closs = oracle.comparator_loss(comp, [[1.0]], [1.0])
    rhs = oracle.cumloss_bound(comp, closs, 1.0, 2.0, 1.0, [0.5])
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_cumloss_bound_zero_label_stream():
    comp = oracle.ComparatorSequence(np.zeros((4, 2)))
    quad = [0.3, 0.2, 0.1, 0.05]
    closs = oracle.comparator_loss(comp, np.zeros((4, 2)), np.zeros(4))
    rhs = oracle.cumloss_bound(comp, closs, 1.0, 2.0, 1.0, quad)
    assert rhs == pytest.approx(sum(quad))


def test_cumloss_bound_against_brute_optimal_comparator():
    rng = np.random.default_rng(5)
    T, d, b, c = 12, 2, 0.7, 3.0
    xs = rng.standard_normal((T, d))
    ys = rng.standard_normal(T)
    params = laser.LaserParams(b=b, c=c)
    state = laser.laser_init(params, d)
    yhats, quads = [], []
    for t in range(T):
        yhat, step = laser.laser_predict(state, xs[t])
        state = laser.laser_update(state, xs[t], ys[t], step=step)
        yhats.append(yhat)
        quads.append(state.last_x_quad)
    L = float(np.sum((ys - np.array(yhats)) ** 2))
    _, best = oracle.brute_min_cost(xs, ys, b, c)
    Y = float(np.max(np.abs(ys)))
    rhs = oracle.cumloss_bound(best, oracle.comparator_loss(best, xs, ys), b, c, Y, quads)
    assert L <= rhs + 1e-6


def test_logdet_bound_hand_and_empty_cases():
    # T=1, b=1, c=2: quad = 0.5, rhs = ln 2 + 0.5 * Tr(D0) = ln 2 + 1
    D0 = np.array([[2.0]])
    D1 = np.array([[2.0]])
    lhs, rhs = oracle.logdet_bound_sides([0.5], [D0, D1], 1.0, 2.0)
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)

    lhs, rhs = oracle.logdet_bound_sides([], [D0], 1.0, 2.0)
    assert lhs == 0.0
    assert rhs == pytest.approx(math.log(2.0), abs=1e-12)
    assert lhs <= rhs


def test_logdet_bound_random_trajectories():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        b = rng.uniform(0.2, 2.0)
        c = b + rng.uniform(0.5, 20.0)
        params = laser.LaserParams(b=b, c=c)
        state = laser.laser_init(params, d)
        D_traj = [state.D]
        quads = []
        for t in range(50):
            x = rng.standard_normal(d)
            state = laser.laser_update(state, x, rng.standard_normal())
            quads.append(state.last_x_quad)
            D_traj.append(state.D)
        lhs, rhs = oracle.logdet_bound_sides(quads, D_traj, b, c)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# eigenvalue map and drift-tuned formulas
# ---------------------------------------------------------------------------

def test_eigenvalue_step_map_values_and_domain():
    assert oracle.eigenvalue_step_map(0.0, 5.0, 0.7, 1.0) == pytest.approx(0.7)
    assert oracle.eigenvalue_step_map(2.0, 2.0, 1.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        oracle.eigenvalue_step_map(-1.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        oracle.eigenvalue_step_map(1.0, 1.0, 2.0, 1.0)  # xsq above gammasq
    with pytest.raises(DomainError, match="xsq=3.0 exceeds gammasq=1.0"):
        oracle.eigenvalue_step_map(np.array([1.0, 2.0]), 1.0, np.array([0.5, 3.0]), 1.0)
    with pytest.raises(DomainError, match="non-negative"):
        oracle.eigenvalue_step_map(np.array([1.0, -2.0]), 1.0, 0.5, 1.0)


@pytest.mark.parametrize("position", range(4))
def test_eigenvalue_step_map_refuses_nan(position):
    args = [1.0, 2.0, 0.5, 1.0]
    args[position] = math.nan
    with pytest.raises(DomainError, match="NaN"):
        oracle.eigenvalue_step_map(*args)
    arrays = [np.full(3, a) for a in (1.0, 2.0, 0.5, 1.0)]
    arrays[position][1] = math.nan
    with pytest.raises(DomainError, match="NaN"):
        oracle.eigenvalue_step_map(*arrays)


def test_eigenvalue_step_map_array_form_is_the_scalar_form_bit_for_bit():
    # every point of the scalar-map suite's grid, in its order
    lams = betas = np.linspace(0.0, 100.0, 25)
    scalar = np.array([oracle.eigenvalue_step_map(lam, beta, xsq, g)
                       for g in (0.5, 1.0, 4.0) for beta in betas.tolist()
                       for lam in lams.tolist() for xsq in np.linspace(0.0, g, 6).tolist()])
    assert hashlib.sha256(scalar.tobytes()).hexdigest() == PINS["scalar_map_grid_sha256"]
    arrays = [oracle.eigenvalue_step_map(lams[:, None], betas[:, None, None],
                                         np.linspace(0.0, g, 6), g) for g in (0.5, 1.0, 4.0)]
    assert np.concatenate([f.ravel() for f in arrays]).tobytes() == scalar.tobytes()
    # the lam + beta = 0 corner returns xsq itself, sign of zero included
    assert math.copysign(1.0, oracle.eigenvalue_step_map(0.0, 0.0, -0.0, 1.0)) == -1.0


def test_bound_inputs_derived_quantities():
    bi = oracle.BoundInputs(Y=2.0, X=3.0, b=4.0, c=8.0, d=5, T=100)
    Xsq = 9.0
    assert bi.mu == pytest.approx(max(9 / 8 * Xsq, (4.0 + Xsq) ** 2 / (8 * Xsq)))
    assert bi.M == pytest.approx(max(3 * Xsq, 4.0 + Xsq))
    assert bi.eps_ratio == pytest.approx(0.5)


def test_tuned_c_low_drift_worked_example():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.5, c=1.0, d=1, T=1000)
    c = oracle.tuned_c(oracle.DriftRegime.LOW, bi, 1.0)
    assert c == pytest.approx((math.sqrt(2.0) * 1000) ** (2.0 / 3.0))
    assert c == pytest.approx(126.0, abs=0.05)


def test_tuned_c_boundary_identity():
    bi = oracle.BoundInputs(Y=1.5, X=2.0, b=1.0, c=3.0, d=4, T=500)
    V_thr = oracle.low_drift_threshold(bi)
    assert oracle.tuned_c(oracle.DriftRegime.LOW, bi, V_thr) == pytest.approx(bi.mu, rel=1e-12)


def test_tuned_c_zero_drift_points_to_stationary():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.5, c=1.0, d=1, T=100)
    with pytest.raises(RegimeViolation, match="inf"):
        oracle.tuned_c(oracle.DriftRegime.LOW, bi, 0.0)


def test_tuned_c_regime_violations_report_thresholds():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.5, c=1.0, d=1, T=100)
    low_thr = oracle.low_drift_threshold(bi)
    with pytest.raises(RegimeViolation, match="threshold"):
        oracle.tuned_c(oracle.DriftRegime.LOW, bi, 2 * low_thr)
    high_thr = oracle.high_drift_threshold(bi)
    with pytest.raises(RegimeViolation, match="threshold"):
        oracle.tuned_c(oracle.DriftRegime.HIGH, bi, 0.5 * high_thr)


def test_tuned_c_high_drift_formula():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.5, c=1.0, d=2, T=100)
    V = 2 * oracle.high_drift_threshold(bi)
    c = oracle.tuned_c(oracle.DriftRegime.HIGH, bi, V)
    assert c == pytest.approx(math.sqrt(bi.Y**2 * bi.d * bi.M * bi.T / V))


def test_tuned_params_fixed_point_consistency():
    inputs = oracle.tuned_params(
        oracle.DriftRegime.LOW, T=200, d=4, Y=20.0, X=30.0, V=5.0, eps_ratio=0.1
    )
    assert inputs.b == pytest.approx(0.1 * inputs.c)
    # returned c satisfies the regime formula under its own mu
    assert oracle.tuned_c(oracle.DriftRegime.LOW, inputs, 5.0) == pytest.approx(inputs.c)


def test_drift_tuned_bound_zero_labels_reduces_to_offsets():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.2, c=2.0, d=3, T=50)
    V = 0.5 * oracle.low_drift_threshold(bi)
    ld = 0.9
    rhs = oracle.drift_tuned_bound(oracle.DriftRegime.LOW, bi, V, 0.0, 0.0, ld)
    eps = bi.eps_ratio
    drift_term = 3 * (math.sqrt(2) * bi.Y**2 * bi.d * bi.X) ** (2 / 3) * bi.T ** (2 / 3) * V ** (1 / 3)
    assert rhs == pytest.approx(eps / (1 - eps) * bi.Y**2 * bi.d + bi.Y**2 * ld + drift_term)
    assert rhs >= 0.0


def test_drift_tuned_bound_rejects_out_of_regime():
    bi = oracle.BoundInputs(Y=1.0, X=1.0, b=0.2, c=2.0, d=3, T=50)
    with pytest.raises(RegimeViolation):
        oracle.drift_tuned_bound(
            oracle.DriftRegime.LOW, bi, 10 * oracle.low_drift_threshold(bi), 0.0, 0.0, 0.0
        )
