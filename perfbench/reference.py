"""Plain-NumPy reference recursions for the benchmark's correctness gate.

The benchmark is run on seeds nobody has seen before, so its reference
values cannot all be stored: it recomputes them here, from the learners'
defining recursions, without calling driftlearn. These transcriptions use
LU solves (np.linalg.solve) and a Sherman-Morrison step where driftlearn
uses Cholesky factorizations and explicit inverses, so agreement is a
check of the arithmetic, not of shared code.

Each ``*_predictions`` returns the predictions yhat_1..yhat_T of the
strict predict-then-reveal protocol; ``learner_loss`` sums their squared
errors into the cumulative loss L_T.
"""

import math

import numpy as np


def laser_predictions(xs, ys, b, c):
    """LASER: D_0 = (bc/(c-b)) I, D_t = (D^{-1} + I/c)^{-1} + x x^T,
    e_t = (I + D/c)^{-1} e + y x, yhat = x^T D_t^{-1} (I + D/c)^{-1} e."""
    d = xs.shape[1]
    eye = np.eye(d)
    stationary = math.isinf(c)
    D = (b if stationary else b * c / (c - b)) * eye
    e = np.zeros(d)
    yhats = np.empty(len(ys))
    for t, (x, y) in enumerate(zip(xs, ys)):
        if stationary:
            blend, decayed = D, e
        else:
            sol = np.linalg.solve(eye + D / c, np.column_stack([D, e]))
            blend, decayed = sol[:, :d], sol[:, d]
        D = blend + np.outer(x, x)
        D = 0.5 * (D + D.T)
        yhats[t] = np.linalg.solve(D, x) @ decayed
        e = decayed + y * x
    return yhats


def hinf_predictions(xs, ys, a, b, c):
    """H-infinity filter: yhat = x.w, P~ = (P^{-1} + (a-1) x x^T)^{-1}
    (by Sherman-Morrison), w += a P~ x (y - yhat), P = P~ + I/c."""
    d = xs.shape[1]
    eye = np.eye(d)
    P = eye / b
    w = np.zeros(d)
    yhats = np.empty(len(ys))
    for t, (x, y) in enumerate(zip(xs, ys)):
        yhats[t] = yhat = x @ w
        Px = P @ x
        P_tilde = P - (a - 1.0) * np.outer(Px, Px) / (1.0 + (a - 1.0) * (x @ Px))
        w = w + a * (y - yhat) * (P_tilde @ x)
        P = P_tilde + eye / c
    return yhats


def aar_predictions(xs, ys, b):
    """Forward ridge: yhat = x^T (b I + sum x x^T incl. x_t)^{-1} sum y x."""
    d = xs.shape[1]
    A = b * np.eye(d)
    r = np.zeros(d)
    yhats = np.empty(len(ys))
    for t, (x, y) in enumerate(zip(xs, ys)):
        A = A + np.outer(x, x)
        yhats[t] = x @ np.linalg.solve(A, r)
        r = r + y * x
    return yhats


def nlms_predictions(xs, ys, eta, eps=0.0):
    """NLMS: yhat = x.w, w += eta (y - yhat) x / (eps + |x|^2)."""
    w = np.zeros(xs.shape[1])
    yhats = np.empty(len(ys))
    for t, (x, y) in enumerate(zip(xs, ys)):
        yhats[t] = yhat = x @ w
        denom = eps + x @ x
        if denom > 0.0:
            w = w + eta * (y - yhat) * x / denom
    return yhats


def crrls_predictions(xs, ys, reset_period, b_reset):
    """RLS with P reset to I / b_reset after every reset_period steps."""
    d = xs.shape[1]
    P = np.eye(d) / b_reset
    w = np.zeros(d)
    yhats = np.empty(len(ys))
    for t, (x, y) in enumerate(zip(xs, ys)):
        yhats[t] = yhat = x @ w
        Px = P @ x
        P = P - np.outer(Px, Px) / (1.0 + x @ Px)
        w = w + (P @ x) * (y - yhat)
        if (t + 1) % reset_period == 0:
            P = np.eye(d) / b_reset
    return yhats


def learner_predictions(algo, params, xs, ys):
    """Reference predictions of one learner with a sweep- or CLI-style params dict."""
    if algo == "laser":
        return laser_predictions(xs, ys, float(params["b"]), float(params["c"]))
    if algo == "hinf":
        return hinf_predictions(xs, ys, float(params["a"]), float(params["b"]),
                                float(params["c"]))
    if algo == "aar":
        return aar_predictions(xs, ys, float(params["b"]))
    if algo == "nlms":
        return nlms_predictions(xs, ys, float(params["eta"]), float(params.get("eps", 0.0)))
    if algo == "crrls":
        return crrls_predictions(xs, ys, int(params["reset_period"]), float(params["b_reset"]))
    raise ValueError(f"no reference for learner {algo!r}")


def learner_loss(yhats, ys):
    """L_T = sum_t (y_t - yhat_t)^2."""
    return float(np.sum((ys - yhats) ** 2))


def hinf_regret_ceiling(params, alpha, xs, ys, us):
    """Prediction-loss ceiling of the H-infinity filter for one alpha:
    (1 + 1/alpha + (1+alpha) a) L_u + (1+alpha)(b |u_1|^2 + c V), or None
    for alpha = "opt" when the optimized alpha is undefined."""
    a, b, c = float(params["a"]), float(params["b"]), float(params["c"])
    loss_u = float(np.sum((ys - np.einsum("td,td->t", xs, us)) ** 2))
    u1sq = float(us[0] @ us[0])
    V = float(np.sum(np.diff(us, axis=0) ** 2))
    if alpha == "opt":
        denom = a * loss_u + c * V + b * u1sq
        if loss_u <= 0.0 or denom <= 0.0:
            return None
        alpha = math.sqrt(loss_u / denom)
    return (1.0 + 1.0 / alpha + (1.0 + alpha) * a) * loss_u + (1.0 + alpha) * (b * u1sq + c * V)


def calibration(d):
    """A fixed kernel of about 20 ms that shares no code with driftlearn:
    the reference laser and hinf recursions on a constant stream of
    dimension d. Timed between the parts of a rep, it tracks the speed of
    the CPU the benchmark runs on."""
    rng = np.random.default_rng(20130315)
    T = {4: 300, 20: 150}.get(d, 30)
    xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)

    def kernel():
        laser_predictions(xs, ys, 1.0, 100.0)
        hinf_predictions(xs, ys, 8.0, 500.0, 500.0)

    return kernel
