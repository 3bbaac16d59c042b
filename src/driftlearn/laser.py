"""Last-step min-max regressor for drifting linear targets (LASER).

The learner minimizes, online, the penalized offline tracking cost

    cost_t(u_1..u_t) = b ||u_1||^2 + c sum_s ||u_{s+1} - u_s||^2
                       + sum_s (y_s - u_s . x_s)^2

and predicts with the last-step min-max optimum. Its defining recursions
are stated in sufficient statistics (D_t, e_t, f_t); `oracle.laser_direct`
transcribes them literally and is the trusted reference for this module.

The learner runs them in covariance form, P = D^{-1} and w = D^{-1} e.
Written that way it is a random-walk Kalman step with a last-step
shrinkage of the prediction. One round, with no factorization:

    P' = P + I/c                      (skipped at c = inf)
    s  = 1 + x^T P' x
    yhat = (x . w) / s
    P  <- P' - (P'x)(P'x)^T / s
    w  <- w + P'x (y - x . w) / s
    min cost += (y - x . w)^2 / s     (only with track_f)

from P_0 = (1/b - 1/c) I and w_0 = 0. x^T D_t^{-1} x = (s - 1)/s is kept for
the bound checks. Rounding leaves P exactly symmetric: the rank-one term is
formed as g g^T with g = P'x / sqrt(s).

c = math.inf is a first-class stationary sentinel: the inflation vanishes
and the learner is the forward ridge (AAR) recursion, P_0 = I/b.

Accuracy. The downdate cancels digits when a round shrinks P far below
its prior scale 1/b: on long streams predictions lose about eps * kappa
relative, with kappa = min(X, c) / b and X = max_t |x_t|^2. The information
form, which keeps D and e and solves with D (two Cholesky factorizations a
round, four with drift), has the opposite weakness: its I + D/c solves lose
about eps * X / c. A state therefore starts in covariance form and moves,
once and for good, to information form as soon as the inputs seen so far
put kappa above both KAPPA_MAX and X/c. Two regions stay inexact in both
forms, as in `oracle.laser_direct`: kappa >> KAPPA_MAX while some direction
of D still sits at the prior scale b (streams shorter than d), where the
information form loses about eps * kappa; and c near sqrt(b X) with
X/b >> 1e8, where both lose about eps * sqrt(X/b).

`laser_trajectory` runs a whole stream. When a bound needs the spectrum of
D_t it takes it from one eigvalsh per step: of D_t, or of P_t, since
lambda(D) = 1/lambda(P).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import FNotTracked, InvalidParams, NotPositiveDefinite

# largest kappa = min(X, c)/b at which the covariance form is kept regardless
# of X/c; its predictions then stay within a few 1e-13 relative
KAPPA_MAX = 1e4


@dataclass(frozen=True)
class LaserParams:
    """Learner hyperparameters: 0 < b < c, with c = math.inf allowed."""

    b: float
    c: float = math.inf
    track_f: bool = False
    clip_bound: float | None = None

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise InvalidParams(f"b must be a positive finite real, got {self.b}")
        if not self.b < self.c:
            raise InvalidParams(f"requires 0 < b < c, got b={self.b}, c={self.c}")
        if self.clip_bound is not None and not self.clip_bound > 0:
            raise InvalidParams(f"clip_bound must be positive, got {self.clip_bound}")

    @property
    def stationary(self) -> bool:
        return math.isinf(self.c)

    @property
    def inflation(self) -> float:
        """1/c, the per-round growth of P; 0 for the stationary sentinel."""
        return 0.0 if self.stationary else 1.0 / self.c

    def covariance_holds(self, max_xsq: float) -> bool:
        """Whether the covariance form is the more accurate one after inputs
        with max |x|^2 = max_xsq (see the module docstring)."""
        kappa = min(max_xsq, self.c) / self.b
        return kappa <= max(KAPPA_MAX, max_xsq * self.inflation)


class Information(NamedTuple):
    """Information-form statistics: D_t and e_t."""

    D: np.ndarray
    e: np.ndarray


@dataclass(slots=True)
class LaserState:
    """The learner after t observed rounds.

    w = D_t^{-1} e_t in both forms. In covariance form cov holds
    P = D_t^{-1} and info is None; in information form cov is None and info
    holds (D_t, e_t). min_cost is the minimum of the tracking cost over the
    observed prefix (kept only with track_f); max_xsq is the largest |x|^2
    seen. last_x_quad records the most recent x_t^T D_t^{-1} x_t for bound
    diagnostics. P, D, e and f are derived for tests and diagnostics; the
    ones the form does not hold cost a factorization per access.
    """

    params: LaserParams
    w: np.ndarray
    cov: np.ndarray | None
    info: Information | None
    max_xsq: float
    min_cost: float
    t: int
    last_x_quad: float = 0.0

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def P(self) -> np.ndarray:
        return self.cov if self.info is None else linalg.spd_inverse(self.info.D)

    @property
    def D(self) -> np.ndarray:
        return linalg.spd_inverse(self.cov) if self.info is None else self.info.D

    @property
    def e(self) -> np.ndarray:
        return linalg.spd_solve(self.cov, self.w) if self.info is None else self.info.e

    @property
    def f(self) -> float:
        """f_t = min cost + e_t^T D_t^{-1} e_t; 0 without track_f."""
        if not self.params.track_f:
            return 0.0
        return self.min_cost + float(self.e @ self.w)


class LaserStep(NamedTuple):
    """What laser_predict computed for one input, reused by laser_update."""

    x: np.ndarray         # the validated input
    q: float              # x^T P' x, with P' = P + I/c; s = 1 + q
    xw: float             # x . w
    max_xsq: float        # max |x|^2 including this input
    Px: np.ndarray | None  # P' x, in covariance form
    info: Information | None  # the statistics to update, in information form


def clip(x: float, y: float) -> float:
    """sign(x) * min(|x|, y)."""
    return math.copysign(min(abs(x), y), x)


def laser_init(params: LaserParams, d: int) -> LaserState:
    """Fresh state: P = (1/b - 1/c) I (I/b when c is infinite), w = 0."""
    if d < 1:
        raise InvalidParams(f"d must be >= 1, got {d}")
    if params.stationary:
        p0 = 1.0 / params.b
    else:
        p0 = (params.c - params.b) / (params.b * params.c)
    return LaserState(params, np.zeros(d), p0 * np.eye(d), None, 0.0, 0.0, 0)


def _innovation(state: LaserState, x: np.ndarray) -> LaserStep:
    params = state.params
    info = state.info
    max_xsq = state.max_xsq
    xsq = float(x @ x)
    if xsq > max_xsq:
        max_xsq = xsq
        if info is None and not params.covariance_holds(xsq):
            D = linalg.spd_inverse(state.cov)
            info = Information(D, D @ state.w)
    inflation = params.inflation
    if info is None:
        Px = state.cov @ x
        if inflation:
            Px = Px + inflation * x
        q = float(x @ Px)
    else:
        Px = None
        q = float(x @ linalg.spd_solve(info.D, x)) + xsq * inflation
    if not math.isfinite(q):  # x is finite, so x^T P' x overflowed
        raise ValueError(f"x^T P' x is not finite (q = {q})")
    return LaserStep(x, q, float(x @ state.w), max_xsq, Px, info)


def _predict(state: LaserState, x: np.ndarray) -> tuple[float, LaserStep]:
    step = _innovation(state, x)
    yhat = step.xw / (1.0 + step.q)
    if state.params.clip_bound is not None:
        yhat = clip(yhat, state.params.clip_bound)
    return yhat, step


def _commit(state: LaserState, y: float, step: LaserStep) -> LaserState:
    params = state.params
    inflation = params.inflation
    x, q, xw, max_xsq, Px, info = step
    s = 1.0 + q
    err = y - xw
    min_cost = state.min_cost + err * err / s if params.track_f else 0.0
    if info is None:
        g = Px * (1.0 / math.sqrt(s))
        P = state.cov - g[:, None] * g
        if inflation:
            P.ravel()[:: P.shape[0] + 1] += inflation
        w = state.w + Px * (err / s)
    else:
        D, e = info
        if inflation:  # D' = (I + D/c)^{-1} D, e' = (I + D/c)^{-1} e
            F = np.eye(D.shape[0]) + D * inflation
            D = linalg.symmetrize(linalg.spd_solve_matrix(F, D))
            e = linalg.spd_solve(F, e)
        D = D + x[:, None] * x
        e = e + y * x
        w = linalg.spd_solve(D, e)
        info = Information(D, e)
        P = None
    return LaserState(params, w, P, info, max_xsq, min_cost, state.t + 1, q / s)


def laser_predict(state: LaserState, x) -> tuple[float, LaserStep]:
    """Last-step min-max prediction for input x.

    Returns (yhat, step); pass step to laser_update for this same x to
    avoid recomputing it.
    """
    return _predict(state, linalg.as_vector(x, state.dim))


def laser_update(state: LaserState, x, y: float, step: LaserStep | None = None) -> LaserState:
    """Commit the round: fold (x, y) into the state.

    step, if given, must be the one laser_predict returned for this same
    x; x is then not read again. When omitted it is recomputed.
    """
    if step is None:
        step = _innovation(state, linalg.as_vector(x, state.dim))
    return _commit(state, y, step)


def laser_round(state: LaserState, x, y: float) -> tuple[float, LaserState]:
    """Predict for x, then commit (x, y): laser_predict and laser_update in
    one call."""
    yhat, step = _predict(state, linalg.as_vector(x, state.dim))
    return yhat, _commit(state, y, step)


def laser_min_cost(state: LaserState) -> float:
    """Minimum of the offline tracking cost over all comparator sequences
    for the observed prefix, f_t - e_t^T D_t^{-1} e_t, accumulated in
    innovation form.

    Requires track_f and at least one committed round.
    """
    if not state.params.track_f:
        raise FNotTracked("enable track_f to evaluate the offline optimum")
    if state.t < 1:
        raise ValueError("no rounds committed yet")
    return state.min_cost


def d_spectrum(state: LaserState) -> tuple[float, float, float]:
    """(Tr D, lambda_max D, ln det D) of the state's D_t, from one eigvalsh
    of D_t or, in covariance form, of P_t = D_t^{-1}."""
    M = state.cov if state.info is None else state.info.D
    lam = np.linalg.eigvalsh(M)
    if not lam[0] > 0.0:
        raise NotPositiveDefinite(f"state lost definiteness: lambda_min = {lam[0]:.3e}")
    if state.info is None:
        return float(np.sum(1.0 / lam)), float(1.0 / lam[0]), float(-np.sum(np.log(lam)))
    return float(np.sum(lam)), float(lam[-1]), float(np.sum(np.log(lam)))


@dataclass(frozen=True)
class LaserTrajectory:
    """One pass of the learner over a stream.

    yhats and quads (x_t^T D_t^{-1} x_t) have one entry per round. With
    spectra, trace_D, lam_max_D and logdet_D hold Tr D_t, lambda_max D_t
    and ln det D_t for t = 0..T; otherwise they are None.
    """

    yhats: np.ndarray
    quads: np.ndarray
    state: LaserState
    trace_D: np.ndarray | None = None
    lam_max_D: np.ndarray | None = None
    logdet_D: np.ndarray | None = None


def laser_trajectory(params: LaserParams, xs, ys, spectra: bool = False) -> LaserTrajectory:
    """Run the learner over the stream (xs, ys) under the online protocol.

    xs is a (T, d) array and ys a (T,) array. Memory is O(T + d^2): no
    per-step matrix is kept.
    """
    T, d = xs.shape
    state = laser_init(params, d)
    yhats = np.empty(T)
    quads = np.empty(T)
    spec = np.empty((T + 1, 3)) if spectra else None
    if spectra:
        spec[0] = d_spectrum(state)
    predict, update = laser_predict, laser_update
    for t in range(T):
        yhats[t], step = predict(state, xs[t])
        state = update(state, xs[t], ys[t], step)
        quads[t] = state.last_x_quad
        if spectra:
            spec[t + 1] = d_spectrum(state)
    if spectra:
        return LaserTrajectory(yhats, quads, state, *spec.T)
    return LaserTrajectory(yhats, quads, state)
