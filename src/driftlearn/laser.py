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

The covariance-form round is written once, over leading member axes. It
serves the single-state step functions and `cov_rounds`, the one step
loop over S members (grid points, streams, or both, sharing T and d) on
(S, d, d) and (S, d) arrays, which also runs the H-infinity filter and
CR-RLS (see `hinf`, `baselines`). `laser_trajectories` runs laser members
in it, with per-member b, c, clip bound and track_f; a member whose inputs
would move it to information form runs alone on the step functions. Bound
checks take the spectrum of D_t from one stacked eigvalsh per step, of
P_t (lambda(D) = 1/lambda(P)) or of D_t in information form. Per member
the arithmetic does not depend on the batch, nor do the results.
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


def _p0(params: LaserParams) -> float:
    """The prior scale of P: 1/b - 1/c, or 1/b when c is infinite."""
    if params.stationary:
        return 1.0 / params.b
    return (params.c - params.b) / (params.b * params.c)


def laser_init(params: LaserParams, d: int) -> LaserState:
    """Fresh state: P = (1/b - 1/c) I (I/b when c is infinite), w = 0."""
    if d < 1:
        raise InvalidParams(f"d must be >= 1, got {d}")
    return LaserState(params, np.zeros(d), _p0(params) * np.eye(d), None, 0.0, 0.0, 0)


# -- the covariance-form round, over any leading member axes --------------------

def _cov_innovation(P, w, x, inflation):
    """(P'x, q = x^T P' x, x . w) with P' = P + I/c. inflation is 1/c, as
    a (S, 1) column for S members, or None when no member drifts. Callers
    check q: it is finite unless x^T P' x overflowed."""
    Px = np.matvec(P, x)
    if inflation is not None:
        Px += inflation * x
    return Px, np.vecdot(x, Px), np.vecdot(x, w)


def _cov_commit(P, w, Px, s, err, inflation, root=1.0):
    """The new (P, w) after (x, y) from _cov_innovation's P'x, s = 1 + weight q,
    err = gain (y - x . w) and root = sqrt(weight), as (S, 1) columns for S
    members: P <- P' - weight P'x (P'x)^T / s and w <- w + P'x err / s.
    Laser and CR-RLS have weight = gain = 1, hinf a - 1 and a."""
    g = Px * (root / np.sqrt(s))
    P = P - g[..., :, None] * g[..., None, :]
    if inflation is not None:
        linalg.add_to_diagonal(P, inflation)
    return P, w + Px * (err / s)


def _spectra(M, of_inverse: bool):
    """(Tr D, lambda_max D, ln det D) from one eigvalsh of M = D, or of
    M = P = D^{-1} when of_inverse; M may be a stack of matrices."""
    lam = np.linalg.eigvalsh(M)
    low = lam[..., 0].min()
    if not low > 0.0:
        raise NotPositiveDefinite(f"state lost definiteness: lambda_min = {low:.3e}")
    if of_inverse:
        inv = 1.0 / lam
        return inv.sum(axis=-1), inv[..., 0], -np.log(lam).sum(axis=-1)
    return lam.sum(axis=-1), lam[..., -1], np.log(lam).sum(axis=-1)


class CovRun(NamedTuple):
    """What cov_rounds recorded of S members over T rounds."""

    xw: np.ndarray               # (S, T): x_t . w_{t-1}
    q: np.ndarray                # (S, T): x_t^T P' x_t, unweighted
    P: np.ndarray                # (S, d, d) after the last round
    w: np.ndarray                # (S, d) after the last round
    ws: np.ndarray | None        # (S, T, d) post-update weights, with keep_w
    spectra: np.ndarray | None   # (T + 1, 3, S) (Tr D, lambda_max D, ln det D)


def cov_rounds(P, xs, ys, inflation=None, weight=None, gain=None, reset=None,
               keep_w=False, spectra=False, guard=None) -> CovRun:
    """Run S members of the covariance-form round from P (S, d, d) and w = 0
    over xs (T, d) and ys (T,), one stream for all, or xs (T, S, d) and
    ys (T, S), one per member. Per member: inflation is 1/c (0 at c = inf),
    weight and gain are those of _cov_commit (1 when None), and after each
    reset-th round P returns to its start. keep_w keeps the post-update
    weights; spectra the spectrum of D = P^{-1} before round 1 and after
    each round. Members where guard holds have P checked positive definite
    every round by one stacked Cholesky factorization.
    """
    S, T, d = P.shape[0], xs.shape[0], xs.shape[-1]
    inflation = None if inflation is None or not inflation.any() else inflation[:, None]
    root = 1.0 if weight is None else np.sqrt(weight)[:, None]
    P0, w = P, np.zeros((S, d))
    xws, qs = np.empty((S, T)), np.empty((S, T))
    ws = np.empty((S, T, d)) if keep_w else None
    spec = np.empty((T + 1, 3, S)) if spectra else None
    if spectra:
        spec[0] = _spectra(P, True)
    for t in range(T):
        Px, q, xw = _cov_innovation(P, w, xs[t], inflation)
        if not np.isfinite(q).all():
            raise ValueError(f"x^T P' x is not finite at round {t + 1} (q = {q})")
        s = 1.0 + (q if weight is None else weight * q)
        err = ys[t] - xw
        if gain is not None:
            err = gain * err
        P, w = _cov_commit(P, w, Px, s[:, None], err[:, None], inflation, root)
        if reset is not None:
            due = (t + 1) % reset == 0
            P[due] = P0[due]
        xws[:, t], qs[:, t] = xw, q
        if keep_w:
            ws[:, t] = w
        if spectra:
            spec[t + 1] = _spectra(P, True)
        elif guard is not None:
            try:
                np.linalg.cholesky(P[guard])
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(f"state lost definiteness at round {t + 1}") from exc
    return CovRun(xws, qs, P, w, ws, spec)


# -- the single-state step functions --------------------------------------------

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
    if info is None:
        Px, q, xw = _cov_innovation(state.cov, state.w, x, params.inflation or None)
    else:
        Px = None
        q = float(x @ linalg.spd_solve(info.D, x)) + xsq * params.inflation
        xw = float(x @ state.w)
    if not math.isfinite(q):  # x is finite, so x^T P' x overflowed
        raise ValueError(f"x^T P' x is not finite (q = {q})")
    return LaserStep(x, q, xw, max_xsq, Px, info)


def _predict(state: LaserState, x: np.ndarray) -> tuple[float, LaserStep]:
    step = _innovation(state, x)
    yhat = float(step.xw / (1.0 + step.q))
    if state.params.clip_bound is not None:
        yhat = clip(yhat, state.params.clip_bound)
    return yhat, step


def _commit(state: LaserState, y: float, step: LaserStep) -> LaserState:
    params = state.params
    x, q, xw, max_xsq, Px, info = step
    s = 1.0 + q
    err = y - xw
    if info is None:
        P, w = _cov_commit(state.cov, state.w, Px, s, err, params.inflation or None)
    else:
        P = None
        D, e = info
        if params.inflation:  # D' = (I + D/c)^{-1} D, e' = (I + D/c)^{-1} e
            F = np.eye(D.shape[0]) + D * params.inflation
            D = linalg.symmetrize(linalg.spd_solve_matrix(F, D))
            e = linalg.spd_solve(F, e)
        D = D + x[:, None] * x
        e = e + y * x
        w = linalg.spd_solve(D, e)
        info = Information(D, e)
    min_cost = float(state.min_cost + err * err / s) if params.track_f else 0.0
    return LaserState(params, w, P, info, max_xsq, min_cost, state.t + 1, float(q / s))


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
    return tuple(float(v) for v in _spectra(M, state.info is None))


# -- whole streams ---------------------------------------------------------------

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


def _stays_covariance(params: LaserParams, peaks: np.ndarray) -> bool:
    """Whether a state keeps covariance form along a stream whose running
    max |x|^2 takes the values in peaks (see _innovation)."""
    return all(params.covariance_holds(float(v)) for v in np.unique(peaks))


def _single_trajectory(params: LaserParams, xs, ys, spectra: bool) -> LaserTrajectory:
    """One member on the step functions, switching form where its inputs
    call for it."""
    T = xs.shape[0]
    state = laser_init(params, xs.shape[1])
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
    return LaserTrajectory(yhats, quads, state, *(spec.T if spectra else ()))


def _batch_trajectories(params, xs, ys, max_xsq, spectra: bool) -> list[LaserTrajectory]:
    """Covariance-form members in one cov_rounds loop (see
    laser_trajectories); max_xsq is each member's max |x|^2 over its
    stream. The shrinkage and the clip apply to the recorded (S, T) arrays."""
    S, T, d = len(params), xs.shape[0], xs.shape[-1]
    c = np.array([p.c for p in params])
    drifting = np.isfinite(c)
    P = np.array([_p0(p) for p in params])[:, None, None] * np.eye(d)
    guard = drifting if not spectra and drifting.any() else None
    run = cov_rounds(P, xs, ys, 1.0 / c, spectra=spectra, guard=guard)
    s = 1.0 + run.q
    yhats, quads = run.xw / s, run.q / s
    bound = np.array([math.inf if p.clip_bound is None else p.clip_bound for p in params])
    if np.isfinite(bound).any():
        yhats = np.copysign(np.minimum(np.abs(yhats), bound[:, None]), yhats)
    err = (ys if ys.ndim == 1 else ys.T) - run.xw  # cumsum adds in order, as _commit does
    min_cost = np.cumsum(err * err / s, axis=1)[:, -1] if T else np.zeros(S)

    max_xsq = np.broadcast_to(max_xsq, (S,))
    out = []
    for i, p in enumerate(params):
        state = LaserState(p, run.w[i], run.P[i], None, float(max_xsq[i]),
                           float(min_cost[i]) if p.track_f else 0.0, T,
                           float(quads[i, -1]) if T else 0.0)
        extra = run.spectra[:, :, i].T if spectra else ()
        out.append(LaserTrajectory(yhats[i], quads[i], state, *extra))
    return out


def laser_trajectories(params, xs, ys, spectra: bool = False) -> list[LaserTrajectory]:
    """Run S members of the learner, params[i] for member i, under the
    online protocol; one LaserTrajectory per member, in order.

    xs is (T, d) and ys (T,) when every member reads the same stream, or
    xs is (T, S, d) and ys (T, S) for one stream per member. Members stay
    in one step loop on (S, d, d) arrays; a member whose inputs would move
    it to information form runs alone on the step functions instead.
    Without spectra, each drifting member's P is checked positive definite
    every round by a stacked Cholesky factorization (the spectra check it
    otherwise). Memory is O(S (T + d^2)): no per-step matrix is kept.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    shared = xs.ndim == 2
    xsq = np.vecdot(xs, xs)
    peaks = np.maximum.accumulate(xsq, axis=0)
    out, batch = [None] * len(params), []
    for i, p in enumerate(params):
        if _stays_covariance(p, peaks if shared else peaks[:, i]):
            batch.append(i)
        else:
            out[i] = _single_trajectory(p, xs if shared else xs[:, i],
                                        ys if shared else ys[:, i], spectra)
    if batch:
        max_xsq = np.max(xsq, axis=0, initial=0.0)
        if not shared and len(batch) < len(params):
            xs, ys, max_xsq = xs[:, batch], ys[:, batch], max_xsq[batch]
        trajs = _batch_trajectories([params[i] for i in batch], xs, ys, max_xsq, spectra)
        for i, traj in zip(batch, trajs):
            out[i] = traj
    return out


def laser_trajectory(params: LaserParams, xs, ys, spectra: bool = False) -> LaserTrajectory:
    """Run the learner over the stream (xs, ys) under the online protocol.

    xs is a (T, d) array and ys a (T,) array. Memory is O(T + d^2): no
    per-step matrix is kept.
    """
    return laser_trajectories([params], xs, ys, spectra)[0]
