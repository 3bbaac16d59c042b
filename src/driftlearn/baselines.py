"""Comparison learners: forward ridge (AAR), NLMS, and covariance-reset RLS.

AAR is the stationary limit of the drift-aware learner: with
A_t = b I + sum x_s x_s^T and r_t = sum y_s x_s it predicts with the new
input already folded in, yhat = x^T (A + x x^T)^{-1} r. That is exactly
LASER at c = inf, so an AAR state is a `LaserState` (A = state.D) and
`aar_step` runs the laser step's stages itself, not `laser_predict` and
`laser_update`.

NLMS and CR-RLS use their canonical textbook updates; only their names
and roles are fixed by the comparison, so the exact forms below are
artifact-defined:

    NLMS:   yhat = x . w;  w += eta (y - yhat) x / (eps + ||x||^2)
    CR-RLS: yhat = x . w;  P -= (P x x^T P) / (1 + x^T P x);
            w += P x (y - yhat)   [updated P]
            and P resets to b_reset^{-1} I every N steps.

CR-RLS is the covariance-form round of `laser` at c = inf, unshrunk, plus
the reset: `crrls_step` makes one-member calls of `laser._innovate` and
`laser._fold`, the stages of `laser.cov_rounds`, in which `harness` runs
S members. The NLMS round is written once over leading member axes, for
`nlms_step` and for `nlms_trajectories`, its S-member loop.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import laser, linalg
from .errors import BadStream, InvalidParams


def aar_init(b: float, d: int) -> laser.LaserState:
    """Forward ridge with prior b I: the laser state at c = inf."""
    return laser.laser_init(laser.LaserParams(b=b, c=math.inf), d)


def aar_step(state: laser.LaserState, x, y: float) -> tuple[float, laser.LaserState]:
    """Forward ridge prediction, then fold (x, y) into the statistics."""
    step = laser._step_innovation(state, linalg.as_vector(x, state.dim))
    return float(step.xw / (1.0 + step.q)), laser._step_fold(state, y, step)


@dataclass
class NlmsState:
    w: np.ndarray
    eta: float
    eps: float

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def nlms_init(d: int, eta: float, eps: float = 0.0) -> NlmsState:
    if not 0 < eta < math.inf:
        raise InvalidParams(f"eta must be positive and finite, got {eta}")
    if not 0 <= eps < math.inf:
        raise InvalidParams(f"eps must be non-negative and finite, got {eps}")
    return NlmsState(w=np.zeros(d), eta=eta, eps=eps)


def _nlms_round(w, x, y, eta, eps):
    """(yhat, w) after one round, over any leading member axes."""
    yhat = np.vecdot(x, w)
    denom = eps + np.vecdot(x, x)
    # a zero denominator means x = 0 (with eps = 0): the step is then zero
    denom = np.where(denom > 0.0, denom, 1.0)
    return yhat, w + (eta * (y - yhat))[..., None] * x / denom[..., None]


def nlms_step(state: NlmsState, x, y: float) -> tuple[float, NlmsState]:
    """One round; BadStream if eps + |x|^2 overflows."""
    x = linalg.as_vector(x, state.dim)
    with np.errstate(over="ignore"):
        if not math.isfinite(state.eps + x @ x):
            raise BadStream("eps + |x|^2 overflowed: inputs too large")
    yhat, w = _nlms_round(state.w, x, y, state.eta, state.eps)
    return float(yhat), replace(state, w=w)


def nlms_trajectories(states: list[NlmsState], xs, ys) -> np.ndarray:
    """Run S NLMS members from the given states in one step loop; returns
    the predictions (S, T). xs (T, S, d) and ys (T, S) as in
    `laser.cov_rounds`. BadStream if some eps + |x|^2 overflows; a member
    that diverges predicts inf or NaN, whose loss a certified run refuses."""
    eta = np.array([st.eta for st in states])
    eps = np.array([st.eps for st in states])
    with np.errstate(over="ignore"):
        finite = np.isfinite(eps + np.vecdot(xs, xs))
    if not finite.all():
        t = int(np.argmin(finite.all(axis=1)))
        raise BadStream(f"eps + |x|^2 overflowed at round {t + 1}: inputs too large")
    w = np.stack([st.w for st in states])
    yhats = np.empty((len(states), xs.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging member's loss is inf or NaN
        for t in range(xs.shape[0]):
            yhats[:, t], w = _nlms_round(w, xs[t], ys[t], eta, eps)
    return yhats


@dataclass
class CrRlsState:
    w: np.ndarray
    P: np.ndarray
    reset_period: int
    t: int
    b_reset: float

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def crrls_init(d: int, reset_period: int, b_reset: float) -> CrRlsState:
    if not reset_period >= 1:
        raise InvalidParams(f"reset_period must be >= 1, got {reset_period}")
    if not (0 < b_reset < math.inf and math.isfinite(1.0 / b_reset)):
        raise InvalidParams(f"b_reset must be positive and finite with a finite reciprocal, "
                            f"got {b_reset}")
    return CrRlsState(
        w=np.zeros(d), P=np.eye(d) / b_reset, reset_period=reset_period, t=0, b_reset=b_reset
    )


def crrls_step(state: CrRlsState, x, y: float) -> tuple[float, CrRlsState]:
    """RLS step with the pre-update P used for nothing but its own update;
    the covariance resets to b_reset^{-1} I whenever the new step count
    hits a multiple of the reset period."""
    x = linalg.as_vector(x, state.dim)
    t = state.t + 1
    with np.errstate(over="ignore"):  # an overflowing x^T P x is inf, which _innovate reports
        Px, q, xw = laser._innovate(state.P, state.w, x, None, t)
    P, w, _, _ = laser._fold(state.P, state.w, x, y, Px, q, xw, None, t)
    if t % state.reset_period == 0:
        P = np.eye(state.dim) / state.b_reset
    return float(xw), replace(state, w=w, P=P, t=t)
