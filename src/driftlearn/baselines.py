"""Comparison learners: forward ridge (AAR), NLMS, and covariance-reset RLS.

AAR is the stationary limit of the drift-aware learner: with
A_t = b I + sum x_s x_s^T and r_t = sum y_s x_s it predicts with the new
input already folded in, yhat = x^T (A + x x^T)^{-1} r. That is exactly
LASER at c = inf, so an AAR state is the `laser.CovState` of the laser
record at c = inf (A = state.D) and `aar_step` runs the laser step's
stages itself, not `laser_predict` and `laser_update`.

NLMS and CR-RLS use their canonical textbook updates; only their names
and roles are fixed by the comparison, so the exact forms below are
artifact-defined:

    NLMS:   yhat = x . w;  w += eta (y - yhat) x / (eps + ||x||^2)
    CR-RLS: yhat = x . w;  P -= (P x x^T P) / (1 + x^T P x);
            w += P x (y - yhat)   [updated P]
            and P resets to b_reset^{-1} I every N steps.

CR-RLS is the covariance-form round of `laser` at c = inf, unshrunk, plus
the reset: `crrls_init` writes it once, as a `laser.CovMember` record of
start P and reset period (an integer, which `as_integer` checks here and
for `harness`), in a `laser.CovState`; `crrls_step` is
`laser.cov_step` on that state, and `harness` runs the same record as a
member of `laser.cov_rounds`. The NLMS round, its overflow
check included, is written once over leading member axes, for `nlms_step`
and for `nlms_trajectories`, its S-member loop.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import laser, linalg
from .errors import BadStream, InvalidParams


def aar_init(b: float, d: int) -> laser.CovState:
    """Forward ridge with prior b I: the laser state at c = inf."""
    return laser.laser_init(laser.LaserParams(b=b, c=math.inf), d)


def aar_step(state: laser.CovState, x, y: float) -> tuple[float, laser.CovState]:
    """Forward ridge prediction, then fold (x, y) into the statistics."""
    step = laser._step_innovation(state, linalg.as_vector(x, state.dim))
    return float(step.xw / (1.0 + step.q)), laser._step_fold(state, y, step)


@dataclass
class NlmsState:
    w: np.ndarray
    eta: float
    eps: float
    t: int = 0

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def nlms_init(d: int, eta: float, eps: float = 0.0) -> NlmsState:
    if d < 1:
        raise InvalidParams(f"d must be >= 1, got {d}")
    if not 0 < eta < math.inf:
        raise InvalidParams(f"eta must be positive and finite, got {eta}")
    if not 0 <= eps < math.inf:
        raise InvalidParams(f"eps must be non-negative and finite, got {eps}")
    return NlmsState(w=np.zeros(d), eta=eta, eps=eps)


def _nlms_round(w, x, y, eta, eps, t):
    """(yhat, w) after round t, over any leading member axes. Callers ignore
    overflow: x is finite, so eps + |x|^2 is infinite only if it overflowed,
    which raises BadStream."""
    yhat = np.vecdot(x, w)
    denom = eps + np.vecdot(x, x)
    if not np.isfinite(denom).all():
        raise BadStream(f"eps + |x|^2 overflowed at round {t}: inputs too large")
    # a zero denominator means x = 0 (with eps = 0): the step is then zero
    denom = np.where(denom > 0.0, denom, 1.0)
    return yhat, w + (eta * (y - yhat))[..., None] * x / denom[..., None]


def nlms_step(state: NlmsState, x, y: float) -> tuple[float, NlmsState]:
    """One round; BadStream if eps + |x|^2 overflows."""
    x = linalg.as_vector(x, state.dim)
    with np.errstate(over="ignore"):  # an overflowing eps + |x|^2 is inf, which raises
        yhat, w = _nlms_round(state.w, x, y, state.eta, state.eps, state.t + 1)
    return float(yhat), replace(state, w=w, t=state.t + 1)


def nlms_trajectories(states: list[NlmsState], xs, ys) -> np.ndarray:
    """Run S NLMS members from the given states in one step loop; returns
    the predictions (S, T). xs (T, S, d) and ys (T, S) as in
    `laser.cov_rounds`. BadStream at the first round where some eps + |x|^2
    overflows; a member that diverges predicts inf or NaN, whose loss a
    certified run refuses."""
    eta = np.array([st.eta for st in states])
    eps = np.array([st.eps for st in states])
    w = np.stack([st.w for st in states])
    yhats = np.empty((len(states), xs.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging member's loss is inf or NaN
        for t in range(xs.shape[0]):
            yhats[:, t], w = _nlms_round(w, xs[t], ys[t], eta, eps, t + 1)
    return yhats


def as_integer(value) -> int:
    """An integral value, not a bool, as an int, else InvalidParams; int()
    would truncate 2.5 to 2."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise InvalidParams(f"expected an integer, got {value!r}")
    return int(float(value))


def crrls_init(d: int, reset_period: int, b_reset: float) -> laser.CovState:
    """The record of the round at c = inf, unshrunk, from P = b_reset^{-1} I,
    to which P resets whenever the step count hits a multiple of the period,
    an integer >= 1."""
    period = as_integer(reset_period)
    if not period >= 1:
        raise InvalidParams(f"reset_period must be >= 1, got {reset_period}")
    if not (0 < b_reset < math.inf and math.isfinite(1.0 / b_reset)):
        raise InvalidParams(f"b_reset must be positive and finite with a finite reciprocal, "
                            f"got {b_reset}")
    return laser.cov_init(1.0 / b_reset, d, reset=period)


def crrls_step(state: laser.CovState, x, y: float) -> tuple[float, laser.CovState]:
    """RLS step with the pre-update P used for nothing but its own update,
    then the record's reset."""
    return laser.cov_step(state, x, y)
