"""Robust min-max (H-infinity) filter adapted to online regression.

Per round: predict yhat_t = x_t . w_{t-1}, observe y_t, then

    Ptilde_t = (P_{t-1}^{-1} + (a-1) x_t x_t^T)^{-1}
    w_t      = w_{t-1} + a Ptilde_t (y_t - yhat_t) x_t
    P_t      = Ptilde_t + c^{-1} I

starting from w_0 = 0, P_0 = b^{-1} I, with robustness level a > 1 and
penalties b, c > 0. The c^{-1} I refresh keeps P_t bounded away from
zero, which is what lets the filter track a moving target.

A round is the covariance-form round of `laser` with downdate weight
a - 1, gain a and no last-step shrinkage, O(d^2) with no factorization:
with P' = P_{t-1} and s = 1 + (a-1) x^T P' x, Ptilde_t = P' - (a-1) P'x (P'x)^T / s
and a Ptilde_t x = a P'x / s. The state holds Ptilde_t = P_t - c^{-1} I,
from (b^{-1} - c^{-1}) I (negative when b > c), and derives P_t.
`hinf_step` makes one-member calls of `laser._innovate` and `laser._fold`, the
stages of `laser.cov_rounds`, in which `harness` runs S members, each a
`laser.CovMember` record of that weight and gain.
`oracle.hinf_direct` transcribes the recursion above as the reference.

The filtering guarantee bounds the error of the post-update weights
(the w_t above), while the prediction-loss ceiling bounds the loss of
the pre-update predictions; callers that certify both must keep both
weight sequences, see `harness.RunReport`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import laser, linalg
from .errors import InvalidParams, LengthMismatch
from .oracle import ComparatorSequence, drift_term


@dataclass(frozen=True)
class HInfParams:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not 1 < self.a < math.inf:
            raise InvalidParams(f"a must be finite and exceed 1, got {self.a}")
        if not (self.b > 0 and self.c > 0):
            raise InvalidParams(f"b and c must be positive, got b={self.b}, c={self.c}")
        if not (math.isfinite(1.0 / self.b) and math.isfinite(1.0 / self.c)):
            raise InvalidParams(f"b and c must have finite reciprocals, "
                                f"got b={self.b}, c={self.c}")
        if not math.isfinite(self.b):  # b ||u_1||^2 would make every bound infinite
            raise InvalidParams(f"b must be finite, got {self.b}")


@dataclass
class HInfState:
    """The filter after t rounds: w_t and Ptilde_t = P_t - c^{-1} I."""

    params: HInfParams
    w: np.ndarray
    P_tilde: np.ndarray
    t: int

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def P(self) -> np.ndarray:
        return self.P_tilde + np.eye(self.dim) / self.params.c


def hinf_init(params: HInfParams, d: int) -> HInfState:
    """w = 0, P = b^{-1} I."""
    if d < 1:
        raise InvalidParams(f"d must be >= 1, got {d}")
    return HInfState(params, np.zeros(d), (1.0 / params.b - 1.0 / params.c) * np.eye(d), 0)


def hinf_step(state: HInfState, x, y: float) -> tuple[float, HInfState]:
    """One round: returns (yhat, new state). yhat uses the pre-update w."""
    x = linalg.as_vector(x, state.dim)
    a, inflation = state.params.a, 1.0 / state.params.c or None
    with np.errstate(over="ignore"):  # an overflowing x^T P' x is inf, which _innovate reports
        Px, q, xw = laser._innovate(state.P_tilde, state.w, x, inflation, state.t + 1)
    P, w, _, _ = laser._fold(state.P_tilde, state.w, x, y, Px, q, xw, inflation, state.t + 1,
                             a - 1.0, a, math.sqrt(a - 1.0))
    return float(xw), HInfState(state.params, w, P, state.t + 1)


def hinf_filter_loss(post_update_ws, xs, comparator: ComparatorSequence) -> float:
    """Cumulative filtering error sum_t (x_t . w_t - x_t . u_t)^2.

    post_update_ws must hold the weight of round t AFTER its update (the
    quantity the filtering guarantee bounds), aligned with xs and the
    comparator.
    """
    ws = np.asarray(post_update_ws, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if len(ws) != len(xs) or len(ws) != comparator.T:
        raise LengthMismatch("weights, inputs, and comparator must be aligned")
    gaps = np.einsum("td,td->t", xs, ws) - np.einsum("td,td->t", xs, comparator.us)
    return float(np.sum(gaps * gaps))


def filter_bound_rhs(
    params: HInfParams, comparator_loss_value: float, u1_norm_sq: float, V: float
) -> float:
    """RHS of the filtering guarantee: a L_T({u_t}) + b ||u_1||^2 + c V."""
    return float(
        params.a * comparator_loss_value
        + params.b * u1_norm_sq
        + drift_term(params.c, V)
    )


def regret_bound_rhs(
    params: HInfParams, alpha: float, comparator_loss_value: float, u1_norm_sq: float, V: float
) -> float:
    """Prediction-loss ceiling for a chosen alpha > 0:

        (1 + 1/alpha + (1+alpha) a) L_T({u_t})
          + (1+alpha) b ||u_1||^2 + (1+alpha) c V
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return float(
        (1.0 + 1.0 / alpha + (1.0 + alpha) * params.a) * comparator_loss_value
        + (1.0 + alpha) * params.b * u1_norm_sq
        + drift_term((1.0 + alpha) * params.c, V)
    )


def optimized_alpha(
    params: HInfParams, comparator_loss_value: float, u1_norm_sq: float, V: float
) -> float | None:
    """alpha = sqrt(L_T({u}) / (a L_T({u}) + c V + b ||u_1||^2)).

    None unless that alpha is positive and finite: the comparator loss is
    zero (noise-free realizable data), the denominator vanishes, or c V is
    infinite; only the fixed grid applies then.
    """
    denom = params.a * comparator_loss_value + drift_term(params.c, V) + params.b * u1_norm_sq
    if comparator_loss_value <= 0 or denom <= 0:
        return None
    alpha = math.sqrt(comparator_loss_value / denom)
    return alpha if 0.0 < alpha < math.inf else None
