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
and a Ptilde_t x = a P'x / s. `hinf_init` writes that round once, as a
`laser.CovMember` record: start Ptilde_0 = (b^{-1} - c^{-1}) I (negative
when b > c), inflation c^{-1}, weight a - 1 and gain a. Its state is a
`laser.CovState`, the state of every covariance-family learner, whose form
holds Ptilde_t = P_t - c^{-1} I and whose P derives P_t (a laser state's P
is its form); `hinf_step` is `laser.cov_step` on it, which predicts x . w
unshrunk, and `harness` runs the same record as a member of
`laser.cov_rounds`.
`oracle.hinf_direct` transcribes the recursion above as the reference.

The filtering guarantee bounds the error of the post-update weights
(the w_t above), while the prediction-loss ceiling bounds the loss of
the pre-update predictions; callers that certify both must keep both
weight sequences, see `harness.RunReport`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import laser
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


def hinf_init(params: HInfParams, d: int) -> laser.CovState:
    """w = 0, P = b^{-1} I: the record of the round from Ptilde_0 = (b^{-1} -
    c^{-1}) I, with inflation c^{-1}, weight a - 1 and gain a."""
    return laser.cov_init(1.0 / params.b - 1.0 / params.c, d, inflation=1.0 / params.c,
                          weight=params.a - 1.0, gain=params.a)


def hinf_step(state: laser.CovState, x, y: float) -> tuple[float, laser.CovState]:
    """One round: returns (yhat, new state). yhat uses the pre-update w."""
    return laser.cov_step(state, x, y)


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
