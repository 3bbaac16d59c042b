"""Independent brute-force and analytic verifiers.

Everything in this module is deliberately boring: the brute-force
minimizer assembles the full stacked normal equations and solves them
densely, the certificate evaluators build the exact matrices and take
eigenvalues, and `laser_direct` / `hinf_direct` transcribe the learners'
defining recursions literally, with a factorization wherever the
recursion inverts a matrix. These are the trusted references against
which the fast covariance-form learners are certified.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    BadStream,
    DomainError,
    LengthMismatch,
    NotPositiveDefinite,
    RegimeViolation,
    SingularSystem,
    TooLarge,
)

BRUTE_BUDGET = 2000  # max T*d stacked variables for the dense solve


@dataclass(frozen=True)
class ComparatorSequence:
    """A reference sequence u_1..u_T, given as us (T, d), and its total
    squared drift V = sum_{t<T} ||u_{t+1} - u_t||^2, computed from us."""

    us: np.ndarray  # (T, d)
    V: float = field(init=False)

    def __post_init__(self):
        us = np.asarray(self.us, dtype=float)
        if us.ndim != 2:
            raise ValueError(f"us must be (T, d), got shape {us.shape}")
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "V", drift_of(us))

    @property
    def T(self) -> int:
        return self.us.shape[0]


def checked_stream(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """xs (T, d) and ys (T,) as float arrays, checked once for alignment and
    finiteness so that the step loops and the references need not."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.shape != xs.shape[:1]:
        raise LengthMismatch(f"inputs {xs.shape} and labels {ys.shape} are not aligned")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise BadStream("stream has non-finite inputs or labels")
    return xs, ys


@np.errstate(over="ignore")
def drift_of(us: np.ndarray) -> float:
    """Total squared drift of a (T, d) array; inf if it overflows."""
    return float(np.sum((us[1:] - us[:-1]) ** 2))


def comparator_loss(comp: ComparatorSequence, xs, ys) -> float:
    """Cumulative squared loss of the reference sequence on the stream."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != comp.T or len(ys) != comp.T:
        raise LengthMismatch("stream and comparator lengths differ")
    preds = np.einsum("td,td->t", xs, comp.us)
    return float(np.sum((ys - preds) ** 2))


def tracking_cost(us, xs, ys, b: float, c: float) -> float:
    """Direct evaluation of the penalized offline objective

        b ||u_1||^2 + c sum ||u_{s+1} - u_s||^2 + sum (y_s - u_s . x_s)^2
    """
    us, xs, ys = (np.asarray(a, dtype=float) for a in (us, xs, ys))
    preds = np.einsum("td,td->t", xs, us)
    return float(
        b * us[0] @ us[0] + drift_term(c, drift_of(us)) + np.sum((ys - preds) ** 2)
    )


def brute_min_cost(xs, ys, b: float, c: float) -> tuple[float, ComparatorSequence]:
    """Exact minimum of the tracking cost over all sequences (u_1..u_T).

    Solves the block-tridiagonal normal equations H u = g of the strictly
    convex stacked quadratic by LAPACK Cholesky (SingularSystem if that
    fails). Each entry of H gets the terms a block-by-block loop would add,
    in its order: x_s x_s^T, b I on block 0, then c I per drift term.
    Returns (optimal value, argmin).
    """
    xs, ys = checked_stream(xs, ys)
    T, d = xs.shape
    if T * d > BRUTE_BUDGET:
        raise TooLarge(f"T*d = {T * d} exceeds dense budget {BRUTE_BUDGET}")
    if not (b > 0 and c > 0 and math.isfinite(c)):
        raise ValueError(f"need finite b, c > 0, got b={b}, c={c}")

    H = np.zeros((T * d, T * d))
    H4 = H.reshape(T, d, T, d)  # H4[s, :, r, :] is block (s, r)
    # (T, d, d) views of the diagonal blocks and (T - 1, d, d) of those above and below
    diag, above, below = (np.einsum("sjsk->sjk", A)
                          for A in (H4, H4[:-1, :, 1:], H4[1:, :, :-1]))
    cI = c * np.eye(d)
    diag += xs[:, :, None] * xs[:, None, :]
    diag[0] += b * np.eye(d)
    diag[:-1] += cI
    diag[1:] += cI
    above -= cI
    below -= cI
    g = (ys[:, None] * xs).reshape(-1)
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise SingularSystem("the stacked normal equations overflowed: inputs too large")
    try:
        u = linalg._cho_solve(linalg._cholesky(H), g)
    except NotPositiveDefinite as exc:
        raise SingularSystem(str(exc)) from exc
    value = float(ys @ ys - g @ u)
    return value, ComparatorSequence(u.reshape(T, d))


def tracking_cost_gradient(us, xs, ys, b: float, c: float) -> np.ndarray:
    """Gradient of the tracking cost at a stacked candidate (T, d)."""
    us, xs, ys = (np.asarray(a, dtype=float) for a in (us, xs, ys))
    T, d = us.shape
    grad = np.zeros((T, d))
    preds = np.einsum("td,td->t", xs, us)
    grad += 2.0 * (preds - ys)[:, None] * xs
    grad[0] += 2.0 * b * us[0]
    diffs = us[1:] - us[:-1]
    grad[:-1] += -2.0 * c * diffs
    grad[1:] += 2.0 * c * diffs
    return grad.reshape(-1)


# ---------------------------------------------------------------------------
# Per-step regret certificate
# ---------------------------------------------------------------------------

def regret_certificate_gap(D_prev: np.ndarray, x, c: float) -> float:
    """lambda_max of the per-step remainder matrix

        D' Dn^{-1} x x^T Dn^{-1} D'  -  D_prev^{-1}
          +  D' (Dn^{-1} D' + c^{-1} I)

    with D' = (I + c^{-1} D_prev)^{-1} and Dn the propagated matrix plus
    x x^T. Negative semidefiniteness of this matrix is what collapses
    each round's regret increment to y^2 x^T Dn^{-1} x, so the returned
    value must never exceed ~0.
    """
    D_prev = linalg.as_matrix(D_prev)
    d = D_prev.shape[0]
    x = linalg.as_vector(x, d)
    I = np.eye(d)
    Dp = linalg.symmetrize(linalg.spd_solve_matrix(I + D_prev / c, I))  # (I + c^{-1}D)^{-1}
    Dn = linalg.symmetrize(linalg.spd_solve_matrix(I + D_prev / c, D_prev)) + np.outer(x, x)
    Dn_inv = linalg.spd_inverse(Dn)
    D_prev_inv = linalg.spd_inverse(D_prev)
    M = (
        Dp @ Dn_inv @ np.outer(x, x) @ Dn_inv @ Dp
        - D_prev_inv
        + Dp @ (Dn_inv @ Dp + I / c)
    )
    return linalg.eig_extremes(linalg.symmetrize(M))[1]


def regret_certificate_exact(D_prev: np.ndarray, x, c: float) -> np.ndarray:
    """Closed form of the same remainder matrix:

        -q * (D_prev^{-1} x)(D_prev^{-1} x)^T / (1 + q)^2,
        q = x^T (D_prev^{-1} + c^{-1} I) x

    a manifestly negative-semidefinite rank-one matrix. Used as a second,
    independent route to the certificate.
    """
    D_prev = linalg.as_matrix(D_prev)
    d = D_prev.shape[0]
    x = linalg.as_vector(x, d)
    Dinv_x = linalg.spd_solve(D_prev, x)
    q = float(x @ Dinv_x + (x @ x) / c)
    return -q * np.outer(Dinv_x, Dinv_x) / (1.0 + q) ** 2


# ---------------------------------------------------------------------------
# Cumulative-loss bound vs a comparator
# ---------------------------------------------------------------------------

def drift_term(c: float, V: float) -> float:
    """The drift penalty c V, read as 0 at V = 0 even for the stationary
    sentinel c = inf (where the product is NaN)."""
    return c * V if V > 0.0 else 0.0


def cumloss_bound(
    comparator: ComparatorSequence,
    comparator_loss_value: float,
    b: float,
    c: float,
    Y: float,
    quad_trace,
) -> float:
    """RHS of the learner's cumulative-loss bound against a comparator:

        b ||u_1||^2 + c V + L_T({u_t}) + Y^2 sum_t x_t^T D_t^{-1} x_t

    comparator_loss_value is L_T({u_t}), the comparator's comparator_loss on
    the stream, and quad_trace the per-step x_t^T D_t^{-1} x_t recorded by
    the run. Valid whenever every |y_t| <= Y.
    """
    quad_trace = np.asarray(quad_trace, dtype=float)
    if len(quad_trace) != comparator.T:
        raise LengthMismatch("quad_trace length differs from comparator")
    u1 = comparator.us[0]
    return float(
        b * (u1 @ u1)
        + drift_term(c, comparator.V)
        + comparator_loss_value
        + Y * Y * np.sum(quad_trace)
    )


def logdet_bound_rhs(logdet_DT, trace_sum, d: int, b: float, c: float):
    """RHS of the log-det inequality, ln|D_T / b| + c^{-1} sum_{t<T} Tr(D_t),
    from ln det D_T and the trace sum (scalars or aligned arrays)."""
    rhs = logdet_DT - d * math.log(b)
    if math.isfinite(c):
        rhs = rhs + trace_sum / c
    return rhs


def logdet_bound_sides(quad_trace, D_traj, b: float, c: float) -> tuple[float, float]:
    """Both sides of the log-det inequality

        sum_t x_t^T D_t^{-1} x_t  <=  ln|D_T / b| + c^{-1} sum_t Tr(D_{t-1})

    D_traj must be the full trajectory [D_0, D_1, ..., D_T].
    """
    quad_trace = np.asarray(quad_trace, dtype=float)
    T = len(quad_trace)
    if len(D_traj) != T + 1:
        raise LengthMismatch(f"need T+1 = {T + 1} matrices, got {len(D_traj)}")
    d = np.asarray(D_traj[0]).shape[0]
    lhs = float(np.sum(quad_trace))
    trace_sum = sum(float(np.trace(np.asarray(D_traj[t]))) for t in range(T))
    rhs = logdet_bound_rhs(linalg.logdet(np.asarray(D_traj[-1])), trace_sum, d, b, c)
    return lhs, float(rhs)


# ---------------------------------------------------------------------------
# Direct transcriptions of the learners' recursions
# ---------------------------------------------------------------------------

class DirectLaserRun(NamedTuple):
    """Every quantity of the LASER recursions along one stream: D_t, e_t,
    f_t for t = 0..T; per round the prediction, x_t^T D_t^{-1} x_t and the
    offline optimum f_t - e_t^T D_t^{-1} e_t."""

    yhats: np.ndarray
    quads: np.ndarray
    min_costs: np.ndarray
    Ds: np.ndarray
    es: np.ndarray
    fs: np.ndarray


def _finite(*arrays):
    """The references' results, refused if a round overflowed: their loops
    call the unchecked LAPACK wrappers of `linalg`."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("the recursion overflowed: inputs too large for the prior")
    return arrays


def _spd_inverse(A, I):
    """Inverse of SPD A (one solve against I = np.eye(d)), symmetrized."""
    return linalg.symmetrize(linalg._cho_solve(linalg._cholesky(A), I))


def laser_direct(xs, ys, b: float, c: float) -> DirectLaserRun:
    """The LASER recursions exactly as stated, one Cholesky factorization
    per matrix that the recursion inverts:

        D_0 = (bc/(c-b)) I,  D_t = (D_{t-1}^{-1} + c^{-1} I)^{-1} + x_t x_t^T
        e_0 = 0,             e_t = (I + c^{-1} D_{t-1})^{-1} e_{t-1} + y_t x_t
        f_0 = 0,             f_t = f_{t-1} - e_{t-1}^T (cI + D_{t-1})^{-1} e_{t-1} + y_t^2

        yhat_t = x_t^T D_t^{-1} (I + c^{-1} D_{t-1})^{-1} e_{t-1}

    with every c^{-1} term dropped at c = inf (D_0 = b I).
    """
    xs, ys = checked_stream(xs, ys)
    T, d = xs.shape
    I = np.eye(d)
    stationary = math.isinf(c)
    D = (b if stationary else b * c / (c - b)) * I
    e = np.zeros(d)
    f = 0.0
    Ds, es, fs = [D], [e], [f]
    yhats, quads, min_costs = np.empty(T), np.empty(T), np.empty(T)
    for t in range(T):
        x = xs[t]
        if stationary:
            blend, decayed, shrink = D, e, 0.0
        else:
            K = linalg._cholesky(I + D / c)
            blend = linalg.symmetrize(linalg._cho_solve(K, D))
            decayed = linalg._cho_solve(K, e)
            shrink = float(e @ linalg._cho_solve(linalg._cholesky(c * I + D), e))
        D = blend + np.outer(x, x)
        L = linalg._cholesky(D)
        Dinv_x = linalg._cho_solve(L, x)
        yhats[t] = float(Dinv_x @ decayed)
        quads[t] = float(x @ Dinv_x)
        e = decayed + ys[t] * x
        f = f - shrink + ys[t] * ys[t]
        min_costs[t] = f - float(e @ linalg._cho_solve(L, e))
        Ds.append(D)
        es.append(e)
        fs.append(f)
    return DirectLaserRun(*_finite(yhats, quads, min_costs, np.array(Ds), np.array(es),
                                   np.array(fs)))


def hinf_direct(xs, ys, a: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The H-infinity recursion exactly as stated, with two inverses per round:

        yhat_t = x_t . w_{t-1}
        Ptilde_t = (P_{t-1}^{-1} + (a-1) x_t x_t^T)^{-1}
        w_t = w_{t-1} + a Ptilde_t (y_t - yhat_t) x_t,  P_t = Ptilde_t + c^{-1} I

    from w_0 = 0, P_0 = b^{-1} I. Returns (yhats, post-update ws (T, d),
    Ps for t = 0..T).
    """
    xs, ys = checked_stream(xs, ys)
    T, d = xs.shape
    I = np.eye(d)
    w = np.zeros(d)
    P = I / b
    yhats, ws, Ps = np.empty(T), np.empty((T, d)), [P]
    for t in range(T):
        x = xs[t]
        yhats[t] = float(x @ w)
        P_tilde = _spd_inverse(_spd_inverse(P, I) + (a - 1.0) * np.outer(x, x), I)
        w = w + a * (ys[t] - yhats[t]) * (P_tilde @ x)
        P = linalg.symmetrize(P_tilde + I / c)
        ws[t] = w
        Ps.append(P)
    return _finite(yhats, ws, np.array(Ps))


# ---------------------------------------------------------------------------
# Eigenvalue growth control
# ---------------------------------------------------------------------------

def eigenvalue_step_map(lam, beta, xsq, gammasq):
    """One step of the scalar eigenvalue recursion:

        f(lam) = lam * beta / (lam + beta) + xsq

    for lam, beta >= 0 and 0 <= xsq <= gammasq, elementwise over arguments
    that broadcast together (a float when all four are scalars). Raises
    DomainError if any element of any argument is negative or NaN, or any
    xsq exceeds its gammasq. The suite checks
      (1) f <= beta + gammasq
      (2) f <= lam + gammasq
      (3) f <= max(lam, (3 gammasq + sqrt(gammasq^2 + 4 gammasq beta)) / 2)
    """
    args = lam, beta, xsq, gammasq = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lam, beta, xsq, gammasq)))
    if not all((a >= 0.0).all() for a in args):  # NaN fails the comparison too
        raise DomainError("all inputs must be non-negative and not NaN")
    if (over := xsq > gammasq).any():
        raise DomainError(f"xsq={xsq[over][0]} exceeds gammasq={gammasq[over][0]}")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where lam + beta = 0
        f = np.where(lam + beta == 0.0, xsq, lam * beta / (lam + beta) + xsq)
    return float(f) if f.ndim == 0 else f


def eig_cap(x_norm_sq_bound: float, b: float, c: float) -> float:
    """Ceiling on every eigenvalue of D_t (t >= 1) when ||x_s||^2 <= X^2:

        max{ (3X^2 + sqrt(X^4 + 4X^2 c)) / 2,  b + X^2 }

    Infinite for the stationary sentinel c = inf (D then grows without
    a uniform cap).
    """
    Xsq = x_norm_sq_bound
    if math.isinf(c):
        return math.inf
    return max(0.5 * (3.0 * Xsq + math.sqrt(Xsq * Xsq + 4.0 * Xsq * c)), b + Xsq)


# ---------------------------------------------------------------------------
# Drift-tuned c and the corresponding closed-form bounds
# ---------------------------------------------------------------------------

class DriftRegime(enum.Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class BoundInputs:
    """Scalars feeding the tuned-c formulas and closed-form bounds.

    Y bounds |y_t|, X bounds ||x_t||. mu, M and eps_ratio are always
    derived from (b, c, X), never stored, so they cannot drift out of
    sync with the primal parameters.
    """

    Y: float
    X: float
    b: float
    c: float
    d: int
    T: int

    def __post_init__(self):
        if self.Y <= 0 or self.X <= 0:
            raise DomainError("Y and X must be positive")
        if self.b <= 0 or self.c <= 0:
            raise DomainError("b and c must be positive")
        if self.d < 1 or self.T < 1:
            raise DomainError("d and T must be positive integers")

    @property
    def eps_ratio(self) -> float:
        """epsilon with b = epsilon * c."""
        return self.b / self.c

    @property
    def mu(self) -> float:
        Xsq = self.X * self.X
        return max(9.0 / 8.0 * Xsq, (self.b + Xsq) ** 2 / (8.0 * Xsq))

    @property
    def M(self) -> float:
        Xsq = self.X * self.X
        return max(3.0 * Xsq, self.b + Xsq)


def low_drift_threshold(inputs: BoundInputs) -> float:
    """Drift must stay below T * sqrt(2) Y^2 d X / mu^{3/2} for the
    low-drift tuning."""
    return inputs.T * math.sqrt(2.0) * inputs.Y**2 * inputs.d * inputs.X / inputs.mu**1.5


def high_drift_threshold(inputs: BoundInputs) -> float:
    """Drift must exceed T Y^2 d M / mu^2 for the high-drift tuning."""
    return inputs.T * inputs.Y**2 * inputs.d * inputs.M / inputs.mu**2


def tuned_c(regime: DriftRegime, inputs: BoundInputs, V: float) -> float:
    """Drift-tuned value of c.

    LOW:  c = (sqrt(2) T Y^2 d X / V)^{2/3}, valid when V <= low threshold.
    HIGH: c = sqrt(Y^2 d M T / V),           valid when V >= high threshold.

    V = 0 has no finite tuning; use the stationary sentinel c = inf.
    """
    low_thr = low_drift_threshold(inputs)
    high_thr = high_drift_threshold(inputs)
    if V <= 0:
        raise RegimeViolation(
            "V = 0 admits no finite tuning; use c = inf (stationary learner). "
            f"Thresholds: low <= {low_thr:.6g}, high >= {high_thr:.6g}"
        )
    if regime is DriftRegime.LOW:
        if V > low_thr:
            raise RegimeViolation(
                f"V = {V:.6g} exceeds low-drift threshold {low_thr:.6g} "
                f"(high-drift threshold is {high_thr:.6g})"
            )
        return (math.sqrt(2.0) * inputs.T * inputs.Y**2 * inputs.d * inputs.X / V) ** (2.0 / 3.0)
    if regime is DriftRegime.HIGH:
        if V < high_thr:
            raise RegimeViolation(
                f"V = {V:.6g} below high-drift threshold {high_thr:.6g} "
                f"(low-drift threshold is {low_thr:.6g})"
            )
        return math.sqrt(inputs.Y**2 * inputs.d * inputs.M * inputs.T / V)
    raise ValueError(f"unknown regime {regime!r}")


def tuned_params(
    regime: DriftRegime, T: int, d: int, Y: float, X: float, V: float, eps_ratio: float
) -> BoundInputs:
    """Self-consistent (b, c) for a tuned run: compute c from the regime
    formula (which needs no b), set b = eps_ratio * c, then validate the
    regime precondition with the resulting mu/M.
    """
    if not 0.0 < eps_ratio < 1.0:
        raise DomainError(f"eps_ratio must lie in (0, 1), got {eps_ratio}")
    if V <= 0:
        raise RegimeViolation("V = 0 admits no finite tuning; use c = inf")
    if regime is DriftRegime.LOW:
        c = (math.sqrt(2.0) * T * Y**2 * d * X / V) ** (2.0 / 3.0)
    elif regime is DriftRegime.HIGH:
        # M depends on b = eps * c: iterate the scalar fixed point.
        c = math.sqrt(Y**2 * d * max(3.0 * X * X, X * X) * T / V)
        for _ in range(100):
            M = max(3.0 * X * X, eps_ratio * c + X * X)
            c_next = math.sqrt(Y**2 * d * M * T / V)
            if abs(c_next - c) <= 1e-13 * max(1.0, c):
                c = c_next
                break
            c = c_next
    else:
        raise ValueError(f"unknown regime {regime!r}")
    inputs = BoundInputs(Y=Y, X=X, b=eps_ratio * c, c=c, d=d, T=T)
    tuned = tuned_c(regime, inputs, V)  # re-validates the precondition
    if abs(tuned - c) > 1e-9 * max(1.0, c):
        raise RegimeViolation(
            f"tuning did not reach a fixed point: c={c:.6g} vs {tuned:.6g}"
        )
    return inputs


def drift_tuned_bound(
    regime: DriftRegime,
    inputs: BoundInputs,
    V: float,
    u1_norm_sq: float,
    comparator_loss_value: float,
    logdet_DT_over_b: float,
) -> float:
    """Closed-form cumulative-loss ceiling for a tuned run.

    LOW:  b||u_1||^2 + 3 (sqrt(2) Y^2 d X)^{2/3} T^{2/3} V^{1/3}
          + eps/(1-eps) Y^2 d + L_T({u_t}) + Y^2 ln|D_T / b|
    HIGH: same with the drift term replaced by 2 sqrt(Y^2 d T M V).
    """
    eps = inputs.eps_ratio
    if not 0.0 < eps < 1.0:
        raise RegimeViolation(f"requires b = eps*c with eps in (0,1), got {eps}")
    base = (
        inputs.b * u1_norm_sq
        + eps / (1.0 - eps) * inputs.Y**2 * inputs.d
        + comparator_loss_value
        + inputs.Y**2 * logdet_DT_over_b
    )
    if regime is DriftRegime.LOW:
        if V > low_drift_threshold(inputs):
            raise RegimeViolation("low-drift bound requested outside its regime")
        drift_term = (
            3.0
            * (math.sqrt(2.0) * inputs.Y**2 * inputs.d * inputs.X) ** (2.0 / 3.0)
            * inputs.T ** (2.0 / 3.0)
            * V ** (1.0 / 3.0)
        )
    elif regime is DriftRegime.HIGH:
        if V < high_drift_threshold(inputs):
            raise RegimeViolation("high-drift bound requested outside its regime")
        drift_term = 2.0 * math.sqrt(inputs.Y**2 * inputs.d * inputs.T * inputs.M * V)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return float(base + drift_term)
