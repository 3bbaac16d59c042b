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
    min cost += (y - x . w)^2 / s

from P_0 = (1/b - 1/c) I and w_0 = 0. x^T D_t^{-1} x = (s - 1)/s is kept for
the bound checks. Rounding leaves P exactly symmetric: the rank-one term is
formed as g g^T with g = P'x / sqrt(s).

c = math.inf is a first-class stationary sentinel: the inflation vanishes
and the learner is the forward ridge (AAR) recursion, P_0 = I/b.

Accuracy. The downdate cancels digits when a round shrinks P far below
its prior scale 1/b: on long streams predictions lose about eps * kappa
relative, with kappa = min(X, c) / b and X = max_t |x_t|^2. A state
therefore starts in covariance form and moves, once and for good, to
square-root information form as soon as the inputs seen so far put kappa
above both KAPPA_MAX and X/c. That form holds D = R^T R, R upper
triangular, and z = R w, and changes them only by orthogonal
transformations (Bierman 1977; Kailath, Sayed & Hassibi 2000, ch. 12), so
D cannot lose definiteness. A round is two QR factorizations of a
triangle stacked on a few rows, O(d^3) with drift and O(d^2) at c = inf:

    drift: the QR of [[R, 0, z], [-sqrt(c) I, sqrt(c) I, 0]] leaves R', z'
           with R'^T R' = (P + I/c)^{-1} and z' = R' w in its middle
    v = R'^{-T} x;  s = 1 + v . v;  yhat = (v . z') / s
    commit: the QR of [[R', z'], [x^T, y]] leaves the new R, z

Two regions stay inexact, as in `oracle.laser_direct`: kappa >> KAPPA_MAX
with slow forgetting while some direction of D still sits at the prior
scale b (streams shorter than d), where the drift update loses digits
(1e-8 relative at b = 0.01, c = 1e12, |x| ~ 2e4, d = 4); and c up to
sqrt(b X) with X/b >> 1e8 where the rule keeps the covariance form, which
loses about eps * sqrt(X/b).

Each round is written once, the covariance-form one over leading member
axes, and serves both the single-state step functions and `cov_rounds`,
the one step loop over S members (grid points, streams, or both, sharing
T and d), which also runs the H-infinity filter and CR-RLS (see `hinf`,
`baselines`). `laser_trajectories` runs every laser member in it: members
stay on (S, d, d) and (S, d) arrays until their inputs move them to
square-root form, and then take their rounds on LAPACK calls of their own.
Bound checks take Tr D_t and ln det D_t from the Cholesky factor L of P_t
(Tr D = |L^{-1}|_F^2, ln det D = -2 sum ln L_ii), or from R, and need
lambda_max D_t only through its running maximum. Below d = MEMBERWISE_D
one batched factorization and one batched triangular inverse serve a
round's members; from it on, where the flops outweigh the per-call cost,
each member takes one LAPACK potrf and one trtri of its own. The exact
value, from eigvalsh of P_t or the singular values of R, is taken
only on rounds where a certified upper bound (Tr D_t, or the Lemma-6
eigenvalue map of the last exact value plus |x_t|^2) could raise that
maximum. Per member the arithmetic does not depend on the batch, nor do
the results.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import linalg
from .errors import BadStream, InvalidParams, NotPositiveDefinite

# largest kappa = min(X, c)/b at which the covariance form is kept regardless
# of X/c; its predictions then stay within a few 1e-13 relative
KAPPA_MAX = 1e4

# d from which certification factors and inverts each member's P by LAPACK
# calls of its own, not the stack by batched ones: on one BLAS thread 0.5-0.9x
# the batched time at d = 32 (1-80 members), 1.1-1.3x at d = 20 (4-20 members)
MEMBERWISE_D = 32

# cov_rounds skips the exact lambda_max D_t only where its bound ub clears the
# running peak by this relative margin, far above the rounding in Tr D and the map
PEAK_MARGIN = 1e-9


@dataclass(frozen=True)
class LaserParams:
    """Learner hyperparameters: 0 < b < c, with c = math.inf allowed."""

    b: float
    c: float = math.inf
    clip_bound: float | None = None

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b) and math.isfinite(1.0 / self.b)):
            raise InvalidParams(f"b must be a positive finite real with a finite "
                                f"reciprocal, got {self.b}")
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


class SqrtInformation(NamedTuple):
    """Square-root information statistics: D_t = R^T R with R upper
    triangular, and z = R w, so that e_t = R^T z."""

    R: np.ndarray
    z: np.ndarray


@dataclass(slots=True)
class LaserState:
    """The learner after t observed rounds.

    w = D_t^{-1} e_t in both forms. In covariance form cov holds
    P = D_t^{-1} and sqrt_info is None; in square-root information form cov
    is None and sqrt_info holds (R, z). min_cost is the minimum of the
    tracking cost over the observed prefix; max_xsq is the largest |x|^2
    seen. last_x_quad records the most recent x_t^T D_t^{-1} x_t for bound
    diagnostics. P, D, e and f are derived for tests and diagnostics and
    cost a factorization or a solve per access.
    """

    params: LaserParams
    w: np.ndarray
    cov: np.ndarray | None
    sqrt_info: SqrtInformation | None
    max_xsq: float
    min_cost: float
    t: int
    last_x_quad: float = 0.0

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def P(self) -> np.ndarray:
        if self.cov is not None:
            return self.cov
        U = linalg.tri_solve(self.sqrt_info.R, np.eye(self.dim))  # R^{-1}
        return U @ U.T

    @property
    def D(self) -> np.ndarray:
        R = (self.sqrt_info or _to_sqrt_info(self.cov, self.w)).R
        return R.T @ R

    @property
    def e(self) -> np.ndarray:
        return self.D @ self.w

    @property
    def f(self) -> float:
        """f_t = min cost + e_t^T D_t^{-1} e_t."""
        return self.min_cost + float(self.e @ self.w)


class LaserStep(NamedTuple):
    """What laser_predict computed for one input, reused by laser_update."""

    x: np.ndarray         # the validated input
    q: float              # x^T P' x, with P' = P + I/c; s = 1 + q
    xw: float             # x . w
    max_xsq: float        # max |x|^2 including this input
    Px: np.ndarray | None  # P' x, in covariance form
    sqrt_info: SqrtInformation | None  # (R', z') to commit, in square-root form


def clip(x, y):
    """sign(x) * min(|x|, y), elementwise."""
    return np.copysign(np.minimum(np.abs(x), y), x)


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


def _check_q(q, t: int) -> None:
    """x is finite, so x^T P' x, of one member or a stack, is too unless it
    overflowed."""
    if not (math.isfinite(q) if isinstance(q, float) else np.isfinite(q).all()):
        raise BadStream(f"x^T P' x overflowed at round {t}: inputs too large for the prior")


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


# -- the square-root information round, for one member ---------------------------

def _to_sqrt_info(P, w) -> SqrtInformation:
    """(R, z) of the covariance-form state (P, w): R = U^{-1} and
    z = U^{-1} w, from one factorization P = U U^T."""
    d = w.shape[0]
    Rz = linalg.tri_solve(linalg.cholesky_upper(P), np.column_stack((np.eye(d), w)))
    return SqrtInformation(Rz[:, :d], Rz[:, d])


def _sqrt_innovation(root: SqrtInformation, x, inflation):
    """((R', z'), q = x^T P' x, x . w) from (R, z): the drift update (see
    the module docstring; none when inflation = 1/c is 0), in which the
    rows of the stacked triangle carry the prior on the old weights u and
    the rows under it the drift c |u' - u|^2, then v = R'^{-T} x."""
    R, z = root
    if inflation:
        d = z.shape[0]
        A = np.zeros((2 * d + 1, 2 * d + 1), order="F")
        A[:d, :d], A[:d, -1] = R, z
        B = np.zeros((d, 2 * d + 1), order="F")
        np.fill_diagonal(B, -1.0 / math.sqrt(inflation))
        np.fill_diagonal(B[:, d:], 1.0 / math.sqrt(inflation))
        F = linalg.qr_stacked(A, B)
        R, z = F[d:-1, d:-1], F[d:-1, -1]
    v = linalg.tri_solve(R, x, trans=1)
    return SqrtInformation(R, z), v @ v, v @ z


def _sqrt_commit(root: SqrtInformation, x, y) -> SqrtInformation:
    """(R, z) after (x, y) from _sqrt_innovation's (R', z'): the QR of
    [[R', z'], [x^T, y]]."""
    R, z = root
    d = z.shape[0]
    A, B = np.zeros((d + 1, d + 1), order="F"), np.empty((1, d + 1))
    A[:d, :d], A[:d, d], B[0, :d], B[0, d] = R, z, x, y
    F = linalg.qr_stacked(A, B)
    return SqrtInformation(F[:d, :d], F[:d, d])


def _factor(P, t: int):
    """Lower Cholesky factors of the stack P, which also guard definiteness:
    a failure names round t and the least eigenvalue of the members whose
    factorization failed. Below MEMBERWISE_D one batched factorization;
    from it on one LAPACK potrf per member, with the upper triangle cleared."""
    try:
        if P.shape[-1] < MEMBERWISE_D:
            return np.linalg.cholesky(P)
        return np.array([linalg._cholesky(A, clean=True) for A in P]).reshape(P.shape)
    except (np.linalg.LinAlgError, NotPositiveDefinite):
        low = min((np.linalg.eigvalsh(A)[0] for A in P if not linalg.factors(A)),
                  default=math.nan)
        raise NotPositiveDefinite(f"state lost definiteness at round {t}: "
                                  f"lambda_min = {low:.3e}") from None


def _trace_logdet(L):
    """(Tr D, ln det D) of each D = P^{-1} of a stack from _factor's factors
    L of P: Tr D = |L^{-1}|_F^2 and ln det D = -2 sum ln L_ii. L^{-1} comes
    from one batched scipy.linalg.inv below MEMBERWISE_D and from one LAPACK
    trtri per member from it on."""
    if L.shape[-1] < MEMBERWISE_D:
        with warnings.catch_warnings():  # an ill-conditioned L still inverts to working accuracy
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            inv = scipy.linalg.inv(L, assume_a="lower triangular", check_finite=False)
    else:
        inv = np.array([linalg.tri_inverse(M) for M in L]).reshape(L.shape)
    return ((inv * inv).sum(axis=(-2, -1)),
            -2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1))


def _sqrt_trace_logdet(R):
    """(Tr D, ln det D) of D = R^T R: |R|_F^2 and 2 sum ln |R_ii|."""
    return float((R * R).sum()), 2.0 * float(np.log(np.abs(np.diagonal(R))).sum())


def _lam_max(P=None, R=None):
    """lambda_max D = 1 / lambda_min P, of each D = P^{-1} of a stack from
    eigvalsh, or of D = R^T R from the largest singular value of R."""
    if R is None:
        return 1.0 / np.linalg.eigvalsh(P)[..., 0]
    # the eigenvalues of P, descending, raised as an array: numpy's scalar
    # power rounds differently in the last bit
    return 1.0 / (np.linalg.svd(R, compute_uv=False) ** -2)[0]


class CovRun(NamedTuple):
    """What cov_rounds recorded of S members over T rounds."""

    xw: np.ndarray               # (S, T): x_t . w_{t-1}
    q: np.ndarray                # (S, T): x_t^T P' x_t, unweighted
    final: list                  # per member after the last round: (P, w, None)
                                 # in covariance form, else (None, w, (R, z))
    ws: np.ndarray | None        # (S, T, d) post-update weights, with keep_w
    spectra: np.ndarray | None   # (T + 1, 3, S) (Tr D, peak lambda_max D, ln det D)


@np.errstate(over="ignore")  # an overflowing x^T P' x is inf, which _check_q reports
def cov_rounds(P, xs, ys, inflation=None, weight=None, gain=None, reset=None,
               keep_w=False, spectra=False, guard=None, switch=None) -> CovRun:
    """Run S members of the covariance-form round from P (S, d, d) and w = 0
    over xs (T, S, d) and ys (T, S), member i reading xs[:, i] and ys[:, i]
    (a broadcast view when all read one stream). Per member: inflation is
    1/c (0 at c = inf), weight and gain are those of _cov_commit (1 when
    None), and after each reset-th round P returns to its start. keep_w
    keeps the post-update weights.

    spectra records, before round 1 and after each round, Tr D and ln det D
    of D = P^{-1}, from one batched Cholesky factorization of P, and the
    peak of lambda_max D: lambda_max D_0 before round 1, then the running
    maximum over rounds 1..t. The exact lambda_max D_t = 1/lambda_min P_t
    (eigvalsh) is taken only where the bound ub_t = min(Tr D_t,
    ub_{t-1}/(1 + ub_{t-1}/c) + |x_t|^2), the Lemma-6 map reset to each
    exact value, could raise the member's peak. The factorization also
    guards every held member; without spectra, the members where guard
    holds are factorized alone. A failed factorization raises
    NotPositiveDefinite.

    With switch, laser member i leaves the stacked arrays for square-root
    information form at round switch[i] (never if switch[i] >= T) and runs
    its later rounds alone. switch and spectra hold only for the laser
    round: weight, gain and reset must be unset, and keep_w too with switch.
    """
    if (switch is not None or spectra) and (weight is not None or gain is not None
                                            or reset is not None):
        raise ValueError("switch and spectra run laser members: no weight, gain or reset")
    if switch is not None and keep_w:
        raise ValueError("switch runs laser members: no keep_w")
    T, S, d = xs.shape
    drift = inflation
    inflation = None if inflation is None or not inflation.any() else inflation[:, None]
    root = 1.0 if weight is None else np.sqrt(weight)[:, None]
    P0, w = P, np.zeros((S, d))
    xws, qs = np.empty((S, T)), np.empty((S, T))
    ws = np.empty((S, T, d)) if keep_w else None
    spec = np.empty((T + 1, 3, S)) if spectra else None
    if spectra:
        spec[0, 0], spec[0, 2] = _trace_logdet(_factor(P, 0))
        spec[0, 1] = ub = _lam_max(P)
        peak = np.full(S, -math.inf)
        rate = 0.0 if drift is None else drift
    rows = slice(None)  # the members held in the stacked arrays
    roots = {}          # member -> SqrtInformation, from its switch round on
    moves = set() if switch is None else set(switch[switch < T].tolist())
    for t in range(T):
        x, y = xs[t], ys[t]
        if spectra:
            xsq = np.vecdot(x, x)
        if t in moves:
            held = np.arange(S)[rows]
            keep = switch[held] != t
            for j in np.flatnonzero(~keep):
                roots[int(held[j])] = _to_sqrt_info(P[j], w[j])
            rows, P, w = held[keep], P[keep], w[keep]
            inflation = None if inflation is None else inflation[keep]
            guard = None if guard is None else guard[keep]
        if roots:
            for i, r in roots.items():
                r, qs[i, t], xws[i, t] = _sqrt_innovation(r, x[i], drift[i])
                _check_q(qs[i, t], t + 1)
                roots[i] = _sqrt_commit(r, x[i], y[i])
            x, y = x[rows], y[rows]
        Px, q, xw = _cov_innovation(P, w, x, inflation)
        _check_q(q, t + 1)
        s = 1.0 + (q if weight is None else weight * q)
        err = y - xw
        if gain is not None:
            err = gain * err
        P, w = _cov_commit(P, w, Px, s[:, None], err[:, None], inflation, root)
        xws[rows, t], qs[rows, t] = xw, q
        if reset is not None:
            due = (t + 1) % reset == 0
            P[due] = P0[due]
        if keep_w:
            ws[:, t] = w
        if spectra:
            tr, lam, ld = spec[t + 1]
            tr[rows], ld[rows] = _trace_logdet(_factor(P, t + 1))
            for i, r in roots.items():
                tr[i], ld[i] = _sqrt_trace_logdet(r.R)
            ub = np.minimum(tr, ub / (1.0 + ub * rate) + xsq)
            need = ub * (1.0 + PEAK_MARGIN) > peak
            exact = need[rows]
            if exact.any():
                ub[np.arange(S)[rows][exact]] = _lam_max(P[exact])
            for i, r in roots.items():
                if need[i]:
                    ub[i] = _lam_max(R=r.R)
            lam[:] = peak = np.maximum(peak, ub)  # a skipped ub lies below the peak
        elif guard is not None:
            _factor(P[guard], t + 1)
    held = zip(P, w)
    final = [(None, linalg.tri_solve(*roots[i]), roots[i]) if i in roots else (*next(held), None)
             for i in range(S)]
    return CovRun(xws, qs, final, ws, spec)


# -- the single-state step functions --------------------------------------------

@np.errstate(over="ignore")  # an overflowing x^T P' x is inf, which _check_q reports
def _innovation(state: LaserState, x: np.ndarray) -> LaserStep:
    params = state.params
    cov, root = state.cov, state.sqrt_info
    max_xsq = state.max_xsq
    xsq = float(x @ x)
    if xsq > max_xsq:
        max_xsq = xsq
        if root is None and not params.covariance_holds(xsq):
            cov, root = None, _to_sqrt_info(cov, state.w)
    if root is None:
        Px, q, xw = _cov_innovation(cov, state.w, x, params.inflation or None)
    else:
        Px = None
        root, q, xw = _sqrt_innovation(root, x, params.inflation)
    _check_q(q, state.t + 1)
    return LaserStep(x, q, xw, max_xsq, Px, root)


def _predict(state: LaserState, x: np.ndarray) -> tuple[float, LaserStep]:
    step = _innovation(state, x)
    yhat = float(step.xw / (1.0 + step.q))
    if state.params.clip_bound is not None:
        yhat = clip(yhat, state.params.clip_bound)
    return yhat, step


def _commit(state: LaserState, y: float, step: LaserStep) -> LaserState:
    params = state.params
    x, q, xw, max_xsq, Px, root = step
    s = 1.0 + q
    err = y - xw
    if root is None:
        P, w = _cov_commit(state.cov, state.w, Px, s, err, params.inflation or None)
    else:
        P, root = None, _sqrt_commit(root, x, y)
        w = linalg.tri_solve(*root)
    return LaserState(params, w, P, root, max_xsq, float(state.min_cost + err * err / s),
                      state.t + 1, float(q / s))


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


def laser_min_cost(state: LaserState) -> float:
    """Minimum of the offline tracking cost over all comparator sequences
    for the observed prefix, f_t - e_t^T D_t^{-1} e_t, accumulated in
    innovation form.

    Requires at least one committed round.
    """
    if state.t < 1:
        raise ValueError("no rounds committed yet")
    return state.min_cost


def d_spectrum(state: LaserState) -> tuple[float, float, float]:
    """(Tr D, lambda_max D, ln det D) of the state's D_t, as cov_rounds
    computes them: from the Cholesky factor of P_t = D_t^{-1} and its
    eigvalsh or, in square-root form, from R and its singular values."""
    root = state.sqrt_info
    if root is not None:
        tr, ld = _sqrt_trace_logdet(root.R)
        return tr, float(_lam_max(R=root.R)), ld
    (tr,), (ld,) = _trace_logdet(_factor(state.cov[None], state.t))
    return float(tr), float(_lam_max(state.cov)), float(ld)


# -- whole streams ---------------------------------------------------------------

@dataclass(frozen=True)
class LaserTrajectory:
    """One pass of the learner over a stream.

    yhats and quads (x_t^T D_t^{-1} x_t) have one entry per round. With
    spectra, trace_D and logdet_D hold Tr D_t and ln det D_t for t = 0..T,
    and lam_peak_D holds lambda_max D_0 and then, at t >= 1, the running
    maximum of lambda_max D_s over 1 <= s <= t (see cov_rounds); otherwise
    they are None.
    """

    yhats: np.ndarray
    quads: np.ndarray
    state: LaserState
    trace_D: np.ndarray | None = None
    lam_peak_D: np.ndarray | None = None
    logdet_D: np.ndarray | None = None


def _switch_round(params: LaserParams, peaks: np.ndarray) -> int:
    """The round at which a state moves to square-root information form
    along a stream whose running max |x|^2 takes the values in peaks (see
    _innovation), or len(peaks) if it never does."""
    for t in np.flatnonzero(peaks > np.concatenate(([0.0], peaks[:-1]))):
        if not params.covariance_holds(float(peaks[t])):
            return int(t)
    return len(peaks)


def laser_trajectories(params, xs, ys, spectra: bool = False) -> list[LaserTrajectory]:
    """Run S members of the learner, params[i] for member i, under the
    online protocol; one LaserTrajectory per member, in order.

    xs is (T, S, d) and ys (T, S), as in cov_rounds. Every member runs in
    one cov_rounds loop; one whose inputs move it to square-root information
    form leaves the stacked arrays at that round. Each drifting
    covariance-form member's P (with spectra, every one's) is checked positive
    definite every round by the stacked Cholesky factorization that also
    gives the spectra. The shrinkage and the clip apply to the recorded (S, T)
    arrays. Memory is O(S (T + d^2)): no per-step matrix is kept.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    T, S, d = xs.shape
    with np.errstate(over="ignore"):  # cov_rounds reports overflowing inputs
        xsq = np.vecdot(xs, xs)
    peaks = np.maximum.accumulate(xsq, axis=0)
    switch = np.array([_switch_round(p, peaks[:, i]) for i, p in enumerate(params)])
    c = np.array([p.c for p in params])
    drifting = np.isfinite(c)
    P = np.array([_p0(p) for p in params])[:, None, None] * np.eye(d)
    guard = drifting if not spectra and drifting.any() else None
    run = cov_rounds(P, xs, ys, 1.0 / c, spectra=spectra, guard=guard,
                     switch=switch if (switch < T).any() else None)
    s = 1.0 + run.q
    yhats, quads = run.xw / s, run.q / s
    bound = np.array([math.inf if p.clip_bound is None else p.clip_bound for p in params])
    if np.isfinite(bound).any():
        yhats = clip(yhats, bound[:, None])
    err = ys.T - run.xw  # cumsum adds in order, as _commit does
    min_cost = np.cumsum(err * err / s, axis=1)[:, -1] if T else np.zeros(S)

    max_xsq = np.max(xsq, axis=0, initial=0.0)
    out = []
    for i, p in enumerate(params):
        cov, w, root = run.final[i]
        state = LaserState(p, w, cov, root, float(max_xsq[i]), float(min_cost[i]), T,
                           float(quads[i, -1]) if T else 0.0)
        extra = run.spectra[:, :, i].T if spectra else ()
        out.append(LaserTrajectory(yhats[i], quads[i], state, *extra))
    return out


def laser_trajectory(params: LaserParams, xs, ys, spectra: bool = False) -> LaserTrajectory:
    """Run the learner over the stream (xs, ys) under the online protocol.

    xs is a (T, d) array and ys a (T,) array, run as the one-member
    batch (T, 1, d) and (T, 1). Memory is O(T + d^2): no per-step matrix
    is kept.
    """
    return laser_trajectories([params], np.expand_dims(xs, 1), np.expand_dims(ys, 1), spectra)[0]
