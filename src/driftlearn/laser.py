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

Each round is written once, as two stages over leading member axes (or
one square-root member): `_innovate` (P'x or the drift update, q, x . w
and the overflow check) and `_fold` (s = 1 + weight q, err =
gain (y - x . w) and the commit). `cov_rounds`, the one step loop over S
members (grid points, streams, or both, sharing T and d), calls them, and
so does the one single-state round, `_step_innovation` then `_step_fold`
on a `CovState`, the one state of every learner here: `cov_step` runs it,
`laser_predict` and `laser_update` add the shrinkage and clip, and
`_switches` holds the laser switch rule for both. Laser,
AAR, hinf and CR-RLS members differ only in their `CovMember` records (start
P, inflation, weight, gain, reset, spectra, kept weights, and a laser
member's LaserParams), which are all that `cov_rounds` takes, so one call
runs any mix of them; it derives each laser member's guard and switch
round from its record. Every member has a row of the (S, d, d) and (S, d)
arrays for all T rounds; one that its inputs move to square-root form
keeps its row, frozen, and takes its rounds on LAPACK calls of its own.

Bound checks take Tr D_t and ln det D_t from the Cholesky factor L of P_t
(Tr D = |L^{-1}|_F^2, ln det D = -2 sum ln L_ii), or from R, and need
lambda_max D_t only through its running maximum. cov_rounds certifies in
blocks of a fixed number of rounds, as many as fill BLOCK_BYTES with their
P_t (and R). Each factor takes one LAPACK trtri of its own; the factors
come from one batched factorization of the block below d = MEMBERWISE_D
and, from it on, where the flops outweigh the per-call cost, from one
LAPACK potrf per member. The exact value, from eigvalsh of P_t or the
singular values of R, is taken only on rounds where a certified upper
bound (Tr D_t, or the Lemma-6 eigenvalue map of the last exact value plus
|x_t|^2) could raise that maximum. Per member the arithmetic does not
depend on the batch or the block, nor do the results.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import BadStream, InvalidParams, NotPositiveDefinite

# largest kappa = min(X, c)/b at which the covariance form is kept regardless
# of X/c; its predictions then stay within a few 1e-13 relative
KAPPA_MAX = 1e4

# d from which _factor factors each member's P by a potrf of its own, not the
# stack by one batched Cholesky; the two round differently from d ~ 6 up. The
# factoring alone, us a matrix on one BLAS thread, batched/per member: 0.37/1.35
# at d = 4 (20 matrices); for one matrix 8.2-8.8/6.8, 17/14, 52/44 at d = 32, 50, 100
MEMBERWISE_D = 32

# bytes of P_t and R_t that fix the rounds per block of cov_rounds: as many as
# fill 2^13 doubles, rounded up. A block and its factors then stay near the 128
# KiB above which glibc's malloc maps fresh pages: 256 KiB blocks took 65 page
# faults a round and 1.7x the time at d = 100, where blocks save no calls
# anyway. Below d = 32 a block costs about one round's calls (see CHANGES.md).
BLOCK_BYTES = 2**16

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


class SqrtInformation(NamedTuple):
    """Square-root information statistics: D_t = R^T R with R upper
    triangular, and z = R w, so that e_t = R^T z."""

    R: np.ndarray
    z: np.ndarray


class LaserStep(NamedTuple):
    """What _step_innovation computed for one input, reused by _step_fold."""

    x: np.ndarray         # the validated input
    max_xsq: float        # max |x|^2 including this input (a laser record's)
    form: object          # the state's P, or its (R, z) once it has switched
    lead: object          # what _innovate returned for _fold: P'x, or (R', z')
    q: float              # x^T P' x, with P' = P + I/c; s = 1 + q
    xw: float             # x . w


def clip(x, y):
    """sign(x) * min(|x|, y), elementwise."""
    return np.copysign(np.minimum(np.abs(x), y), x)


def _p0(params: LaserParams) -> float:
    """The prior scale of P: 1/b - 1/c, or 1/b when c is infinite."""
    if params.stationary:
        return 1.0 / params.b
    return (params.c - params.b) / (params.b * params.c)


# -- the square-root information form, for one member ----------------------------

def _to_sqrt_info(P, w) -> SqrtInformation:
    """(R, z) of the covariance-form state (P, w): R = U^{-1} and
    z = U^{-1} w, from one factorization P = U U^T."""
    d = w.shape[0]
    Rz = linalg.tri_solve(linalg.cholesky_upper(P), np.column_stack((np.eye(d), w)))
    return SqrtInformation(Rz[:, :d], Rz[:, d])


# -- one round in two stages, for cov_rounds and the single-state steps ---------

def _innovate(form, w, x, inflation, t, drifts=True):
    """Round t's innovation (lead, q = x^T P' x, x . w), P' = P + I/c, of a
    covariance-form stack, form = P over any leading member axes and lead =
    P'x, or of one square-root member, form = (R, z) and lead = (R', z').
    inflation is 1/c: a (S, 1) column for S members, or None when no member
    drifts; drifts, a (S, 1) mask, keeps it off the others, where adding 0
    would turn a -0.0 into 0.0. Callers ignore overflow: x is finite, so q
    is infinite only if x^T P' x overflowed, which raises BadStream."""
    if isinstance(form, SqrtInformation):
        R, z = form
        if inflation:
            # the drift update (see the module docstring): the rows of the stacked
            # triangle carry the prior on the old weights u, and the rows under it
            # the drift c |u' - u|^2
            d = z.shape[0]
            A = np.zeros((2 * d + 1, 2 * d + 1), order="F")
            A[:d, :d], A[:d, -1] = R, z
            B = np.zeros((d, 2 * d + 1), order="F")
            np.fill_diagonal(B, -1.0 / math.sqrt(inflation))
            np.fill_diagonal(B[:, d:], 1.0 / math.sqrt(inflation))
            F = linalg.qr_stacked(A, B)
            R, z = F[d:-1, d:-1], F[d:-1, -1]
        v = linalg.tri_solve(R, x, trans=1)  # R'^{-T} x
        lead, q, xw = SqrtInformation(R, z), v @ v, v @ z
    else:
        lead = np.matvec(form, x)
        if inflation is not None:
            np.add(lead, inflation * x, out=lead, where=drifts)
        q, xw = np.vecdot(x, lead), np.vecdot(x, w)
    if not (math.isfinite(q) if isinstance(q, float) else np.isfinite(q).all()):
        raise BadStream(f"x^T P' x overflowed at round {t}: inputs too large for the prior")
    return lead, q, xw


def _fold(form, w, x, y, lead, q, xw, inflation, t, weight=None, gain=None, root=1.0,
          drifts=True):
    """Fold (x, y) into what _innovate read for round t: (form, w, s, err)
    after the round, with s = 1 + weight q and err = gain (y - x . w), weight
    and gain 1 when None, else one per member, root = sqrt(weight), taken
    once by the caller, and drifts as there. In covariance form P <- P' -
    weight P'x (P'x)^T / s and w <- w + P'x err / s (laser and CR-RLS have
    weight = gain = 1, hinf a - 1 and a); an s that is not positive means
    P' lost definiteness and raises NotPositiveDefinite. A square-root
    member gets its new (R, z) and w = None."""
    s = 1.0 + (q if weight is None else weight * q)
    err = y - xw
    if gain is not None:
        err = gain * err
    if isinstance(lead, SqrtInformation):  # the QR of [[R', z'], [x^T, y]]
        (R, z), d = lead, x.shape[0]
        A, B = np.zeros((d + 1, d + 1), order="F"), np.empty((1, d + 1))
        A[:d, :d], A[:d, d], B[0, :d], B[0, d] = R, z, x, y
        F = linalg.qr_stacked(A, B)
        return SqrtInformation(F[:d, :d], F[:d, d]), None, s, err
    if not (s.min(initial=math.inf) if s.ndim else s) > 0.0:
        raise NotPositiveDefinite(f"state lost definiteness at round {t}: "
                                  f"1 + weight x^T P' x = {np.min(s):.3e}")
    # sqrt(weight / s) would round differently, and move the written outputs
    shrink, step = root / np.sqrt(s), err / s
    if s.ndim:  # one per member: columns against the (S, d) rows of P'x
        shrink, step = shrink[:, None], step[:, None]
    g = lead * shrink
    P = form - g[..., :, None] * g[..., None, :]
    if inflation is not None:
        linalg.add_to_diagonal(P, inflation, drifts)
    return P, w + lead * step, s, err


def _factor(rounds):
    """Lower Cholesky factors of the stacks P of rounds, a list of (t, P),
    stacked in list order. They also guard definiteness: a failure, or a
    factor whose diagonal is not finite, names the earliest round t whose
    stack fails (the first such entry on a tie) and the least eigenvalue of
    its failing finite members (NaN if none). Below MEMBERWISE_D one batched
    factorization; from it on one LAPACK potrf per member, upper triangle cleared."""
    d = rounds[0][1].shape[-1]
    try:
        if d >= MEMBERWISE_D:
            return np.array([linalg._cholesky(A, clean=True)
                             for _, P in rounds for A in P]).reshape(-1, d, d)
        L = np.linalg.cholesky(np.concatenate([P for _, P in rounds]))
        if math.isfinite(np.diagonal(L, axis1=-2, axis2=-1).sum()):  # as in linalg._cholesky
            return L
    except (np.linalg.LinAlgError, NotPositiveDefinite):
        pass
    t, P = min(((t, P) for t, P in rounds if not all(map(linalg.factors, P))),
               key=lambda entry: entry[0], default=rounds[0])
    low = min((np.linalg.eigvalsh(A)[0] for A in P  # eigvalsh may fail to converge on inf or NaN
               if not linalg.factors(A) and np.isfinite(A).all()), default=math.nan)
    raise NotPositiveDefinite(f"state lost definiteness at round {t}: lambda_min = {low:.3e}")


def _logdet(L):
    """ln det D = -2 sum ln L_ii of each D = P^{-1} of a stack, from _factor's
    factors L of P."""
    return -2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)


def _trace_logdet(L):
    """(Tr D, ln det D) of each D = P^{-1} of a stack from _factor's factors
    L of P: Tr D = |L^{-1}|_F^2, L^{-1} from one LAPACK trtri per member."""
    inv = np.array([linalg.tri_inverse(M) for M in L]).reshape(L.shape)
    return (inv * inv).sum(axis=(-2, -1)), _logdet(L)


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
    final: list                  # per member, its CovState after the last round
    ws: np.ndarray | None        # (S, T, d) post-update weights of the keep_w members
    spectra: np.ndarray | None   # (T + 1, 3, K) (Tr D, peak lambda_max D, ln det D)
                                 # of the K members with spectra, in member order


def _certify(rounds, spec=None, xsq=None, rate=None, ub=None):
    """Certify a block of cov_rounds's rounds, a list of (t, Pc, Pg, roots):
    P_t of the K members with spectra, in column order, and of the guarded
    ones, and (column, R_t) of the square-root members with spectra, which
    keep their rows of Pc, frozen, and whose R_t replace them. One _factor
    call factors every P_t of the block, one _trace_logdet call gives Tr D
    and ln det D of those with spectra, and the lambda_max screen runs over
    the rounds in order, updating the bound ub in place. spec is None when
    only guarding."""
    if not rounds:
        return
    L = _factor([(t, Pc) for t, Pc, _, _ in rounds if Pc is not None]
                + [(t, Pg) for t, _, Pg, _ in rounds if Pg is not None])
    if spec is None:
        return
    t0, n, K = rounds[0][0], len(rounds), spec.shape[2]
    trs, lds = _trace_logdet(L[:n * K])
    spec[t0:t0 + n, 0], spec[t0:t0 + n, 2] = trs.reshape(n, K), lds.reshape(n, K)
    for t, Pc, _, roots in rounds:
        tr, lam, ld = spec[t]
        for c, R in roots:
            tr[c], ld[c] = _sqrt_trace_logdet(R)
        np.minimum(tr, ub / (1.0 + ub * rate) + xsq[t - 1], out=ub)
        peak = spec[t - 1, 1] if t > 1 else -math.inf  # the peak so far: none before round 1
        need = ub * (1.0 + PEAK_MARGIN) > peak
        if need.any():
            ub[need] = _lam_max(Pc[need])
        for c, R in roots:
            if need[c]:
                ub[c] = _lam_max(R=R)
        lam[:] = np.maximum(peak, ub)  # a skipped ub lies below the peak


class CovMember(NamedTuple):
    """One member of cov_rounds, its learner's round as a thin record: the
    start P (d, d), inflation 1/c (0 at c = inf, where nothing is added),
    the weight and gain of _fold, reset period (0: never), spectra and
    keep_w. laser holds the LaserParams of a laser-round member, which
    takes their switch rule, shrinkage and clip, and is guarded if it
    drifts without spectra."""

    P: np.ndarray
    inflation: float = 0.0
    weight: float = 1.0
    gain: float = 1.0
    reset: int = 0
    keep_w: bool = False
    spectra: bool = False
    laser: LaserParams | None = None


@dataclass(slots=True)
class CovState:
    """A covariance-family learner after t rounds: its record, w, and cov,
    its row in cov_rounds, from (and reset to) the record's P array, or None
    once a laser record has moved to square-root form, whose (R, z)
    sqrt_info holds. Only a laser record's state updates max_xsq (the
    largest |x|^2 seen), min_cost (the minimum tracking cost of the prefix)
    and last_x_quad (the latest x_t^T D_t^{-1} x_t). P is laser's and AAR's
    D_t^{-1}, else cov + inflation I (the next P'); D = P^{-1}, e = D w, f,
    and P in square-root form cost a factorization or a solve per access."""

    member: CovMember
    w: np.ndarray
    cov: np.ndarray | None
    t: int
    sqrt_info: SqrtInformation | None = None
    max_xsq: float = 0.0
    min_cost: float = 0.0
    last_x_quad: float = 0.0

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def P(self) -> np.ndarray:
        if self.sqrt_info is not None:
            U = linalg.tri_solve(self.sqrt_info.R, np.eye(self.dim))  # R^{-1}
            return U @ U.T
        m = self.member  # laser and AAR: D_t^{-1}; the others: P'
        return self.cov if m.laser else self.cov + m.inflation * np.eye(self.dim)

    @property
    def D(self) -> np.ndarray:
        R = (self.sqrt_info or _to_sqrt_info(self.P, self.w)).R
        return R.T @ R

    @property
    def e(self) -> np.ndarray:
        return self.D @ self.w

    @property
    def f(self) -> float:
        """f_t = min cost + e_t^T D_t^{-1} e_t."""
        return self.min_cost + float(self.e @ self.w)


def cov_init(p0: float, d: int, **fields) -> CovState:
    """The state before round 1 of the record that starts from P = p0 I,
    d >= 1, with CovMember's other fields: w = 0, cov the record's P."""
    if d < 1:
        raise InvalidParams(f"d must be >= 1, got {d}")
    P = p0 * np.eye(d)
    return CovState(CovMember(P, **fields), np.zeros(d), P, 0)


def laser_init(params: LaserParams, d: int) -> CovState:
    """Fresh state: P = (1/b - 1/c) I (I/b when c is infinite), w = 0."""
    return cov_init(_p0(params), d, inflation=params.inflation, laser=params)


def laser_member(params: LaserParams, d: int, spectra: bool = False) -> CovMember:
    """The laser round of laser_init's state."""
    return laser_init(params, d).member._replace(spectra=spectra)


@np.errstate(over="ignore")  # an overflowing |x|^2 or x^T P' x is inf, which _innovate reports
def cov_rounds(members: list[CovMember], xs, ys) -> tuple[CovRun, list]:
    """Run S members of the covariance-form round, each from its start P and
    w = 0, over xs (T, S, d) and ys (T, S), member i reading xs[:, i] and
    ys[:, i] (a broadcast view when all read one stream): (the CovRun, a
    LaserTrajectory per laser-round member and None per other). A field every
    member leaves at its default costs nothing, and no op on the stacked
    arrays mixes their rows, so a member's arithmetic does not depend on its
    batch. keep_w keeps the post-update weights.

    spectra records, before round 1 and after each round, Tr D and ln det D
    of D = P^{-1}, from the Cholesky factor of P, and the peak of
    lambda_max D: lambda_max D_0 before round 1, then the running maximum
    over rounds 1..t. The exact lambda_max D_t = 1/lambda_min P_t
    (eigvalsh) is taken only where the bound ub_t = min(Tr D_t,
    ub_{t-1}/(1 + ub_{t-1}/c) + |x_t|^2), the Lemma-6 map reset to each
    exact value, could raise the member's peak. The factorization also
    guards those members and the drifting laser-round members without
    spectra. Rounds after the start are certified by _certify in blocks of
    a fixed number of rounds, those whose P_t fill BLOCK_BYTES: when a
    block is full, after the last round, and before any error leaves the
    loop, so a failed factorization raises NotPositiveDefinite for the
    earliest round that lost definiteness, ahead of a later round's error.
    Memory is O(S (T + d^2)) plus about BLOCK_BYTES, and O(T d) per keep_w
    member.

    A laser-round member moves to square-root information form at the first
    round where _switches holds and keeps its row, frozen: the row reads x = 0
    from then on, and the member's own rounds replace what it writes. A
    member with spectra or laser must have weight and gain 1 and no reset:
    that form and the screen's map are the laser round's.
    """
    T, S, d = xs.shape
    xsq = np.vecdot(xs, xs)  # (T, S) |x_t|^2, for the switch rounds and the screen
    field = {k: np.array([getattr(m, k) for m in members]) for k in CovMember._fields[1:7]}
    drift, keep_w, spectra = field["inflation"], field["keep_w"], field["spectra"]
    weight, gain = (field[k] if (field[k] != 1.0).any() else None for k in ("weight", "gain"))
    resets = {k for p in set(field["reset"].tolist()) - {0} for k in range(p, T + 1, p)}
    reset = np.where(field["reset"] > 0, field["reset"], T + 1) if resets else None
    guard = np.array([m.laser is not None and not (m.spectra or m.laser.stationary)
                      for m in members])
    lz = [i for i, m in enumerate(members) if m.laser is not None]
    peaks, moves = np.maximum.accumulate(xsq, axis=0), {}  # round -> the members switching at it
    for i in lz:
        moves.setdefault(_switch_round(members[i].laser, peaks[:, i]), []).append(i)
    inflation = drift[:, None] if drift.any() else None
    drifts = True if drift.all() else (drift != 0)[:, None]  # where rows add inflation
    root = 1.0 if weight is None else np.sqrt(weight)
    P = P0 = np.stack([m.P for m in members])
    w, frozen = np.zeros((S, d)), np.zeros((S, 1), dtype=bool)  # frozen: the switched rows
    xws, qs = np.empty((S, T)), np.empty((S, T))
    ws = np.empty((S, T, d)) if keep_w.any() else None
    col, K = np.cumsum(spectra) - 1, int(spectra.sum())  # member -> column of the spectra
    # rows of the members with spectra, of the guarded ones and of the keep_w ones
    cid, gid, kid = (slice(None) if m.all() else np.flatnonzero(m) if m.any() else None
                     for m in (spectra, guard, keep_w))
    spec = np.empty((T + 1, 3, K)) if K else None
    screen, rounds = (), []  # the rest of _certify's arguments; the open block's rounds
    if K:
        spec[0, 0], spec[0, 2] = _trace_logdet(_factor([(0, P[cid])]))
        spec[0, 1] = _lam_max(P[cid])
        screen = (spec, xsq[:, cid], drift[cid], spec[0, 1].copy())
    # rounds per block: as many as fill BLOCK_BYTES with the certified members' P_t
    size = math.ceil(BLOCK_BYTES / max(8 * d * d * (K + int(guard.sum())), 1))
    roots = {}  # member -> SqrtInformation, from its switch round on
    try:
        for t in range(T):
            x, y = xs[t], ys[t]
            for i in moves.get(t, ()):
                roots[i], frozen[i] = _to_sqrt_info(P[i], w[i]), True
            # a frozen row reads x = 0: its round leaves w, adds I/c to P and has s = 1,
            # and the square-root rounds below replace everything of it that is read
            x0 = np.where(frozen, 0.0, x) if roots else x
            Px, q, xw = _innovate(P, w, x0, inflation, t + 1, drifts)
            P, w, _, _ = _fold(P, w, x0, y, Px, q, xw, inflation, t + 1, weight, gain, root,
                               drifts)
            xws[:, t], qs[:, t] = xw, q
            if t + 1 in resets:
                due = (t + 1) % reset == 0
                P[due] = P0[due]
            if kid is not None:
                ws[kid, t] = w[kid]
            for i, r in roots.items():
                lead, qs[i, t], xws[i, t] = _innovate(r, None, x[i], drift[i], t + 1)
                roots[i] = r = _fold(r, None, x[i], y[i], lead, qs[i, t], xws[i, t], None,
                                     t + 1)[0]
                if keep_w[i]:
                    ws[i, t] = linalg.tri_solve(*r)
            if K or gid is not None:
                rounds.append((t + 1, P[cid] if K else None, None if gid is None else P[gid],
                               [(col[i], r.R) for i, r in roots.items() if spectra[i]]))
                if len(rounds) == size:
                    block, rounds = rounds, []
                    _certify(block, *screen)
    finally:
        _certify(rounds, *screen)
    final = [CovState(m, linalg.tri_solve(*roots[i]), None, T, roots[i]) if i in roots
             else CovState(m, w[i], P[i], T) for i, m in enumerate(members)]
    run, out = CovRun(xws, qs, final, ws, spec), [None] * S
    if not lz:
        return run, out
    s = 1.0 + qs[lz]
    yhats, quads = xws[lz] / s, qs[lz] / s
    bound = np.array([members[i].laser.clip_bound or math.inf for i in lz])
    if np.isfinite(bound).any():
        yhats = clip(yhats, bound[:, None])
    err = ys.T[lz] - xws[lz]  # cumsum adds in order, as _step_fold does
    # an overflowing cost is kept, as the losses, which the harness refuses
    min_cost = np.cumsum(err * err / s, axis=1)[:, -1] if T else np.zeros(len(lz))
    max_xsq = np.max(xsq, axis=0, initial=0.0)
    for j, i in enumerate(lz):
        state = final[i]
        state.max_xsq, state.min_cost = float(max_xsq[i]), float(min_cost[j])
        state.last_x_quad = float(quads[j, -1]) if T else 0.0
        extra = spec[:, :, col[i]].T if spectra[i] else ()
        out[i] = LaserTrajectory(yhats[j], quads[j], state, *extra)
    return run, out


# -- the single-state step functions: one-member calls of the stages ------------

def _switches(params: LaserParams, xsq: float, max_xsq: float) -> bool:
    """The switch rule: an input with |x|^2 = xsq after inputs with max |x|^2
    = max_xsq moves a covariance-form state to square-root information form
    if it is a new peak at which kappa = min(xsq, c)/b exceeds both KAPPA_MAX
    and xsq/c (see the module docstring)."""
    return xsq > max_xsq and min(xsq, params.c) / params.b > max(KAPPA_MAX, xsq * params.inflation)


@np.errstate(over="ignore")  # an overflowing |x|^2 or x^T P' x is inf, which _innovate reports
def _step_innovation(state: CovState, x: np.ndarray) -> LaserStep:
    """A laser record's switch rule, then _innovate, for the validated input x."""
    m, form, max_xsq = state.member, state.sqrt_info or state.cov, state.max_xsq
    if m.laser is not None:
        xsq = float(x @ x)
        if state.sqrt_info is None and _switches(m.laser, xsq, max_xsq):
            form = _to_sqrt_info(state.cov, state.w)
        max_xsq = max(xsq, max_xsq)
    return LaserStep(x, max_xsq, form, *_innovate(form, state.w, x, m.inflation or None,
                                                  state.t + 1))


def _step_fold(state: CovState, y: float, step: LaserStep) -> CovState:
    """The state after _fold commits step's round with label y, with the
    record's inflation, weight and gain, then its reset; a laser record's
    statistics are updated too."""
    x, max_xsq, form, lead, q, xw = step
    m, t = state.member, state.t + 1
    form, w, s, err = _fold(form, state.w, x, y, lead, q, xw, m.inflation or None, t, m.weight,
                            m.gain, math.sqrt(m.weight))
    root = None
    if w is None:  # square-root form
        root, form, w = form, None, linalg.tri_solve(*form)
    elif m.reset and t % m.reset == 0:
        form = m.P
    if m.laser is None:
        return CovState(m, w, form, t)
    return CovState(m, w, form, t, root, max_xsq, float(state.min_cost + err * err / s),
                    float(q / s))


def laser_predict(state: CovState, x) -> tuple[float, LaserStep]:
    """Last-step min-max prediction for input x.

    Returns (yhat, step); pass step to laser_update for this same x to
    avoid recomputing it.
    """
    step = _step_innovation(state, linalg.as_vector(x, state.dim))
    yhat = float(step.xw / (1.0 + step.q))
    if state.member.laser.clip_bound is not None:
        yhat = clip(yhat, state.member.laser.clip_bound)
    return yhat, step


def laser_update(state: CovState, x, y: float, step: LaserStep | None = None) -> CovState:
    """Commit the round: fold (x, y) into the state.

    step, if given, must be the one laser_predict returned for this same
    x; x is then not read again. When omitted it is recomputed.
    """
    if step is None:
        step = _step_innovation(state, linalg.as_vector(x, state.dim))
    return _step_fold(state, y, step)


def cov_step(state: CovState, x, y: float) -> tuple[float, CovState]:
    """One round of the state's record, as cov_rounds runs it: (x . w before
    the round, the new state)."""
    step = _step_innovation(state, linalg.as_vector(x, state.dim))
    return float(step.xw), _step_fold(state, y, step)


def laser_min_cost(state: CovState) -> float:
    """Minimum of the offline tracking cost over all comparator sequences
    for the observed prefix, f_t - e_t^T D_t^{-1} e_t, accumulated in
    innovation form.

    Requires at least one committed round.
    """
    if state.t < 1:
        raise ValueError("no rounds committed yet")
    return state.min_cost


def logdet_D(state: CovState) -> float:
    """ln det D_t of the state, as cov_rounds computes it: -2 sum ln L_ii of
    the Cholesky factor L of P_t, or 2 sum ln |R_ii| in square-root form."""
    if state.sqrt_info is not None:
        return _sqrt_trace_logdet(state.sqrt_info.R)[1]
    return float(_logdet(_factor([(state.t, state.P[None])]))[0])


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
    state: CovState
    trace_D: np.ndarray | None = None
    lam_peak_D: np.ndarray | None = None
    logdet_D: np.ndarray | None = None


def _switch_round(params: LaserParams, peaks: np.ndarray) -> int:
    """The first round at which _switches holds, where the running max |x|^2
    (the values in peaks) rises, or len(peaks) if it never does."""
    prior = np.concatenate(([0.0], peaks[:-1]))
    for t in np.flatnonzero(peaks > prior):
        if _switches(params, float(peaks[t]), float(prior[t])):
            return int(t)
    return len(peaks)


def laser_trajectories(params, xs, ys, spectra: bool = False) -> list[LaserTrajectory]:
    """Run S members of the learner, params[i] for member i, under the
    online protocol in one cov_rounds call; one LaserTrajectory per
    member, in order. xs is (T, S, d) and ys (T, S), as in cov_rounds. One
    whose inputs move it to square-root information form keeps its row,
    frozen, from that round on. Each drifting covariance-form member's P (with
    spectra, every one's) is checked positive definite after every round by
    the stacked Cholesky factorization, per block of rounds, that also gives
    the spectra.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return cov_rounds([laser_member(p, xs.shape[2], spectra) for p in params], xs, ys)[1]


def laser_trajectory(params: LaserParams, xs, ys, spectra: bool = False) -> LaserTrajectory:
    """Run the learner over the stream (xs, ys) under the online protocol.

    xs is a (T, d) array and ys a (T,) array, run as the one-member
    batch (T, 1, d) and (T, 1). Memory is O(T + d^2): no per-step matrix
    is kept.
    """
    return laser_trajectories([params], np.expand_dims(xs, 1), np.expand_dims(ys, 1), spectra)[0]
