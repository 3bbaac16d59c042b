"""Experiment driver: run learners over streams, score them, certify bounds.

Every run follows the strict online protocol (predict on x_t before y_t
is revealed) and produces a RunReport with per-step records, cumulative
loss, regret against the generating target, and the applicable bound
checks evaluated on the spot. Multi-seed experiments are embarrassingly
parallel over (seed, learner) pairs and reduce deterministically.
"""

import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, hinf, laser, oracle
from .datagen import DatasetSpec, LabeledStream, gen_stream
from .errors import BadStream, InvalidParams, LengthMismatch, UnknownAlgo

ALGO_IDS = ("laser", "aar", "nlms", "crrls", "hinf")
ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

BOUND_TOL = 1e-6     # additive tolerance on O(1)-O(1e3) bound inequalities
EIG_TOL = 1e-9       # tolerance on eigenvalue/log-det inequalities


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class RunReport:
    """Everything recorded from one learner on one stream."""

    algo_id: str
    params: dict
    ts: np.ndarray        # 1..T
    yhats: np.ndarray
    ys: np.ndarray
    losses: np.ndarray
    cumlosses: np.ndarray
    L_T: float
    regret_vs_truth: float
    quad_trace: np.ndarray | None = None       # per-step x^T D^{-1} x (drift learner)
    post_update_w: np.ndarray | None = None    # (T, d) post-update weights (robust filter)
    bound_checks: list[BoundCheck] = field(default_factory=list)
    seed: int = 0

    @property
    def per_step(self):
        return zip(self.ts, self.yhats, self.ys, self.losses, self.cumlosses)


def _laser_params(params: dict, stream: LabeledStream):
    """Resolve (LaserParams, tuned regime info) from a raw params dict."""
    regime = None
    inputs = None
    if "tuned_regime" in params:
        try:
            regime = oracle.DriftRegime(params["tuned_regime"])
        except ValueError as exc:
            raise InvalidParams(f"unknown tuned_regime {params['tuned_regime']!r}") from exc
        eps_ratio = params.get("eps_ratio")
        if eps_ratio is None:
            raise InvalidParams("tuned_regime requires eps_ratio")
        if "b" in params or "c" in params:
            raise InvalidParams("tuned_regime computes b and c; do not pass them")
        inputs = oracle.tuned_params(
            regime,
            T=stream.T,
            d=stream.dim,
            Y=stream.Y_bound,
            X=stream.X_bound,
            V=stream.truth.V,
            eps_ratio=float(eps_ratio),
        )
        b, c = inputs.b, inputs.c
    else:
        if "b" not in params or "c" not in params:
            raise InvalidParams("laser requires b and c (or tuned_regime + eps_ratio)")
        b, c = float(params["b"]), float(params["c"])
    lp = laser.LaserParams(
        b=b,
        c=c,
        track_f=bool(params.get("track_f", False)),
        clip_bound=params.get("clip_bound"),
    )
    return lp, regime, inputs


def _check_keys(params: dict, allowed: set[str], required: tuple[str, ...] = ()) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise InvalidParams(f"unknown parameter(s): {sorted(unknown)}")
    missing = [k for k in required if k not in params]
    if missing:
        raise InvalidParams(f"missing parameter(s): {missing}")


def _check_stream(stream: LabeledStream) -> None:
    """Validate the stream once, so the learner loops need not."""
    xs, ys = stream.xs, stream.ys
    if xs.ndim != 2 or ys.shape != (xs.shape[0],):
        raise LengthMismatch(f"inputs {xs.shape} and labels {ys.shape} are not aligned")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise BadStream("stream has non-finite inputs or labels")


def run_learner(algo_id: str, params: dict, stream: LabeledStream, seed: int = 0) -> RunReport:
    """Run one learner over one stream under the online protocol."""
    _check_stream(stream)
    T, d = stream.T, stream.dim
    xs, ys = stream.xs, stream.ys
    yhats = np.empty(T)
    quad_trace = None
    post_ws = None

    if algo_id == "laser":
        _check_keys(params, {"b", "c", "track_f", "clip_bound", "tuned_regime", "eps_ratio"})
        lp, regime, inputs = _laser_params(params, stream)
        traj = laser.laser_trajectory(lp, xs, ys, spectra=not lp.stationary)
        yhats, quad_trace = traj.yhats, traj.quads
    elif algo_id == "aar":
        # forward ridge is the laser step at c = inf; it certifies no bounds
        _check_keys(params, {"b"}, required=("b",))
        st = baselines.aar_init(float(params["b"]), d)
        for t in range(T):
            yhats[t], st = baselines.aar_step(st, xs[t], ys[t])
    elif algo_id == "nlms":
        _check_keys(params, {"eta", "eps"}, required=("eta",))
        st = baselines.nlms_init(d, float(params["eta"]), float(params.get("eps", 0.0)))
        for t in range(T):
            yhats[t], st = baselines.nlms_step(st, xs[t], ys[t])
    elif algo_id == "crrls":
        _check_keys(params, {"reset_period", "b_reset"}, required=("reset_period", "b_reset"))
        st = baselines.crrls_init(d, int(params["reset_period"]), float(params["b_reset"]))
        for t in range(T):
            yhats[t], st = baselines.crrls_step(st, xs[t], ys[t])
    elif algo_id == "hinf":
        _check_keys(params, {"a", "b", "c"}, required=("a", "b", "c"))
        hp = hinf.HInfParams(a=float(params["a"]), b=float(params["b"]), c=float(params["c"]))
        st = hinf.hinf_init(hp, d)
        post_ws = np.empty((T, d))
        for t in range(T):
            yhats[t], st = hinf.hinf_step(st, xs[t], ys[t])
            post_ws[t] = st.w
    else:
        raise UnknownAlgo(f"no learner named {algo_id!r}; choose from {ALGO_IDS}")

    losses = (ys - yhats) ** 2
    cumlosses = np.cumsum(losses)
    L_T = float(cumlosses[-1]) if T else 0.0
    truth_loss = oracle.comparator_loss(stream.truth, xs, ys)
    report = RunReport(
        algo_id=algo_id,
        params=dict(params),
        ts=np.arange(1, T + 1),
        yhats=yhats,
        ys=ys.copy(),
        losses=losses,
        cumlosses=cumlosses,
        L_T=L_T,
        regret_vs_truth=L_T - truth_loss,
        quad_trace=quad_trace,
        post_update_w=post_ws,
        seed=seed,
    )

    if algo_id == "laser":
        report.bound_checks = _laser_bound_checks(report, stream, lp, traj, regime, inputs)
    elif algo_id == "hinf":
        report.bound_checks = _hinf_bound_checks(report, stream, hp)
    return report


def _laser_bound_checks(report, stream, lp, traj, regime, inputs) -> list[BoundCheck]:
    checks = []
    rhs = oracle.cumloss_bound(
        stream.truth, stream.xs, stream.ys, lp.b, lp.c,
        stream.Y_bound, report.quad_trace,
    )
    checks.append(BoundCheck(
        "comparator_cumloss_bound", report.L_T, rhs, report.L_T <= rhs + BOUND_TOL
    ))
    if lp.stationary:  # the trace term vanishes; only ln det D_T is needed
        logdet_T, trace_sum = laser.d_spectrum(traj.state)[2], 0.0
    else:
        logdet_T, trace_sum = float(traj.logdet_D[-1]), float(np.sum(traj.trace_D[:-1]))
    lhs = float(np.sum(report.quad_trace))
    rhs = float(oracle.logdet_bound_rhs(logdet_T, trace_sum, stream.dim, lp.b, lp.c))
    checks.append(BoundCheck("logdet_quad_bound", lhs, rhs, lhs <= rhs + EIG_TOL))
    if not lp.stationary:
        lam = float(np.max(traj.lam_max_D[1:]))
        cap = oracle.eig_cap(stream.X_bound**2, lp.b, lp.c)
        checks.append(BoundCheck("eig_cap", lam, cap, lam <= cap + EIG_TOL))
    if regime is not None:
        u1 = stream.truth.us[0]
        ld = logdet_T - stream.dim * math.log(lp.b)
        rhs = oracle.drift_tuned_bound(
            regime,
            inputs,
            stream.truth.V,
            float(u1 @ u1),
            oracle.comparator_loss(stream.truth, stream.xs, stream.ys),
            ld,
        )
        checks.append(BoundCheck(
            f"tuned_{regime.value}_drift_bound", report.L_T, rhs,
            report.L_T <= rhs + BOUND_TOL,
        ))
    return checks


def _hinf_bound_checks(report, stream, hp) -> list[BoundCheck]:
    checks = []
    truth = stream.truth
    lhs = hinf.hinf_filter_loss(report.post_update_w, stream.xs, truth)
    rhs = hinf.filter_bound_rhs(hp, truth, stream.xs, stream.ys)
    checks.append(BoundCheck("filter_error_bound", lhs, rhs, lhs <= rhs + BOUND_TOL))
    closs = oracle.comparator_loss(truth, stream.xs, stream.ys)
    u1sq = float(truth.us[0] @ truth.us[0])
    for alpha in ALPHA_GRID:
        rhs = hinf.regret_bound_rhs(hp, alpha, closs, u1sq, truth.V)
        checks.append(BoundCheck(
            f"regret_alpha_{alpha:g}", report.L_T, rhs, report.L_T <= rhs + BOUND_TOL
        ))
    a_opt = hinf.optimized_alpha(hp, closs, u1sq, truth.V)
    if a_opt is not None:
        rhs = hinf.regret_bound_rhs(hp, a_opt, closs, u1sq, truth.V)
        checks.append(BoundCheck(
            "regret_alpha_opt", report.L_T, rhs, report.L_T <= rhs + BOUND_TOL
        ))
    return checks


# ---------------------------------------------------------------------------
# Multi-seed experiments
# ---------------------------------------------------------------------------

def resolve_workers(requested: int | None = None) -> int:
    """Worker count for parallel experiments.

    DRIFTLEARN_THREADS caps (and, when no explicit request is made,
    sets) the count; 0 means auto (one per CPU). Unset and unrequested
    means serial.
    """
    env = os.environ.get("DRIFTLEARN_THREADS")
    cap = None
    if env not in (None, ""):
        cap = int(env)
        if cap == 0:
            cap = os.cpu_count() or 1
    if requested is None:
        wanted = cap if cap is not None else 1
    elif requested == 0:
        wanted = os.cpu_count() or 1
    else:
        wanted = requested
    if cap is not None:
        wanted = min(wanted, cap)
    return max(1, wanted)


def _run_job(args):
    dataset_spec, algo_id, params, seed = args
    stream = gen_stream(replace(dataset_spec, seed=seed))
    return run_learner(algo_id, params, stream, seed=seed)


def experiment(
    dataset_spec: DatasetSpec,
    algos: list[tuple[str, dict]],
    seeds: list[int],
    workers: int | None = None,
) -> list[RunReport]:
    """Run each (algo, params) on each seed's stream; reports come back
    sorted by (algo_id, seed) regardless of completion order."""
    jobs = [
        (dataset_spec, algo_id, params, seed)
        for (algo_id, params) in algos
        for seed in seeds
    ]
    n = resolve_workers(workers)
    if n <= 1 or len(jobs) <= 1:
        reports = [_run_job(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            reports = list(pool.map(_run_job, jobs))
    reports.sort(key=lambda r: (r.algo_id, r.seed))
    return reports


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRow:
    algo_id: str
    t: int
    mean_cumloss: float
    stderr: float
    n: int


def _stderr(stacked: np.ndarray) -> np.ndarray:
    """Standard error of the mean (sample std / sqrt(n); 0 for n = 1)."""
    n = stacked.shape[0]
    if n < 2:
        return np.zeros(stacked.shape[1])
    return stacked.std(axis=0, ddof=1) / math.sqrt(n)


def aggregate(reports: list[RunReport]) -> list[SummaryRow]:
    """Pointwise mean and standard error of the cumulative loss, per step
    and per learner, in deterministic (algo, t) order."""
    by_algo: dict[str, list[RunReport]] = {}
    for r in reports:
        by_algo.setdefault(r.algo_id, []).append(r)
    rows: list[SummaryRow] = []
    for algo_id in sorted(by_algo):
        group = by_algo[algo_id]
        T = len(group[0].cumlosses)
        if any(len(g.cumlosses) != T for g in group):
            raise LengthMismatch(f"unequal horizons in group {algo_id!r}")
        stacked = np.vstack([g.cumlosses for g in group])
        mean = stacked.mean(axis=0)
        stderr = _stderr(stacked)
        for t in range(T):
            rows.append(SummaryRow(algo_id, t + 1, float(mean[t]), float(stderr[t]), len(group)))
    return rows


# ---------------------------------------------------------------------------
# Hyperparameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep tuned on a single stream, selected by cumulative loss."""

    algo_id: str
    grid: dict
    tuning_seed: int
    selection_metric: str = "cumloss"

    def __post_init__(self):
        if not self.grid:
            raise InvalidParams("sweep grid must be non-empty")
        if self.selection_metric != "cumloss":
            raise InvalidParams(f"unsupported metric {self.selection_metric!r}")


@dataclass
class SweepResult:
    best_params: dict
    best_loss: float
    evaluated: list  # (params, L_T)
    skipped: list    # (params, reason)


def _grid_candidates(grid: dict) -> list[dict]:
    keys = sorted(grid)

    def sort_key(v):
        if isinstance(v, bool):
            return (0, float(v))
        if isinstance(v, (int, float)):
            return (0, float(v))
        return (1, str(v))

    combos = itertools.product(*[sorted(grid[k], key=sort_key) for k in keys])
    return [dict(zip(keys, combo)) for combo in combos]


def sweep(spec: SweepSpec, dataset: DatasetSpec) -> SweepResult:
    """Evaluate every grid point on the tuning stream; invalid points are
    skipped with a diagnostic; ties go to the lexicographically smallest
    parameter tuple (candidates are enumerated in that order)."""
    stream = gen_stream(replace(dataset, seed=spec.tuning_seed))
    best_params, best_loss = None, math.inf
    evaluated, skipped = [], []
    for params in _grid_candidates(spec.grid):
        try:
            report = run_learner(spec.algo_id, params, stream, seed=spec.tuning_seed)
        except InvalidParams as exc:
            skipped.append((params, str(exc)))
            continue
        evaluated.append((params, report.L_T))
        if report.L_T < best_loss:
            best_params, best_loss = params, report.L_T
    if best_params is None:
        raise InvalidParams("every grid point was invalid")
    return SweepResult(best_params, best_loss, evaluated, skipped)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _open_maybe(path_or_file, mode="w"):
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        return open(path_or_file, mode, newline=""), True
    return path_or_file, False


def write_report_csv(reports: list[RunReport], path_or_file) -> None:
    """Per-step rows: algo, seed, t, yhat, y, loss, cumloss."""
    fh, owned = _open_maybe(path_or_file)
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algo", "seed", "t", "yhat", "y", "loss", "cumloss"])
        for r in reports:
            for t, yhat, y, loss, cum in r.per_step:
                w.writerow([r.algo_id, r.seed, t, _fmt(yhat), _fmt(y), _fmt(loss), _fmt(cum)])
    finally:
        if owned:
            fh.close()


def write_bounds_csv(reports: list[RunReport], path_or_file) -> None:
    """Bound rows: algo, seed, bound_name, lhs, rhs, slack."""
    fh, owned = _open_maybe(path_or_file)
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algo", "seed", "bound_name", "lhs", "rhs", "slack"])
        for r in reports:
            for b in r.bound_checks:
                w.writerow([r.algo_id, r.seed, b.name, _fmt(b.lhs), _fmt(b.rhs), _fmt(b.slack)])
    finally:
        if owned:
            fh.close()


def write_summary_csv(rows: list[SummaryRow], path_or_file) -> None:
    """Summary rows: algo, t, mean_cumloss, stderr, n."""
    fh, owned = _open_maybe(path_or_file)
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["algo", "t", "mean_cumloss", "stderr", "n"])
        for r in rows:
            w.writerow([r.algo_id, r.t, _fmt(r.mean_cumloss), _fmt(r.stderr), r.n])
    finally:
        if owned:
            fh.close()


def read_report_csv(path_or_file) -> list[dict]:
    """Rows of a report CSV as dicts with typed fields."""
    fh, owned = _open_maybe(path_or_file, mode="r")
    try:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            rows.append({
                "algo": row["algo"],
                "seed": int(row["seed"]),
                "t": int(row["t"]),
                "yhat": float(row["yhat"]),
                "y": float(row["y"]),
                "loss": float(row["loss"]),
                "cumloss": float(row["cumloss"]),
            })
        return rows
    finally:
        if owned:
            fh.close()


def summarize_report_rows(rows: list[dict]) -> list[SummaryRow]:
    """Aggregate raw report rows (any order) into mean curves; sorting
    happens internally so the result is reorder-invariant."""
    by_run: dict[tuple, dict[int, float]] = {}
    for row in rows:
        by_run.setdefault((row["algo"], row["seed"]), {})[row["t"]] = row["cumloss"]
    by_algo: dict[str, list[np.ndarray]] = {}
    for (algo, _seed), curve in sorted(by_run.items()):
        ts = sorted(curve)
        if ts != list(range(1, len(ts) + 1)):
            raise LengthMismatch(f"run {algo!r} has gaps in its step index")
        by_algo.setdefault(algo, []).append(np.array([curve[t] for t in ts]))
    out: list[SummaryRow] = []
    for algo in sorted(by_algo):
        group = by_algo[algo]
        T = len(group[0])
        if any(len(g) != T for g in group):
            raise LengthMismatch(f"unequal horizons in group {algo!r}")
        stacked = np.vstack(group)
        mean = stacked.mean(axis=0)
        stderr = _stderr(stacked)
        for t in range(T):
            out.append(SummaryRow(algo, t + 1, float(mean[t]), float(stderr[t]), len(group)))
    return out
