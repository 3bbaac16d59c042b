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
from .datagen import DatasetSpec, LabeledStream, fmt, gen_stream, open_csv, write_csv
from .errors import BadStream, InvalidParams, LengthMismatch, UnknownAlgo

REQUIRED = object()


def _optional_float(value):
    return None if value is None else float(value)


# The one list of each learner's parameters: name -> (conversion, default).
# run_learner rejects names not listed here and values their conversion
# refuses, and needs each parameter whose default is REQUIRED; laser needs
# b and c unless tuned_regime computes them. The CLI's params are the
# flags of the same names.
LEARNER_PARAMS = {
    "laser": {
        "b": (float, None),
        "c": (float, None),
        "track_f": (bool, False),
        "clip_bound": (_optional_float, None),
        "tuned_regime": (oracle.DriftRegime, None),
        "eps_ratio": (float, None),
    },
    "aar": {"b": (float, REQUIRED)},
    "nlms": {"eta": (float, REQUIRED), "eps": (float, 0.0)},
    "crrls": {"reset_period": (int, REQUIRED), "b_reset": (float, REQUIRED)},
    "hinf": {"a": (float, REQUIRED), "b": (float, REQUIRED), "c": (float, REQUIRED)},
}
ALGO_IDS = tuple(LEARNER_PARAMS)
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


def _checked(algo_id: str, params: dict) -> dict:
    """Every parameter of the learner, converted, with defaults filled in."""
    table = LEARNER_PARAMS.get(algo_id)
    if table is None:
        raise UnknownAlgo(f"no learner named {algo_id!r}; choose from {ALGO_IDS}")
    unknown = set(params) - set(table)
    if unknown:
        raise InvalidParams(f"unknown parameter(s): {sorted(unknown)}")
    missing = [k for k, (_, default) in table.items() if default is REQUIRED and k not in params]
    if missing:
        raise InvalidParams(f"missing parameter(s): {missing}")
    out = {}
    for name, (convert, default) in table.items():
        if name not in params:
            out[name] = default
            continue
        try:
            out[name] = convert(params[name])
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"parameter {name!r}: {exc}") from exc
    return out


def _laser_params(params: dict, stream: LabeledStream):
    """Resolve (LaserParams, tuned regime, tuning inputs) from raw laser params."""
    p = _checked("laser", params)
    regime, inputs = p["tuned_regime"], None
    if regime is not None:
        if p["eps_ratio"] is None:
            raise InvalidParams("tuned_regime requires eps_ratio")
        if p["b"] is not None or p["c"] is not None:
            raise InvalidParams("tuned_regime computes b and c; do not pass them")
        inputs = oracle.tuned_params(
            regime,
            T=stream.T,
            d=stream.dim,
            Y=stream.Y_bound,
            X=stream.X_bound,
            V=stream.truth.V,
            eps_ratio=p["eps_ratio"],
        )
        b, c = inputs.b, inputs.c
    else:
        if p["b"] is None or p["c"] is None:
            raise InvalidParams("laser requires b and c (or tuned_regime + eps_ratio)")
        b, c = p["b"], p["c"]
    lp = laser.LaserParams(b=b, c=c, track_f=p["track_f"], clip_bound=p["clip_bound"])
    return lp, regime, inputs


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
        lp, regime, inputs = _laser_params(params, stream)
        traj = laser.laser_trajectory(lp, xs, ys, spectra=not lp.stationary)
        yhats, quad_trace = traj.yhats, traj.quads
    elif algo_id == "hinf":
        p = _checked(algo_id, params)
        hp = hinf.HInfParams(a=p["a"], b=p["b"], c=p["c"])
        st = hinf.hinf_init(hp, d)
        post_ws = np.empty((T, d))
        for t in range(T):
            yhats[t], st = hinf.hinf_step(st, xs[t], ys[t])
            post_ws[t] = st.w
    else:
        p = _checked(algo_id, params)  # UnknownAlgo for an id not in the table
        # the step is read from its module per run, where tracing can wrap it
        if algo_id == "aar":  # the laser step at c = inf; it certifies no bounds
            st, step = baselines.aar_init(p["b"], d), baselines.aar_step
        elif algo_id == "nlms":
            st, step = baselines.nlms_init(d, p["eta"], p["eps"]), baselines.nlms_step
        else:
            st = baselines.crrls_init(d, p["reset_period"], p["b_reset"])
            step = baselines.crrls_step
        for t in range(T):
            yhats[t], st = step(st, xs[t], ys[t])

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


def _mean_curves(curves) -> list[SummaryRow]:
    """Pointwise mean and standard error of (algo_id, cumulative-loss curve)
    pairs per learner, in (algo, t) order; each learner's curves are
    stacked in the order given."""
    by_algo: dict[str, list[np.ndarray]] = {}
    for algo_id, curve in curves:
        by_algo.setdefault(algo_id, []).append(curve)
    rows: list[SummaryRow] = []
    for algo_id in sorted(by_algo):
        group = by_algo[algo_id]
        T = len(group[0])
        if any(len(g) != T for g in group):
            raise LengthMismatch(f"unequal horizons in group {algo_id!r}")
        stacked = np.vstack(group)
        mean = stacked.mean(axis=0)
        stderr = _stderr(stacked)
        for t in range(T):
            rows.append(SummaryRow(algo_id, t + 1, float(mean[t]), float(stderr[t]), len(group)))
    return rows


def aggregate(reports: list[RunReport]) -> list[SummaryRow]:
    """Pointwise mean and standard error of the cumulative loss, per step
    and per learner, in deterministic (algo, t) order."""
    return _mean_curves((r.algo_id, r.cumlosses) for r in reports)


def summarize_report_rows(rows: list[dict]) -> list[SummaryRow]:
    """Aggregate raw report rows (any order) into mean curves; sorting
    happens internally so the result is reorder-invariant."""
    by_run: dict[tuple, dict[int, float]] = {}
    for row in rows:
        by_run.setdefault((row["algo"], row["seed"]), {})[row["t"]] = row["cumloss"]
    curves = []
    for (algo, _seed), curve in sorted(by_run.items()):
        ts = sorted(curve)
        if ts != list(range(1, len(ts) + 1)):
            raise LengthMismatch(f"run {algo!r} has gaps in its step index")
        curves.append((algo, np.array([curve[t] for t in ts])))
    return _mean_curves(curves)


# ---------------------------------------------------------------------------
# Hyperparameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep tuned on a single stream, selected by cumulative loss."""

    algo_id: str
    grid: dict
    tuning_seed: int

    def __post_init__(self):
        grid = self.grid
        if not (isinstance(grid, dict) and grid
                and all(isinstance(v, (list, tuple)) and v for v in grid.values())):
            raise InvalidParams(f"sweep grid must map parameters to non-empty lists, got {grid!r}")


@dataclass
class SweepResult:
    best_params: dict
    best_loss: float
    evaluated: list  # (params, L_T)
    skipped: list    # (params, reason)


def _grid_candidates(grid: dict) -> list[dict]:
    keys = sorted(grid)

    def sort_key(v):
        if isinstance(v, (int, float)):  # bool included
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

_REPORT_FIELDS = ("algo", "seed", "t", "yhat", "y", "loss", "cumloss")


def write_report_csv(reports: list[RunReport], path_or_file) -> None:
    """Per-step rows: algo, seed, t, yhat, y, loss, cumloss."""
    write_csv(path_or_file, _REPORT_FIELDS, (
        [r.algo_id, r.seed, t, fmt(yhat), fmt(y), fmt(loss), fmt(cum)]
        for r in reports
        for t, yhat, y, loss, cum in r.per_step
    ))


def write_bounds_csv(reports: list[RunReport], path_or_file) -> None:
    """Bound rows: algo, seed, bound_name, lhs, rhs, slack."""
    write_csv(path_or_file, ["algo", "seed", "bound_name", "lhs", "rhs", "slack"], (
        [r.algo_id, r.seed, b.name, fmt(b.lhs), fmt(b.rhs), fmt(b.slack)]
        for r in reports
        for b in r.bound_checks
    ))


def write_summary_csv(rows: list[SummaryRow], path_or_file) -> None:
    """Summary rows: algo, t, mean_cumloss, stderr, n."""
    write_csv(path_or_file, ["algo", "t", "mean_cumloss", "stderr", "n"], (
        [r.algo_id, r.t, fmt(r.mean_cumloss), fmt(r.stderr), r.n] for r in rows
    ))


def read_report_csv(path_or_file) -> list[dict]:
    """Rows of a report CSV as dicts with typed fields; BadStream if it is
    not a report CSV or a field does not convert."""
    with open_csv(path_or_file) as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in _REPORT_FIELDS if k not in (reader.fieldnames or ())]
        if missing:
            raise BadStream(f"not a report CSV: no column(s) {missing}")
        try:
            return [{
                "algo": row["algo"],
                "seed": int(row["seed"]),
                "t": int(row["t"]),
                "yhat": float(row["yhat"]),
                "y": float(row["y"]),
                "loss": float(row["loss"]),
                "cumloss": float(row["cumloss"]),
            } for row in reader]
        except (TypeError, ValueError) as exc:
            raise BadStream(f"report CSV line {reader.line_num}: {exc}") from exc
