"""Experiment driver: run learners over streams, score them, certify bounds.

Every run follows the strict online protocol (predict on x_t before y_t
is revealed) and produces a RunReport with per-step records, cumulative
loss, regret against the generating target, and the applicable bound
checks evaluated on the spot. Runs go in batches: a sweep runs all its
grid points as one batch over the shared tuning stream, an experiment all
its learners as one batch over its seeds' streams, and run_learner is a
batch of one. A batch runs every laser, AAR, hinf and CR-RLS member in one
step loop. A member's results do not depend on its batch. Experiments
reduce deterministically.
"""

import csv
import itertools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, hinf, laser, oracle
from .datagen import FLOAT_FORMAT, DatasetSpec, LabeledStream, gen_stream, open_csv, write_csv
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
        "clip_bound": (_optional_float, None),
        "tuned_regime": (oracle.DriftRegime, None),
        "eps_ratio": (float, None),
    },
    "aar": {"b": (float, REQUIRED)},
    "nlms": {"eta": (float, REQUIRED), "eps": (float, 0.0)},
    "crrls": {"reset_period": (laser.as_integer, REQUIRED), "b_reset": (float, REQUIRED)},
    "hinf": {"a": (float, REQUIRED), "b": (float, REQUIRED), "c": (float, REQUIRED)},
}
ALGO_IDS = tuple(LEARNER_PARAMS)
ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

BOUND_TOL = 1e-6     # additive tolerance on O(1)-O(1e3) bound inequalities
EIG_TOL = 1e-9       # tolerance on eigenvalue/log-det inequalities


@dataclass(frozen=True)
class BoundCheck:
    """The inequality lhs <= rhs, which holds within the additive tolerance
    tol; a non-finite lhs never holds."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def holds(self) -> bool:
        return math.isfinite(self.lhs) and self.lhs <= self.rhs + self.tol

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class RunReport:
    """Everything recorded from one learner on one stream."""

    algo_id: str
    params: dict
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
        except (TypeError, ValueError, OverflowError) as exc:
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
        if p["eps_ratio"] is not None:
            raise InvalidParams("eps_ratio applies only with tuned_regime")
        if p["b"] is None or p["c"] is None:
            raise InvalidParams("laser requires b and c (or tuned_regime + eps_ratio)")
        b, c = p["b"], p["c"]
    lp = laser.LaserParams(b=b, c=c, clip_bound=p["clip_bound"])
    return lp, regime, inputs


def _member(algo_id: str, params: dict, stream: LabeledStream, certify: bool = True):
    """One batch member's validated set-up, (algo_id, params, round, extra):
    round is its laser.CovMember (spectra for a drifting laser member and
    hinf's weights kept when certify holds), or its NlmsState; extra is
    (LaserParams, tuned regime, tuning inputs) for laser, the HInfParams for
    hinf, else None. InvalidParams if params do not fit the learner."""
    d = stream.dim
    if algo_id == "laser":
        lp, regime, inputs = _laser_params(params, stream)
        spectra = certify and not lp.stationary
        return algo_id, params, laser.laser_member(lp, d, spectra), (lp, regime, inputs)
    p = _checked(algo_id, params)  # UnknownAlgo for an id not in the table
    if algo_id == "aar":  # the laser round at c = inf; it certifies no bounds
        return algo_id, params, laser.laser_member(laser.LaserParams(b=p["b"]), d), None
    if algo_id == "hinf":
        hp = hinf.HInfParams(a=p["a"], b=p["b"], c=p["c"])
        return algo_id, params, hinf.hinf_init(hp, d).member._replace(keep_w=certify), hp
    if algo_id == "nlms":
        return algo_id, params, baselines.nlms_init(d, p["eta"], p["eps"]), None
    return algo_id, params, baselines.crrls_init(d, p["reset_period"], p["b_reset"]).member, None


def _batch_inputs(streams: list[LabeledStream]):
    """(xs, ys) as (T, S, d) and (T, S) for a step loop over one member per
    stream: read-only broadcast views of the stream's own arrays, not
    copies, when every member reads the same stream, else stacks. All
    streams must share T and d."""
    first = streams[0]
    if all(s is first for s in streams):
        S, (T, d) = len(streams), first.xs.shape
        return (np.broadcast_to(first.xs[:, None], (T, S, d)),
                np.broadcast_to(first.ys[:, None], (T, S)))
    if any(s.xs.shape != first.xs.shape for s in streams):
        raise LengthMismatch("the streams of one batch must share T and d")
    return np.stack([s.xs for s in streams], axis=1), np.stack([s.ys for s in streams], axis=1)


def _run_members(members, streams, seeds, certify: bool) -> list[RunReport]:
    """Run set-up members (from _member), of one learner or several, and
    report each: every laser, AAR, hinf and CR-RLS member from its
    Trajectory of one laser.cov_rounds call, then the NLMS members in their
    own loop. Without certify no bound is checked, no spectrum computed and
    a loss that overflows is kept (inf or NaN) instead of refused."""
    family = [i for i, m in enumerate(members) if m[0] != "nlms"]
    trajs = {}
    if family:
        trajs = dict(zip(family, laser.cov_rounds([members[i][2] for i in family],
                                                  *_batch_inputs([streams[i] for i in family]))))
    yhats = {i: traj.yhats for i, traj in trajs.items()}
    nlms = [i for i, m in enumerate(members) if m[0] == "nlms"]
    if nlms:
        yhats.update(zip(nlms, baselines.nlms_trajectories(
            [members[i][2] for i in nlms], *_batch_inputs([streams[i] for i in nlms]))))

    truth_loss = {}  # stream -> the comparator's loss, computed once
    reports = []
    for i, stream in enumerate(streams):
        algo_id, params, _, extra = members[i]
        with np.errstate(over="ignore"):  # refused below when certifying; sweep never picks it
            losses = (stream.ys - yhats[i]) ** 2
            cumlosses = np.cumsum(losses)
        if certify and not np.isfinite(cumlosses).all():
            raise BadStream(f"{algo_id}: the cumulative loss overflows at round "
                            f"{np.argmin(np.isfinite(cumlosses)) + 1}: predictions or labels "
                            "too large")
        if id(stream) not in truth_loss:
            with np.errstate(over="ignore"):  # refused below when certifying, as the losses
                truth_loss[id(stream)] = oracle.comparator_loss(stream.truth, stream.xs, stream.ys)
        closs = truth_loss[id(stream)]
        if certify and not math.isfinite(closs):
            raise BadStream("the comparator's cumulative loss overflows: labels or comparator "
                            "too large")
        L_T = float(cumlosses[-1]) if stream.T else 0.0
        report = RunReport(
            algo_id=algo_id,
            params=dict(params),
            yhats=yhats[i],
            ys=stream.ys.copy(),
            losses=losses,
            cumlosses=cumlosses,
            L_T=L_T,
            regret_vs_truth=L_T - closs,
            quad_trace=trajs[i].quads if algo_id == "laser" else None,
            post_update_w=trajs[i].ws if i in trajs else None,
            seed=seeds[i],
        )
        if certify and algo_id == "laser":
            report.bound_checks = _laser_bound_checks(report, stream, trajs[i], *extra, closs)
        elif certify and algo_id == "hinf":
            report.bound_checks = _hinf_bound_checks(report, stream, extra, closs)
        reports.append(report)
    return reports


def run_batch(algo_id: str, params: list[dict], streams: list[LabeledStream],
              seeds: list[int] | None = None) -> list[RunReport]:
    """Run one learner as S members, params[i] on streams[i], through one
    step loop, and report each member as run_learner would. Members reading
    the same stream object share it; all streams must share T and d."""
    if len(params) != len(streams) or not streams:
        raise LengthMismatch(f"{len(params)} parameter sets for {len(streams)} streams")
    members = [_member(algo_id, p, s) for p, s in zip(params, streams)]
    seeds = [0] * len(streams) if seeds is None else seeds
    return _run_members(members, streams, seeds, certify=True)


def run_learner(algo_id: str, params: dict, stream: LabeledStream, seed: int = 0) -> RunReport:
    """Run one learner over one stream under the online protocol: a batch
    of one member."""
    return run_batch(algo_id, [params], [stream], [seed])[0]


def _laser_bound_checks(report, stream, traj, lp, regime, inputs, closs) -> list[BoundCheck]:
    checks = []
    rhs = oracle.cumloss_bound(stream.truth, closs, lp.b, lp.c, stream.Y_bound,
                               report.quad_trace)
    checks.append(BoundCheck("comparator_cumloss_bound", report.L_T, rhs, BOUND_TOL))
    if lp.stationary:  # the trace term vanishes; only ln det D_T is needed
        logdet_T, trace_sum = laser.logdet_D(traj.state), 0.0
    else:
        logdet_T, trace_sum = float(traj.logdet_D[-1]), float(np.sum(traj.trace_D[:-1]))
    lhs = float(np.sum(report.quad_trace))
    rhs = float(oracle.logdet_bound_rhs(logdet_T, trace_sum, stream.dim, lp.b, lp.c))
    checks.append(BoundCheck("logdet_quad_bound", lhs, rhs, EIG_TOL))
    if not lp.stationary:
        lam = float(traj.lam_peak_D[-1])  # the running maximum over t >= 1
        cap = oracle.eig_cap(stream.X_bound**2, lp.b, lp.c)
        checks.append(BoundCheck("eig_cap", lam, cap, EIG_TOL))
    if regime is not None:
        u1 = stream.truth.us[0]
        ld = logdet_T - stream.dim * math.log(lp.b)
        rhs = oracle.drift_tuned_bound(regime, inputs, stream.truth.V, float(u1 @ u1), closs, ld)
        checks.append(BoundCheck(f"tuned_{regime.value}_drift_bound", report.L_T, rhs, BOUND_TOL))
    return checks


def _hinf_bound_checks(report, stream, hp, closs) -> list[BoundCheck]:
    checks = []
    truth = stream.truth
    lhs = hinf.hinf_filter_loss(report.post_update_w, stream.xs, truth)
    u1sq = float(truth.us[0] @ truth.us[0])
    rhs = hinf.filter_bound_rhs(hp, closs, u1sq, truth.V)
    checks.append(BoundCheck("filter_error_bound", lhs, rhs, BOUND_TOL))
    for alpha in ALPHA_GRID:
        rhs = hinf.regret_bound_rhs(hp, alpha, closs, u1sq, truth.V)
        checks.append(BoundCheck(f"regret_alpha_{alpha:g}", report.L_T, rhs, BOUND_TOL))
    a_opt = hinf.optimized_alpha(hp, closs, u1sq, truth.V)
    if a_opt is not None:
        rhs = hinf.regret_bound_rhs(hp, a_opt, closs, u1sq, truth.V)
        checks.append(BoundCheck("regret_alpha_opt", report.L_T, rhs, BOUND_TOL))
    return checks


# ---------------------------------------------------------------------------
# Multi-seed experiments
# ---------------------------------------------------------------------------

def resolve_workers(requested: int | None = None) -> int:
    """Worker count for parallel experiments.

    DRIFTLEARN_THREADS caps (and, when no explicit request is made,
    sets) the count; 0 means auto (one per CPU). Unset and unrequested
    means serial. A value that is not a non-negative integer raises
    InvalidParams.
    """
    env = os.environ.get("DRIFTLEARN_THREADS")
    cap = None
    if env not in (None, ""):
        if not env.strip().isdecimal():
            raise InvalidParams(f"DRIFTLEARN_THREADS must be a non-negative integer, got {env!r}")
        cap = int(env) or os.cpu_count() or 1
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
    """One batch of an experiment: every learner on each seed's stream."""
    dataset_spec, algos, seeds = args
    streams = [gen_stream(replace(dataset_spec, seed=seed)) for seed in seeds]
    members = [_member(algo_id, params, s) for algo_id, params in algos for s in streams]
    return _run_members(members, streams * len(algos), seeds * len(algos), certify=True)


def experiment(
    dataset_spec: DatasetSpec,
    algos: list[tuple[str, dict]],
    seeds: list[int],
    workers: int | None = None,
) -> list[RunReport]:
    """Run each (algo, params) on each seed's stream, all of them as one
    batch, which generates and checks each stream once and runs every
    covariance-family member in one step loop; with n workers the seeds are
    split into n batches run in parallel. Reports come back sorted by
    (algo_id, seed) regardless of completion order.

    Every member's parameters are checked before any runs. When members
    of several learners fail, the batch raises the error of the earliest
    round in its covariance-family loop, whichever learner's member it is
    (NLMS members run after that loop), and of several failing batches the
    first one's error wins."""
    if not seeds:
        raise InvalidParams("an experiment needs at least one seed")
    n = resolve_workers(workers)
    size = max(1, -(-len(seeds) // n))  # ceil: n batches at most
    jobs = [(dataset_spec, algos, list(seeds[i:i + size])) for i in range(0, len(seeds), size)]
    if n <= 1 or len(jobs) <= 1:
        batches = [_run_job(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing

        with ProcessPoolExecutor(max_workers=n) as pool:
            batches = list(pool.map(_run_job, jobs))
    reports = [r for batch in batches for r in batch]
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
            return (0, v)
        return (1, str(v))

    combos = itertools.product(*[sorted(grid[k], key=sort_key) for k in keys])
    return [dict(zip(keys, combo)) for combo in combos]


def sweep(spec: SweepSpec, dataset: DatasetSpec) -> SweepResult:
    """Evaluate each grid point on the tuning stream, all valid points as one
    batch sharing the stream, and select by L_T: no bound is checked. Invalid
    points are skipped with a diagnostic, a point equal once converted to an
    earlier one is dropped, and ties go to the lexicographically smallest
    parameter tuple (candidates are enumerated in that order). A diverging
    point keeps its inf or NaN L_T; InvalidParams when every point is skipped or diverges."""
    stream = gen_stream(replace(dataset, seed=spec.tuning_seed))
    valid, members, skipped, seen = [], [], [], []
    for params in _grid_candidates(spec.grid):
        try:
            if (point := _checked(spec.algo_id, params)) not in seen:
                seen.append(point)
                members.append(_member(spec.algo_id, params, stream, certify=False))
                valid.append(params)
        except InvalidParams as exc:
            skipped.append((params, str(exc)))
    if not valid:
        reasons = "; ".join(f"{params}: {reason}" for params, reason in skipped)
        raise InvalidParams(f"every grid point was invalid ({reasons})")
    reports = _run_members(members, [stream] * len(valid), [spec.tuning_seed] * len(valid),
                           certify=False)
    evaluated = [(params, r.L_T) for params, r in zip(valid, reports)]
    best_params, best_loss = None, math.inf
    for params, L_T in evaluated:
        if L_T < best_loss:
            best_params, best_loss = params, L_T
    if best_params is None:
        raise InvalidParams(f"no grid point has a finite loss: each of the {len(evaluated)} "
                            "evaluated diverged")
    return SweepResult(best_params, best_loss, evaluated, skipped)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

_REPORT_FIELDS = ("algo", "seed", "t", "yhat", "y", "loss", "cumloss")


def write_report_csv(reports: list[RunReport], path_or_file) -> None:
    """Per-step rows: algo, seed, t, yhat, y, loss, cumloss."""
    write_csv(path_or_file, _REPORT_FIELDS, "%s,%d,%d" + ("," + FLOAT_FORMAT) * 4, (
        (r.algo_id, r.seed, t, yhat, y, loss, cum)
        for r in reports
        for t, yhat, y, loss, cum in zip(range(1, len(r.ys) + 1), r.yhats.tolist(),
                                         r.ys.tolist(), r.losses.tolist(), r.cumlosses.tolist())
    ))


def write_bounds_csv(reports: list[RunReport], path_or_file) -> None:
    """Bound rows: algo, seed, bound_name, lhs, rhs, slack."""
    write_csv(path_or_file, ["algo", "seed", "bound_name", "lhs", "rhs", "slack"],
              "%s,%d,%s" + ("," + FLOAT_FORMAT) * 3,
              ((r.algo_id, r.seed, b.name, b.lhs, b.rhs, b.slack)
               for r in reports for b in r.bound_checks))


def write_summary_csv(rows: list[SummaryRow], path_or_file) -> None:
    """Summary rows: algo, t, mean_cumloss, stderr, n."""
    write_csv(path_or_file, ["algo", "t", "mean_cumloss", "stderr", "n"],
              "%s,%d" + ("," + FLOAT_FORMAT) * 2 + ",%d",
              ((r.algo_id, r.t, r.mean_cumloss, r.stderr, r.n) for r in rows))


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
