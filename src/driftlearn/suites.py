"""Numerical certification suites.

Each suite hammers one recursion or inequality with randomized or
exhaustive cases and reports the worst margin observed. They are run by
``driftlearn verify`` and by the test suite; a positive ``worst`` beyond
the tolerance means a genuine violation.

Desk-scale defaults (T=200, d=4, 20 seeds) keep every suite in CI
territory; the certification hyperparameters below are documented
defaults under which every inequality is expected to hold on the
synthetic benchmarks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import harness, laser, oracle
from .datagen import DatasetSpec, gen_stream
from .errors import InvalidParams

DESK_T = 200
DESK_D = 4
DESK_SEEDS = tuple(range(20))

# documented certification hyperparameters (see README)
LASER_CERT = {"b": 1.0, "c": 100.0}
HINF_CERT = {"a": 8.0, "b": 500.0, "c": 500.0}
TUNED_EPS = 0.1
HIGH_DRIFT_SPEC = dict(kind="A", T=DESK_T, d=2, rotation_rate=math.pi)


@dataclass(frozen=True)
class SuiteResult:
    """The worst margin observed over a suite's cases; ok when it is within
    tol, and a violation when it exceeds tol."""

    name: str
    cases: int
    worst: float
    tol: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        out = (
            f"[{status}] {self.name}: {self.cases} cases, "
            f"worst={self.worst:.3e} (tol {self.tol:.1e})"
        )
        if self.note:
            out += f" [{self.note}]"
        return out


def oracle_equivalence_suite(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Recursive offline optimum vs the brute-force stacked solve.

    Random streams with T <= 20, d <= 5, 0.1 <= b < c <= 10, standard
    normal inputs and labels; reports the max relative gap."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        T = int(rng.integers(1, 21))
        d = int(rng.integers(1, 6))
        lo, hi = np.sort(rng.uniform(0.1, 10.0, size=2))
        if hi - lo < 1e-6:
            hi = lo + 1e-3
        xs = rng.standard_normal((T, d))
        ys = rng.standard_normal(T)
        params = laser.LaserParams(b=float(lo), c=float(hi))
        state = laser.laser_init(params, d)
        for t in range(T):
            state = laser.laser_update(state, xs[t], ys[t])
        value, _ = oracle.brute_min_cost(xs, ys, float(lo), float(hi))
        gap = abs(laser.laser_min_cost(state) - value) / (1.0 + abs(value))
        worst = max(worst, gap)
    return SuiteResult("offline-optimum oracle equivalence", trials, worst, 1e-8)


def certificate_suite(draws: int = 1000, seed: int = 0) -> SuiteResult:
    """Max eigenvalue of the per-step regret remainder matrix over random
    (D, x, c) draws with d <= 6; must stay at or below zero."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(draws):
        d = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d))
        D = M @ M.T + rng.uniform(0.05, 2.0) * np.eye(d)
        x = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        worst = max(worst, oracle.regret_certificate_gap(D, x, c))
    return SuiteResult("per-step regret certificate", draws, worst, 1e-10)


def scalar_map_suite(n_lam: int = 25, n_beta: int = 25, n_xsq: int = 6) -> SuiteResult:
    """Grid check of the three ceilings on the scalar eigenvalue map, one map
    call per gammasq on the (beta, lam, xsq) grid."""
    betas = np.linspace(0.0, 100.0, n_beta)[:, None, None]
    lams = np.linspace(0.0, 100.0, n_lam)[:, None]
    worst = -math.inf
    cases = 0
    for gammasq in (0.5, 1.0, 4.0):
        f = oracle.eigenvalue_step_map(lams, betas, np.linspace(0.0, gammasq, n_xsq), gammasq)
        ceiling = 0.5 * (3.0 * gammasq + np.sqrt(gammasq**2 + 4.0 * gammasq * betas))
        worst = max(worst, float(np.max(f - (betas + gammasq))),
                    float(np.max(f - (lams + gammasq))),
                    float(np.max(f - np.maximum(lams, ceiling))))
        cases += f.size
    return SuiteResult("scalar eigenvalue-map ceilings", cases, worst, 1e-12)


def _desk_streams(T=DESK_T, seeds=DESK_SEEDS):
    return [gen_stream(DatasetSpec(kind=k, T=T, d=DESK_D, seed=s)) for k in "ABCD" for s in seeds]


def _cert_trajectories(streams, spectra: bool = False):
    """One laser batch at LASER_CERT, one member per stream."""
    lp = laser.LaserParams(**LASER_CERT)
    return lp, laser.laser_trajectories([lp] * len(streams), *harness._batch_inputs(streams),
                                        spectra=spectra)


def logdet_trajectory_suite(T=DESK_T, seeds=DESK_SEEDS) -> SuiteResult:
    """Prefix log-det inequality at every step of every desk trajectory."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(T, seeds)
    lp, trajs = _cert_trajectories(streams, spectra=True)
    for stream, traj in zip(streams, trajs):
        lhs = np.cumsum(traj.quads)
        rhs = oracle.logdet_bound_rhs(
            traj.logdet_D[1:], np.cumsum(traj.trace_D[:-1]), stream.dim, lp.b, lp.c
        )
        worst = max(worst, float(np.max(lhs - rhs)))
        cases += stream.T
    return SuiteResult("log-det quad-sum inequality", cases, worst, harness.EIG_TOL)


def eig_cap_suite(T=DESK_T, seeds=DESK_SEEDS) -> SuiteResult:
    """Per-step eigenvalue ceiling with the running input-norm bound."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(T, seeds)
    lp, trajs = _cert_trajectories(streams, spectra=True)
    for stream, traj in zip(streams, trajs):
        x_sq_max = np.maximum.accumulate(np.einsum("td,td->t", stream.xs, stream.xs))
        caps = np.array([oracle.eig_cap(float(v), lp.b, lp.c) for v in x_sq_max])
        # caps never decrease, so max_t (peak_t - cap_t) = max_t (lambda_max D_t - cap_t)
        worst = max(worst, float(np.max(traj.lam_peak_D[1:] - caps)))
        cases += stream.T
    return SuiteResult("covariance eigenvalue cap", cases, worst, harness.EIG_TOL)


def comparator_bound_suite(T=DESK_T, seeds=DESK_SEEDS) -> SuiteResult:
    """Cumulative-loss bound against both the generating comparator (full
    desk runs) and the brute-force-optimal comparator (20-step prefixes)."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(T, seeds)
    lp, trajs = _cert_trajectories(streams)
    for stream, traj in zip(streams, trajs):
        yhats, quads = traj.yhats, traj.quads
        L_T = float(np.sum((stream.ys - yhats) ** 2))
        closs = oracle.comparator_loss(stream.truth, stream.xs, stream.ys)
        rhs = oracle.cumloss_bound(stream.truth, closs, lp.b, lp.c, stream.Y_bound, quads)
        worst = max(worst, L_T - rhs)
        cases += 1

        # tightest comparator on a short prefix
        n = min(20, stream.T)
        xs_p, ys_p = stream.xs[:n], stream.ys[:n]
        _, best = oracle.brute_min_cost(xs_p, ys_p, lp.b, lp.c)
        L_p = float(np.sum((ys_p - yhats[:n]) ** 2))
        Y_p = float(np.max(np.abs(ys_p)))
        closs_p = oracle.comparator_loss(best, xs_p, ys_p)
        rhs_p = oracle.cumloss_bound(best, closs_p, lp.b, lp.c, Y_p, quads[:n])
        worst = max(worst, L_p - rhs_p)
        cases += 1
    return SuiteResult("comparator cumulative-loss bound", cases, worst, harness.BOUND_TOL)


def _tuned_worst(streams, regime: str) -> float:
    params = {"tuned_regime": regime, "eps_ratio": TUNED_EPS}
    reports = harness.run_batch("laser", [params] * len(streams), streams)
    name = f"tuned_{regime}_drift_bound"
    return max(b.lhs - b.rhs for r in reports for b in r.bound_checks if b.name == name)


def tuned_bound_suite(seeds=DESK_SEEDS) -> SuiteResult:
    """Drift-tuned closed-form bounds, low regime (constant-rate stream at
    the desk default rate) and high regime (two-dimensional stream at the
    maximal rotation rate)."""
    low = [gen_stream(DatasetSpec(kind="A", T=DESK_T, d=DESK_D, seed=s)) for s in seeds]
    high = [gen_stream(DatasetSpec(seed=s, **HIGH_DRIFT_SPEC)) for s in seeds]
    worst = max(_tuned_worst(low, "low"), _tuned_worst(high, "high"))
    return SuiteResult("drift-tuned closed-form bounds", 2 * len(seeds), worst, harness.BOUND_TOL)


def hinf_bound_suite(T=DESK_T, seeds=DESK_SEEDS) -> SuiteResult:
    """Robust-filter guarantee and prediction-loss ceilings (alpha grid
    plus the optimized alpha where defined) on every desk run."""
    streams = _desk_streams(T, seeds)
    checks = [b for r in harness.run_batch("hinf", [HINF_CERT] * len(streams), streams)
              for b in r.bound_checks]
    worst = max(b.lhs - b.rhs for b in checks)
    return SuiteResult("robust-filter loss bounds", len(checks), worst, harness.BOUND_TOL)


# (b, c) of the kernel suite's laser members and (a, b, c) of its hinf
# members, each cycled over the desk streams so that one batch mixes
# forgetting rates, c near or equal to b and the stationary c = inf;
# (0.05, inf) moves to square-root information form on every desk stream
KERNEL_MEMBERS = ((1.0, 100.0), (0.1, 0.2), (10.0, 1000.0), (1.0, math.inf), (0.5, 5.0),
                  (0.05, math.inf))
KERNEL_HINF_MEMBERS = (tuple(HINF_CERT.values()), (2.0, 20.0, 50.0), (32.0, 1.0, 1.0))


def _gap(got, ref) -> float:
    return float(np.max(np.abs(got - ref))) / (1.0 + float(np.max(np.abs(ref))))


def kernel_suite() -> SuiteResult:
    """The batched kernel against the direct recursions: laser member i runs
    desk stream i with the i-th (b, c) of KERNEL_MEMBERS, cycled, in one
    batch, against `oracle.laser_direct`; hinf members likewise with
    KERNEL_HINF_MEMBERS against `oracle.hinf_direct`, post-update weights
    included. Reports the worst gap relative to 1 + max |reference|."""
    streams = _desk_streams()
    lps = [laser.LaserParams(b=b, c=c)
           for (b, c), _ in zip(itertools.cycle(KERNEL_MEMBERS), streams)]
    trajs = laser.laser_trajectories(lps, *harness._batch_inputs(streams))
    worst = max(_gap(traj.yhats, oracle.laser_direct(stream.xs, stream.ys, lp.b, lp.c).yhats)
                for stream, lp, traj in zip(streams, lps, trajs))
    hps = [dict(zip("abc", m)) for m, _ in zip(itertools.cycle(KERNEL_HINF_MEMBERS), streams)]
    for stream, hp, report in zip(streams, hps, harness.run_batch("hinf", hps, streams)):
        yhats, ws, _ = oracle.hinf_direct(stream.xs, stream.ys, **hp)
        worst = max(worst, _gap(report.yhats, yhats), _gap(report.post_update_w, ws))
    return SuiteResult("batched kernel vs direct recursion", 2 * len(streams) * DESK_T, worst,
                       1e-10, "the worst hinf gap, 2.4e-11 at (32, 1, 1), is "
                       "oracle.hinf_direct's own error against a 40-digit run")


# verify's suites in run order: key -> runner(trials, seed), trials None for
# the suite's own default; only the randomized suites read trials and seed
_SUITES = {
    "oracle": lambda trials, seed: [oracle_equivalence_suite(trials or 500, seed)],
    "lemma3": lambda trials, seed: [certificate_suite(trials or 1000, seed)],
    "lemma5": lambda trials, seed: [logdet_trajectory_suite()],
    "lemma6": lambda trials, seed: [scalar_map_suite()],
    "lemma7": lambda trials, seed: [eig_cap_suite()],
    "bounds": lambda trials, seed: [comparator_bound_suite(), tuned_bound_suite(),
                                    hinf_bound_suite()],
    "kernel": lambda trials, seed: [kernel_suite()],
}
RANDOMIZED = ("oracle", "lemma3")
SUITE_KEYS = (*_SUITES, "all")


def run_suites(which: str, trials: int | None = None, seed: int | None = None
               ) -> list[SuiteResult]:
    """Dispatch for the verify command; `which` is one of SUITE_KEYS.
    trials and seed, when given, need a suite that reads them (seed 0 when
    not given)."""
    if which not in SUITE_KEYS:
        raise ValueError(f"unknown suite {which!r}; choose from {SUITE_KEYS}")
    if which not in (*RANDOMIZED, "all"):
        for name, value in (("trials", trials), ("seed", seed)):
            if value is not None:
                raise InvalidParams(f"suite {which!r} does not read {name}; only "
                                    f"{', '.join(RANDOMIZED)} and all do")
    if trials is not None and trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if seed is not None and seed < 0:
        raise InvalidParams(f"seed must be non-negative, got {seed}")
    keys = _SUITES if which == "all" else (which,)
    return [r for key in keys for r in _SUITES[key](trials, seed or 0)]
