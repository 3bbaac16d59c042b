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
LASER_CERT = {"b": 1.0, "c": 100.0, "track_f": True}
HINF_CERT = {"a": 8.0, "b": 500.0, "c": 500.0}
TUNED_EPS = 0.1
HIGH_DRIFT_SPEC = dict(kind="A", T=DESK_T, d=2, rotation_rate=math.pi)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    worst: float  # worst margin observed; > tol means violation
    tol: float
    ok: bool
    note: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        out = (
            f"[{status}] {self.name}: {self.cases} cases, "
            f"worst={self.worst:.3e} (tol {self.tol:.1e})"
        )
        if self.note:
            out += f" [{self.note}]"
        return out


def _result(name, cases, worst, tol, note=""):
    return SuiteResult(name, cases, worst, tol, worst <= tol, note)


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
        params = laser.LaserParams(b=float(lo), c=float(hi), track_f=True)
        state = laser.laser_init(params, d)
        for t in range(T):
            state = laser.laser_update(state, xs[t], ys[t])
        value, _ = oracle.brute_min_cost(xs, ys, float(lo), float(hi))
        gap = abs(laser.laser_min_cost(state) - value) / (1.0 + abs(value))
        worst = max(worst, gap)
    return _result("offline-optimum oracle equivalence", trials, worst, 1e-8)


def certificate_suite(draws: int = 1000, seed: int = 0, d_max: int = 6) -> SuiteResult:
    """Max eigenvalue of the per-step regret remainder matrix over random
    (D, x, c) draws; must stay at or below zero."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(draws):
        d = int(rng.integers(1, d_max + 1))
        M = rng.standard_normal((d, d))
        D = M @ M.T + rng.uniform(0.05, 2.0) * np.eye(d)
        x = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
        c = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        worst = max(worst, oracle.regret_certificate_gap(D, x, c))
    return _result("per-step regret certificate", draws, worst, 1e-10)


def scalar_map_suite(n_lam: int = 25, n_beta: int = 25, n_xsq: int = 6) -> SuiteResult:
    """Grid check of the three ceilings on the scalar eigenvalue map."""
    worst = -math.inf
    cases = 0
    for gammasq in (0.5, 1.0, 4.0):
        for lam in np.linspace(0.0, 100.0, n_lam):
            for beta in np.linspace(0.0, 100.0, n_beta):
                for xsq in np.linspace(0.0, gammasq, n_xsq):
                    f = oracle.eigenvalue_step_map(lam, beta, xsq, gammasq)
                    cap3 = max(
                        lam, 0.5 * (3.0 * gammasq + math.sqrt(gammasq**2 + 4.0 * gammasq * beta))
                    )
                    worst = max(
                        worst,
                        f - (beta + gammasq),
                        f - (lam + gammasq),
                        f - cap3,
                    )
                    cases += 1
    return _result("scalar eigenvalue-map ceilings", cases, worst, 1e-12)


def _desk_streams(kinds="ABCD", T=DESK_T, d=DESK_D, seeds=DESK_SEEDS):
    return [gen_stream(DatasetSpec(kind=k, T=T, d=d, seed=s)) for k in kinds for s in seeds]


def _cert_trajectories(streams, params: dict, spectra: bool = False):
    """One laser batch under params, one member per stream."""
    lps = [harness._laser_params(params, stream)[0] for stream in streams]
    return lps, laser.laser_trajectories(lps, *harness._batch_inputs(streams), spectra=spectra)


def logdet_trajectory_suite(
    kinds="ABCD", T=DESK_T, d=DESK_D, seeds=DESK_SEEDS, params=LASER_CERT
) -> SuiteResult:
    """Prefix log-det inequality at every step of every desk trajectory."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(kinds, T, d, seeds)
    for stream, lp, traj in zip(streams, *_cert_trajectories(streams, params, spectra=True)):
        lhs = np.cumsum(traj.quads)
        rhs = oracle.logdet_bound_rhs(
            traj.logdet_D[1:], np.cumsum(traj.trace_D[:-1]), stream.dim, lp.b, lp.c
        )
        worst = max(worst, float(np.max(lhs - rhs)))
        cases += stream.T
    return _result("log-det quad-sum inequality", cases, worst, 1e-9)


def eig_cap_suite(
    kinds="ABCD", T=DESK_T, d=DESK_D, seeds=DESK_SEEDS, params=LASER_CERT
) -> SuiteResult:
    """Per-step eigenvalue ceiling with the running input-norm bound."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(kinds, T, d, seeds)
    for stream, lp, traj in zip(streams, *_cert_trajectories(streams, params, spectra=True)):
        x_sq_max = np.maximum.accumulate(np.einsum("td,td->t", stream.xs, stream.xs))
        caps = np.array([oracle.eig_cap(float(v), lp.b, lp.c) for v in x_sq_max])
        worst = max(worst, float(np.max(traj.lam_max_D[1:] - caps)))
        cases += stream.T
    return _result("covariance eigenvalue cap", cases, worst, 1e-9)


def comparator_bound_suite(
    kinds="ABCD",
    T=DESK_T,
    d=DESK_D,
    seeds=DESK_SEEDS,
    params=LASER_CERT,
    brute_prefix: int = 20,
) -> SuiteResult:
    """Cumulative-loss bound against both the generating comparator (full
    desk runs) and the brute-force-optimal comparator (short prefixes)."""
    worst = -math.inf
    cases = 0
    streams = _desk_streams(kinds, T, d, seeds)
    for stream, lp, traj in zip(streams, *_cert_trajectories(streams, params)):
        yhats, quads = traj.yhats, traj.quads
        L_T = float(np.sum((stream.ys - yhats) ** 2))
        rhs = oracle.cumloss_bound(
            stream.truth, stream.xs, stream.ys, lp.b, lp.c, stream.Y_bound, quads
        )
        worst = max(worst, L_T - rhs)
        cases += 1

        # tightest comparator on a short prefix
        n = min(brute_prefix, stream.T)
        xs_p, ys_p = stream.xs[:n], stream.ys[:n]
        _, best = oracle.brute_min_cost(xs_p, ys_p, lp.b, lp.c)
        L_p = float(np.sum((ys_p - yhats[:n]) ** 2))
        Y_p = float(np.max(np.abs(ys_p)))
        rhs_p = oracle.cumloss_bound(best, xs_p, ys_p, lp.b, lp.c, Y_p, quads[:n])
        worst = max(worst, L_p - rhs_p)
        cases += 1
    return _result("comparator cumulative-loss bound", cases, worst, 1e-6)


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
    return _result("drift-tuned closed-form bounds", 2 * len(seeds), worst, 1e-6)


def hinf_bound_suite(
    kinds="ABCD", T=DESK_T, d=DESK_D, seeds=DESK_SEEDS, params=HINF_CERT
) -> SuiteResult:
    """Robust-filter guarantee and prediction-loss ceilings (alpha grid
    plus the optimized alpha where defined) on every desk run."""
    streams = _desk_streams(kinds, T, d, seeds)
    checks = [b for r in harness.run_batch("hinf", [dict(params)] * len(streams), streams)
              for b in r.bound_checks]
    worst = max(b.lhs - b.rhs for b in checks)
    return _result("robust-filter loss bounds", len(checks), worst, 1e-6)


# (b, c) of the kernel suite's laser members and (a, b, c) of its hinf
# members, each cycled over the desk streams so that one batch mixes
# forgetting rates, c near or equal to b and the stationary c = inf;
# (0.05, inf) moves to square-root information form on every desk stream
KERNEL_MEMBERS = ((1.0, 100.0), (0.1, 0.2), (10.0, 1000.0), (1.0, math.inf), (0.5, 5.0),
                  (0.05, math.inf))
KERNEL_HINF_MEMBERS = (tuple(HINF_CERT.values()), (2.0, 20.0, 50.0), (32.0, 1.0, 1.0))


def _gap(got, ref) -> float:
    return float(np.max(np.abs(got - ref))) / (1.0 + float(np.max(np.abs(ref))))


def kernel_suite(kinds="ABCD", T=DESK_T, d=DESK_D, seeds=DESK_SEEDS) -> SuiteResult:
    """The batched kernel against the direct recursions: laser member i runs
    desk stream i with the i-th (b, c) of KERNEL_MEMBERS, cycled, in one
    batch, against `oracle.laser_direct`; hinf members likewise with
    KERNEL_HINF_MEMBERS against `oracle.hinf_direct`, post-update weights
    included. Reports the worst gap relative to 1 + max |reference|."""
    streams = _desk_streams(kinds, T, d, seeds)
    lps = [laser.LaserParams(b=b, c=c)
           for (b, c), _ in zip(itertools.cycle(KERNEL_MEMBERS), streams)]
    trajs = laser.laser_trajectories(lps, *harness._batch_inputs(streams))
    worst = max(_gap(traj.yhats, oracle.laser_direct(stream.xs, stream.ys, lp.b, lp.c).yhats)
                for stream, lp, traj in zip(streams, lps, trajs))
    hps = [dict(zip("abc", m)) for m, _ in zip(itertools.cycle(KERNEL_HINF_MEMBERS), streams)]
    for stream, hp, report in zip(streams, hps, harness.run_batch("hinf", hps, streams)):
        yhats, ws, _ = oracle.hinf_direct(stream.xs, stream.ys, **hp)
        worst = max(worst, _gap(report.yhats, yhats), _gap(report.post_update_w, ws))
    return _result("batched kernel vs direct recursion", 2 * len(streams) * T, worst, 1e-10,
                   "the worst hinf gap, 2.4e-11 at (32, 1, 1), is oracle.hinf_direct's own "
                   "error against a 40-digit run")


def bounds_suite(seeds=DESK_SEEDS) -> list[SuiteResult]:
    return [
        comparator_bound_suite(seeds=seeds),
        tuned_bound_suite(seeds=seeds),
        hinf_bound_suite(seeds=seeds),
    ]


SUITE_KEYS = ("oracle", "lemma3", "lemma5", "lemma6", "lemma7", "bounds", "kernel", "all")


def run_suites(which: str, trials: int | None = None, seed: int = 0) -> list[SuiteResult]:
    """Dispatch for the verify command; `which` is one of SUITE_KEYS."""
    if trials is not None and trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    results: list[SuiteResult] = []
    if which in ("oracle", "all"):
        results.append(oracle_equivalence_suite(500 if trials is None else trials, seed))
    if which in ("lemma3", "all"):
        results.append(certificate_suite(1000 if trials is None else trials, seed))
    if which in ("lemma5", "all"):
        results.append(logdet_trajectory_suite())
    if which in ("lemma6", "all"):
        results.append(scalar_map_suite())
    if which in ("lemma7", "all"):
        results.append(eig_cap_suite())
    if which in ("bounds", "all"):
        results.extend(bounds_suite())
    if which in ("kernel", "all"):
        results.append(kernel_suite())
    if not results:
        raise ValueError(f"unknown suite {which!r}; choose from {SUITE_KEYS}")
    return results
