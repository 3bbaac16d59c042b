"""End-to-end acceptance gate.

Each test certifies one headline requirement at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
success). The full-scale benchmark comparison runs last; everything else
is desk scale and fast.
"""

import math
import subprocess
import sys
import time

import numpy as np

from driftlearn import cli, harness, laser, oracle, suites
from driftlearn.datagen import DatasetSpec


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_oracle_equivalence_500_instances():
    t0 = time.time()
    res = suites.oracle_equivalence_suite(trials=500, seed=0)
    elapsed = time.time() - t0
    _report(
        "brute-force oracle equivalence (500 random instances)",
        res.ok and elapsed < 30.0,
        f"max relative gap {res.worst:.3e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_hand_trace_fixture():
    params = laser.LaserParams(b=1.0, c=2.0, track_f=True)
    state = laser.laser_init(params, 1)
    xs = np.array([[1.0], [1.0]])
    ys = np.array([1.0, 0.5])
    expect = {
        "yhat": (0.0, 0.25),
        "D": (2.0, 2.0),
        "e": (1.0, 1.0),
        "f": (1.0, 1.0),
        "min_cost": (0.5, 0.5),
    }
    worst = 0.0
    for i in range(2):
        yhat, step = laser.laser_predict(state, xs[i])
        state = laser.laser_update(state, xs[i], ys[i], step=step)
        brute_value, _ = oracle.brute_min_cost(xs[: i + 1], ys[: i + 1], 1.0, 2.0)
        worst = max(
            worst,
            abs(yhat - expect["yhat"][i]),
            abs(state.D[0, 0] - expect["D"][i]),
            abs(state.e[0] - expect["e"][i]),
            abs(state.f - expect["f"][i]),
            abs(laser.laser_min_cost(state) - expect["min_cost"][i]),
            abs(laser.laser_min_cost(state) - brute_value),
        )
    _report(
        "two-round hand-trace fixture",
        worst <= 1e-12,
        f"max deviation {worst:.3e} (tol 1e-12), cross-checked against brute force",
    )


def test_comparator_loss_bound_desk_scale():
    res = suites.comparator_bound_suite()
    _report(
        "cumulative-loss bound, generating + brute-optimal comparators",
        res.ok,
        f"{res.cases} checks over kinds A-D, worst slack {res.worst:.3e} (tol 1e-6)",
    )


def test_regret_certificate_randomized():
    t0 = time.time()
    res = suites.certificate_suite(draws=1000, seed=0)
    elapsed = time.time() - t0
    _report(
        "per-step regret certificate (1000 randomized draws)",
        res.ok and elapsed < 10.0,
        f"max eigenvalue {res.worst:.3e} (tol 1e-10), {elapsed:.1f}s",
    )


def test_logdet_and_eigenvalue_cap_trajectories():
    res1 = suites.logdet_trajectory_suite()
    res2 = suites.eig_cap_suite()
    _report(
        "log-det inequality and eigenvalue cap at every desk-trajectory step",
        res1.ok and res2.ok,
        f"log-det worst {res1.worst:.3e}, cap worst {res2.worst:.3e} (tol 1e-9)",
    )


def test_scalar_map_grid():
    res = suites.scalar_map_suite()
    _report(
        "scalar eigenvalue-map ceilings on the exhaustive grid",
        res.ok and res.cases >= 10_000,
        f"{res.cases} grid points, worst margin {res.worst:.3e}",
    )


def test_tuned_bounds_both_regimes():
    res = suites.tuned_bound_suite()
    _report(
        "drift-tuned closed-form bounds (low and high regimes)",
        res.ok,
        f"{res.cases} tuned runs, worst slack {res.worst:.3e} (tol 1e-6)",
    )


def test_stationary_reduction(forward_ridge):
    rng = np.random.default_rng(88)
    worst_big_c, worst_inf = 0.0, 0.0
    for _ in range(5):
        T, d = 100, 5
        xs = rng.standard_normal((T, d))
        ys = rng.standard_normal(T)

        def predictions(c):
            st = laser.laser_init(laser.LaserParams(b=1.0, c=c), d)
            out = np.empty(T)
            for t in range(T):
                out[t], step = laser.laser_predict(st, xs[t])
                st = laser.laser_update(st, xs[t], ys[t], step=step)
            return out

        ref = forward_ridge(xs, ys, 1.0)
        worst_big_c = max(worst_big_c, np.max(np.abs(predictions(1e12) - ref)))
        worst_inf = max(worst_inf, np.max(np.abs(predictions(math.inf) - ref)))
    _report(
        "stationary reduction to the forward ridge learner",
        worst_big_c <= 1e-6 and worst_inf <= 1e-10,
        f"c=1e12 max dev {worst_big_c:.3e} (tol 1e-6), "
        f"c=inf max dev {worst_inf:.3e} (tol 1e-10)",
    )


def test_robust_filter_bounds_desk_scale():
    res = suites.hinf_bound_suite()
    _report(
        "robust-filter guarantee and prediction-loss ceilings",
        res.ok,
        f"{res.cases} checks over kinds A-D (alpha grid + optimized), "
        f"worst slack {res.worst:.3e} (tol 1e-6)",
    )


# full-scale benchmark comparison -------------------------------------------

FULL_T, FULL_D = 2000, 20
TUNING_SEED = 9999
EVAL_SEEDS = list(range(20))
SWEEP_GRIDS = {
    "laser": {"b": [10.0, 100.0, 300.0], "c": [300.0, 1000.0, 3000.0, 10000.0]},
    "aar": {"b": [0.1, 1.0, 100.0]},
    "nlms": {"eta": [0.25, 0.5, 1.0, 1.5], "eps": [1e-6]},
    "crrls": {"reset_period": [10, 25, 50, 100], "b_reset": [0.1, 1.0]},
    "hinf": {"a": [2.0, 8.0, 32.0], "b": [20.0, 500.0], "c": [50.0, 500.0]},
}


def _final_mean_losses(kind: str) -> dict[str, float]:
    dataset = DatasetSpec(kind=kind, T=FULL_T, d=FULL_D, seed=0)
    tuned = {}
    for algo, grid in SWEEP_GRIDS.items():
        spec = harness.SweepSpec(algo_id=algo, grid=grid, tuning_seed=TUNING_SEED)
        tuned[algo] = harness.sweep(spec, dataset).best_params
    reports = harness.experiment(
        dataset, [(algo, params) for algo, params in tuned.items()], seeds=EVAL_SEEDS
    )
    rows = harness.aggregate(reports)
    return {row.algo_id: row.mean_cumloss for row in rows if row.t == FULL_T}


def test_full_scale_benchmark_ordering():
    t0 = time.time()
    finals = {kind: _final_mean_losses(kind) for kind in ("A", "C")}
    elapsed = time.time() - t0

    ok = True
    details = []
    for kind in ("A", "C"):
        f = finals[kind]
        for rival in ("aar", "nlms", "crrls"):
            ok = ok and f["laser"] < f[rival]
        details.append(
            f"kind {kind}: "
            + " ".join(f"{a}={f[a]:.0f}" for a in ("laser", "aar", "nlms", "crrls", "hinf"))
        )
    ok = ok and finals["C"]["hinf"] > finals["C"]["laser"]
    ok = ok and elapsed < 600.0
    _report(
        "full-scale mean-loss ordering (tuned on a held-out seed, 20 eval seeds)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


def test_byte_identical_outputs(tmp_path, subprocess_env):
    pairs = []
    gen_argv = ["gen", "--kind", "A", "--T", "50", "--d", "10", "--seed", "3"]
    for i in (1, 2):
        out = tmp_path / f"g{i}.csv"
        assert cli.main(gen_argv + ["--out", str(out)]) == 0
        pairs.append(out.read_bytes())
    same_gen = pairs[0] == pairs[1]

    # and across a fresh interpreter
    out3 = tmp_path / "g3.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "driftlearn.cli", *gen_argv, "--out", str(out3)],
        capture_output=True, env=subprocess_env,
    )
    same_fresh = proc.returncode == 0 and out3.read_bytes() == pairs[0]

    run_argv = [
        "run", "--algo", "laser", "--b", "1", "--c", "100", "--track-f",
        "--kind", "C", "--T", "200", "--d", "4", "--seeds", "3",
    ]
    blobs = []
    for i in (1, 2):
        prefix = tmp_path / f"r{i}"
        assert cli.main(run_argv + ["--out-prefix", str(prefix)]) == 0
        blobs.append(
            (tmp_path / f"r{i}_report.csv").read_bytes()
            + (tmp_path / f"r{i}_bounds.csv").read_bytes()
        )
    same_run = blobs[0] == blobs[1]

    sum_blobs = []
    for i in (1, 2):
        out = tmp_path / f"s{i}.csv"
        assert cli.main([
            "report", "--inputs", str(tmp_path / "r1_report.csv"), "--out", str(out)
        ]) == 0
        sum_blobs.append(out.read_bytes())
    same_summary = sum_blobs[0] == sum_blobs[1]

    _report(
        "byte-identical CSV outputs on repeated commands",
        same_gen and same_fresh and same_run and same_summary,
        f"gen={same_gen} fresh-process={same_fresh} run={same_run} report={same_summary}",
    )
