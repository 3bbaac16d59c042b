"""The benchmark's workloads and their correctness gates.

Each workload is closed-loop and serial: one caller, each call waiting for
the previous one. It drives driftlearn only through public functions.
One rep, the timed unit of work, runs the callables of ``parts()`` in
order; each takes the list of earlier parts' results and returns its own.
``check(out)`` compares a rep's results against references (untimed) and
returns (operations attempted, list of failures). ``steps`` is the number
of learner steps in one rep; ``d`` is the input dimension.

Inputs come only from the workload seed: ``derive_seeds`` turns it into
stream, tuning and eval seeds, so a result can be re-checked on a seed
that was not used while a change was written.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import reference
from driftlearn import cli, harness, suites
from driftlearn.datagen import DatasetSpec, gen_stream, stream_csv_text

REFS = json.loads((Path(__file__).parent / "references.json").read_text())
REL_TOL = REFS["rel_tol"]
BOUND_TOL = REFS["bound_tol"]

# The acceptance grids of the full-scale comparison, copied from
# tests/test_acceptance.py::SWEEP_GRIDS on purpose: the copy freezes the
# workload, so runs of different commits sweep the same grids even if the
# acceptance test's grids change.
SWEEP_GRIDS = {
    "laser": {"b": [10.0, 100.0, 300.0], "c": [300.0, 1000.0, 3000.0, 10000.0]},
    "aar": {"b": [0.1, 1.0, 100.0]},
    "nlms": {"eta": [0.25, 0.5, 1.0, 1.5], "eps": [1e-6]},
    "crrls": {"reset_period": [10, 25, 50, 100], "b_reset": [0.1, 1.0]},
    "hinf": {"a": [2.0, 8.0, 32.0], "b": [20.0, 500.0], "c": [50.0, 500.0]},
}


def derive_seeds(seed, workload, k):
    """k distinct stream seeds derived from the workload seed."""
    return random.Random(f"{workload}/{seed}").sample(range(1, 2**31), k)


def grid_points(grid):
    """Every parameter combination of a sweep grid."""
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def close(value, ref):
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def predictions_close(yhats, ref):
    """Every prediction within REL_TOL of the reference, relative to the
    largest reference prediction. L_T alone is insensitive to small
    prediction errors: at the optimum its gradient in yhat nearly vanishes."""
    yhats = np.asarray(yhats, dtype=float)
    return yhats.shape == ref.shape and bool(
        np.max(np.abs(yhats - ref), initial=0.0) <= REL_TOL * max(1.0, np.max(np.abs(ref))))


def warm_up():
    """Touch every layer once at a tiny size, so lazy imports and first-call
    costs land in set-up rather than in the first timed rep."""
    stream = gen_stream(DatasetSpec(kind="C", T=12, d=4, seed=1))
    params = {
        "laser": {"b": 1.0, "c": 100.0},
        "hinf": {"a": 8.0, "b": 500.0, "c": 500.0},
        "aar": {"b": 1.0},
        "nlms": {"eta": 0.5},
        "crrls": {"reset_period": 5, "b_reset": 1.0},
    }
    reports = [harness.run_learner(algo, p, stream) for algo, p in params.items()]
    harness.aggregate(reports)
    harness.write_report_csv(reports, io.StringIO())
    harness.write_bounds_csv(reports, io.StringIO())
    stream_csv_text(stream)
    suites.oracle_equivalence_suite(trials=2)


def expected_outcomes(algo, params, stream, ref_loss):
    """{bound name: expected holds, or None where either outcome is within
    tolerance}. Theorem checks must hold; the regret ceilings hold only
    where the reference loss lies under them."""
    expected = {}
    for name, kind in REFS["bound_checks"][algo].items():
        if kind == "theorem":
            expected[name] = True
            continue
        ceiling = reference.hinf_regret_ceiling(params, kind, stream.xs, stream.ys,
                                                stream.truth.us)
        if ceiling is None:
            continue  # the optimized alpha is undefined, so the check is absent
        gap = ceiling + BOUND_TOL - ref_loss
        expected[name] = None if abs(gap) <= REL_TOL * max(1.0, ceiling) else gap >= 0.0
    return expected


def outcome_failures(label, outcomes, expected):
    """Compare a {bound name: holds} vector with expected_outcomes."""
    if set(outcomes) != set(expected):
        return [f"{label}: bound checks {sorted(outcomes)} != expected {sorted(expected)}"]
    return [f"{label}: {name} holds={outcomes[name]}, expected {want}"
            for name, want in expected.items()
            if want is not None and outcomes[name] != want]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def final_cumloss(rows):
    """{(algo, seed): cumloss at the last step} from report CSV rows."""
    last = {}
    for row in rows:
        key = (row["algo"], int(row["seed"]))
        t = int(row["t"])
        if t >= last.get(key, (0, 0.0))[0]:
            last[key] = (t, float(row["cumloss"]))
    return {key: cum for key, (_, cum) in last.items()}


def bound_outcomes(rows):
    """{(algo, seed): {bound name: holds}} from bounds CSV rows."""
    out = {}
    for row in rows:
        key = (row["algo"], int(row["seed"]))
        out.setdefault(key, {})[row["bound_name"]] = float(row["slack"]) >= -BOUND_TOL
    return out


def invalid(algo, params):
    """Grid points the sweep must skip: laser requires b < c."""
    return algo == "laser" and params["b"] >= params["c"]


class TuneEval:
    """Sweep all five learners on a tuning stream, evaluate the tuned ones."""

    name = "tune-eval-d20"
    d = 20
    csv_bytes = 0

    def __init__(self, seed, tiny, workdir):
        self.T = 20 if tiny else 250
        self.tuning_seed, *self.eval_seeds = derive_seeds(seed, self.name, 2 if tiny else 3)
        self.dataset = DatasetSpec(kind="C", T=self.T, d=self.d, seed=0)
        self.report_path = Path(workdir) / "tune_report.csv"
        self.bounds_path = Path(workdir) / "tune_bounds.csv"
        self._streams = {}
        self._predictions = {}
        valid = sum(1 for algo, grid in SWEEP_GRIDS.items() for p in grid_points(grid)
                    if not invalid(algo, p))
        self.steps = self.T * (valid + len(SWEEP_GRIDS) * len(self.eval_seeds))

    def stream(self, seed):
        if seed not in self._streams:
            self._streams[seed] = gen_stream(replace(self.dataset, seed=seed))
        return self._streams[seed]

    def ref_predictions(self, algo, params, seed):
        key = (algo, json.dumps(params, sort_keys=True), seed)
        if key not in self._predictions:
            s = self.stream(seed)
            self._predictions[key] = reference.learner_predictions(algo, params, s.xs, s.ys)
        return self._predictions[key]

    def ref_loss(self, algo, params, seed):
        return reference.learner_loss(self.ref_predictions(algo, params, seed),
                                      self.stream(seed).ys)

    def parts(self):
        return [partial(self.sweep, algo) for algo in SWEEP_GRIDS] + [self.evaluate]

    def sweep(self, algo, out):
        spec = harness.SweepSpec(algo, SWEEP_GRIDS[algo], self.tuning_seed)
        return harness.sweep(spec, self.dataset)

    def evaluate(self, out):
        tuned = [(algo, result.best_params) for algo, result in zip(SWEEP_GRIDS, out)]
        reports = harness.experiment(self.dataset, tuned, self.eval_seeds, workers=1)
        rows = harness.aggregate(reports)
        harness.write_report_csv(reports, self.report_path)
        harness.write_bounds_csv(reports, self.bounds_path)
        return reports, rows

    def check(self, out):
        sweeps = dict(zip(SWEEP_GRIDS, out))
        reports, rows = out[-1]
        attempted, failures = 0, []
        for algo, result in sweeps.items():
            valid = []
            for params in grid_points(SWEEP_GRIDS[algo]):
                attempted += 1
                label = f"sweep {algo} {params}"
                evaluated = [L for p, L in result.evaluated if p == params]
                skipped = any(p == params for p, _ in result.skipped)
                if invalid(algo, params):
                    if not skipped or evaluated:
                        failures.append(f"{label}: b >= c should be skipped")
                    continue
                valid.append(params)
                if skipped or len(evaluated) != 1:
                    failures.append(f"{label}: not evaluated exactly once")
                    continue
                ref = self.ref_loss(algo, params, self.tuning_seed)
                if not close(evaluated[0], ref):
                    failures.append(f"{label}: L_T {evaluated[0]!r} != reference {ref!r}")
            attempted += 1
            if result.best_params not in valid:
                return attempted, failures + [f"sweep {algo}: picked {result.best_params}"]
            best = self.ref_loss(algo, result.best_params, self.tuning_seed)
            least = min(self.ref_loss(algo, p, self.tuning_seed) for p in valid)
            if not close(best, least):
                failures.append(f"sweep {algo}: picked {result.best_params} with "
                                f"reference L_T {best!r} > minimum {least!r}")

        tuned = {algo: result.best_params for algo, result in sweeps.items()}
        expected_keys = sorted((algo, seed) for algo in tuned for seed in self.eval_seeds)
        if sorted((r.algo_id, r.seed) for r in reports) != expected_keys:
            return attempted + 1, failures + ["experiment: wrong (algo, seed) set"]
        by_algo = {}
        for r in reports:
            attempted += 1
            label = f"experiment {r.algo_id} seed {r.seed}"
            params = tuned[r.algo_id]
            ref = self.ref_loss(r.algo_id, params, r.seed)
            by_algo.setdefault(r.algo_id, []).append(ref)
            if not close(r.L_T, ref):
                failures.append(f"{label}: L_T {r.L_T!r} != reference {ref!r}")
            if not predictions_close(r.yhats, self.ref_predictions(r.algo_id, params, r.seed)):
                failures.append(f"{label}: predictions differ from the reference")
            expected = expected_outcomes(r.algo_id, params, self.stream(r.seed), ref)
            failures += outcome_failures(label, {b.name: b.holds for b in r.bound_checks},
                                         expected)

        attempted += 1
        finals = {row.algo_id: row for row in rows if row.t == self.T}
        if len(rows) != len(tuned) * self.T or set(finals) != set(tuned):
            failures.append(f"aggregate: {len(rows)} rows for {sorted(finals)}")
        else:
            for algo, refs in by_algo.items():
                row = finals[algo]
                if row.n != len(refs) or not close(row.mean_cumloss, sum(refs) / len(refs)):
                    failures.append(f"aggregate {algo}: mean {row.mean_cumloss!r} over "
                                    f"{row.n} runs != reference mean {sum(refs) / len(refs)!r}")

        attempted += 1
        report_rows = read_csv(self.report_path)
        finals_csv = final_cumloss(report_rows)
        if len(report_rows) != len(reports) * self.T or any(
            not close(finals_csv.get((r.algo_id, r.seed), math.nan), r.L_T) for r in reports
        ):
            failures.append("report csv: rows or final cumulative losses differ from the run")

        attempted += 1
        outcomes = bound_outcomes(read_csv(self.bounds_path))
        if any(outcomes.get((r.algo_id, r.seed), {}) != {b.name: b.slack >= -BOUND_TOL
                                                          for b in r.bound_checks}
               for r in reports):
            failures.append("bounds csv: outcomes differ from the run")
        return attempted, failures


class CertifyDesk:
    """The eight certification suites behind ``driftlearn verify --suite all``."""

    name = "certify-desk"
    d = suites.DESK_D
    csv_bytes = 0

    def __init__(self, seed, tiny, workdir):
        self.suite_seed, *self.desk_seeds = derive_seeds(seed, self.name, 2 if tiny else 3)
        self.T = 20 if tiny else suites.DESK_T
        self.trials = 10 if tiny else 50
        self.draws = 20 if tiny else 100
        self.grid = (3, 3, 2) if tiny else (25, 25, 6)
        per_suite = 4 * len(self.desk_seeds) * self.T  # kinds A-D
        # four trajectory suites, plus two tuned runs of DESK_T steps per seed;
        # the oracle suite's short random streams are not counted
        self.steps = 4 * per_suite + 2 * len(self.desk_seeds) * suites.DESK_T

    def parts(self):
        seeds, T = self.desk_seeds, self.T
        return [
            lambda out: suites.oracle_equivalence_suite(self.trials, self.suite_seed),
            lambda out: suites.certificate_suite(self.draws, self.suite_seed),
            lambda out: suites.logdet_trajectory_suite(T=T, seeds=seeds),
            lambda out: suites.scalar_map_suite(*self.grid),
            lambda out: suites.eig_cap_suite(T=T, seeds=seeds),
            lambda out: suites.comparator_bound_suite(T=T, seeds=seeds),
            lambda out: suites.tuned_bound_suite(seeds=seeds),
            lambda out: suites.hinf_bound_suite(T=T, seeds=seeds),
        ]

    def check(self, out):
        verdicts = REFS["suite_verdicts"]
        failures = []
        if [r.name for r in out] != list(verdicts):
            failures.append(f"suites: ran {[r.name for r in out]}")
        failures += [f"suite {r.name}: ok={r.ok} over {r.cases} cases, worst {r.worst!r}"
                     for r in out if r.ok != verdicts.get(r.name) or r.cases < 1]
        return len(verdicts), failures


class WideIO:
    """Write a d=100 stream CSV, then run laser and hinf on it via the CLI."""

    name = "wide-io-d100"
    d = 100
    LEARNERS = {
        "laser": {"b": 10.0, "c": 1000.0},
        "hinf": {"a": 8.0, "b": 500.0, "c": 500.0},
    }

    def __init__(self, seed, tiny, workdir):
        self.T = 50 if tiny else 500
        (stream_seed,) = derive_seeds(seed, self.name, 1)
        self.spec = DatasetSpec(kind="C", T=self.T, d=self.d, seed=stream_seed)
        self.workdir = Path(workdir)
        self.stream_path = self.workdir / "stream.csv"
        self.steps = self.T * len(self.LEARNERS)
        self.stream = gen_stream(self.spec)
        s = self.stream
        self.ref_yhats = {algo: reference.learner_predictions(algo, p, s.xs, s.ys)
                          for algo, p in self.LEARNERS.items()}
        self.ref = {algo: reference.learner_loss(y, s.ys) for algo, y in self.ref_yhats.items()}
        self.csv_bytes = 0

    def argv(self, algo):
        flags = [x for k, v in self.LEARNERS[algo].items() for x in (f"--{k}", repr(v))]
        return ["run", "--data", str(self.stream_path), "--algo", algo, *flags,
                "--out-prefix", str(self.workdir / algo)]

    def parts(self):
        s = self.spec
        commands = [["gen", "--kind", s.kind, "--T", str(s.T), "--d", str(s.d),
                     "--seed", str(s.seed), "--out", str(self.stream_path)]]
        commands += [self.argv(algo) for algo in self.LEARNERS]
        return [partial(self.command, argv) for argv in commands]

    def command(self, argv, out):
        err = io.StringIO()  # the CLI warns about the failed regret ceilings
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return argv[0], code, err.getvalue()

    def check(self, out):
        failures = []
        for command, code, err in out:
            if code != 0:
                failures.append(f"{command} exited {code}: {err.strip()}")
        if failures:
            return len(out), failures

        self.csv_bytes = self.stream_path.stat().st_size
        table = np.loadtxt(self.stream_path, delimiter=",", skiprows=1, ndmin=2)
        d = self.spec.d
        s = self.stream
        if not (table.shape == (self.T, 2 * d + 2)
                and np.array_equal(table[:, 0], np.arange(1, self.T + 1))
                and np.array_equal(table[:, 1:d + 1], s.xs)
                and np.array_equal(table[:, d + 1], s.ys)
                and np.array_equal(table[:, d + 2:], s.truth.us)):
            failures.append("gen: stream csv does not round-trip the generated stream")

        stderr = {algo: err for algo, (_, _, err) in zip(self.LEARNERS, out[1:])}
        for algo, params in self.LEARNERS.items():
            rows = read_csv(self.workdir / f"{algo}_report.csv")
            final = final_cumloss(rows).get((algo, 0), math.nan)
            if len(rows) != self.T or not close(final, self.ref[algo]):
                failures.append(f"run {algo}: {len(rows)} rows, L_T {final!r} != "
                                f"reference {self.ref[algo]!r}")
            elif not predictions_close([float(r["yhat"]) for r in rows], self.ref_yhats[algo]):
                failures.append(f"run {algo}: predictions differ from the reference")
            outcomes = bound_outcomes(read_csv(self.workdir / f"{algo}_bounds.csv"))
            expected = expected_outcomes(algo, params, s, self.ref[algo])
            failures += outcome_failures(f"run {algo}", outcomes.get((algo, 0), {}), expected)
            warned = {name.strip() for line in stderr[algo].splitlines()
                      if "failed checks:" in line
                      for name in line.split("failed checks:", 1)[1].split(",")}
            failures += outcome_failures(f"run {algo} warnings",
                                         {name: name not in warned for name in expected}, expected)
        return len(out), failures


WORKLOADS = {w.name: w for w in (TuneEval, CertifyDesk, WideIO)}
