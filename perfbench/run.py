"""driftlearn's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src. One
run sets up (imports driftlearn and warms it up), computes the workload's
reference values, then repeats the workload serially for about --seconds
seconds and checks every rep's outputs. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (medians over the
run's reps, in calibrated time; set-up is the median over several fresh
interpreters, calibrated too and expressed in reference seconds). With
--trace 1, untraced and traced reps alternate and the metrics are the
per-layer ones from the traced reps, plus the tracing overhead; the spans
are written to .perfbench_out/. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tune-eval-d20", "certify-desk", "wide-io-d100")
SETUP_PROBES = 12  # fresh interpreters timed besides the run's own set-up
SETUP_CAL_D = 20  # dimension of the calibration kernel timed after each set-up
SETUP_CAL_CALLS = 5
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_cal": "cal", "learner_steps_per_cal": "1/cal",
                    "peak_rss_mib": "MiB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="driftlearn benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to repeat the workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.setup_probe:
        ap.error("--workload is required")
    return args


def pin_environment():
    """Serial run: no worker pool, one BLAS thread. Must precede numpy's import."""
    os.environ.pop("DRIFTLEARN_THREADS", None)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def use_checkout_source(root):
    """Import driftlearn from <root>/src, the checkout being measured."""
    src = root / "src"
    if not (src / "driftlearn" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no driftlearn source under {src}; run from a checkout root")
    sys.path.insert(0, str(src))


def setup():
    """Time the import of driftlearn (with numpy and scipy) and its warm-up.
    Returns (seconds, cal): the set-up's wall time and the median time of
    the fixed calibration kernel run just after it, in the same process."""
    t0 = time.perf_counter()
    import workloads

    workloads.warm_up()
    seconds = time.perf_counter() - t0
    import reference

    kernel = reference.calibration(SETUP_CAL_D)
    cals = []
    for _ in range(SETUP_CAL_CALLS):
        t0 = time.perf_counter()
        kernel()
        cals.append(time.perf_counter() - t0)
    return seconds, statistics.median(cals)


def probe_setup(root):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, cal = proc.stdout.split()[-2:]
    return float(seconds), float(cal)


def setup_seconds(samples):
    """Set-up time in reference seconds: the median over the samples of the
    set-up wall time divided by the calibration time measured just after it,
    times the calibration kernel's reference time (references.json). The
    machine's speed drifts from one stretch of minutes to the next; the
    ratio follows the set-up work, not the drift."""
    import workloads

    return workloads.REFS["setup_cal_ref_s"] * statistics.median(s / c for s, c in samples)


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", f"--git-dir={root / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(root, args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "driftlearn_threads": "unset (serial, workers=1)",
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "machine": platform.machine(),
    }


def run_rep(workload, calibrate=None):
    """Run one rep part by part. Returns (wall seconds, wall in cal, results);
    with a calibration, each part's wall time is divided by the mean of the
    calibration times measured just before and just after it."""
    out, wall, wall_cal = [], 0.0, 0.0
    cal_before = calibrate() if calibrate else None
    for part in workload.parts():
        t0 = time.perf_counter()
        out.append(part(out))
        part_wall = time.perf_counter() - t0
        wall += part_wall
        if calibrate:
            cal_after = calibrate()
            wall_cal += part_wall / ((cal_before + cal_after) / 2)
            cal_before = cal_after
    return wall, wall_cal, out


class Tally:
    """Operations checked across a run's reps, with the failures seen."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def check(self, out):
        try:
            attempted, failures = self.workload.check(out)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            attempted, failures = 1, [f"checking the outputs raised {exc!r}"]
        self.attempted += attempted
        self.failures += failures


def measure(workload, seconds, tally, root):
    """Untraced reps until the next one would overrun the budget, with a
    set-up probe after each of the first SETUP_PROBES reps (outside the
    budget), so the probes sample the machine across the run. Returns each
    rep's wall time in seconds and in cal, and the probes' set-up times."""
    import reference

    kernel = reference.calibration(workload.d)

    def calibrate():
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    walls, walls_cal, probes = [], [], []
    budget_end = time.perf_counter() + seconds
    while True:
        wall, wall_cal, out = run_rep(workload, calibrate)
        walls.append(wall)
        walls_cal.append(wall_cal)
        tally.check(out)
        if len(probes) < SETUP_PROBES:
            t0 = time.perf_counter()
            probes.append(probe_setup(root))
            budget_end += time.perf_counter() - t0
        if time.perf_counter() + wall > budget_end:
            probes += [probe_setup(root) for _ in range(SETUP_PROBES - len(probes))]
            return walls, walls_cal, probes


def measure_traced(workload, seconds, tally):
    """Alternate untraced and traced reps; returns (untraced walls, traced
    walls, tracers)."""
    import tracing

    walls, traced_walls, tracers = [], [], []
    t_start = time.perf_counter()
    while True:
        wall, _, out = run_rep(workload)
        walls.append(wall)
        tally.check(out)
        tracer = tracing.Tracer()
        with tracer:
            traced_wall, _, out = run_rep(workload)
        traced_walls.append(traced_wall)
        tracers.append(tracer)
        tally.check(out)
        if time.perf_counter() - t_start + wall + traced_wall > seconds:
            return walls, traced_walls, tracers


def write_spans(path, tracers):
    import numpy as np

    arrays = [t.arrays() for t in tracers]
    np.savez_compressed(
        path,
        span_names=np.array(tracers[0].names),
        rep=np.concatenate([np.full(len(a[0]), i) for i, a in enumerate(arrays)]),
        **{key: np.concatenate([a[k] for a in arrays])
           for k, key in enumerate(("name_id", "parent", "start", "end"))},
    )


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    pin_environment()
    use_checkout_source(root)
    if args.setup_probe:
        print(*setup())
        return 0

    setup_samples = [setup()]
    import workloads

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
        tally = Tally(workload)
        lines = []
        if args.trace:
            import tracing

            walls, traced_walls, tracers = measure_traced(workload, args.seconds, tally)
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            metrics, levels = tracing.per_layer(tracers, workload.csv_bytes, overhead)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            write_spans(spans_path, tracers)
            lines.append(f"spans: {spans_path}")
            for name, level in levels.items():
                tail = f"p{level:g}" if level else "empty (no samples)"
                lines.append(f"{name}.tail is {tail}")
            timings = {"rep_walls_s": walls, "traced_rep_walls_s": traced_walls}
        else:
            walls, walls_cal, probes = measure(workload, args.seconds, tally, root)
            setup_samples += probes
            wall_cal = statistics.median(walls_cal)
            wall = statistics.median(walls)
            values = {
                "wall_cal": wall_cal,
                "learner_steps_per_cal": workload.steps / wall_cal,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup_seconds(setup_samples),
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            lines.append(f"{'wall_s':40s} {wall:.6g} s (raw median; machine speed varies)")
            lines.append(f"{'learner_steps_per_s':40s} {workload.steps / wall:.6g} 1/s (raw)")
            lines.append(f"{'calibration_s':40s} {wall / wall_cal:.6g} s (1 cal, about)")
            raw_setup = statistics.median(s for s, _ in setup_samples)
            lines.append(f"{'setup_raw_s':40s} {raw_setup:.6g} s (raw median)")
            timings = {"rep_walls_s": walls, "rep_walls_cal": walls_cal,
                       "setup_samples_s": [s for s, _ in setup_samples],
                       "setup_samples_cal_s": [c for _, c in setup_samples]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, **timings,
                  learner_steps_per_rep=workload.steps, failures=tally.failures[:50],
                  provenance=provenance(root, args))
    record_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"driftlearn benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} reps={len(walls) + len(timings.get('traced_rep_walls_s', []))}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {failed / tally.attempted:.6g} "
          f"({failed} of {tally.attempted} checked operations)")
    print(f"record: {record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
