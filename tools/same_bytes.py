"""Run a fixed set of driftlearn CLI commands and demos and keep everything they write.

    python3 tools/same_bytes.py OUTDIR

Each command, and each demo of DEMOS, runs in a fresh interpreter that
imports the driftlearn of the checkout holding this script, with BLAS
pinned to one thread and DRIFTLEARN_THREADS removed (experiments run
serially). Command NAME runs in its own directory OUTDIR/NAME, and demo
FILE.py in OUTDIR/demo-FILE; each directory ends up holding the files
written there plus stdout.txt, stderr.txt and exit.txt. A command may carry a
--config object, written there as config.json before it runs, and files of
its own (FILES), written there too. Commands that
read an earlier command's output name it by a relative path
(../gen-d4/stream.csv), so nothing written depends on where OUTDIR is.

To check that a change writes the same bytes as its parent, run this
script from both checkouts into two new directories and compare them:
`diff -r OUT_PARENT OUT_CHANGE` prints nothing when every CSV, JSON, plot
script, message and exit code is the same.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KINDS = "ABCD"
GEN_DIMS = (4, 20, 40)
# the learners run on each generated stream CSV; (1, inf) and (0.001, inf)
# are stationary, and (0.001, 1e12) runs in square-root information form
DATA_LEARNERS = {
    "laser-1-100": ["--algo", "laser", "--b", "1", "--c", "100"],
    "laser-1-inf": ["--algo", "laser", "--b", "1", "--c", "inf"],
    "laser-0.001-1e12": ["--algo", "laser", "--b", "0.001", "--c", "1e12"],
    "laser-0.001-inf": ["--algo", "laser", "--b", "0.001", "--c", "inf"],
    "aar": ["--algo", "aar", "--b", "1"],
    "crrls": ["--algo", "crrls", "--reset-period", "50", "--b-reset", "1"],
    "nlms": ["--algo", "nlms", "--eta", "0.5", "--eps", "1e-6"],
    "hinf": ["--algo", "hinf", "--a", "8", "--b", "500", "--c", "500"],
}
LASER = ["--algo", "laser", "--b", "1", "--c", "100"]
SHORT = ["--T", "300", "--seeds", "2"]


CONFIG = ["--config", "config.json"]


# (name, argv) or (name, argv, config) of every command, in run order
COMMANDS = [
    *((f"gen-d{d}", ["gen", "--kind", "C", "--T", "300", "--d", str(d), "--seed", "1",
                     "--out", "stream.csv"]) for d in GEN_DIMS),
    # the switching kinds' targets: the defaults, then frozen on the last pair at odd d
    *((f"gen-{k}", ["gen", "--kind", k, "--out", "stream.csv"]) for k in "BD"),
    *((f"gen-{k}-period-7-no-wrap-d13", ["gen", "--kind", k, "--T", "300", "--d", "13",
                                         "--switch-period", "7", "--no-wrap",
                                         "--out", "stream.csv"]) for k in "BD"),
    *((f"data-d{d}-{name}", ["run", *flags, "--data", f"../gen-d{d}/stream.csv"])
      for d in GEN_DIMS for name, flags in DATA_LEARNERS.items()),
    *((f"run-laser-d4-{k}", ["run", *LASER, "--kind", k, "--T", "200", "--d", "4",
                             "--seeds", "3"]) for k in KINDS),
    *((f"run-laser-10-1000-d20-{k}", ["run", "--algo", "laser", "--b", "10", "--c", "1000",
                                      "--kind", k, "--d", "20", *SHORT]) for k in KINDS),
    ("run-hinf-d20", ["run", "--algo", "hinf", "--a", "8", "--b", "500", "--c", "500",
                      "--kind", "C", "--d", "20", *SHORT]),
    ("run-tuned-low-d8", ["run", "--algo", "laser", "--tuned-regime", "low",
                          "--eps-ratio", "0.1", "--kind", "C", "--d", "8", *SHORT]),
    *((f"run-tuned-high-d{d}", ["run", "--algo", "laser", "--tuned-regime", "high",
                                "--eps-ratio", "0.1", "--kind", "A", "--rotation-rate",
                                "3.141592653589793", "--d", str(d), *SHORT])
      for d in (4, 6)),  # d = 6 falls below the high-drift threshold: exit 2
    ("run-laser-sqrt-d12", ["run", "--algo", "laser", "--b", "0.01", "--c", "1e12",
                            "--kind", "C", "--d", "12", *SHORT]),
    ("run-aar-d16", ["run", "--algo", "aar", "--b", "1", "--kind", "C", "--d", "16", *SHORT]),
    ("run-crrls-d20", ["run", "--algo", "crrls", "--reset-period", "50", "--b-reset", "1",
                       "--kind", "C", "--d", "20", *SHORT]),
    ("run-laser-d31", ["run", *LASER, "--kind", "C", "--d", "31", *SHORT]),
    ("run-laser-d32", ["run", *LASER, "--kind", "C", "--d", "32", *SHORT]),
    ("run-laser-clipped-B", ["run", *LASER, "--clip-bound", "5", "--kind", "B",
                             "--switch-period", "20", "--no-wrap", "--d", "8", *SHORT]),
    ("run-hinf-weak-prior", ["run", "--algo", "hinf", "--a", "2", "--b", "1e-150", "--c", "1",
                             "--kind", "D", "--T", "30", "--d", "4"]),
    ("sweep-laser", ["sweep", "--algo", "laser", "--grid",
                     '{"b": [0.5, 1, 5], "c": [2, 100, 1000]}', "--kind", "C", "--T", "200",
                     "--d", "4", "--out", "best.json"]),
    ("sweep-nlms", ["sweep", "--algo", "nlms", "--grid", '{"eta": ["inf", 0.25, 0.5]}',
                    "--kind", "D", "--T", "200", "--d", "6", "--out", "best.json"]),
    # eta = 5 ends in a NaN loss, written as null; eta = 50 alone diverges: exit 2
    ("sweep-nlms-diverging-C", ["sweep", "--algo", "nlms", "--grid", '{"eta": [0.5, 1, 5]}',
                                "--kind", "C", "--out", "best.json"]),
    ("sweep-nlms-all-diverging", ["sweep", "--algo", "nlms", "--grid", '{"eta": [50]}',
                                  "--kind", "C", "--T", "200", "--d", "4", "--out", "best.json"]),
    # 0.5 and "0.5" are one point once converted: it runs once
    ("sweep-duplicate-grid-points", ["sweep", "--algo", "nlms", "--grid",
                                     '{"eta": [0.5, 0.5, "0.5"]}', "--kind", "C", "--T", "200",
                                     "--d", "4", "--out", "best.json"]),
    # members that move to square-root form at different rounds of one call: AAR
    # at rounds 0 and 163 and never; certified laser members at 163, 33, 65 and 26
    ("sweep-aar-staggered-switch", ["sweep", "--algo", "aar", "--grid",
                                    '{"b": [0.001, 0.1, 1]}', "--kind", "C", "--T", "300",
                                    "--d", "4", "--out", "best.json"]),
    ("run-laser-staggered-switch", ["run", "--algo", "laser", "--b", "0.1", "--c", "1e12",
                                    "--kind", "C", "--T", "300", "--d", "4", "--seeds", "4"]),
    # a number that overflows to inf is refused like Infinity: exit 2
    ("sweep-grid-overflowing-number", ["sweep", "--algo", "laser", "--grid",
                                       '{"b": [1], "c": [1e400]}', "--kind", "C", "--T", "20",
                                       "--d", "4", "--out", "best.json"]),
    # an integer too large for a double is refused as a grid value: exit 2
    ("sweep-grid-huge-integer", ["sweep", "--algo", "laser", "--grid",
                                 '{"b": [1], "c": [1%s]}' % ("0" * 400), "--kind", "C",
                                 "--T", "20", "--d", "4", "--out", "best.json"]),
    # a period of 2^63 or more cuts the stream into one segment, as any period >= T
    ("gen-B-huge-switch-period", ["gen", "--kind", "B", "--T", "20", "--d", "4",
                                  "--switch-period", "9223372036854775808", "--out",
                                  "stream.csv"]),
    # the comparator's squared residual overflows on this stream: exit 2
    ("data-comparator-overflow", ["run", "--algo", "laser", "--b", "1", "--c", "10",
                                  "--data", "stream.csv"]),
    ("report", ["report", "--inputs", "../run-laser-d4-A/run_report.csv",
                "../run-laser-d4-D/run_report.csv", "--out", "summary.csv",
                "--plot", "curves.gp"]),
    # a run whose step index jumps from 1 to 3: exit 2
    ("report-step-gap", ["report", "--inputs", "gap.csv", "--out", "summary.csv"]),
    ("verify-all", ["verify", "--suite", "all"]),
    ("verify-oracle", ["verify", "--suite", "oracle", "--trials", "50", "--seed", "3"]),
    ("verify-lemma3", ["verify", "--suite", "lemma3", "--trials", "50", "--seed", "3"]),
    ("verify-lemma6", ["verify", "--suite", "lemma6"]),
    ("run-full-laser-C", ["run", *LASER, "--kind", "C", "--full"]),
    # dataset values, learner parameters and --data from a config; flags override
    ("config-gen", [*CONFIG, "gen", "--d", "6", "--out", "stream.csv"],
     {"kind": "D", "T": 150, "d": 9, "seed": 4, "switch_period": 20, "no_wrap": True}),
    ("config-run", [*CONFIG, "run", "--algo", "laser", "--seeds", "2"],
     {"kind": "C", "T": 120, "d": 5, "seed": 3, "noise_var": 0.2, "rotation_rate": 0.05,
      "b": 1, "c": 50, "eta": 0.5}),
    ("config-data", [*CONFIG, "run", "--algo", "hinf", "--a", "8", "--out-prefix", "data"],
     {"data": "../config-gen/stream.csv", "kind": "A", "T": 50, "d": 4, "seeds": 3,
      "b": 500, "c": 500}),
    # the grid as a JSON object in the config, not as a string
    ("config-sweep-grid-object", [*CONFIG, "sweep", "--algo", "nlms", "--kind", "C", "--T", "20",
                                  "--d", "4", "--out", "best.json"], {"grid": {"eta": [0.5]}}),
]

# the demos that step the single-state API (laser_predict and laser_update)
# and print the state's D, e, f and min cost
DEMOS = ("01_laser_walkthrough.py", "05_stationary_limit.py")

# files written into a command's directory before it runs
FILES = {"data-comparator-overflow": {"stream.csv": "t,x_1,y,u_1\n1,1,9e153,-9e153\n"},
         "report-step-gap": {"gap.csv": "algo,seed,t,yhat,y,loss,cumloss\n"
                                        "laser,0,1,0,1,1,1\nlaser,0,3,0,1,1,2\n"}}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("DRIFTLEARN_THREADS", None)
    return env


def _run(cwd: Path, argv: list[str], env: dict) -> None:
    """Run argv in cwd and keep its stdout, stderr and exit code there."""
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    (cwd / "stdout.txt").write_bytes(proc.stdout)
    (cwd / "stderr.txt").write_bytes(proc.stderr)
    (cwd / "exit.txt").write_text(f"{proc.returncode}\n")
    print(f"{cwd.name}: exit {proc.returncode}", flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", help="new or empty directory for the commands' outputs")
    out = Path(ap.parse_args(argv).outdir)
    if out.exists() and any(out.iterdir()):
        ap.error(f"{out} is not empty")
    env = _env()
    for name, args, *config in COMMANDS:
        cwd = out / name
        cwd.mkdir(parents=True)
        if config:
            (cwd / "config.json").write_text(json.dumps(config[0], indent=2) + "\n")
        for file, text in FILES.get(name, {}).items():
            (cwd / file).write_text(text)
        _run(cwd, [sys.executable, "-m", "driftlearn.cli", *args], env)
    for demo in DEMOS:
        cwd = out / f"demo-{Path(demo).stem}"
        cwd.mkdir(parents=True)
        _run(cwd, [sys.executable, str(ROOT / "demos" / demo)], env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
