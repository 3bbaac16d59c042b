"""Command-line entry point.

Subcommands:
  gen     write a synthetic stream CSV
  run     run a learner over a stream (file or generated), write report CSVs
  sweep   grid-tune a learner on a single stream, write best params and
          every evaluated point's loss as JSON
  verify  run the numerical certification suites (nonzero exit on violation)
  report  aggregate report CSVs into a summary CSV plus a gnuplot script

Flags can be preloaded from a JSON config file via --config; explicit
flags override config values. All randomness is seed-controlled, so any
command is deterministic given its flags. Diagnostics go to stderr; exit
codes: 0 ok, 1 violation or I/O failure, 2 usage error.
"""

import argparse
import json
import sys

from . import harness, suites
from .datagen import DatasetSpec, checked_seed, gen_stream, read_stream_csv, write_stream_csv
from .errors import DriftLearnError


class ConfigError(DriftLearnError):
    """A --config file or --grid JSON is unreadable or holds a value its
    flag rejects, or a value needed from a flag or the config is missing."""


# DatasetSpec's fields of the dataset flags of the same names
_DATASET = ("kind", "T", "d", "seed", "rotation_rate", "switch_period", "noise_var")


def _dataset_flags(p: argparse.ArgumentParser) -> None:
    # each defaults to None, leaving DatasetSpec's default; --kind is optional at
    # parse time so --config can supply it, and commands that need it check later
    p.add_argument("--kind", choices=("A", "B", "C", "D"),
                   help="stream kind: A/B noise-free, C/D noisy; A/C constant-rate, B/D switching")
    p.add_argument("--T", type=int, help="stream length")
    p.add_argument("--d", type=int, help="input dimension")
    p.add_argument("--seed", type=int, help="stream seed")
    p.add_argument("--rotation-rate", type=float,
                   help=f"per-step rotation angle for kinds A/C (default {DatasetSpec('A').omega})")
    p.add_argument("--switch-period", type=int,
                   help="steps between pair switches for kinds B/D")
    p.add_argument("--noise-var", type=float,
                   help=f"label noise variance for kinds C/D (default {DatasetSpec('C').sigma_sq})")
    p.add_argument("--no-wrap", action="store_true", default=None,
                   help="freeze on the last pair instead of cycling (kinds B/D)")


def _dataset_from_args(args) -> DatasetSpec:
    """The DatasetSpec of the dataset flags given, by flag or config."""
    if args.kind is None:
        raise ConfigError("--kind is required (flag or config) to generate a stream")
    given = {name: getattr(args, name) for name in _DATASET if getattr(args, name) is not None}
    if args.no_wrap is not None:
        given["wrap_pairs"] = not args.no_wrap
    return DatasetSpec(**given)


def _algo_flags(p: argparse.ArgumentParser) -> None:
    """--algo plus one flag per learner parameter, kept as given: the
    learner's own table converts and checks the values (harness._checked)."""
    p.add_argument("--algo", required=True, choices=harness.ALGO_IDS)
    for name in dict.fromkeys(n for table in harness.LEARNER_PARAMS.values() for n in table):
        p.add_argument("--" + name.replace("_", "-"), default=None)


def _params_from_args(args) -> dict:
    """args.algo's parameters from the given flags of the same names. Flags
    of other learners are ignored, since a --config file may hold them for
    several learners."""
    given = ((name, getattr(args, name)) for name in harness.LEARNER_PARAMS[args.algo])
    return {name: v for name, v in given if v is not None}


def _load_grid(text: str) -> dict:
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad grid JSON: {exc}") from exc


def _config_defaults(p: argparse.ArgumentParser, config: dict) -> dict:
    """The config entries naming flags of p, as defaults argparse will
    type-convert (it converts string defaults only, so numbers become
    strings) and check against the flag's choices; a flag they supply is
    no longer required. null keeps the built-in default."""
    defaults = {}
    for action in p._actions:
        value = config.get(action.dest)
        if value is None or not action.option_strings:
            continue
        if action.nargs == 0:  # store_true
            if not isinstance(value, bool):
                raise ConfigError(f"config {action.dest!r} must be true or false, got {value!r}")
        elif action.nargs in ("+", "*"):
            value = [str(v) for v in (value if isinstance(value, list) else [value])]
        else:
            value = str(value)
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config {action.dest!r}: {value!r} is not one of "
                              f"{', '.join(map(str, action.choices))}")
        defaults[action.dest] = value
        action.required = False
    return defaults


# run's flags for generated streams, refused when given with --data
_GENERATED = ("seeds", "full", *_DATASET, "no_wrap")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The driftlearn parser; config preloads the subcommands' flag defaults."""
    ap = argparse.ArgumentParser(
        prog="driftlearn",
        description="Online regression under target drift: learners, "
                    "benchmarks, and numerical bound certification.",
    )
    ap.add_argument("--config", default=None,
                    help="JSON file of flag defaults (explicit flags override)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="write a synthetic stream CSV")
    _dataset_flags(g)
    g.add_argument("--out", required=True, help="output CSV path")

    r = sub.add_parser("run", help="run a learner, write report + bounds CSVs")
    _algo_flags(r)
    r.add_argument("--data", default=None, help="stream CSV (else use dataset flags)")
    _dataset_flags(r)
    r.add_argument("--seeds", type=int, help="number of seeds (generated data, default 1)")
    r.add_argument("--base-seed", type=int, default=0)
    r.add_argument("--full", action="store_true", default=None,
                   help=f"full-scale defaults: T={DatasetSpec.T} d={DatasetSpec.d} seeds=100")
    r.add_argument("--out-prefix", default="run", help="prefix for <prefix>_report.csv etc.")

    s = sub.add_parser("sweep", help="grid-tune a learner on one stream")
    s.add_argument("--algo", required=True, choices=harness.ALGO_IDS)
    s.add_argument("--grid", required=True,
                   help="JSON grid {param: [values...]} or @file.json")
    _dataset_flags(s)
    s.add_argument("--tuning-seed", type=int, default=0)
    s.add_argument("--out", required=True, help="best-params JSON path")

    v = sub.add_parser("verify", help="run numerical certification suites")
    v.add_argument("--suite", choices=suites.SUITE_KEYS, default="all",
                   help="which certification suite to run")
    v.add_argument("--trials", type=int, default=None,
                   help=f"cases of a randomized suite ({', '.join(suites.RANDOMIZED)})")
    v.add_argument("--seed", type=int, default=None,
                   help="seed of a randomized suite (default 0)")

    rp = sub.add_parser("report", help="aggregate report CSVs into mean curves")
    rp.add_argument("--inputs", nargs="+", required=True)
    rp.add_argument("--out", required=True, help="summary CSV path")
    rp.add_argument("--plot", default=None, help="gnuplot script path")
    if config:
        for p in (g, r, s, v, rp):
            p.set_defaults(**_config_defaults(p, config))
    return ap


def _cmd_gen(args) -> int:
    stream = gen_stream(_dataset_from_args(args))
    write_stream_csv(stream, args.out)
    return 0


def _cmd_run(args) -> int:
    if args.data is not None:
        stream = read_stream_csv(args.data)
        reports = [harness.run_learner(args.algo, _params_from_args(args), stream,
                                       seed=checked_seed(args.base_seed))]
    else:
        if args.full:  # full scale: DatasetSpec's own T and d, and 100 seeds
            args.T, args.d, args.seeds = None, None, 100
        dataset = _dataset_from_args(args)
        seeds = [args.base_seed + i for i in range(1 if args.seeds is None else args.seeds)]
        reports = harness.experiment(
            dataset, [(args.algo, _params_from_args(args))], seeds
        )
    harness.write_report_csv(reports, f"{args.out_prefix}_report.csv")
    harness.write_bounds_csv(reports, f"{args.out_prefix}_bounds.csv")
    for r in reports:
        bad = [b.name for b in r.bound_checks if not b.holds]
        if bad:
            print(f"warning: seed {r.seed}: failed checks: {', '.join(bad)}",
                  file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    spec = harness.SweepSpec(algo_id=args.algo, grid=_load_grid(args.grid),
                             tuning_seed=args.tuning_seed)
    result = harness.sweep(spec, _dataset_from_args(args))
    payload = {
        "algo": args.algo,
        "best_params": result.best_params,
        "best_loss": result.best_loss,
        "evaluated": len(result.evaluated),
        "losses": [{"params": p, "L_T": loss} for p, loss in result.evaluated],
        "skipped": [{"params": p, "reason": r} for p, r in result.skipped],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for p, reason in result.skipped:
        print(f"skipped {p}: {reason}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    results = suites.run_suites(args.suite, trials=args.trials, seed=args.seed)
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.ok
    return 0 if ok else 1


def _cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        rows.extend(harness.read_report_csv(path))
    summary = harness.summarize_report_rows(rows)
    harness.write_summary_csv(summary, args.out)
    if args.plot is not None:
        algos = sorted({s.algo_id for s in summary})
        with open(args.plot, "w") as fh:
            fh.write(_plot_script(args.out, algos))
    return 0


def _plot_script(summary_csv: str, algos: list[str]) -> str:
    """Gnuplot script for the mean cumulative-loss curves (emitted, never
    executed; no graphics dependency here)."""
    lines = [
        "set datafile separator ','",
        "set xlabel 'step'",
        "set ylabel 'mean cumulative squared loss'",
        "set key top left",
    ]
    plots = [
        f"'{summary_csv}' every ::1 using 2:(strcol(1) eq '{a}' ? column(3) : 1/0) "
        f"with lines title '{a}'"
        for a in algos
    ]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"--config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a JSON object of flag defaults")
    return config


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # the config, read first, gives defaults that explicit flags override; its pre-parse
        # stops at the subcommand, after which laser's --c would read as --config
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", nargs="?")  # with no value, left to the full parse
        pre.add_argument("rest", nargs=argparse.REMAINDER)
        path = pre.parse_known_args(argv)[0].config
        config = {} if path is None else _load_config(path)
        args = build_parser(config).parse_args(argv)
        if args.subcommand == "run" and args.data is not None:
            if not args.data:
                raise ConfigError("--data needs the path of a stream CSV, got an empty one")
            # the generated flags of argv alone: the config's may serve other commands
            given = (build_parser({**config, **dict.fromkeys(_GENERATED)}).parse_args(argv)
                     if config else args)
            for flag in (f for f in _GENERATED if getattr(given, f) is not None):
                raise ConfigError(f"--{flag.replace('_', '-')} applies to generated streams "
                                  "only, not with --data")
        return _COMMANDS[args.subcommand](args)
    except DriftLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # from reading any input file: a CSV, --config or @grid
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
