"""Span tracing of driftlearn's public functions, from outside the package.

While a ``Tracer`` is active it replaces selected public functions with
wrappers. It replaces them under every name a driftlearn module binds
them to (``harness`` imports ``gen_stream`` by name, for example), so
callers hit the wrapper whichever name they use. Span wrappers record
(name, start, end, parent) in compact arrays. Count-only wrappers, used
for the small helpers called many times per learner step, only bump a
counter. Leaving the ``with`` block restores every original.

``per_layer`` turns a run's spans and counts into the benchmark's
per-layer metrics. A layer's self time is its span minus its direct
children; the program is single-threaded, so children never overlap.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> (module, attribute); the name doubles as the metric prefix
SPANS = {
    "laser.predict": ("driftlearn.laser", "laser_predict"),
    "laser.update": ("driftlearn.laser", "laser_update"),
    "hinf.step": ("driftlearn.hinf", "hinf_step"),
    "baselines.aar_step": ("driftlearn.baselines", "aar_step"),
    "baselines.nlms_step": ("driftlearn.baselines", "nlms_step"),
    "baselines.crrls_step": ("driftlearn.baselines", "crrls_step"),
    "harness.run_learner": ("driftlearn.harness", "run_learner"),
    "harness.sweep": ("driftlearn.harness", "sweep"),
    "harness.experiment": ("driftlearn.harness", "experiment"),
    "harness.aggregate": ("driftlearn.harness", "aggregate"),
    "harness.write_report_csv": ("driftlearn.harness", "write_report_csv"),
    "harness.write_bounds_csv": ("driftlearn.harness", "write_bounds_csv"),
    "datagen.gen_stream": ("driftlearn.datagen", "gen_stream"),
    "datagen.write_stream_csv": ("driftlearn.datagen", "write_stream_csv"),
    "datagen.read_stream_csv": ("driftlearn.datagen", "read_stream_csv"),
    "cli.main": ("driftlearn.cli", "main"),
    "oracle.brute_min_cost": ("driftlearn.oracle", "brute_min_cost"),
    "oracle.cumloss_bound": ("driftlearn.oracle", "cumloss_bound"),
    "oracle.logdet_bound_sides": ("driftlearn.oracle", "logdet_bound_sides"),
    "oracle.eig_cap": ("driftlearn.oracle", "eig_cap"),
    "oracle.drift_tuned_bound": ("driftlearn.oracle", "drift_tuned_bound"),
    "linalg.eig_extremes": ("driftlearn.linalg", "eig_extremes"),
    "hinf.hinf_filter_loss": ("driftlearn.hinf", "hinf_filter_loss"),
    "hinf.filter_bound_rhs": ("driftlearn.hinf", "filter_bound_rhs"),
    "hinf.regret_bound_rhs": ("driftlearn.hinf", "regret_bound_rhs"),
    "hinf.optimized_alpha": ("driftlearn.hinf", "optimized_alpha"),
    "suites.oracle_equivalence": ("driftlearn.suites", "oracle_equivalence_suite"),
    "suites.certificate": ("driftlearn.suites", "certificate_suite"),
    "suites.logdet_trajectory": ("driftlearn.suites", "logdet_trajectory_suite"),
    "suites.scalar_map": ("driftlearn.suites", "scalar_map_suite"),
    "suites.eig_cap": ("driftlearn.suites", "eig_cap_suite"),
    "suites.comparator_bound": ("driftlearn.suites", "comparator_bound_suite"),
    "suites.tuned_bound": ("driftlearn.suites", "tuned_bound_suite"),
    "suites.hinf_bound": ("driftlearn.suites", "hinf_bound_suite"),
}

# count name -> [(module, attribute)]
COUNTS = {
    "factorization": [
        ("driftlearn.linalg", "spd_solve"),
        ("driftlearn.linalg", "spd_solve_matrix"),
        ("driftlearn.linalg", "spd_inverse"),
        ("driftlearn.linalg", "logdet"),
    ],
    "validation": [("driftlearn.linalg", "as_vector"), ("driftlearn.linalg", "as_matrix")],
    "eigvalsh": [("numpy.linalg", "eigvalsh")],
}

# learner step spans; a factorization made inside one counts for that learner
STEP_OWNER = {
    "laser.predict": "laser",
    "laser.update": "laser",
    "hinf.step": "hinf",
    "baselines.aar_step": "aar",
    "baselines.nlms_step": "nlms",
    "baselines.crrls_step": "crrls",
}
LEARNERS = ("laser", "hinf", "aar", "nlms", "crrls")
STEP_SPAN = {
    "laser": "laser.update",
    "hinf": "hinf.step",
    "aar": "baselines.aar_step",
    "nlms": "baselines.nlms_step",
    "crrls": "baselines.crrls_step",
}

# bound evaluations run_learner makes directly; their time is certification
CERTIFY = (
    "oracle.cumloss_bound",
    "oracle.logdet_bound_sides",
    "oracle.eig_cap",
    "oracle.drift_tuned_bound",
    "linalg.eig_extremes",
    "hinf.hinf_filter_loss",
    "hinf.filter_bound_rhs",
    "hinf.regret_bound_rhs",
    "hinf.optimized_alpha",
)

# timing series: metric name -> (span, statistic, scale to the unit, unit)
SERIES = {
    "laser.predict_us": ("laser.predict", "duration", 1e6, "us"),
    "laser.update_us": ("laser.update", "duration", 1e6, "us"),
    "hinf.step_us": ("hinf.step", "duration", 1e6, "us"),
    "baselines.aar_step_us": ("baselines.aar_step", "duration", 1e6, "us"),
    "baselines.nlms_step_us": ("baselines.nlms_step", "duration", 1e6, "us"),
    "baselines.crrls_step_us": ("baselines.crrls_step", "duration", 1e6, "us"),
    "oracle.certify_ms": ("harness.run_learner", "certify", 1e3, "ms"),
    "oracle.brute_min_cost_ms": ("oracle.brute_min_cost", "duration", 1e3, "ms"),
    "suites.oracle_equivalence_s": ("suites.oracle_equivalence", "duration", 1.0, "s"),
    "suites.certificate_s": ("suites.certificate", "duration", 1.0, "s"),
    "suites.logdet_trajectory_s": ("suites.logdet_trajectory", "duration", 1.0, "s"),
    "suites.scalar_map_s": ("suites.scalar_map", "duration", 1.0, "s"),
    "suites.eig_cap_s": ("suites.eig_cap", "duration", 1.0, "s"),
    "suites.comparator_bound_s": ("suites.comparator_bound", "duration", 1.0, "s"),
    "suites.tuned_bound_s": ("suites.tuned_bound", "duration", 1.0, "s"),
    "suites.hinf_bound_s": ("suites.hinf_bound", "duration", 1.0, "s"),
    "harness.run_learner_self_ms": ("harness.run_learner", "self", 1e3, "ms"),
    "harness.sweep_s": ("harness.sweep", "duration", 1.0, "s"),
    "harness.experiment_s": ("harness.experiment", "duration", 1.0, "s"),
    "harness.aggregate_ms": ("harness.aggregate", "duration", 1e3, "ms"),
    "harness.write_report_csv_s": ("harness.write_report_csv", "duration", 1.0, "s"),
    "harness.write_bounds_csv_s": ("harness.write_bounds_csv", "duration", 1.0, "s"),
    "datagen.gen_stream_ms": ("datagen.gen_stream", "duration", 1e3, "ms"),
    "datagen.write_stream_csv_s": ("datagen.write_stream_csv", "duration", 1.0, "s"),
    "datagen.read_stream_csv_s": ("datagen.read_stream_csv", "duration", 1.0, "s"),
    "cli.main_self_ms": ("cli.main", "self", 1e3, "ms"),
}

# tail percentiles tried from the top; one is reported if it has at least
# ten samples beyond it, else the maximum
TAIL_LEVELS = (99.9, 99.0, 90.0)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, (_, _, _, unit) in SERIES.items():
        units[name] = unit
        units[f"{name}.tail"] = unit
        units[f"{name}.n"] = "count"
    units["laser.steps"] = "count"
    units["hinf.steps"] = "count"
    for algo in ("aar", "nlms", "crrls"):
        units[f"baselines.{algo}_steps"] = "count"
    for algo in LEARNERS:
        units[f"linalg.factorizations_per_step.{algo}"] = "1/step"
    units["linalg.eigvalsh_calls"] = "count"
    units["linalg.validations"] = "count"
    units["datagen.csv_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Context manager that records spans and counts of one traced rep."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._owner_of = {
            self.names.index(span): owner for span, owner in STEP_OWNER.items()
        }
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, nid, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, kind, fn):
        counts, stack, name_id, owner_of = self.counts, self._stack, self.name_id, self._owner_of

        def counted(*args, **kwargs):
            counts[kind] += 1
            if kind == "factorization":
                for idx in reversed(stack):
                    owner = owner_of.get(name_id[idx])
                    if owner is not None:
                        counts[f"factorization.{owner}"] += 1
                        break
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        if module_name.startswith("driftlearn"):
            sites = [m for n, m in sys.modules.items()
                     if (n == "driftlearn" or n.startswith("driftlearn.")) and m is not None]
        else:
            sites = [module]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    setattr(site, name, wrapper)
                    self._restore.append((site, name, original))

    def __enter__(self):
        for nid, (module_name, attr) in enumerate(SPANS.values()):
            self._patch(module_name, attr, lambda fn, nid=nid: self._span_wrapper(nid, fn))
        for kind, targets in COUNTS.items():
            for module_name, attr in targets:
                self._patch(module_name, attr, lambda fn, kind=kind: self._count_wrapper(kind, fn))
        return self

    def __exit__(self, *exc):
        for site, name, original in reversed(self._restore):
            setattr(site, name, original)
        self._restore.clear()
        return False

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        """(name_id, parent, start, end) as NumPy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start),
                np.frombuffer(self.end))

    def samples(self):
        """Per-series samples (in the series' unit) of this rep."""
        name_id, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        certify_ids = [self.names.index(n) for n in CERTIFY]
        is_certify = has_parent & np.isin(name_id, certify_ids)
        certify_time = np.bincount(parent[is_certify], weights=duration[is_certify],
                                   minlength=len(duration))
        has_certify = np.bincount(parent[is_certify], minlength=len(duration)) > 0
        out = {}
        for metric, (span, stat, scale, _) in SERIES.items():
            mask = name_id == self.names.index(span)
            if stat == "duration":
                values = duration[mask]
            elif stat == "self":
                values = (duration - child_time)[mask]
            else:  # certify: only runs that evaluated bounds
                values = certify_time[mask & has_certify]
            out[metric] = values * scale
        return out

    def step_counts(self):
        name_id = self.arrays()[0]
        return {algo: int(np.count_nonzero(name_id == self.names.index(STEP_SPAN[algo])))
                for algo in LEARNERS}


def _tail(values):
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            return float(np.percentile(values, level)), level
    return float(np.max(values)), 100.0


def per_layer(tracers, csv_bytes, overhead_s):
    """Per-layer metrics of a traced run.

    Timings pool the samples of every traced rep; counts are those of one
    rep (every rep of a run does the same work, so they agree exactly).
    Returns (metrics, tail_levels) with metrics as {name: (value, unit)}.
    """
    units = metric_units()
    pooled = {metric: [] for metric in SERIES}
    for tracer in tracers:
        for metric, values in tracer.samples().items():
            pooled[metric].append(values)
    metrics, levels = {}, {}
    for metric, chunks in pooled.items():
        values = np.concatenate(chunks)
        if len(values):
            tail, level = _tail(values)
            median = float(np.median(values))
        else:
            tail, level, median = 0.0, 0.0, 0.0
        metrics[metric] = median
        metrics[f"{metric}.tail"] = tail
        metrics[f"{metric}.n"] = len(values)
        levels[metric] = level
    first = tracers[0]
    steps = first.step_counts()
    metrics["laser.steps"] = steps["laser"]
    metrics["hinf.steps"] = steps["hinf"]
    for algo in ("aar", "nlms", "crrls"):
        metrics[f"baselines.{algo}_steps"] = steps[algo]
    for algo in LEARNERS:
        made = first.counts[f"factorization.{algo}"]
        per_step = made / steps[algo] if steps[algo] else 0.0
        metrics[f"linalg.factorizations_per_step.{algo}"] = per_step
    metrics["linalg.eigvalsh_calls"] = first.counts["eigvalsh"]
    metrics["linalg.validations"] = first.counts["validation"]
    metrics["datagen.csv_bytes"] = csv_bytes
    metrics["trace.overhead_s"] = overhead_s
    return {name: (metrics[name], units[name]) for name in units}, levels
