"""Deterministic, seedable generators for the synthetic drift benchmarks.

Four stream kinds, all with the same input distribution:

  A: target is a unit vector in the first coordinate pair rotating at a
     constant rate per step (constant instantaneous drift); y = x . u.
  B: unit target rotating at rate 1/t (sublinear drift), re-embedded
     into the next coordinate pair every `switch_period` steps; y = x . u.
  C: like A with additive Gaussian label noise.
  D: like B with additive Gaussian label noise.

Inputs: the first 2*n_pairs coordinates form pairs drawn from a 45-degree
rotated Gaussian with standard deviations 10 and 1; any remaining
coordinates are independent Gaussians with variance 2 (the dispersion
parameters here are *variances*; set `noise_var`/input scales explicitly
if you want another reading).

Randomness comes from the counter-based Philox 4x64 generator, keyed by
(seed, sub-stream): sub-stream 0 drives inputs, 1 is reserved for the
target path, 2 drives label noise. Kind C therefore shares kind A's
inputs and target at equal seeds, differing only in the noise stream.
"""

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDim, BadStream, InvalidParams, LengthMismatch
from .oracle import ComparatorSequence, checked_stream

KINDS = ("A", "B", "C", "D")
MAX_PAIRS = 5

_STREAM_INPUTS = 0
_STREAM_TRUTH = 1
_STREAM_NOISE = 2


def checked_seed(seed: int) -> int:
    """seed, unless outside [0, 2**64): _rng keys Philox with it as one uint64."""
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, sub-stream index)."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DatasetSpec:
    """Full description of one synthetic stream.

    rotation_rate is the per-step angular increment of the constant-rate
    kinds; the benchmarks do not pin this value, so it is a free knob.
    The default of 0.2 rad/step (roughly 64 revolutions over T = 2000)
    puts the stream in the severe-drift regime where the drift-aware
    learner separates from the stationary and reset-based baselines;
    milder rates make the problem easy for every tracker. noise_var
    defaults to 0.05 for the noisy kinds C/D and must be 0 for A/B.
    wrap_pairs controls what happens after the last coordinate pair in
    the switching kinds: cycle back to the first pair (default) or
    freeze on the last one.
    """

    kind: str
    T: int = 2000
    d: int = 20
    seed: int = 0
    rotation_rate: float | None = None
    switch_period: int = 50
    noise_var: float | None = None
    wrap_pairs: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParams(f"kind must be one of {KINDS}, got {self.kind!r}")
        checked_seed(self.seed)
        if self.T < 1:
            raise InvalidParams(f"T must be positive, got {self.T}")
        if self.d < 2:
            raise BadDim(f"need d >= 2 for one rotated input pair, got {self.d}")
        if self.switch_period < 1:
            raise InvalidParams(f"switch_period must be positive, got {self.switch_period}")
        if self.rotation_rate is not None and not math.isfinite(self.rotation_rate * self.T):
            raise InvalidParams("rotation_rate must be finite, and so must the angle "
                                f"rotation_rate * T, got {self.rotation_rate}")
        if self.noise_var is not None:
            if not 0.0 <= self.noise_var < math.inf:  # NaN fails the comparison too
                raise InvalidParams(f"noise_var must be finite and non-negative, got "
                                    f"{self.noise_var}")
            if self.kind in ("A", "B") and self.noise_var != 0.0:
                raise InvalidParams(f"kind {self.kind} is noise-free; noise_var must be 0")

    @property
    def n_pairs(self) -> int:
        return min(MAX_PAIRS, self.d // 2)

    @property
    def omega(self) -> float:
        return 0.2 if self.rotation_rate is None else self.rotation_rate

    @property
    def sigma_sq(self) -> float:
        if self.noise_var is not None:
            return self.noise_var
        return 0.05 if self.kind in ("C", "D") else 0.0


@dataclass(frozen=True)
class LabeledStream:
    """One stream plus its generating target sequence and the realized
    bounds Y_bound = max |y_t| and X_bound = max ||x_t|| used by the bound
    evaluators, derived when it is built, after checked_stream and a BadStream
    if max y^2, max ||u_t||^2 or the drift V is not finite; an infinite X_bound
    is kept, for the learners to refuse."""

    xs: np.ndarray  # (T, d)
    ys: np.ndarray  # (T,)
    truth: ComparatorSequence
    Y_bound: float = field(init=False)
    X_bound: float = field(init=False)

    @np.errstate(over="ignore")
    def __post_init__(self):
        xs, ys = checked_stream(self.xs, self.ys)
        Y_bound, us = float(np.max(np.abs(ys))), self.truth.us
        if not math.isfinite(Y_bound * Y_bound + np.max(np.vecdot(us, us)) + self.truth.V):
            raise BadStream("stream overflows: max y^2, max |u_t|^2 or the drift V is not finite")
        for name, value in (("xs", xs), ("ys", ys), ("Y_bound", Y_bound),
                            ("X_bound", float(np.max(np.linalg.norm(xs, axis=1))))):
            object.__setattr__(self, name, value)

    @property
    def T(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


def gen_inputs(spec: DatasetSpec) -> np.ndarray:
    """(T, d) inputs: rotated anisotropic pairs then variance-2 singles."""
    rng = _rng(spec.seed, _STREAM_INPUTS)
    T, d, n_pairs = spec.T, spec.d, spec.n_pairs
    xs = np.empty((T, d))
    cs = math.sqrt(0.5)  # cos 45 deg = sin 45 deg
    rot_scale = np.array([[cs, -cs], [cs, cs]]) @ np.diag([10.0, 1.0])
    z = rng.standard_normal((T, 2 * n_pairs))
    for p in range(n_pairs):
        xs[:, 2 * p : 2 * p + 2] = z[:, 2 * p : 2 * p + 2] @ rot_scale.T
    n_single = d - 2 * n_pairs
    if n_single > 0:
        xs[:, 2 * n_pairs :] = rng.standard_normal((T, n_single)) * math.sqrt(2.0)
    return xs


def gen_truth(spec: DatasetSpec) -> ComparatorSequence:
    """Generating target sequence u_1..u_T.

    Kinds A/C put (cos(omega*t), sin(omega*t)) in the first pair. Kinds
    B/D advance the angle, from 0, by 1/t each step and embed the unit
    vector in the pair of that step's segment of switch_period steps,
    cycling through the pairs (or staying on the last without wrap_pairs).
    """
    T, d = spec.T, spec.d
    us = np.zeros((T, d))
    if spec.kind in ("A", "C"):
        angles, pair = spec.omega * np.arange(1, T + 1), 0
    else:
        angles = np.cumsum(1.0 / np.arange(1, T + 1))  # adds in order, as a running sum
        segment = np.arange(T) // min(spec.switch_period, T)  # one segment from T on
        pair = (segment % spec.n_pairs if spec.wrap_pairs
                else np.minimum(segment, spec.n_pairs - 1))
    rows = np.arange(T)
    us[rows, 2 * pair] = np.cos(angles)
    us[rows, 2 * pair + 1] = np.sin(angles)
    return ComparatorSequence(us)


def gen_stream(spec: DatasetSpec) -> LabeledStream:
    """Inputs + target + labels (noisy for kinds C/D)."""
    xs = gen_inputs(spec)
    truth = gen_truth(spec)
    ys = np.einsum("td,td->t", xs, truth.us)
    if spec.sigma_sq > 0.0:
        noise = _rng(spec.seed, _STREAM_NOISE).standard_normal(spec.T)
        ys = ys + noise * math.sqrt(spec.sigma_sq)
    return LabeledStream(xs, ys, truth)


# ---------------------------------------------------------------------------
# CSV files. open_csv serves every CSV reader and writer here and in
# harness, and write_csv every writer: each line is one % template applied
# to one tuple, floats in FLOAT_FORMAT, integers (t, seed, n) in %d and
# names (algo, bound name) in %s. No name holds a comma, quote or newline,
# so no field needs quoting. Stream format: header t, x_1..x_d, y, u_1..u_d
# ---------------------------------------------------------------------------

# 17 significant digits: a float written this way reads back exactly
FLOAT_FORMAT = "%.17g"


@contextmanager
def open_csv(path_or_file, mode: str = "r"):
    """Open a path for CSV I/O and close it afterwards; an open file is
    used as it is and left open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode, newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield path_or_file


def write_csv(path_or_file, header, template: str, rows) -> None:
    """The header joined by commas, then template % row for each row tuple,
    each line ended by a bare newline."""
    line = template + "\n"
    with open_csv(path_or_file, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_stream_csv(stream: LabeledStream, path_or_file) -> None:
    """Write a stream with 17-significant-digit floats (exact round-trip)."""
    d = stream.dim
    header = ["t"] + [f"x_{j}" for j in range(1, d + 1)] + ["y"] + [
        f"u_{j}" for j in range(1, d + 1)
    ]
    template = "%d" + ("," + FLOAT_FORMAT) * (2 * d + 1)
    xs, ys, us = stream.xs, stream.ys.tolist(), stream.truth.us
    write_csv(path_or_file, header, template,
              ((t + 1, *xs[t].tolist(), ys[t], *us[t].tolist()) for t in range(stream.T)))


def read_stream_csv(path_or_file) -> LabeledStream:
    """Parse a stream CSV back into arrays; the drift is recomputed. The
    body is parsed by np.loadtxt, which rounds each decimal field to the
    nearest float as float() does; lines may end in \n, \r\n or \r, and
    blank lines are skipped."""
    with open_csv(path_or_file) as fh:
        header = next(csv.reader(fh), None)
        if not header or header[0] != "t" or "y" not in header:
            raise BadStream("not a stream CSV: bad header")
        d = header.index("y") - 1
        if d < 1:
            raise BadStream("stream CSV has no input columns")
        width = 2 * d + 2
        if len(header) != width:
            raise BadStream(f"header implies d={d} but has {len(header)} columns")
        lines = fh.read().splitlines()
    if not any(lines):
        raise BadStream("stream CSV has no rows")
    try:
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
        ragged = table.shape[1] != width
    except ValueError as exc:  # a ragged row or a field that is not a number
        ragged = any(len(row) != width for row in csv.reader(lines) if row)
        if not ragged:
            raise BadStream(f"stream CSV has a non-numeric field: {exc}") from exc
    if ragged:
        raise LengthMismatch(f"a row does not have the {width} fields of the header")
    if not np.all(np.isfinite(table)):
        raise BadStream("stream CSV has non-finite values")
    table = np.ascontiguousarray(table[:, 1:])  # t is read as a number but not kept
    return LabeledStream(table[:, :d], table[:, d], ComparatorSequence(table[:, d + 1 :]))


def stream_csv_text(stream: LabeledStream) -> str:
    buf = io.StringIO()
    write_stream_csv(stream, buf)
    return buf.getvalue()
