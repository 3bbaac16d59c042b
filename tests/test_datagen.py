import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from driftlearn import datagen, oracle
from driftlearn.datagen import DatasetSpec, gen_inputs, gen_stream, gen_truth
from driftlearn.errors import BadDim, BadStream, InvalidParams


def test_same_spec_same_stream_bit_for_bit():
    spec = DatasetSpec(kind="B", T=64, d=12, seed=42)
    s1, s2 = gen_stream(spec), gen_stream(spec)
    assert np.array_equal(s1.xs, s2.xs)
    assert np.array_equal(s1.ys, s2.ys)
    assert np.array_equal(s1.truth.us, s2.truth.us)


def test_different_seeds_differ():
    a = gen_stream(DatasetSpec(kind="A", T=32, d=10, seed=1))
    b = gen_stream(DatasetSpec(kind="A", T=32, d=10, seed=2))
    assert not np.array_equal(a.xs, b.xs)


def test_noise_substream_discipline():
    # kinds A and C share inputs and target at equal seeds; labels differ
    # only by the noise draw
    a = gen_stream(DatasetSpec(kind="A", T=128, d=10, seed=7))
    c = gen_stream(DatasetSpec(kind="C", T=128, d=10, seed=7))
    assert np.array_equal(a.xs, c.xs)
    assert np.array_equal(a.truth.us, c.truth.us)
    assert not np.array_equal(a.ys, c.ys)
    clean = np.einsum("td,td->t", c.xs, c.truth.us)
    assert np.array_equal(a.ys, clean)


def test_realizable_kinds_have_zero_truth_loss():
    for kind in "AB":
        s = gen_stream(DatasetSpec(kind=kind, T=200, d=10, seed=3))
        assert oracle.comparator_loss(s.truth, s.xs, s.ys) == 0.0


def test_constant_rate_truth_geometry():
    omega = 0.1
    spec = DatasetSpec(kind="A", T=100, d=10, seed=0, rotation_rate=omega)
    truth = gen_truth(spec)
    norms = np.linalg.norm(truth.us, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    steps = np.linalg.norm(truth.us[1:] - truth.us[:-1], axis=1)
    np.testing.assert_allclose(steps, 2.0 * math.sin(omega / 2.0), atol=1e-12)
    expected_V = (spec.T - 1) * 4.0 * math.sin(omega / 2.0) ** 2
    assert truth.V == pytest.approx(expected_V, rel=1e-12)


def test_zero_rate_is_stationary():
    truth = gen_truth(DatasetSpec(kind="A", T=50, d=10, seed=0, rotation_rate=0.0))
    assert truth.V == 0.0


def test_switching_truth_changes_pair_every_period():
    spec = DatasetSpec(kind="B", T=300, d=10, seed=0, switch_period=50)
    truth = gen_truth(spec)
    # steps 1..50 live in coords (0,1), steps 51..100 in (2,3)
    assert np.all(truth.us[:50, 2:] == 0.0)
    assert np.all(truth.us[50:100, :2] == 0.0)
    assert np.any(truth.us[50:100, 2:4] != 0.0)
    # at the switch the supports are orthogonal unit vectors
    jump = np.sum((truth.us[50] - truth.us[49]) ** 2)
    assert jump == pytest.approx(2.0, abs=1e-12)
    # after the fifth segment the embedding wraps back to the first pair
    assert np.any(truth.us[250:300, 0:2] != 0.0)
    assert np.all(truth.us[250:300, 2:] == 0.0)


def test_switching_truth_freeze_variant():
    spec = DatasetSpec(kind="B", T=300, d=10, seed=0, switch_period=50, wrap_pairs=False)
    truth = gen_truth(spec)
    assert np.any(truth.us[250:300, 8:10] != 0.0)
    assert np.all(truth.us[250:300, :8] == 0.0)


def test_switching_angle_advances_at_inverse_rate():
    # the step loop as a reference: theta += 1/t, then the pair of the step's
    # segment, cycled or frozen on the last; the array form equals it bit for bit
    for T, d, period, wrap in itertools.product((1, 10, 301), (2, 5, 10, 13, 40), (1, 7, 50),
                                                (True, False)):
        spec = DatasetSpec(kind="B", T=T, d=d, switch_period=period, wrap_pairs=wrap)
        want, theta = np.zeros((T, d)), 0.0
        for t in range(1, T + 1):
            theta += 1.0 / t
            segment = (t - 1) // period
            p = segment % spec.n_pairs if wrap else min(segment, spec.n_pairs - 1)
            want[t - 1, 2 * p : 2 * p + 2] = math.cos(theta), math.sin(theta)
        assert np.array_equal(gen_truth(spec).us, want), spec
        assert np.array_equal(gen_truth(replace(spec, kind="D")).us, want), spec


def test_input_pair_covariance_monte_carlo():
    xs = gen_inputs(DatasetSpec(kind="A", T=100_000, d=10, seed=5))
    pair = xs[:, 0:2]
    cov = np.cov(pair.T)
    evals, evecs = np.linalg.eigh(cov)
    assert evals[-1] == pytest.approx(100.0, rel=0.05)
    assert evals[0] == pytest.approx(1.0, rel=0.05)
    angle = math.degrees(math.atan2(abs(evecs[1, -1]), abs(evecs[0, -1])))
    assert angle == pytest.approx(45.0, abs=2.0)


def test_remaining_coordinates_have_variance_two():
    xs = gen_inputs(DatasetSpec(kind="A", T=100_000, d=12, seed=6))
    for j in range(10, 12):
        assert np.var(xs[:, j]) == pytest.approx(2.0, rel=0.05)


def test_noise_variance_monte_carlo():
    s = gen_stream(DatasetSpec(kind="C", T=100_000, d=10, seed=8))
    clean = np.einsum("td,td->t", s.xs, s.truth.us)
    assert np.mean((s.ys - clean) ** 2) == pytest.approx(0.05, rel=0.05)


def test_small_dimension_uses_fewer_pairs():
    spec = DatasetSpec(kind="A", T=16, d=4, seed=0)
    assert spec.n_pairs == 2
    xs = gen_inputs(spec)
    assert xs.shape == (16, 4)
    with pytest.raises(BadDim):
        DatasetSpec(kind="A", T=16, d=1, seed=0)


def test_seed_outside_uint64_rejected():
    # Philox is keyed by the seed as one uint64: -1 would alias 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParams, match="seed must lie in"):
            DatasetSpec(kind="A", T=4, d=4, seed=seed)
    last = gen_stream(DatasetSpec(kind="A", T=4, d=4, seed=2**64 - 1))
    assert not np.array_equal(last.xs, gen_stream(DatasetSpec(kind="A", T=4, d=4, seed=0)).xs)


def test_noise_var_rejected_for_noise_free_kinds():
    with pytest.raises(ValueError):
        DatasetSpec(kind="A", T=10, d=10, seed=0, noise_var=0.1)
    DatasetSpec(kind="A", T=10, d=10, seed=0, noise_var=0.0)  # explicit zero ok


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_stream_settings_rejected(value):
    with pytest.raises(InvalidParams, match="noise_var must be finite"):
        DatasetSpec(kind="C", T=10, d=10, noise_var=value)
    with pytest.raises(InvalidParams, match="rotation_rate must be finite"):
        DatasetSpec(kind="A", T=10, d=10, rotation_rate=value)


def test_rotation_rate_whose_angle_overflows_rejected():
    # the angle of step t is rotation_rate * t, which must stay finite up to T
    with pytest.raises(InvalidParams, match=r"rotation_rate \* T, got 1e\+308"):
        DatasetSpec(kind="A", T=2, d=4, rotation_rate=1e308)
    stream = gen_stream(DatasetSpec(kind="A", T=1, d=4, rotation_rate=1e308))
    assert np.isfinite(stream.ys).all()


def test_bounds_are_realized_maxima():
    s = gen_stream(DatasetSpec(kind="C", T=500, d=10, seed=9))
    assert s.Y_bound == np.max(np.abs(s.ys))
    assert s.X_bound == np.max(np.linalg.norm(s.xs, axis=1))


def test_stream_summaries_that_overflow_are_refused():
    head = "t,x_1,x_2,y,u_1,u_2\n"
    for body in ("1,1,2,1e300,0,0\n",  # y^2 overflows
                 "1,1,2,1,1e200,0\n",  # |u_1|^2 overflows
                 "1,1,2,1,1.3e154,0\n2,1,2,1,-1.3e154,0\n"):  # V alone overflows
        with pytest.raises(BadStream, match="max y\\^2, max \\|u_t\\|\\^2 or the drift V"):
            datagen.read_stream_csv(io.StringIO(head + body))
    # huge inputs are kept, with an infinite X_bound, for the learners to refuse
    back = datagen.read_stream_csv(io.StringIO(head + "1,1e200,2e200,1,0,0\n"))
    assert back.X_bound == math.inf and back.Y_bound == 1.0


def test_stream_csv_needs_an_input_column():
    with pytest.raises(BadStream, match="no input columns"):
        datagen.read_stream_csv(io.StringIO("t,y\n1,1\n"))


def test_csv_roundtrip_is_exact():
    s = gen_stream(DatasetSpec(kind="D", T=40, d=10, seed=10))
    buf = io.StringIO()
    datagen.write_stream_csv(s, buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("t,x_1,")
    back = datagen.read_stream_csv(io.StringIO(text))
    assert np.array_equal(back.xs, s.xs)
    assert np.array_equal(back.ys, s.ys)
    assert np.array_equal(back.truth.us, s.truth.us)
    assert back.truth.V == pytest.approx(s.truth.V, rel=1e-12)


def test_csv_roundtrip_is_bit_exact_for_extreme_values(tmp_path):
    # signed zeros, subnormals and the largest finite values survive a file
    # with CRLF line endings and a trailing blank line, bit for bit, at d = 100
    s = gen_stream(DatasetSpec(kind="C", T=30, d=100, seed=11))
    specials = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]
    xs, ys, us = s.xs.copy(), s.ys.copy(), s.truth.us.copy()
    xs[0, :len(specials)] = specials
    ys[:5] = us[1, :5] = specials[:5]  # moderate: a huge label's square overflows
    stream = datagen.LabeledStream(xs, ys, oracle.ComparatorSequence(us))
    path = tmp_path / "extreme.csv"
    path.write_bytes(datagen.stream_csv_text(stream).replace("\n", "\r\n").encode() + b"\r\n")
    back = datagen.read_stream_csv(path)
    for got, want in [(back.xs, xs), (back.ys, ys), (back.truth.us, us)]:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stream_fields_that_gen_never_writes(tmp_path):
    head = "t,x_1,y,u_1\n"
    # a quoted number and one padded with spaces read as numbers
    back = datagen.read_stream_csv(io.StringIO(head + '1,"2.5", 3 ,0\n'))
    assert back.xs.tolist() == [[2.5]] and back.ys.tolist() == [3.0]
    # Python's float() reads 1_0 as 10; the stream reader does not
    with pytest.raises(BadStream, match="non-numeric field: could not convert string '1_0'"):
        datagen.read_stream_csv(io.StringIO(head + "1,1_0,3,0\n"))
    # t is read as a number too, though not kept
    with pytest.raises(BadStream, match="non-numeric field"):
        datagen.read_stream_csv(io.StringIO(head + "one,2,3,0\n"))
    # lines ended by a bare CR
    path = tmp_path / "cr.csv"
    path.write_bytes(b"t,x_1,y,u_1\r1,2,3,0\r2,4,5,0\r")
    assert datagen.read_stream_csv(path).ys.tolist() == [3.0, 5.0]
