#!/usr/bin/env python3
"""The drift penalty dial: c = inf recovers the forward ridge learner
exactly, and finite c trades stationary accuracy for tracking.

On a stationary stream the two learners agree to machine precision at
c = inf and the agreement degrades smoothly as c comes down. On a
drifting stream, finite c wins: that is the whole point of the penalty.
"""

import math

import numpy as np

from driftlearn import laser
from driftlearn.datagen import DatasetSpec, gen_stream


def ridge_prediction(xs, ys, t, b=1.0):
    """Forward ridge solved from scratch: x_t . (b I + sum_{s<=t} x x^T)^{-1} sum_{s<t} y x."""
    A = b * np.eye(xs.shape[1]) + xs[: t + 1].T @ xs[: t + 1]
    return float(xs[t] @ np.linalg.solve(A, xs[:t].T @ ys[:t]))


def laser_losses(stream, c):
    st = laser.laser_init(laser.LaserParams(b=1.0, c=c), stream.dim)
    total, dev = 0.0, 0.0
    for t in range(stream.T):
        yhat = laser.laser_predict(st, stream.xs[t])
        st = laser.laser_update(st, stream.xs[t], stream.ys[t])
        ref = ridge_prediction(stream.xs, stream.ys, t)
        total += (stream.ys[t] - yhat) ** 2
        dev = max(dev, abs(yhat - ref))
    return total, dev


stationary = gen_stream(DatasetSpec(kind="A", T=300, d=4, seed=2, rotation_rate=0.0))
drifting = gen_stream(DatasetSpec(kind="A", T=300, d=4, seed=2))  # 0.2 rad/step

print(f"{'c':>10} | {'stationary cumloss':>19} {'max |dev from ridge|':>21} "
      f"| {'drifting cumloss':>17}")
for c in (10.0, 100.0, 1e4, 1e8, 1e12, math.inf):
    loss_s, dev_s = laser_losses(stationary, c)
    loss_d, _ = laser_losses(drifting, c)
    label = "inf" if math.isinf(c) else f"{c:.0e}"
    print(f"{label:>10} | {loss_s:19.3f} {dev_s:21.3e} | {loss_d:17.1f}")

print("\nAt c = inf the deviation from the forward ridge learner is pure "
      "float noise; small c hurts the stationary stream but pays off "
      "under drift.")
