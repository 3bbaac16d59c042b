#!/usr/bin/env python3
"""Walk the drift-aware learner through a stream small enough to check
by hand, then certify its internal optimum against brute force.

The learner maintains three statistics:

  D_t  a covariance-like SPD matrix, blended toward c*I each round so
       old information decays, then bumped by x_t x_t^T
  e_t  a decayed moving target of y_t x_t
  f_t  a scalar completing the offline tracking cost

and predicts with the last-step min-max value x^T D_t^{-1} (decayed e).
The learner itself runs in covariance form, P = D^{-1} and w = D^{-1} e;
the D, e and f printed below are derived from that state.
"""

import numpy as np

from driftlearn import laser, oracle

xs = np.array([[1.0], [1.0], [0.5], [2.0]])
ys = np.array([1.0, 0.5, 0.2, 1.8])
b, c = 1.0, 2.0

params = laser.LaserParams(b=b, c=c)
state = laser.laser_init(params, d=1)
print(f"init: D0 = {state.D[0,0]:.4f} (= bc/(c-b)), e0 = {state.e[0]:.1f}")

for t, (x, y) in enumerate(zip(xs, ys), start=1):
    yhat, step = laser.laser_predict(state, x)
    state = laser.laser_update(state, x, y, step=step)
    print(
        f"round {t}: x={x[0]:+.1f} y={y:+.2f} -> yhat={yhat:+.4f} "
        f"loss={(y - yhat)**2:.4f} "
        f"D={state.D[0,0]:.4f} e={state.e[0]:.4f} f={state.f:.4f}"
    )

# The recursion's offline optimum must equal a direct minimization of
# the penalized tracking cost over ALL comparator sequences (u_1..u_T).
recursive = laser.laser_min_cost(state)
brute, comp = oracle.brute_min_cost(xs, ys, b, c)
print(f"\noffline optimum, recursive : {recursive:.12f}")
print(f"offline optimum, brute     : {brute:.12f}")
print(f"agreement                  : {abs(recursive - brute):.2e}")
print(f"optimal comparator path    : {comp.us.ravel().round(4)}")
print(f"its total squared drift    : {comp.V:.4f}")
