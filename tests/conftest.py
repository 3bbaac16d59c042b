"""References and fixtures shared by several test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

import driftlearn


def ridge_predictions(xs, ys, b):
    """Independent forward-ridge reference: yhat_t = x_t . u_t with
    u_t = (b I + sum_{s<=t} x_s x_s^T)^{-1} sum_{s<t} y_s x_s, one dense
    solve per round."""
    T, d = xs.shape
    return np.array([
        xs[t] @ np.linalg.solve(b * np.eye(d) + xs[: t + 1].T @ xs[: t + 1], xs[:t].T @ ys[:t])
        for t in range(T)
    ])


def crrls_predictions(xs, ys, reset_period, b_reset):
    """Independent CR-RLS reference with two inverses per round:
    yhat_t = x_t . w_{t-1}, P_t = (P_{t-1}^{-1} + x_t x_t^T)^{-1},
    w_t = w_{t-1} + P_t x_t (y_t - yhat_t), and P_t = I / b_reset where t is a
    multiple of reset_period; from w_0 = 0, P_0 = I / b_reset."""
    T, d = xs.shape
    P, w, yhats = np.eye(d) / b_reset, np.zeros(d), np.empty(T)
    for t in range(T):
        yhats[t] = xs[t] @ w
        P = np.linalg.inv(np.linalg.inv(P) + np.outer(xs[t], xs[t]))
        w = w + P @ xs[t] * (ys[t] - yhats[t])
        if (t + 1) % reset_period == 0:
            P = np.eye(d) / b_reset
    return yhats


@pytest.fixture
def forward_ridge():
    return ridge_predictions


@pytest.fixture
def crrls_reference():
    return crrls_predictions


@pytest.fixture
def subprocess_env():
    """The environment for a fresh interpreter that imports this checkout's
    driftlearn, whether or not PYTHONPATH names it."""
    root = str(Path(driftlearn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
