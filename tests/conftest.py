"""References shared by several test modules."""

import numpy as np
import pytest


def ridge_predictions(xs, ys, b):
    """Independent forward-ridge reference: yhat_t = x_t . u_t with
    u_t = (b I + sum_{s<=t} x_s x_s^T)^{-1} sum_{s<t} y_s x_s, one dense
    solve per round."""
    T, d = xs.shape
    return np.array([
        xs[t] @ np.linalg.solve(b * np.eye(d) + xs[: t + 1].T @ xs[: t + 1], xs[:t].T @ ys[:t])
        for t in range(T)
    ])


@pytest.fixture
def forward_ridge():
    return ridge_predictions
