import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlearn import linalg
from driftlearn.errors import DimMismatch, NotPositiveDefinite


def random_spd(rng, d, ridge=1.0):
    M = rng.standard_normal((d, d))
    return M @ M.T + ridge * np.eye(d)


def test_spd_solve_scalar_inverse():
    assert linalg.spd_solve(np.array([[2.0]]), np.array([1.0])) == pytest.approx(0.5)


def test_spd_solve_identity_returns_rhs():
    rng = np.random.default_rng(0)
    for d in (1, 3, 7):
        v = rng.standard_normal(d)
        np.testing.assert_allclose(linalg.spd_solve(np.eye(d), v), v, rtol=0, atol=1e-14)


def test_spd_solve_residual_small():
    rng = np.random.default_rng(1)
    A = random_spd(rng, 5)
    v = rng.standard_normal(5)
    z = linalg.spd_solve(A, v)
    assert np.linalg.norm(A @ z - v) / np.linalg.norm(v) <= 1e-10


def test_spd_solve_residual_many_instances():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        A = random_spd(rng, d, ridge=rng.uniform(0.1, 2.0))
        v = rng.standard_normal(d)
        z = linalg.spd_solve(A, v)
        assert np.linalg.norm(A @ z - v) <= 1e-10 * max(1.0, np.linalg.norm(v))


def test_spd_solve_rejects_indefinite_and_mismatched():
    with pytest.raises(NotPositiveDefinite):
        linalg.spd_solve(-np.eye(2), np.ones(2))
    with pytest.raises(DimMismatch):
        linalg.spd_solve(np.eye(2), np.ones(3))
    with pytest.raises(DimMismatch):
        linalg.spd_solve(np.ones((2, 3)), np.ones(2))


@pytest.mark.parametrize("A", [[[math.inf, math.inf], [math.inf, math.inf]],
                               [[math.nan, 0.0], [0.0, 1.0]]])
def test_non_finite_factor_does_not_factorize(A):
    # potrf reports success on these, with an inf or NaN on the factor's diagonal
    A = np.array(A)
    assert not linalg.factors(A)
    with pytest.raises(NotPositiveDefinite):
        linalg._cholesky(A)


def test_logdet_known_values():
    assert linalg.logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-14)
    assert linalg.logdet(np.array([[2.0]])) == pytest.approx(math.log(2.0))
    assert linalg.logdet(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0))


def test_logdet_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.logdet(np.diag([1.0, -1.0]))


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_logdet_scaling_identity(s, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    A = random_spd(rng, d)
    assert linalg.logdet(s * A) == pytest.approx(
        linalg.logdet(A) + d * math.log(s), abs=1e-9
    )


def test_eig_extremes_diagonal():
    assert linalg.eig_extremes(np.diag([1.0, 5.0])) == pytest.approx((1.0, 5.0))


def test_eig_extremes_rank_one_shift():
    A = np.eye(2) + np.outer([1.0, 0.0], [1.0, 0.0])
    assert linalg.eig_extremes(A) == pytest.approx((1.0, 2.0), abs=1e-12)


def test_eig_extremes_match_full_decomposition():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4))
    A = linalg.symmetrize(M)
    w = np.linalg.eigh(A)[0]
    lo, hi = linalg.eig_extremes(A)
    assert lo == pytest.approx(w[0], abs=1e-9)
    assert hi == pytest.approx(w[-1], abs=1e-9)


def test_eig_extremes_shift_by_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = linalg.symmetrize(rng.standard_normal((d, d)))
        c = rng.uniform(-3.0, 3.0)
        lo, hi = linalg.eig_extremes(A)
        lo2, hi2 = linalg.eig_extremes(A + c * np.eye(d))
        assert lo2 == pytest.approx(lo + c, abs=1e-9)
        assert hi2 == pytest.approx(hi + c, abs=1e-9)


def test_symmetrize_and_rank_one_update():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3))
    A = linalg.symmetrize(M)
    np.testing.assert_allclose(A, (M + M.T) / 2, atol=1e-15)
    # exactly symmetric, and stays so under a rank-one update, which
    # symmetrize then leaves unchanged bit for bit
    x = rng.standard_normal(3)
    B = A + np.outer(x, x)
    assert np.array_equal(A, A.T) and np.array_equal(B, B.T)
    assert np.array_equal(linalg.symmetrize(B), B)


def test_spd_inverse_roundtrip():
    rng = np.random.default_rng(6)
    A = random_spd(rng, 4)
    np.testing.assert_allclose(A @ linalg.spd_inverse(A), np.eye(4), atol=1e-10)


def test_vectors_must_be_finite():
    with pytest.raises(ValueError):
        linalg.as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        linalg.as_matrix([[1.0, 0.0], [0.0, np.inf]])
