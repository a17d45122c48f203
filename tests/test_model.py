import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uikf.benchmark import A_PLANT, C_PLANT, benchmark_model
from uikf.errors import DimensionError
from uikf.model import (
    SystemModel,
    discretize,
    moore_penrose_pinv,
    numerical_rank,
)


def minor_based_rank(M, tol=0.5):
    """Exhaustive rank oracle: largest size of a nonzero minor."""
    M = np.asarray(M, dtype=float)
    rank = 0
    for size in range(1, min(M.shape) + 1):
        found = False
        for rows in itertools.combinations(range(M.shape[0]), size):
            for cols in itertools.combinations(range(M.shape[1]), size):
                if abs(np.linalg.det(M[np.ix_(rows, cols)])) > tol:
                    found = True
                    break
            if found:
                break
        if found:
            rank = size
    return rank


class TestDiscretize:
    def test_zero_dynamics(self):
        model = SystemModel(
            A=np.zeros((2, 2)),
            B=np.zeros((2, 1)),
            E=np.eye(2),
            G=np.eye(2),
            C=np.eye(2),
            Q=np.eye(2),
            R=np.eye(2),
            dt=0.01,
        )
        dm = discretize(model, 0.0)
        assert np.array_equal(dm.A_d, np.eye(2))
        assert np.array_equal(dm.B_d, np.zeros((2, 1)))

    def test_benchmark_entries(self):
        dm = discretize(benchmark_model(dt=0.01), 0.0)
        # hand evaluation of I + A dt and E dt
        assert dm.A_d[0, 0] == pytest.approx(1.019527, abs=1e-12)
        assert dm.E_d[0, 0] == pytest.approx(0.00554, abs=1e-12)

    def test_first_order_construction(self):
        model = benchmark_model()
        for t in (0.0, 1.0, 5.0):
            dm = discretize(model, t)
            # adding the identity rounds tiny entries at machine epsilon
            assert np.abs(dm.A_d - np.eye(4) - A_PLANT * model.dt).max() <= 1e-15
            assert np.all(dm.E_d == dm.B_d)  # E = B for this plant


class TestPinv:
    def test_identity(self):
        assert np.allclose(moore_penrose_pinv(np.eye(3)), np.eye(3))

    def test_diagonal_with_zero(self):
        M = np.diag([2.0, 0.0])
        assert np.allclose(moore_penrose_pinv(M), np.diag([0.5, 0.0]))

    def test_benchmark_CEd_vs_normal_equations(self):
        # C E_d is 3x2 with a zero third row and full column rank, so the
        # normal-equations formula (M^T M)^{-1} M^T is a valid oracle
        dm = discretize(benchmark_model(), 0.0)
        M = C_PLANT @ dm.E_d
        oracle = np.linalg.solve(M.T @ M, M.T)
        assert np.allclose(moore_penrose_pinv(M), oracle, rtol=1e-10, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 2))
        P = moore_penrose_pinv(M)
        scale = np.linalg.norm(M)
        assert np.allclose(M @ P @ M, M, atol=1e-10 * scale)
        assert np.allclose(P @ M @ P, P, atol=1e-10 * max(1.0, np.linalg.norm(P)))
        assert np.allclose((M @ P).T, M @ P, atol=1e-10)
        assert np.allclose((P @ M).T, P @ M, atol=1e-10)
        # full column rank w.p. 1: left inverse property
        assert np.linalg.norm(P @ M - np.eye(2)) <= 1e-10

    def test_zero_matrix(self):
        assert np.array_equal(moore_penrose_pinv(np.zeros((3, 2))), np.zeros((2, 3)))


class TestRankCondition:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=8, max_size=8),
    )
    def test_numerical_rank_matches_minor_oracle(self, flat32, flat42):
        for M in (np.array(flat32, dtype=float).reshape(3, 2),
                  np.array(flat42, dtype=float).reshape(4, 2)):
            assert numerical_rank(M) == minor_based_rank(M)


class TestSystemModelValidation:
    def test_rejects_nd_greater_than_ny(self):
        with pytest.raises(DimensionError):
            SystemModel(
                A=np.zeros((2, 2)),
                B=np.zeros((2, 1)),
                E=np.eye(2),
                G=np.eye(2),
                C=np.array([[1.0, 0.0]]),
                Q=np.eye(2),
                R=np.eye(1),
                dt=0.01,
            )

    def test_rejects_semidefinite_R(self):
        with pytest.raises(ValueError):
            SystemModel(
                A=np.zeros((2, 2)),
                B=np.zeros((2, 1)),
                E=np.ones((2, 1)),
                G=np.eye(2),
                C=np.eye(2),
                Q=np.eye(2),
                R=np.zeros((2, 2)),
                dt=0.01,
            )

    def test_time_varying_callback(self):
        model = SystemModel(
            A=lambda t: np.array([[0.0, t], [0.0, 0.0]]),
            B=np.zeros((2, 1)),
            E=np.ones((2, 1)),
            G=np.eye(2),
            C=np.eye(2),
            Q=np.eye(2),
            R=np.eye(2),
            dt=0.1,
        )
        dm = discretize(model, 2.0)
        assert dm.A_d[0, 1] == pytest.approx(0.2)
