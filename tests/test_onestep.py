import warnings
from dataclasses import replace

import numpy as np
import pytest

from uikf import onestep, r4skf, sim, uio
from uikf.checks import square_test_model
from uikf.errors import IllConditionedError
from uikf.model import discretize, moore_penrose_pinv


class TestOneStepEstimate:
    def test_identity_output_map(self):
        assert np.allclose(onestep.one_step_estimate(np.array([1.0, 2.0]), np.eye(2)),
                           [1.0, 2.0])

    def test_scalar_scaling(self):
        assert np.allclose(
            onestep.one_step_estimate(np.array([4.0, 6.0]), 2.0 * np.eye(2)), [2.0, 3.0]
        )

    def test_triangular_solve(self):
        C = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(onestep.one_step_estimate(np.array([3.0, 1.0]), C), [2.0, 1.0])

    def test_singular_C_raises(self):
        with pytest.raises(IllConditionedError):
            onestep.one_step_estimate(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


def one_step_reference(y, C):
    """one_step_estimate with its refusal written as np.linalg.cond(C) >= COND_LIMIT."""
    C, y = np.asarray(C, dtype=float), np.asarray(y, dtype=float)
    if np.linalg.cond(C) >= onestep.COND_LIMIT:
        raise IllConditionedError("C is not numerically invertible")
    return np.linalg.solve(C, y[..., None])[..., 0]


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def rotated(singular_values, seed=4):
    """A matrix with the given singular values between two random rotations."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return U @ np.diag(singular_values) @ V.T


# name -> (C, refused by np.linalg.cond(C) >= COND_LIMIT, None where the svd raises)
COND_CASES = {
    "zero": (np.zeros((2, 2)), True),
    "zero_1x1": (np.zeros((1, 1)), True),
    "rank_1": (np.ones((2, 2)), True),
    "rank_1_rotated": (rotated([3.0, 1.0, 0.0]), True),
    "cond_just_below_1e12": (np.diag([1.0, 1e-12 * (1.0 + 1e-6)]), False),
    "cond_just_above_1e12": (np.diag([1.0, 1e-12 * (1.0 - 1e-6)]), True),
    "cond_just_below_1e12_rotated": (rotated([2.0, 1.0, 2e-12 * (1.0 + 1e-4)]), False),
    "cond_just_above_1e12_rotated": (rotated([2.0, 1.0, 2e-12 * (1.0 - 1e-4)]), True),
    # the ratio overflows to inf: refused, and no overflow warning
    "smallest_subnormal": (np.diag([1.0, 1e-310]), True),
    "smallest_least_subnormal": (np.diag([1.0, 5e-324]), True),
    # both tiny, but the ratio is 1e10
    "both_near_subnormal": (np.diag([1e-300, 1e-310]), False),
    # the svd of an inf gives NaN singular values, which cond reads as inf
    "inf": (np.array([[np.inf, 1.0], [1.0, 1.0]]), True),
    "nan": (np.array([[np.nan, 1.0], [1.0, 1.0]]), None),
    "nan_1x1": (np.array([[np.nan]]), None),
}


class TestConditionNumberRefusal:
    """one_step_estimate refuses C exactly when np.linalg.cond(C) >= COND_LIMIT,
    with the same exception, and raises no warning of its own."""

    @pytest.mark.parametrize("name", sorted(COND_CASES))
    def test_refused_as_np_linalg_cond_refuses(self, name):
        C, refused = COND_CASES[name]
        y = np.full((2, C.shape[0]), 1e-300)        # two rows, small enough not to overflow the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(onestep.one_step_estimate, y, C)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = outcome(one_step_reference, y, C)
        assert got[0] == want[0] and (got[1:] == want[1:] if got[0] == "raised" else np.array_equal(got[1], want[1]))
        if refused is None:
            assert got[1] is np.linalg.LinAlgError
        else:
            assert (got[:2] == ("raised", IllConditionedError)) == refused
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert (np.linalg.cond(C) >= onestep.COND_LIMIT) == refused

    def test_an_empty_C_gives_an_empty_estimate(self):
        assert onestep.one_step_estimate(np.zeros((2, 0)), np.zeros((0, 0))).shape == (2, 0)


def one_step_error_cov(C, R):
    """The exact error covariance C^{-1} R C^{-T} of x̂ = C^{-1} y."""
    X = np.linalg.solve(C, R)
    return np.linalg.solve(C, X.T).T


def r4skf_error_cov(C, R, E=np.eye(2), steps=50):
    """The r4skf's P after `steps` steps on a square plant with output map C,
    output noise R and unknown-input map E."""
    model = replace(square_test_model(), C=C, R=R, E=E)
    state = r4skf.initial_state(model, np.zeros(2))
    for _ in range(steps):
        state, _ = r4skf.step(state, np.zeros(1), np.zeros(2), model)
    return state.P


class TestOneStepErrorCov:
    # the r4skf's P is the square-case covariance: with C E_d invertible the
    # combined gain is C^{-1}, so the Joseph update reduces to C^{-1} R C^{-T}
    def test_identity(self):
        R = np.diag([0.2, 0.5])
        P = r4skf_error_cov(np.eye(2), R)
        assert np.abs(P - R).max() <= 1e-12 * np.abs(R).max()

    def test_scaling(self):
        P = r4skf_error_cov(2.0 * np.eye(2), np.eye(2))
        assert np.abs(P - 0.25 * np.eye(2)).max() <= 1e-12 * 0.25

    def test_monte_carlo_sample_covariance(self):
        rng = np.random.default_rng(7)
        C = np.array([[1.5, 0.4], [-0.2, 0.9]])
        R = np.array([[0.5, 0.1], [0.1, 0.3]])
        pred = r4skf_error_cov(C, R)
        ref = one_step_error_cov(C, R)
        assert np.abs(pred - ref).max() <= 1e-12 * np.abs(ref).max()
        v = rng.multivariate_normal(np.zeros(2), R, size=100_000)
        e = np.linalg.solve(C, v.T).T
        sample = e.T @ e / len(e)
        assert np.abs(sample - pred).max() <= 0.05 * np.abs(pred).max()

    def test_general_unknown_input_map(self):
        # any invertible E gives the same combined gain E_d (C E_d)^{-1} = C^{-1}
        C = np.array([[1.5, 0.4], [-0.2, 0.9]])
        R = np.array([[0.5, 0.1], [0.1, 0.3]])
        pred = r4skf_error_cov(C, R, E=np.array([[0.7, -1.2], [0.3, 2.0]]))
        ref = one_step_error_cov(C, R)
        assert np.abs(pred - ref).max() <= 1e-12 * np.abs(ref).max()


class TestEquivalenceCheck:
    def test_zero_unknown_input(self):
        model = square_test_model()
        ys = sim.simulate(model, np.zeros(2), np.zeros((50, 2)), [np.random.default_rng(0)])[1][0]
        state = r4skf.initial_state(model, np.zeros(2))
        for k in range(50):
            state, _ = r4skf.step(state, np.zeros(model.n_u), ys[k], model)
            ref = onestep.one_step_estimate(ys[k], r4skf.step_terms(model, k).C)
            assert np.linalg.norm(state.x_hat - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))

    def test_random_inputs_500_steps(self):
        model = square_test_model()
        assert onestep.equivalence_check(model, 500, seed=42) < 1e-9

    def test_initial_condition_robustness(self):
        model = square_test_model()
        dev = onestep.equivalence_check(model, 500, seed=42, x0_hat=[100.0, 100.0])
        assert dev < 1e-9

    def test_requires_square_case(self):
        from uikf.benchmark import benchmark_model

        with pytest.raises(ValueError):
            onestep.equivalence_check(benchmark_model(), 10, seed=0)


class TestSquareCaseStability:
    def test_A_bar_vanishes(self):
        model = square_test_model()
        dm = discretize(model, 0.0)
        C = np.asarray(model.C(0), dtype=float)
        F_d = moore_penrose_pinv(C @ dm.E_d)
        A_bar, *_ = r4skf.stability_matrices(dm, C, F_d, np.zeros((2, 2)))
        assert np.linalg.norm(A_bar) <= 1e-12 * np.linalg.norm(dm.A_d)

    def test_predictor_independent_of_initial_state_after_first_update(self):
        # K = 0 path: after one measurement the estimate only uses y
        model = square_test_model()
        rng = np.random.default_rng(5)
        ys = [rng.standard_normal(2) for _ in range(5)]
        K0 = np.zeros((2, 2))
        outs = []
        for x0 in ([0.0, 0.0], [100.0, -50.0]):
            state = uio.initial_observer_state(np.array(x0), model.n_d)
            seq = []
            for k, y in enumerate(ys):
                t = r4skf.step_terms(model, k)
                state = uio.observer_step(state, y, np.zeros(1), t.dm, t.C, K0)
                seq.append(state.x_hat.copy())
            outs.append(np.array(seq))
        assert np.abs(outs[0] - outs[1]).max() <= 1e-10

