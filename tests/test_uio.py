import numpy as np

from uikf import onestep, r4skf, uio
from uikf.benchmark import A_PLANT, C_PLANT, benchmark_model
from uikf.checks import square_test_model
from uikf.model import discretize, moore_penrose_pinv


def steady_state_gain(model, steps=2000, seed=0):
    rng = np.random.default_rng(seed)
    state = r4skf.initial_state(model, np.zeros(model.n_x))
    rep = None
    for k in range(steps):
        y = rng.standard_normal(model.n_y) * np.sqrt(
            np.diag(np.asarray(model.R(k + 1), dtype=float))
        )
        state, rep = r4skf.step(state, np.zeros(model.n_u), y, model)
    return rep.K


def observer_radius(dm, C, F_d, L):
    """Spectral radius of the observer's error dynamics (I - L C) Ā; the
    observer of a constant system is asymptotically stable iff it is below one."""
    A_tilde = r4skf.stability_matrices(dm, C, F_d, L)[1]
    return float(np.max(np.abs(np.linalg.eigvals(A_tilde))))


class TestObserverStep:
    def test_predictor_mode_tracks_noise_free_truth(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        x = np.array([0.1, -0.2, 0.3, 0.05])
        obs = uio.initial_observer_state(x, model.n_d)
        L0 = np.zeros((4, 3))
        for _ in range(100):
            x = dm.A_d @ x  # noise-free, d = 0
            y = C_PLANT @ x
            obs = uio.observer_step(obs, y, np.zeros(2), dm, C_PLANT, L0)
            assert np.allclose(obs.x_hat, x, atol=1e-10 * (1.0 + np.abs(x).max()))
            assert np.allclose(obs.d_hat, 0.0, atol=1e-10)

    def test_square_case_inverse_gain_equals_one_step(self):
        model = square_test_model()
        dm = discretize(model, 0.0)
        C = np.asarray(model.C(0), dtype=float)
        L = np.linalg.inv(C)
        rng = np.random.default_rng(9)
        obs = uio.initial_observer_state(np.array([5.0, -5.0]), model.n_d)
        for _ in range(50):
            y = rng.standard_normal(2)
            obs = uio.observer_step(obs, y, np.zeros(1), dm, C, L)
            assert np.abs(obs.x_hat - onestep.one_step_estimate(y, C)).max() <= 1e-12

    def test_benchmark_error_envelope_decays(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        L = steady_state_gain(model)
        F_d = moore_penrose_pinv(C_PLANT @ dm.E_d)
        assert observer_radius(dm, C_PLANT, F_d, L) < 1.0
        x = np.zeros(4)
        obs = uio.initial_observer_state(np.full(4, 10.0), 2)
        errs = []
        for k in range(800):
            x = x + model.dt * (A_PLANT @ x)  # noise-free truth
            obs = uio.observer_step(obs, C_PLANT @ x, np.zeros(2), dm, C_PLANT, L)
            errs.append(np.linalg.norm(obs.x_hat - x))
        window_max = np.array(errs).reshape(8, 100).max(axis=1)
        assert np.all(np.diff(window_max) < 0)


class TestVerifyObserverStability:
    def test_square_inverse_gain_annihilates(self):
        model = square_test_model()
        dm = discretize(model, 0.0)
        C = np.asarray(model.C(0), dtype=float)
        F_d = moore_penrose_pinv(C @ dm.E_d)
        assert observer_radius(dm, C, F_d, np.linalg.inv(C)) <= 1e-12

    def test_zero_gain_reduces_to_predictor(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        F_d = moore_penrose_pinv(C_PLANT @ dm.E_d)
        A_bar, *_ = r4skf.stability_matrices(dm, C_PLANT, F_d, np.zeros((4, 3)))
        rho_pred = np.max(np.abs(np.linalg.eigvals(A_bar)))
        rho = observer_radius(dm, C_PLANT, F_d, np.zeros((4, 3)))
        np.testing.assert_allclose(rho, rho_pred, rtol=1e-12)

    def test_steady_state_kalman_gain_is_stabilizing(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        F_d = moore_penrose_pinv(C_PLANT @ dm.E_d)
        assert observer_radius(dm, C_PLANT, F_d, steady_state_gain(model)) < 1.0


class TestObserverFilterAgreement:
    def test_observer_handed_the_filter_gain_is_the_filter(self):
        model = benchmark_model()
        rng = np.random.default_rng(2)
        obs = uio.initial_observer_state(np.zeros(4), 2)
        filt = r4skf.initial_state(model, np.zeros(4))
        for k in range(300):
            y = 0.1 * rng.standard_normal(3)
            dm = discretize(model, k * model.dt)
            filt, rep = r4skf.step(filt, np.zeros(2), y, model)
            obs = uio.observer_step(obs, y, np.zeros(2), dm, C_PLANT, rep.K)
            assert np.array_equal(obs.x_hat, filt.x_hat), k

    def test_observer_state_has_no_covariance(self):
        from dataclasses import fields

        names = {f.name for f in fields(uio.ObserverState)}
        assert names == {"w", "z", "x_hat", "d_hat"}

    def test_initial_values_shared(self):
        obs = uio.initial_observer_state([1.0, 2.0], 1)
        assert np.array_equal(obs.w, obs.x_hat)
        assert np.array_equal(obs.z, obs.x_hat)
