import numpy as np
import pytest

from uikf import r4skf
from uikf.benchmark import A_PLANT, B_PLANT, C_PLANT, benchmark_model
from uikf.errors import RankConditionError
from uikf.model import DiscretizedModel, SystemModel, discretize, moore_penrose_pinv


def make_dm(A_d, B_d, E_d, dt=1.0):
    return DiscretizedModel(
        A_d=np.asarray(A_d, dtype=float),
        B_d=np.asarray(B_d, dtype=float),
        E_d=np.asarray(E_d, dtype=float),
        dt=dt,
    )


class TestPredictNoInput:
    def test_zero_state(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        assert np.array_equal(
            r4skf.predict_no_input(np.zeros(2), np.zeros(1), dm), np.zeros(2)
        )

    def test_pure_integrator(self):
        # A = 0, B = I, dt = 1: x* = x + u
        dm = make_dm(np.eye(2), np.eye(2), np.eye(2))
        x_star = r4skf.predict_no_input(np.array([1.0, 1.0]), np.array([2.0, 3.0]), dm)
        assert np.array_equal(x_star, np.array([3.0, 4.0]))

    def test_benchmark_against_elementwise_sum(self):
        dm = discretize(benchmark_model(), 0.0)
        x_hat = np.full(4, 10.0)
        x_star = r4skf.predict_no_input(x_hat, np.zeros(2), dm)
        expected = np.array(
            [sum(dm.A_d[i, j] * x_hat[j] for j in range(4)) for i in range(4)]
        )
        assert np.allclose(x_star, expected, rtol=0, atol=1e-12)


def one_step_noise_free(model, x_prev, d):
    """Forward-simulate one noise-free step; return (x_next, y)."""
    dm = discretize(model, 0.0)
    x_next = dm.A_d @ x_prev + dm.E_d @ d
    C = np.asarray(model.C(1), dtype=float)
    return x_next, C @ x_next


class TestEstimateUnknownInput:
    def test_zero_innovation(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        d_hat, F_d, gamma = r4skf.estimate_unknown_input(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), dm, np.eye(2)
        )
        assert np.array_equal(d_hat, np.zeros(2))
        assert np.array_equal(gamma, np.zeros(2))

    def test_square_identity_case(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        y = np.array([0.3, -0.7])
        d_hat, F_d, gamma = r4skf.estimate_unknown_input(y, np.zeros(2), dm, np.eye(2))
        assert np.allclose(F_d, np.eye(2))
        assert np.allclose(d_hat, y)

    def test_benchmark_noise_free_inversion(self):
        model = benchmark_model()
        x_prev = np.array([0.2, -0.1, 0.05, 0.3])
        d = np.array([0.5, 0.0])
        x_next, y = one_step_noise_free(model, x_prev, d)
        dm = discretize(model, 0.0)
        x_star = r4skf.predict_no_input(x_prev, np.zeros(2), dm)
        d_hat, _, _ = r4skf.estimate_unknown_input(y, x_star, dm, C_PLANT)
        assert np.allclose(d_hat, d, atol=1e-8)

    def test_rank_deficiency_raises(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.array([[0.0], [1.0]]))
        C = np.array([[1.0, 0.0], [2.0, 0.0]])  # annihilates the input channel
        with pytest.raises(RankConditionError):
            r4skf.estimate_unknown_input(np.zeros(2), np.zeros(2), dm, C)


class TestPredictWithInput:
    def test_zero_input(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        x_star = np.array([1.0, 2.0])
        assert np.array_equal(r4skf.predict_with_input(x_star, np.zeros(2), dm), x_star)

    def test_additive(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        out = r4skf.predict_with_input(np.array([1.0, 1.0]), np.array([1.0, 2.0]), dm)
        assert np.array_equal(out, np.array([2.0, 3.0]))

    def test_benchmark_noise_free_reconstruction(self):
        model = benchmark_model()
        x_prev = np.array([0.2, -0.1, 0.05, 0.3])
        d = np.array([0.5, 0.0])
        x_next, y = one_step_noise_free(model, x_prev, d)
        dm = discretize(model, 0.0)
        x_star = r4skf.predict_no_input(x_prev, np.zeros(2), dm)
        d_hat, _, _ = r4skf.estimate_unknown_input(y, x_star, dm, C_PLANT)
        x_pred = r4skf.predict_with_input(x_star, d_hat, dm)
        assert np.allclose(x_pred, x_next, atol=1e-8)


class TestGainAndCovariance:
    def test_square_identity_collapses_gain(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        F_d = moore_penrose_pinv(np.eye(2) @ dm.E_d)
        _, K, L, _, _ = r4skf.gain_and_covariance(
            np.eye(2), r4skf.StepTerms(dm, np.eye(2), 0.1 * np.eye(2), np.eye(2), np.eye(2), F_d)
        )
        assert np.allclose(L, np.eye(2), atol=1e-12)

    def test_degenerate_no_uncertainty(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        F_d = np.eye(2)
        P_pred, K, L, _, _ = r4skf.gain_and_covariance(
            np.zeros((2, 2)), r4skf.StepTerms(dm, np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2), F_d)
        )
        assert np.allclose(P_pred, 0.0)
        assert np.allclose(K, 0.0)
        assert np.allclose(L, dm.E_d @ F_d)

    def test_benchmark_update_contracts_trace(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        P = 10.0 * np.eye(4)
        F_d = moore_penrose_pinv(C_PLANT @ dm.E_d)
        Q, G = np.asarray(model.Q(0.0), dtype=float), np.asarray(model.G(0.0), dtype=float)
        R = np.asarray(model.R(0), dtype=float)
        for _ in range(1000):
            P_pred, K, L, P, _ = r4skf.gain_and_covariance(P, r4skf.StepTerms(dm, C_PLANT, R, Q, G, F_d))
            assert np.trace(P) < np.trace(P_pred)

    def test_joseph_form_symmetric_psd(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        F_d = moore_penrose_pinv(C_PLANT @ dm.E_d)
        Q, G = np.asarray(model.Q(0.0), dtype=float), np.asarray(model.G(0.0), dtype=float)
        R = np.asarray(model.R(0), dtype=float)
        P = 10.0 * np.eye(4)
        for _ in range(200):
            _, _, _, P, _ = r4skf.gain_and_covariance(P, r4skf.StepTerms(dm, C_PLANT, R, Q, G, F_d))
            assert np.abs(P - P.T).max() <= 1e-12
            assert np.linalg.eigvalsh(P).min() >= -1e-10 * np.trace(P)


class TestUpdate:
    def test_zero_gain(self):
        x_pred = np.array([1.0, 2.0])
        out = r4skf.update(x_pred, np.array([5.0, 5.0]), np.zeros((2, 2)), np.eye(2))
        assert np.array_equal(out, x_pred)

    def test_zero_innovation(self):
        x_pred = np.array([1.0, 2.0])
        out = r4skf.update(x_pred, x_pred.copy(), 0.5 * np.eye(2), np.eye(2))
        assert np.array_equal(out, x_pred)

    def test_dual_form_agreement_100_random_steps(self):
        model = benchmark_model()
        rng = np.random.default_rng(11)
        state = r4skf.initial_state(model, rng.standard_normal(4))
        u = np.zeros(2)
        for _ in range(100):
            y = rng.standard_normal(3)
            state, rep = r4skf.step(state, u, y, model)
            alt = rep.x_star + rep.L @ state.gamma
            scale = 1.0 + np.abs(state.x_hat).max()
            assert np.abs(state.x_hat - alt).max() <= 1e-12 * scale


class TestStep:
    def test_equilibrium_noise_free(self):
        model = benchmark_model()
        x = np.zeros(4)
        state = r4skf.initial_state(model, np.zeros(4))
        for k in range(50):
            y = C_PLANT @ x  # noise-free measurement of the resting plant
            state, _ = r4skf.step(state, np.zeros(2), y, model)
            assert np.allclose(state.x_hat, 0.0, atol=1e-12)
            assert np.allclose(state.d_hat, 0.0, atol=1e-12)

    def test_initial_error_decays(self):
        # start 10 off per state; late-run mean error should be noise-level
        from uikf.benchmark import benchmark_case
        from uikf.sim import run_scenario

        cfg = benchmark_case(1, duration=4.0, seeds=[3], estimators=("r4skf",))
        res = run_scenario(cfg)
        run = res.runs[3]["r4skf"]
        truth = res.truths[3]
        err = run.x_hat - truth.x[1:]
        late = err[len(err) // 2:]
        sigma = late.std(axis=0)
        assert np.all(np.abs(late.mean(axis=0)) <= 3.0 * sigma)

    def test_a_nan_measurement_is_not_checked(self):
        """The step functions do not check y. A NaN measurement leaves the r4skf's
        covariance sequence, which never reads y, bitwise unchanged and its estimate
        NaN for good; the a2kf's Q^d estimate reads y, so its next steps fail."""
        from uikf import a2kf

        model, u = benchmark_model(), np.zeros(2)
        ys = 1e-3 * np.random.default_rng(0).standard_normal((10, 3))
        bad = ys.copy()
        bad[2, 0] = np.nan
        clean = dirty = r4skf.initial_state(model, np.zeros(4))
        for k in range(len(ys)):
            clean, _ = r4skf.step(clean, u, ys[k], model)
            dirty, _ = r4skf.step(dirty, u, bad[k], model)
            assert np.array_equal(dirty.P, clean.P) and np.array_equal(dirty.Pd, clean.Pd)
            assert np.isnan(dirty.x_hat).all() if k >= 2 else np.array_equal(dirty.x_hat, clean.x_hat)
        state = a2kf.initial_state(model, np.zeros(4))
        with pytest.raises(np.linalg.LinAlgError):
            for y in bad:
                state, _ = a2kf.a2kf_step(state, u, y, model)
        assert 3 <= state.k <= 5                # step 3 read the NaN, one of the next three raised


class TestStabilityMatrices:
    def test_square_annihilation(self):
        dm = make_dm(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros((2, 1)), np.eye(2))
        F_d = moore_penrose_pinv(np.eye(2) @ dm.E_d)
        A_bar, *_ = r4skf.stability_matrices(dm, np.eye(2), F_d, np.zeros((2, 2)))
        assert np.abs(A_bar).max() <= 1e-12 * np.abs(dm.A_d).max()

    def test_no_unknown_input_channel(self):
        dm = make_dm(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros((2, 1)), np.zeros((2, 1)))
        F_d = np.zeros((1, 2))
        A_bar, *_ = r4skf.stability_matrices(dm, np.eye(2), F_d, np.zeros((2, 2)))
        assert np.array_equal(A_bar, dm.A_d)

    def test_benchmark_converged_filter_stable(self):
        model = benchmark_model()
        rng = np.random.default_rng(0)
        state = r4skf.initial_state(model, np.zeros(4))
        rep = None
        for k in range(1500):
            y = rng.standard_normal(3) * np.sqrt(1e-7)
            state, rep = r4skf.step(state, np.zeros(2), y, model)
        rho = np.max(np.abs(np.linalg.eigvals(rep.A_tilde)))
        assert rho < 1.0


class TestUnknownInputErrorCov:
    def test_measurement_noise_passthrough(self):
        dm = make_dm(np.eye(2), np.zeros((2, 1)), np.eye(2))
        R = np.diag([0.3, 0.7])
        F_d = np.eye(2)
        Pd = r4skf.gain_and_covariance(
            np.zeros((2, 2)), r4skf.StepTerms(dm, np.eye(2), R, np.zeros((2, 2)), np.eye(2), F_d)
        )[4]
        assert np.allclose(Pd, R)

    def test_noise_magnification_by_dt_squared(self):
        # C = I, E = I: Pd = (G Q G^T dt + R) / dt^2 when P_prev ~ 0
        dt = 0.01
        dm = make_dm(np.eye(2), np.zeros((2, 1)), dt * np.eye(2), dt=dt)
        Q = np.diag([1e-6, 2e-6])
        R = np.diag([1e-7, 3e-7])
        F_d = moore_penrose_pinv(np.eye(2) @ dm.E_d)
        Pd = r4skf.gain_and_covariance(
            np.zeros((2, 2)), r4skf.StepTerms(dm, np.eye(2), R, Q, np.eye(2), F_d)
        )[4]
        assert np.allclose(Pd, (Q * dt + R) / dt ** 2, rtol=1e-10)


class TestUnbiasedness:
    def test_monte_carlo_mean_error_near_zero(self):
        # unbiased initialization, 200 runs, fixed k: mean within 4 SE
        from dataclasses import replace

        from uikf.benchmark import benchmark_case
        from uikf.sim import run_scenario

        cfg = benchmark_case(1, duration=1.0, seeds=range(1, 201),
                             estimators=("r4skf",), rmse_skip=0.0)
        cfg = replace(cfg, x0_hat=np.zeros(4))
        res = run_scenario(cfg)
        K = cfg.n_steps
        for kk in (K // 2, K):
            errs = np.array(
                [res.runs[s]["r4skf"].x_hat[kk - 1] - res.truths[s].x[kk] for s in cfg.seeds]
            )
            se = errs.std(axis=0, ddof=1) / np.sqrt(len(cfg.seeds))
            assert np.all(np.abs(errs.mean(axis=0)) <= 4.0 * se)


class TestSpectralRadiusBoundedness:
    def test_stable_certificate_implies_bounded_error(self):
        from uikf.benchmark import benchmark_case
        from uikf.sim import run_scenario

        cfg = benchmark_case(1, seeds=[1], estimators=("r4skf",))
        res = run_scenario(cfg)
        run = res.runs[1]["r4skf"]
        truth = res.truths[1]
        e = np.linalg.norm(run.x_hat - truth.x[1:], axis=1)[100:]  # past transient
        assert e.max() <= 10.0 * np.median(e)
