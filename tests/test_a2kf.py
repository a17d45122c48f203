import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uikf import a2kf, config
from uikf.a2kf import A2KFConfig
from uikf.benchmark import B_PLANT, benchmark_model
from uikf.errors import ConfigError
from uikf.model import SystemModel, discretize


def scalar_model(a=0.5, e=2.0, dt=0.1):
    return SystemModel(
        A=np.array([[a]]),
        B=np.zeros((1, 1)),
        E=np.array([[e]]),
        G=np.eye(1),
        C=np.eye(1),
        Q=np.eye(1) * 1e-4,
        R=np.eye(1) * 1e-4,
        dt=dt,
    )


class TestAugment:
    def test_scalar_blocks(self):
        am = a2kf.augment(scalar_model(a=0.5, e=2.0))
        assert np.allclose(am.A_a, [[0.5, 2.0], [0.0, 0.0]])

    def test_benchmark_block_layout(self):
        am = a2kf.augment(benchmark_model())
        assert am.A_a.shape == (6, 6)
        assert np.allclose(am.A_a[:4, 4:], B_PLANT)  # E = B in the top-right
        assert np.allclose(am.A_a[4:, :], 0.0)
        assert np.allclose(am.G_a[:4, 4:], 0.0)
        assert np.allclose(am.G_a[4:, 4:], np.eye(2))

    def test_output_ignores_input_part(self):
        am = a2kf.augment(benchmark_model())
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
            y1 = am.C_a @ np.concatenate([x, d1])
            y2 = am.C_a @ np.concatenate([x, d2])
            assert np.array_equal(y1, y2)

    def test_Qa_block_diagonal(self):
        Qd = np.array([[0.3, 0.1], [0.1, 0.2]])
        am = a2kf.augment(benchmark_model(), Qd=Qd)
        assert np.allclose(am.Q_a[4:, 4:], Qd)
        assert np.allclose(am.Q_a[:4, 4:], 0.0)


class TestInnovationCovariance:
    def test_identical_vectors(self):
        v = np.array([1.0, -2.0])
        cov = a2kf.innovation_covariance([v, v, v])
        assert np.allclose(cov, np.outer(v, v))

    def test_hand_sum(self):
        cov = a2kf.innovation_covariance([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        assert np.allclose(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_monte_carlo_matches_R(self):
        rng = np.random.default_rng(4)
        R = np.array([[0.5, 0.1], [0.1, 0.4]])
        draws = rng.multivariate_normal(np.zeros(2), R, size=100_000)
        cov = a2kf.innovation_covariance(list(draws))
        assert np.linalg.norm(cov - R) <= 0.05 * np.linalg.norm(R)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            a2kf.innovation_covariance([])


class TestEstimateQd:
    def _pieces(self):
        model = benchmark_model()
        dm = discretize(model, 0.0)
        C = np.asarray(model.C(0), dtype=float)
        Q = np.asarray(model.Q(0.0), dtype=float)
        G = np.asarray(model.G(0.0), dtype=float)
        R = np.asarray(model.R(0), dtype=float)
        return model, dm, C, Q, G, R

    def test_quiescent_gives_floor(self):
        model, dm, C, Q, G, R = self._pieces()
        Cgamma = C @ G @ Q @ G.T @ C.T * dm.dt + R
        cfg = A2KFConfig()
        Qd = a2kf.estimate_Qd(Cgamma, dm, C, Q, G, R, cfg)
        assert np.abs(Qd).max() <= cfg.qd_floor + 1e-15

    def test_spd_round_trip(self):
        model, dm, C, Q, G, R = self._pieces()
        rng = np.random.default_rng(8)
        M = rng.standard_normal((2, 2))
        S = M @ M.T + 0.5 * np.eye(2)
        CEd = C @ dm.E_d
        Cgamma = CEd @ S @ CEd.T + C @ G @ Q @ G.T @ C.T * dm.dt + R
        Qd = a2kf.estimate_Qd(Cgamma, dm, C, Q, G, R, A2KFConfig())
        assert np.abs(Qd - S).max() <= 1e-10 * np.abs(S).max()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_always_symmetric_psd(self, seed):
        model, dm, C, Q, G, R = self._pieces()
        rng = np.random.default_rng(seed)
        # arbitrary symmetric (possibly indefinite) innovation covariance
        M = rng.standard_normal((3, 3))
        Cgamma = 0.5 * (M + M.T)
        Qd = a2kf.estimate_Qd(Cgamma, dm, C, Q, G, R, A2KFConfig())
        assert np.allclose(Qd, Qd.T)
        assert np.linalg.eigvalsh(Qd).min() >= -1e-12 * max(1.0, np.abs(Qd).max())
        assert np.diag(Qd).min() >= 0.0


class TestA2KFStep:
    def test_decoupled_noise_free_case(self):
        # frozen Q^d = 0, no unknown input, exact init: d̂ stays at zero and
        # the state part tracks the resting plant exactly
        model = scalar_model()
        cfg = A2KFConfig(qd_init=0.0, qd_floor=0.0)
        state = a2kf.initial_state(model, np.zeros(1), cfg=cfg)
        for _ in range(50):
            y = np.zeros(1)  # resting plant, noise-free measurements
            state, _ = a2kf.a2kf_step(state, np.zeros(1), y, model, cfg)
            assert np.allclose(state.d_hat, 0.0, atol=1e-12)
            assert np.allclose(state.x_hat, 0.0, atol=1e-12)
            assert np.abs(state.Qd_hat).max() <= 1e-12

    def test_qd_refresh_is_causal(self):
        model = scalar_model()
        cfg = A2KFConfig()
        state = a2kf.initial_state(model, np.zeros(1), cfg=cfg)
        prev_qd = state.Qd_hat.copy()
        rng = np.random.default_rng(1)
        for _ in range(5):
            y = rng.standard_normal(1)
            state, report = a2kf.a2kf_step(state, np.zeros(1), y, model, cfg)
            # the step must consume the Q^d computed before this measurement
            assert np.array_equal(report.Qd_used, prev_qd)
            prev_qd = state.Qd_hat.copy()

    def test_window_length_respected(self):
        model = scalar_model()
        cfg = A2KFConfig(window=4)
        state = a2kf.initial_state(model, np.zeros(1), cfg=cfg)
        rng = np.random.default_rng(2)
        for k in range(10):
            state, _ = a2kf.a2kf_step(state, np.zeros(1), rng.standard_normal(1), model, cfg)
            assert len(state.innov_window) == min(k + 1, 4)

    def test_covariance_stays_symmetric_psd(self):
        model = benchmark_model()
        cfg = A2KFConfig()
        state = a2kf.initial_state(model, np.zeros(4), cfg=cfg)
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.standard_normal(3) * 1e-3
            state, _ = a2kf.a2kf_step(state, np.zeros(2), y, model, cfg)
            assert np.abs(state.P_a - state.P_a.T).max() <= 1e-12 * (1 + np.abs(state.P_a).max())
            assert np.linalg.eigvalsh(state.P_a).min() >= -1e-10 * np.trace(state.P_a)

    def test_unbiased_state_estimate_monte_carlo(self):
        from dataclasses import replace

        from uikf.benchmark import benchmark_case
        from uikf.sim import run_scenario

        cfg = benchmark_case(1, duration=1.0, seeds=range(1, 51),
                             estimators=("a2kf",), rmse_skip=0.0)
        cfg = replace(cfg, x0_hat=np.zeros(4))
        res = run_scenario(cfg)
        K = cfg.n_steps
        errs = np.array(
            [res.runs[s]["a2kf"].x_hat[K - 1] - res.truths[s].x[K] for s in cfg.seeds]
        )
        se = errs.std(axis=0, ddof=1) / np.sqrt(len(cfg.seeds))
        assert np.all(np.abs(errs.mean(axis=0)) <= 4.0 * se)

    def test_quiescent_qd_far_below_step_edge_peak(self):
        from uikf.benchmark import benchmark_case
        from uikf.sim import run_scenario

        cfg = benchmark_case(1, seeds=[1], estimators=("a2kf",))
        res = run_scenario(cfg)
        q11 = res.runs[1]["a2kf"].Qd_diag[:, 0]
        t = res.truths[1].t[1:]
        quiescent = np.median(q11[(t > 0.5) & (t < 2.0)])
        peak = q11[np.abs(t - 3.0) <= 0.2].max()
        assert quiescent <= 0.02 * peak


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 0),
            ("qd_floor", -1.0),
            ("qd_floor", float("nan")),
            ("qd_init", -1e-6),
            ("qd_init", float("inf")),
        ],
    )
    def test_bad_setting_is_a_config_error_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=rf"^a2kf\.{field}: "):
            A2KFConfig(**{field: value})

    @pytest.mark.parametrize("key, value", [("negative_check", "pre"), ("rescale_by_dt", True)])
    def test_a_former_qd_switch_is_an_unknown_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^a2kf\.{key}: unknown key, expected one of window, qd_floor, qd_init$"):
            config.parse_a2kf({key: value})

    def test_window_below_one_rejected(self):
        # a zero window used to slice with [-0:] and keep every innovation
        with pytest.raises(ValueError, match="window"):
            A2KFConfig(window=0)

    def test_window_of_one_keeps_the_latest_innovation(self):
        model = scalar_model()
        cfg = A2KFConfig(window=1)
        state = a2kf.initial_state(model, np.zeros(1), cfg=cfg)
        for k in range(5):
            state, report = a2kf.a2kf_step(state, np.zeros(1), np.array([0.1 * k]), model, cfg)
        assert len(state.innov_window) == 1
        assert np.array_equal(state.innov_window[0], report.gamma)
