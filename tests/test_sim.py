import numpy as np
import pytest

from uikf import sim
from uikf.benchmark import benchmark_case, benchmark_model, benchmark_signals
from uikf.errors import ConfigError
from uikf.model import SystemModel, discretize
from uikf.sim import ScenarioConfig, SignalSpec


def small_model(dt=0.01, q=1e-6, r=1e-4):
    return SystemModel(
        A=np.array([[-0.5, 0.1], [0.0, -1.0]]),
        B=np.zeros((2, 1)),
        E=np.array([[1.0], [0.0]]),
        G=np.eye(2),
        C=np.eye(2),
        Q=q * np.eye(2),
        R=r * np.eye(2),
        dt=dt,
    )


def small_config(**overrides):
    base = dict(
        model=small_model(),
        signals=(SignalSpec(kind="step", t_on=0.5, t_off=1.0, amplitude=1.0),),
        duration=2.0,
        seeds=(0,),
        x0_true=np.zeros(2),
        x0_hat=np.zeros(2),
        estimators=("r4skf",),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestSignalSpec:
    def test_step_window_is_half_open(self):
        s = SignalSpec(kind="step", t_on=3.0, t_off=7.0, amplitude=0.5)
        assert s.value(3.00) == 0.0
        assert s.value(3.01) == 0.5
        assert s.value(7.00) == 0.5
        assert s.value(7.01) == 0.0

    def test_windowed_sine_formula(self):
        s = SignalSpec(kind="windowed_sine", t_on=2.0, t_off=6.0, amplitude=0.4, f0=0.5)
        t = 2.75
        assert s.value(t) == pytest.approx(0.4 * np.sin(2 * np.pi * 0.5 * (t - 2.0)))
        assert s.value(1.99) == 0.0
        assert s.value(6.01) == 0.0

    def test_zero_signal(self):
        assert SignalSpec().value(4.2) == 0.0

    def test_custom_signal_indexed_by_step(self):
        s = SignalSpec(kind="custom", samples=np.array([0.0, 1.0, 4.0]))
        assert s.value(0.0, k=1) == 1.0
        assert s.value(0.0, k=10) == 4.0  # held at the last sample

    def test_custom_without_samples_rejected(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="custom").value(0.0, k=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            SignalSpec(kind="ramp").value(0.0)


class TestRmse:
    def test_zero_error(self):
        a = np.ones((10, 2))
        assert np.array_equal(sim.rmse(a, a), np.zeros(2))

    def test_alternating_unit_error(self):
        est = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        assert sim.rmse(est, np.zeros((4, 1)))[0] == 1.0

    def test_per_channel(self):
        est = np.array([[3.0, 0.0], [3.0, 0.0]])
        truth = np.array([[0.0, 4.0], [0.0, 4.0]])
        assert np.allclose(sim.rmse(est, truth), [3.0, 4.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sim.rmse(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sim.rmse(np.zeros((0, 1)), np.zeros((0, 1)))


class TestScenarioConfigValidation:
    def test_nonpositive_duration(self):
        with pytest.raises(ConfigError, match="duration"):
            small_config(duration=0.0)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            small_config(seeds=())

    def test_signal_count_mismatch(self):
        with pytest.raises(ConfigError, match="signals"):
            small_config(signals=(SignalSpec(), SignalSpec()))

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError, match="estimators"):
            small_config(estimators=("r4skf", "ekf2"))

    def test_onestep_requires_square(self):
        with pytest.raises(ConfigError, match="onestep"):
            ScenarioConfig(
                model=benchmark_model(),
                signals=benchmark_signals(0.5),
                duration=1.0,
                seeds=(1,),
                x0_true=np.zeros(4),
                x0_hat=np.zeros(4),
                estimators=("onestep",),
            )

    def test_n_steps_rounding(self):
        assert small_config(duration=2.0).n_steps == 200


class TestGenerateTruth:
    def test_seed_determinism_is_bitwise(self):
        cfg = small_config()
        t1 = sim.generate_truth(cfg, seed=7)
        t2 = sim.generate_truth(cfg, seed=7)
        for a, b in ((t1.x, t2.x), (t1.y, t2.y), (t1.d, t2.d)):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        cfg = small_config()
        assert not np.array_equal(
            sim.generate_truth(cfg, 1).y, sim.generate_truth(cfg, 2).y
        )

    def test_shapes(self):
        cfg = small_config()
        truth = sim.generate_truth(cfg, 0)
        K = cfg.n_steps
        assert truth.t.shape == (K + 1,)
        assert truth.x.shape == (K + 1, 2)
        assert truth.d.shape == (K, 1)
        assert truth.y.shape == (K, 2)

    def test_measurement_noise_calibration(self):
        # with C = I and a frozen state, y - C x samples N(0, R)
        r = 0.04
        cfg = small_config(model=small_model(q=0.0, r=r), signals=(SignalSpec(),),
                           duration=200.0)
        truth = sim.generate_truth(cfg, 3)
        v = truth.y - truth.x[1:]  # C = I
        var = v.var(axis=0)
        assert np.all(np.abs(var - r) <= 0.05 * r)

    def test_process_noise_calibration(self):
        # pure diffusion: Var(x_K) = q * K * dt
        q = 1e-2
        model = SystemModel(
            A=np.zeros((1, 1)), B=np.zeros((1, 1)), E=np.ones((1, 1)),
            G=np.eye(1), C=np.eye(1), Q=q * np.eye(1), R=1e-12 * np.eye(1), dt=0.01,
        )
        cfg = ScenarioConfig(
            model=model, signals=(SignalSpec(),), duration=1.0,
            seeds=tuple(range(2000)), x0_true=np.zeros(1), x0_hat=np.zeros(1),
        )
        truths = sim._truths(cfg, cfg.seeds)              # all seeds in one simulation
        finals = np.array([truths[s].x[-1, 0] for s in cfg.seeds])
        expected = q * 1.0
        assert abs(finals.var() - expected) <= 0.1 * expected

    def test_noise_free_truth_matches_open_loop_predictor(self):
        model = small_model(q=0.0, r=1e-12)
        spec = SignalSpec(kind="step", t_on=0.2, t_off=0.8, amplitude=1.0)
        cfg = ScenarioConfig(
            model=model, signals=(spec,), duration=1.0, seeds=(0,),
            x0_true=np.array([0.5, -0.5]), x0_hat=np.zeros(2),
        )
        truth = sim.generate_truth(cfg, 0)
        x = cfg.x0_true.copy()
        for k in range(cfg.n_steps):
            dm = discretize(model, k * model.dt)
            d = np.array([spec.value(k * model.dt)])
            x = dm.A_d @ x + dm.E_d @ d
            assert np.abs(truth.x[k + 1] - x).max() <= 1e-10 + 1e-5 * np.abs(x).max()


class TestRunScenario:
    def test_result_structure(self):
        cfg = small_config(estimators=("r4skf", "a2kf", "uio"))
        res = sim.run_scenario(cfg)
        assert set(res.runs[0]) == {"r4skf", "a2kf", "uio"}
        run = res.runs[0]["r4skf"]
        K = cfg.n_steps
        assert run.x_hat.shape == (K, 2)
        assert run.d_hat.shape == (K, 1)
        assert run.Pd_diag.shape == (K, 1)
        assert res.runs[0]["a2kf"].Qd_diag.shape == (K, 1)
        assert set(res.rmse_mean) == set(cfg.estimators)

    def test_run_is_deterministic(self):
        cfg = small_config()
        a = sim.run_scenario(cfg)
        b = sim.run_scenario(cfg)
        assert np.array_equal(a.runs[0]["r4skf"].x_hat, b.runs[0]["r4skf"].x_hat)
        assert np.array_equal(a.rmse_mean["r4skf"]["d"], b.rmse_mean["r4skf"]["d"])

    def test_rmse_skip_removes_transient(self):
        cfg_all = small_config(x0_hat=np.full(2, 10.0))
        cfg_skip = small_config(x0_hat=np.full(2, 10.0), rmse_skip=0.5)
        r_all = sim.run_scenario(cfg_all).rmse_mean["r4skf"]["d"][0]
        r_skip = sim.run_scenario(cfg_skip).rmse_mean["r4skf"]["d"][0]
        assert r_skip < r_all

    def test_filter_tracks_step_input(self):
        # small measurement noise: d-hat noise scales like sqrt(R)/dt
        cfg = small_config(model=small_model(r=1e-8), rmse_skip=0.5)
        res = sim.run_scenario(cfg)
        assert res.rmse_mean["r4skf"]["d"][0] <= 0.2

    def test_benchmark_case_mean_is_mean_of_seeds(self):
        cfg = benchmark_case(1, duration=1.5, seeds=(1, 2))
        res = sim.run_scenario(cfg)
        manual = 0.5 * (
            res.rmse_per_seed[1]["r4skf"]["d"] + res.rmse_per_seed[2]["r4skf"]["d"]
        )
        assert np.allclose(res.rmse_mean["r4skf"]["d"], manual)


class TestCsvOutput:
    def test_timeseries_layout(self, tmp_path):
        cfg = small_config(estimators=("a2kf",))
        res = sim.run_scenario(cfg)
        path = tmp_path / "run.csv"
        sim.write_timeseries_csv(path, res, "a2kf")
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "x_true1" in header and "x_hat2" in header
        assert "d_true1" in header and "d_hat1" in header
        assert "Qd_diag1" in header
        assert len(lines) == 1 + cfg.n_steps

    def test_summary_layout(self, tmp_path):
        cfg = small_config(estimators=("r4skf", "a2kf"))
        res = sim.run_scenario(cfg)
        path = tmp_path / "summary.csv"
        sim.write_summary_csv(path, {"case1": res})
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["case", "estimator", "x1", "x2", "d1"]
        assert len(lines) == 3
        assert lines[1].startswith("case1,r4skf")

    def test_six_significant_digits(self, tmp_path):
        cfg = small_config()
        res = sim.run_scenario(cfg)
        path = tmp_path / "run.csv"
        sim.write_timeseries_csv(path, res, "r4skf")
        cell = path.read_text().strip().splitlines()[5].split(",")[1]
        mantissa = cell.lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) <= 6


class TestScenarioLength:
    def test_duration_shorter_than_dt_rejected(self):
        with pytest.raises(ConfigError, match=r"scenario\.duration"):
            small_config(duration=0.004)

    def test_custom_signal_shorter_than_run_rejected(self):
        # two samples over ten steps used to hold the last one: [1, 2, 2, ...]
        spec = SignalSpec(kind="custom", samples=np.array([1.0, 2.0]))
        with pytest.raises(ConfigError, match=r"scenario\.signals\[0\]\.samples"):
            small_config(signals=(spec,), duration=0.1)

    def test_custom_signal_with_one_sample_per_step(self):
        samples = np.arange(10.0)
        cfg = small_config(signals=(SignalSpec(kind="custom", samples=samples),), duration=0.1)
        assert np.array_equal(sim.generate_truth(cfg, 0).d[:, 0], samples)
