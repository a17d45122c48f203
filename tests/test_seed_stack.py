"""run_scenario advances all seeds in one call per step, with the r4skf,
a2kf, uio and onestep states stacked along a leading seed axis, for a model
given as arrays and for one given as callables alike. Every product in the
stack is the same BLAS call as for one seed, so these tests hold the stacked
path to a per-seed loop of the reference step functions with np.array_equal,
not a tolerance.
"""

import copy
import csv
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, cli, config, onestep, r4skf, sim, uio
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case
from uikf.checks import square_test_model
from uikf.errors import IllConditionedError
from uikf.model import SystemModel, discretize, moore_penrose_pinv
from uikf.sim import EstimatorRun, ScenarioConfig, SignalSpec, run_scenario

SEEDS = {1: (3,), 2: (3, 4), 5: (3, 4, 5, 6, 7)}


def reference_run(cfg, est, truth):
    """One seed through the reference step function, recorded like run_scenario."""
    model, rows = cfg.model, []
    if est == "r4skf":
        state = r4skf.initial_state(model, cfg.x0_hat)
        for k in range(cfg.n_steps):
            state, _ = r4skf.step(state, truth.u[k], truth.y[k], model)
            rows.append((state.x_hat, state.d_hat, state.gamma, np.diag(state.Pd)))
    elif est == "a2kf":
        state = a2kf.initial_state(model, cfg.x0_hat, cfg=cfg.a2kf_config)
        for k in range(cfg.n_steps):
            state, report = a2kf.a2kf_step(state, truth.u[k], truth.y[k], model, cfg.a2kf_config)
            rows.append((state.x_hat, state.d_hat, report.gamma, np.diag(state.Qd_hat), state.Qd_hat[0, -1]))
    elif est == "onestep":
        x_hat = np.asarray(cfg.x0_hat, dtype=float)
        for k in range(cfg.n_steps):
            dm, C = discretize(model, k * model.dt), model.C(k + 1)
            x_star = r4skf.predict_no_input(x_hat, truth.u[k], dm)
            d_hat, _, gamma = r4skf.estimate_unknown_input(truth.y[k], x_star, dm, C)
            x_hat = onestep.one_step_estimate(truth.y[k], C)
            rows.append((x_hat, d_hat, gamma))
    else:
        L = moore_penrose_pinv(model.C(0)) if cfg.uio_gain is None else cfg.uio_gain
        obs = uio.initial_observer_state(cfg.x0_hat, model.n_d)
        for k in range(cfg.n_steps):
            C = model.C(k + 1)
            obs = uio.observer_step(obs, truth.y[k], truth.u[k], discretize(model, k * model.dt), C, L)
            rows.append((obs.x_hat, obs.d_hat, truth.y[k] - C @ obs.w))
    return [np.array(col) for col in zip(*rows)]


def assert_equals_reference(cfg):
    """Every field of every seed and estimator of run_scenario equals the
    reference loop bit for bit; returns the reference a2kf Q^d off-diagonals."""
    result = run_scenario(cfg)
    off_diagonal = []
    for seed, est in itertools.product(cfg.seeds, cfg.estimators):
        run = result.runs[seed][est]
        want = reference_run(cfg, est, result.truths[seed])
        diag = {"r4skf": run.Pd_diag, "a2kf": run.Qd_diag}.get(est)
        for name, got, ref in zip(("x_hat", "d_hat", "gamma", "diag"), (run.x_hat, run.d_hat, run.gamma, diag), want):
            assert np.array_equal(got, ref), (seed, est, name)
        assert (diag is None) == (est in ("uio", "onestep"))
        if est == "a2kf":
            off_diagonal.append(want[4])
    return np.array(off_diagonal)


@pytest.mark.parametrize("n_seeds, case", list(itertools.product(SEEDS, (1, 2, 3))))
def test_stacked_path_equals_per_seed_steps(n_seeds, case):
    cfg = benchmark_case(case, duration=1.0, seeds=SEEDS[n_seeds], estimators=("r4skf", "a2kf", "uio"))
    assert cfg.model.time_invariant
    assert_equals_reference(cfg)


@pytest.mark.parametrize(
    "window, qd_floor, qd_init",
    list(itertools.product((1, 10), (1e-12, 0.5), (1e-6, 1e-2))),
)
def test_stacked_a2kf_equals_per_seed_steps(window, qd_floor, qd_init):
    a2kf_config = A2KFConfig(window=window, qd_floor=qd_floor, qd_init=qd_init)
    cfg = benchmark_case(1, duration=1.0, seeds=SEEDS[5], estimators=("a2kf",), a2kf_config=a2kf_config)
    assert_equals_reference(cfg)


def test_qd_fallback_fires_for_some_seeds_and_not_others():
    cfg = benchmark_case(1, duration=1.0, seeds=SEEDS[5], estimators=("a2kf",))
    fired = assert_equals_reference(cfg) == 0.0          # (seeds, steps): off-diagonal zeroed
    assert (fired.any(axis=0) & ~fired.all(axis=0)).any()


def test_qd_projection_decides_the_fallback_per_seed(monkeypatch):
    """Seed 0 has a negative diagonal, seed 1 a positive diagonal but a
    negative eigenvalue, seed 2 is PSD: one eigvalsh call sees the whole
    stack, and seed 0 stays caught by its diagonal."""
    cfg = A2KFConfig()
    M, zero = np.eye(2), np.zeros((2, 2))
    Cgamma = np.array([[[-1.0, 0.2], [0.2, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]])
    seen, eigvalsh = [], a2kf.eigvalsh

    def counted(a):
        seen.append(a.shape[0] if a.ndim == 3 else 1)
        return eigvalsh(a)

    monkeypatch.setattr(a2kf, "eigvalsh", counted)
    stacked = a2kf._project_Qd(Cgamma, zero, M, zero, cfg.qd_floor)
    assert seen == [3]
    assert [stacked[s, 0, 1] == 0.0 for s in range(3)] == [True, True, False]
    for s in range(3):
        assert np.array_equal(stacked[s], a2kf._project_Qd(Cgamma[s], zero, M, zero, cfg.qd_floor))


MATRICES = ("A", "B", "E", "G", "Q", "C", "R")


def as_callables(model):
    """The same plant with every matrix wrapped as a constant callable."""
    return SystemModel(dt=model.dt, **{n: (lambda _arg, M=getattr(model, n)(0): M) for n in MATRICES})


def varying(model):
    """The plant with A(t), C(k) and R(k) that change every step."""
    mats = {n: getattr(model, n)(0) for n in MATRICES}
    A, C, R = mats.pop("A"), mats.pop("C"), mats.pop("R")
    return SystemModel(
        dt=model.dt,
        A=lambda t: A + 0.5 * np.sin(3.0 * t) * np.eye(len(A)),
        C=lambda k: C + 0.02 * np.cos(k) * np.ones_like(C),
        R=lambda k: R * (1.0 + 0.5 * np.sin(k) ** 2),
        **mats,
    )


PLANTS = {"arrays": lambda model: model, "callables": as_callables, "varying": varying}


# the plant given as arrays is test_stacked_path_equals_per_seed_steps with case 1
@pytest.mark.parametrize("n_seeds, plant", list(itertools.product(SEEDS, ("callables", "varying"))))
def test_callable_models_equal_per_seed_steps(n_seeds, plant):
    cfg = benchmark_case(1, duration=1.0, seeds=SEEDS[n_seeds], estimators=("r4skf", "a2kf", "uio"))
    cfg = replace(cfg, model=PLANTS[plant](cfg.model))
    assert not cfg.model.time_invariant
    if plant == "varying":
        m = cfg.model
        assert not (np.array_equal(m.A(0.0), m.A(m.dt)) or np.array_equal(m.C(1), m.C(2)) or np.array_equal(m.R(1), m.R(2)))
    assert_equals_reference(cfg)


@pytest.mark.parametrize("n_seeds, plant", list(itertools.product(SEEDS, ("arrays", "callables"))))
def test_onestep_equals_per_seed_steps(n_seeds, plant):
    signals = (
        SignalSpec(kind="step", t_on=0.2, t_off=0.6, amplitude=0.5),
        SignalSpec(kind="windowed_sine", t_on=0.1, t_off=0.9, amplitude=0.3, f0=2.0),
    )
    cfg = ScenarioConfig(
        model=PLANTS[plant](square_test_model()), signals=signals, duration=1.0, seeds=SEEDS[n_seeds],
        x0_true=np.zeros(2), x0_hat=np.ones(2), estimators=("onestep", "r4skf", "uio"),
    )
    assert_equals_reference(cfg)


def test_stacked_one_step_estimate_solves_each_seed():
    C = np.array([[1.5, 0.4], [-0.2, 0.9]])
    y = np.random.default_rng(0).standard_normal((5, 2))
    stacked = onestep.one_step_estimate(y, C)
    assert all(np.array_equal(stacked[s], onestep.one_step_estimate(y[s], C)) for s in range(5))
    assert all(np.array_equal(stacked[s], np.linalg.solve(C, y[s])) for s in range(5))


def one_channel_scenario(seeds):
    """The 2-state YAML plant with a single output and a single unknown input,
    where the 1 x 1 products take numpy's dot and syrk special cases."""
    doc = {
        "schema": 1,
        "model": {
            "A": [[0.0, 1.0], [-2.0, -0.5]], "B": [[0.0], [1.0]], "E": [[1.0], [0.5]],
            "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0]],
            "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-5]], "dt": 0.01,
        },
        "scenario": {
            "duration": 1.0, "seeds": list(seeds), "x0_true": [0.0, 0.0], "x0_hat": [0.5, -0.5],
            "signals": [{"kind": "windowed_sine", "t_on": 0.2, "t_off": 1.2, "amplitude": 0.5, "f0": 2.0}],
            "estimators": ["r4skf", "a2kf", "uio"],
        },
    }
    return doc


@pytest.mark.parametrize("n_seeds", sorted(SEEDS))
def test_one_output_one_input_yaml_model(tmp_path, n_seeds):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(one_channel_scenario(SEEDS[n_seeds])))
    cfg = config.load_scenario(path)
    assert cfg.model.time_invariant and cfg.model.n_y == cfg.model.n_d == 1
    assert_equals_reference(cfg)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_call_per_step_for_all_seeds(monkeypatch):
    names = ("predict_no_input", "predict_with_input", "update")
    counts = {name: count_calls(monkeypatch, r4skf, name) for name in names}
    windows = count_calls(monkeypatch, a2kf, "innovation_covariance")
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2, 3))
    run_scenario(cfg)
    assert {name: len(c) for name, c in counts.items()} == dict.fromkeys(names, cfg.n_steps)
    assert len(windows) == cfg.n_steps


def test_kalman_gain_names_the_first_refused_matrix_of_a_stack():
    P = np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    C, R = np.eye(2), np.zeros((2, 2))
    with pytest.raises(IllConditionedError) as info:
        r4skf.kalman_gain(P, C, R)
    assert info.value.index == 1
    P[2, 0, 0] = np.nan
    P[1] = np.eye(2)
    with pytest.raises(np.linalg.LinAlgError) as info:
        r4skf.kalman_gain(P, C, R)
    assert info.value.index == 2
    K, _ = r4skf.kalman_gain(P[[0, 3]], C, np.eye(2))
    assert all(np.array_equal(K[i], r4skf.kalman_gain(P[s], C, np.eye(2))[0]) for i, s in enumerate((0, 3)))


def test_a_stacked_error_names_the_first_failing_seed(monkeypatch):
    kalman_gain, steps = r4skf.kalman_gain, []

    def fail_on_step_3(P, C, R):
        steps.append(1)
        if len(steps) == 3:
            exc = IllConditionedError("refused")
            exc.index = 1
            raise exc
        return kalman_gain(P, C, R)

    monkeypatch.setattr(r4skf, "kalman_gain", fail_on_step_3)
    cfg = benchmark_case(1, duration=0.5, seeds=(8, 6, 7), estimators=("a2kf",))
    with pytest.raises(IllConditionedError, match=r"^a2kf, seed 6, step 3: refused"):
        run_scenario(cfg)


def diverging_scenario(seeds):
    """An unstable plant driven by huge process noise: the truth overflows."""
    model = SystemModel(
        A=1000.0 * np.eye(2), B=np.zeros((2, 1)), E=np.array([[1.0], [0.0]]), G=np.eye(2),
        C=np.eye(2), Q=1e300 * np.eye(2), R=1e-6 * np.eye(2), dt=0.01,
    )
    return ScenarioConfig(
        model=model, signals=(SignalSpec(),), duration=2.0, seeds=seeds,
        x0_true=np.zeros(2), x0_hat=np.zeros(2), estimators=("r4skf",),
    )


def first_diverged_step(cfg, seed):
    """The step at which a per-step Euler-Maruyama loop first leaves the finite numbers."""
    m, rng, dt = cfg.model, np.random.default_rng(seed), cfg.model.dt
    Lq, x = np.linalg.cholesky(m.Q(0)), np.zeros(m.n_x)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.n_steps):
            w = Lq @ rng.standard_normal(m.n_w) / np.sqrt(dt)
            x = x + dt * (m.A(0) @ x) + m.G(0) @ w * dt
            if not np.isfinite(x).all():
                return k + 1
            rng.standard_normal(m.n_y)
    return None


def test_diverging_truth_names_seed_and_step():
    cfg = diverging_scenario(seeds=(5, 4))
    step = first_diverged_step(cfg, 5)
    assert step is not None and 1 < step < cfg.n_steps
    with pytest.raises(FloatingPointError, match=rf"^truth, seed 5, step {step}: "):
        run_scenario(cfg)
    with pytest.raises(FloatingPointError, match=rf"^truth, seed 5, step {step}: "):
        sim.generate_truth(cfg, 5)


def test_diverging_truth_exits_2_without_traceback(tmp_path, capsys):
    doc = copy.deepcopy(one_channel_scenario((5,)))
    doc["model"].update(A=[[1000.0, 0.0], [0.0, 1000.0]], Q=[[1e300, 0.0], [0.0, 1e300]])
    doc["scenario"]["duration"] = 2.0
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"truth, seed 5, step \d+: ", err) and "Traceback" not in err


# values the CSV writers must render exactly as f"{v:.6g}" does
AWKWARD = np.array([-1.25, -0.0, 0.0, 1e-300, 1e300, -1e300, 123456789.0, 1.0 / 3.0, -7e-5])


def awkward_result():
    cfg = benchmark_case(1, duration=0.05, seeds=(1,))
    K, model = cfg.n_steps, cfg.model
    rng = np.random.default_rng(0)

    def block(*shape):
        return rng.choice(AWKWARD, size=shape)

    truth = sim.TruthTrajectory(
        t=np.arange(K + 1) * model.dt, x=block(K + 1, model.n_x), d=block(K, model.n_d),
        y=block(K, model.n_y), u=np.zeros((K, model.n_u)),
    )
    runs = {
        "r4skf": EstimatorRun(x_hat=block(K, model.n_x), d_hat=block(K, model.n_d), gamma=block(K, model.n_y)),
        "a2kf": EstimatorRun(
            x_hat=block(K, model.n_x), d_hat=block(K, model.n_d), gamma=block(K, model.n_y), Qd_diag=block(K, model.n_d),
        ),
    }
    rmse_mean = {est: {"x": block(model.n_x), "d": block(model.n_d)} for est in runs}
    return sim.ScenarioResult(config=cfg, truths={1: truth}, runs={1: runs}, rmse_per_seed={}, rmse_mean=rmse_mean)


def reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else f"{v:.6g}" for v in row])


@pytest.mark.parametrize("est", ["r4skf", "a2kf"])
def test_timeseries_csv_bytes_equal_a_csv_writer(tmp_path, est):
    result = awkward_result()
    truth, run = result.truths[1], result.runs[1][est]
    sim.write_timeseries_csv(tmp_path / "got.csv", result, est)
    with open(tmp_path / "got.csv", newline="") as fh:
        header = next(csv.reader(fh))
    rows = [
        [truth.t[k + 1], *truth.x[k + 1], *run.x_hat[k], *truth.d[k], *run.d_hat[k]]
        + (list(run.Qd_diag[k]) if run.Qd_diag is not None else [])
        for k in range(result.config.n_steps)
    ]
    reference_csv(tmp_path / "want.csv", header, rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    for text in (b"-0,", b"1e-300", b"1e+300", b"-1e+300"):
        assert text in got


def test_summary_csv_bytes_equal_a_csv_writer(tmp_path):
    result = awkward_result()
    sim.write_summary_csv(tmp_path / "got.csv", {"case 1, short": result})
    with open(tmp_path / "got.csv", newline="") as fh:
        header = next(csv.reader(fh))
    rows = [["case 1, short", est, *result.rmse_mean[est]["x"], *result.rmse_mean[est]["d"]] for est in ("r4skf", "a2kf")]
    reference_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
