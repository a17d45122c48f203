"""The per-step reference path does no work that its outputs do not need:
the a2kf evaluates the model once per step without np.block, the four-step
report computes its stability matrices only when they are read, and the
singular-S check uses the eigenvalues of the symmetric S. These tests hold
each piece to what it replaced.
"""

import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, cdekf, checks, cli, r4skf, sim
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.cdekf import NonlinearModel
from uikf.errors import ConfigError, IllConditionedError
from uikf.model import DiscretizedModel, discretize, moore_penrose_pinv
from uikf.r4skf import RCOND_FLOOR


def time_varying_model():
    """The benchmark plant with callable A(t), C(k) and R(k)."""
    m = benchmark_model()
    A0, C0, R0 = m.A(0.0), m.C(0), m.R(0)
    return replace(
        m,
        A=lambda t: A0 * (1.0 + 0.1 * math.sin(t)),
        C=lambda k: C0 * (1.0 + 0.01 * math.cos(k / 7.0)),
        R=lambda k: R0 * (1.0 + 0.5 * math.sin(k / 3.0)),
    )


PLANTS = {"benchmark": benchmark_model, "time-varying": time_varying_model}


def reference_augment(model, t, k, Qd=None):
    """The augmented blocks assembled with np.block."""
    A, B, E, G, Q = (np.asarray(M(t), dtype=float) for M in (model.A, model.B, model.E, model.G, model.Q))
    C = np.asarray(model.C(k), dtype=float)
    n_x, n_d, n_w, n_y = model.n_x, model.n_d, model.n_w, model.n_y
    Qd = np.zeros((n_d, n_d)) if Qd is None else Qd
    return a2kf.AugmentedModel(
        A_a=np.block([[A, E], [np.zeros((n_d, n_x)), np.zeros((n_d, n_d))]]),
        B_a=np.vstack([B, np.zeros((n_d, model.n_u))]),
        G_a=np.block([[G, np.zeros((n_x, n_d))], [np.zeros((n_d, n_w)), np.eye(n_d)]]),
        C_a=np.hstack([C, np.zeros((n_y, n_d))]),
        Q_a=np.block([[Q, np.zeros((n_w, n_d))], [np.zeros((n_d, n_w)), Qd]]),
    )


def reference_step_blocks(model, t, k):
    """What an a2kf step from time t to measurement k reads, with every model
    matrix evaluated on its own and the augmented blocks assembled with np.block."""
    am = reference_augment(model, t, k)
    dm = discretize(model, t)
    C, R = (np.asarray(M(k), dtype=float) for M in (model.C, model.R))
    Q, G = (np.asarray(M(t), dtype=float) for M in (model.Q, model.G))
    return dict(
        A_da=np.eye(model.n_x + model.n_d) + am.A_a * dm.dt, B_da=am.B_a * dm.dt, GQG=G @ Q @ G.T * dm.dt,
        C_a=am.C_a, R=R, CGQGC=C @ G @ Q @ G.T @ C.T * dm.dt, F_d=moore_penrose_pinv(C @ dm.E_d),
    )


def assert_fields_equal(got, want):
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("t, k", [(0.0, 1), (0.37, 38), (2.5, 251)])
def test_augment_equals_np_block(plant, t, k):
    model = PLANTS[plant]()
    assert_fields_equal(a2kf.augment(model, t, k), reference_augment(model, t, k))
    Qd = np.array([[2e-6, 1e-7], [1e-7, 3e-6]])
    assert_fields_equal(a2kf.augment(model, t, k, Qd=Qd), reference_augment(model, t, k, Qd=Qd))


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("t, k", [(0.0, 1), (0.37, 38), (2.5, 251)])
def test_step_blocks_equal_separate_evaluation(plant, t, k):
    model = PLANTS[plant]()
    assert (k - 1) * model.dt == t     # step k - 1 runs from t to measurement k
    terms = r4skf.step_terms(model, k - 1)
    got = dict(zip(("A_da", "B_da", "C_a"), terms.augmented), GQG=terms.GQG, R=terms.R, CGQGC=terms.CGQGC, F_d=terms.F_d)
    for name, want in reference_step_blocks(model, t, k).items():
        assert np.array_equal(got[name], want), name


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_step_blocks_evaluates_the_model_once(monkeypatch):
    """a2kf_step reads the model through r4skf.step_terms, as r4skf.step does,
    and never through augment. An a2kf_step and an r4skf.step at the same k
    read each matrix once in total, and a new k reads each once more."""
    model = time_varying_model()
    augments = count_calls(monkeypatch, a2kf, "augment")
    evaluations = {n: 0 for n in ("A", "B", "E", "G", "Q", "C", "R")}

    def counted(name):
        M = getattr(model, name)

        def call(arg):
            evaluations[name] += 1
            return M(arg)

        return call

    model = replace(model, **{n: counted(n) for n in evaluations})
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    a2kf_state = a2kf.initial_state(model, np.ones(model.n_x))
    r4skf_state = r4skf.initial_state(model, np.ones(model.n_x))
    evaluations.update(dict.fromkeys(evaluations, 0))   # building the model evaluated each once
    for k, reads in ((50, 1), (51, 2)):
        a2kf.a2kf_step(replace(a2kf_state, k=k), u, y, model)
        r4skf.step(replace(r4skf_state, k=k), u, y, model)
        assert evaluations == dict.fromkeys(evaluations, reads), k
    assert len(augments) == 0


def linear_nl_model(model):
    A, C = model.A(0.0), model.C(0)
    return NonlinearModel(
        f=lambda x, u, t: A @ x + model.B(0.0) @ u, h=lambda x: C @ x,
        E=model.E(0.0), G=model.G(0.0), Q=model.Q(0.0), R=model.R(0), dt=model.dt,
        F=lambda x, u, t: A, H=lambda x: C,
    )


def test_step_report_stability_matrices_of_r4skf_step():
    model = benchmark_model()
    state = r4skf.initial_state(model, np.ones(model.n_x))
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    _, rep = r4skf.step(state, u, y, model)

    dm = discretize(model, 0.0)
    C, R, Q, G = model.C(1), model.R(1), model.Q(0.0), model.G(0.0)
    F_d = r4skf.unknown_input_gain(C, dm.E_d)
    K = r4skf.gain_and_covariance(state.P, r4skf.StepTerms(dm, C, R, Q, G, F_d))[1]
    A_bar, A_tilde, *_ = r4skf.stability_matrices(dm, C, F_d, K)
    assert np.array_equal(rep.A_bar, A_bar)
    assert np.array_equal(rep.A_tilde, A_tilde)


def test_step_report_stability_matrices_of_cd_four_step():
    model = benchmark_model()
    nl = linear_nl_model(model)
    state = r4skf.initial_state(model, np.ones(model.n_x))
    _, rep = cdekf.cd_four_step(state, np.zeros(model.n_u), np.array([0.3, -0.2, 0.1]), nl)

    A, C, dt = model.A(0.0), model.C(0), model.dt
    dm = DiscretizedModel(
        A_d=np.eye(model.n_x) + A * dt, B_d=np.zeros((model.n_x, model.n_u)),
        E_d=nl.E * dt, dt=dt,
    )
    F_d = r4skf.unknown_input_gain(C, dm.E_d)
    K, _ = r4skf.kalman_gain(dm.A_d @ state.P @ dm.A_d.T + nl.G @ nl.Q @ nl.G.T * dt, C, nl.R)
    A_bar, A_tilde, *_ = r4skf.stability_matrices(dm, C, F_d, K)
    assert np.array_equal(rep.A_bar, A_bar)
    assert np.array_equal(rep.A_tilde, A_tilde)


def test_steps_compute_stability_matrices_only_when_read(monkeypatch):
    calls = count_calls(monkeypatch, r4skf, "stability_matrices")
    model = benchmark_model()
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    state = r4skf.initial_state(model, np.ones(model.n_x))
    for _ in range(5):
        state, rep = r4skf.step(state, u, y, model)
        _, cd_rep = cdekf.cd_four_step(state, u, y, linear_nl_model(model))
    assert len(calls) == 0
    _ = (rep.A_bar, cd_rep.A_tilde)
    assert len(calls) == 2


def test_a_report_forms_its_stability_matrices_once(monkeypatch):
    calls = count_calls(monkeypatch, r4skf, "stability_matrices")
    model = benchmark_model()
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    state = r4skf.initial_state(model, np.ones(model.n_x))
    _, rep = r4skf.step(state, u, y, model)
    _, cd_rep = cdekf.cd_four_step(state, u, y, linear_nl_model(model))
    for report in (rep, cd_rep):
        _ = (report.A_bar, report.A_tilde, report.A_tilde, report.A_bar)
    assert len(calls) == 2              # one per report


@pytest.mark.parametrize("model", [benchmark_model(), checks.square_test_model()], ids=["benchmark", "square"])
def test_a_stability_report_forms_its_stability_matrices_once(monkeypatch, model):
    calls = count_calls(monkeypatch, r4skf, "stability_matrices")
    checks.stability_report(model)
    assert len(calls) == 1


def random_spd(rng, n, cond):
    """Symmetric positive definite n x n matrix with 2-norm condition number cond."""
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate([[1.0, 1.0 / cond], 10.0 ** rng.uniform(-math.log10(cond), 0.0, n - 2)])
    S = (V * (w * 10.0 ** rng.uniform(-8, 2))) @ V.T
    return 0.5 * (S + S.T)


def refused(S):
    n = S.shape[0]
    try:
        r4skf.kalman_gain(np.zeros((n, n)), np.eye(n), S)
    except IllConditionedError:
        return True
    return False


def test_singular_check_agrees_with_the_condition_number():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(4000):
        S = random_spd(rng, int(rng.integers(2, 5)), 10.0 ** rng.uniform(10, 18))
        rcond = 1.0 / np.linalg.cond(S)
        if 0.5e-14 <= rcond <= 2e-14:
            continue
        assert refused(S) == (rcond < RCOND_FLOOR), rcond
        checked += 1
    assert checked > 3000


def test_singular_check_refuses_zero_and_nan():
    assert refused(np.zeros((2, 2)))
    assert refused(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        r4skf.kalman_gain(np.zeros((2, 2)), np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_uio_gain_of_wrong_shape_is_a_config_error():
    cfg = benchmark_case(1, duration=0.5, seeds=(1,), estimators=("uio",))
    with pytest.raises(ConfigError, match=r"uio\.gain"):
        replace(cfg, uio_gain=np.eye(3))
    replace(cfg, uio_gain=np.zeros((cfg.model.n_x, cfg.model.n_y)))


def test_uio_gain_of_wrong_shape_exits_1(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": {
            "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "E": [[1.0], [0.0]],
            "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]], "dt": 0.01,
        },
        "scenario": {
            "duration": 0.5, "seeds": [1], "x0_true": [0.0, 0.0], "x0_hat": [1.0, 1.0],
            "signals": [{"kind": "zero"}], "estimators": ["uio"],
        },
        "uio": {"gain": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "uio.gain" in err and "Traceback" not in err


def test_simulate_factors_constant_covariances_once(monkeypatch):
    calls = count_calls(monkeypatch, sim, "cov_factor")
    cfg = benchmark_case(1, duration=0.5, seeds=(1,))
    sim.generate_truth(cfg, 1)
    assert len(calls) == 2


def test_simulate_keeps_one_factor_per_matrix(monkeypatch):
    """A callable R(k) that returns a fresh array with the same values each
    step is factored once, and no returned array outlives its step: when R
    is called, no earlier value is alive."""
    calls = count_calls(monkeypatch, sim, "cov_factor")
    model = benchmark_model()
    R0 = model.R(0)
    returned, most_alive = [], [0]

    def fresh_R(k):
        most_alive[0] = max(most_alive[0], sum(ref() is not None for ref in returned))
        R = R0.copy()
        returned.append(weakref.ref(R))
        return R

    fresh = replace(model, R=fresh_R)
    returned.clear()
    cfg = replace(benchmark_case(1, duration=0.5, seeds=(1,)), model=fresh)
    x, y = sim.simulate(fresh, cfg.x0_true, sim.sample_signals(cfg), [np.random.default_rng(1)])
    assert len(calls) == 2
    assert most_alive[0] == 0
    want = sim.simulate(model, cfg.x0_true, sim.sample_signals(cfg), [np.random.default_rng(1)])
    assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])


def test_simulate_refactors_a_covariance_once_per_change(monkeypatch):
    """A callable R(k) whose value changes every third step gets one factor
    per change, and the truth equals a per-step draw with that R."""
    calls = count_calls(monkeypatch, sim, "cov_factor")
    model = benchmark_model()
    R0 = model.R(0)
    varying = replace(model, R=lambda k: R0 * (1.0 + k // 3))
    cfg = replace(benchmark_case(1, duration=0.5, seeds=(1,)), model=varying)
    x, y = (a[0] for a in sim.simulate(varying, cfg.x0_true, sim.sample_signals(cfg), [np.random.default_rng(1)]))
    changes = len({k // 3 for k in range(1, cfg.n_steps + 1)})
    assert len(calls) == 1 + changes
    z = np.random.default_rng(1).standard_normal((cfg.n_steps, model.n_w + model.n_y))[:, model.n_w:]
    want = [model.C(0) @ x[k + 1] + np.linalg.cholesky(varying.R(k + 1)) @ z[k] for k in range(cfg.n_steps)]
    assert np.array_equal(y, np.array(want))
