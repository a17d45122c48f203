"""The filters share one implementation of each recursion piece (rank-checked
extraction gain, Kalman gain, Joseph update) and the harness one truth
simulator. These tests pin outputs recorded before the pieces were shared,
bit for bit, and check the errors the shared pieces raise.
"""

import numpy as np
import pytest

from uikf import cdekf, r4skf, sim, uio
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.checks import square_test_model
from uikf.errors import IllConditionedError, RankConditionError
from uikf.model import discretize, moore_penrose_pinv
from uikf.r4skf import FilterState
from uikf.sim import ScenarioConfig, SignalSpec

# pinned rows: outputs after steps 250 and 350 of 3.5 s runs
ROWS = [249, 349]

TRUTH = {
    1: {
        "x": np.array([
            [0.014767425708082727, -0.14157164790951693, 0.0647706905059013, 0.007198999465376613],
            [0.43396800207904496, -0.4697257855848209, 0.1220320084663897, 0.126432145231485],
        ]),
        "y": np.array([
            [0.014535792791512507, -0.14166797839448017, 0.00690932019867638],
            [0.4338267895411297, -0.46960828283882916, 0.1266863403451544],
        ]),
    },
    2: {
        "x": np.array([
            [-0.007234711573910762, -0.02580015770725955, 0.010538848523783543, -0.0015147652037277692],
            [0.16727194590690303, 0.029754216995542104, 0.08595951648529185, 0.020264174431833402],
        ]),
        "y": np.array([
            [-0.007466344490480981, -0.025896488192222785, -0.0018044444704280022],
            [0.1671307333689878, 0.029871719741533853, 0.02051836954550281],
        ]),
    },
    3: {
        "x": np.array([
            [0.014767425708082727, -0.14157164790951693, 0.0647706905059013, 0.007198999465376613],
            [0.43396800207904496, -0.4697257855848209, 0.1220320084663897, 0.126432145231485],
        ]),
        "y": np.array([
            [0.012451096542380536, -0.1425349527591493, 0.004302206798374283],
            [0.4325558766998925, -0.46855075812490343, 0.12897409636817908],
        ]),
    },
}

RUNS = {
    "r4skf": {
        "x_hat": np.array([
            [0.014534854911849637, -0.14166745943621542, 0.06449105389437235, 0.007150729614186108],
            [0.4338280339721807, -0.4696089714995622, 0.1204528147766749, 0.12636599288026065],
        ]),
        "d_hat": np.array([
            [-0.04834293382123672, 0.404375585530085],
            [0.49661527675063016, -0.3986936058420303],
        ]),
        "gamma": np.array([
            [0.0003630060600572811, -0.004089891867105677, -0.0003344452957328289],
            [0.0021292866080849238, 0.005136844790175288, 0.0004437902954108064],
        ]),
        "Pd_diag": np.array([
            [0.0062372931616545635, 0.0023012763266834478],
            [0.006237293112719645, 0.0023012763243819823],
        ]),
    },
    "a2kf": {
        "x_hat": np.array([
            [0.014842070442769738, -0.14137157298614042, 0.06455113571208212, 0.0071482752458911355],
            [0.4338682367137463, -0.46978255834267457, 0.12050878229056439, 0.12636339562953333],
        ]),
        "d_hat": np.array([
            [-0.0071718962038109235, 0.39121496801716316],
            [0.5012497526948365, -0.3936820139447512],
        ]),
        "gamma": np.array([
            [-0.0005364963098363137, -0.000530380433799077, -0.00033250873591590593],
            [-7.566999973024346e-05, 0.00031023548781200505, 0.00044588482009472186],
        ]),
        "Qd_diag": np.array([
            [0.004724794045791075, 0.0010852466488084137],
            [0.0034091709452934494, 4.979521295368189e-05],
        ]),
    },
    "uio": {
        "x_hat": np.array([
            [0.014535792791512507, -0.14166797839448017, 3.624207960853219, 0.0069093201986763775],
            [0.4338267895411297, -0.46960828283882916, 2.901852105809367, 0.1266863403451544],
        ]),
        "d_hat": np.array([
            [-0.4527022763977195, 0.32339439646063406],
            [0.1806552377217369, -0.46196611588162795],
        ]),
        "gamma": np.array([
            [-0.002003475352764777, -0.004289380573181817, -0.0358412041987334],
            [0.0002801628762030828, 0.00498091914275306, -0.027323660684991785],
        ]),
    },
}

ONESTEP = {
    "x_hat": np.array([
        [0.5797442494432075, -0.007028624106384389],
        [0.6346730533120529, 0.08396927341470965],
    ]),
    "d_hat": np.array([
        [-1.751220088899763, 0.5428804863414366],
        [-0.1584090506668301, 0.06361144952147374],
    ]),
    "gamma": np.array([
        [-0.01751220088899763, 0.005428804863414366],
        [-0.0015840905066683009, 0.0006361144952147374],
    ]),
}


@pytest.mark.parametrize("case", [1, 2, 3])
def test_generate_truth_is_unchanged(case):
    truth = sim.generate_truth(benchmark_case(case, duration=3.5, seeds=(1,)), 1)
    assert np.array_equal(truth.x[[k + 1 for k in ROWS]], TRUTH[case]["x"])
    assert np.array_equal(truth.y[ROWS], TRUTH[case]["y"])


def test_run_scenario_outputs_are_unchanged():
    cfg = benchmark_case(1, duration=3.5, seeds=(1,), estimators=("r4skf", "a2kf", "uio"))
    runs = sim.run_scenario(cfg).runs[1]
    for est, pinned in RUNS.items():
        for field, want in pinned.items():
            assert np.array_equal(getattr(runs[est], field)[ROWS], want), (est, field)


def test_onestep_runner_is_unchanged():
    signals = (
        SignalSpec(kind="step", t_on=1.0, t_off=2.0, amplitude=0.5),
        SignalSpec(kind="windowed_sine", t_on=0.5, t_off=3.0, amplitude=0.3, f0=1.0),
    )
    cfg = ScenarioConfig(
        model=square_test_model(), signals=signals, duration=3.5, seeds=(2,),
        x0_true=np.zeros(2), x0_hat=np.ones(2), estimators=("onestep",),
    )
    run = sim.run_scenario(cfg).runs[2]["onestep"]
    for field, want in ONESTEP.items():
        assert np.array_equal(getattr(run, field)[ROWS], want), field


def test_simulate_is_the_truth_generator():
    cfg = benchmark_case(2, duration=0.5, seeds=(4,))
    truth = sim.generate_truth(cfg, 4)
    x, y = sim.simulate(cfg.model, cfg.x0_true, truth.d, [np.random.default_rng(4)])
    assert np.array_equal(x[0], truth.x)
    assert np.array_equal(y[0], truth.y)


def test_unknown_input_gain_is_the_pseudo_inverse():
    model = square_test_model()
    dm = discretize(model, 0.0)
    C = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 1.0]])
    assert np.array_equal(r4skf.unknown_input_gain(C, dm.E_d), moore_penrose_pinv(C @ dm.E_d))


def test_joseph_update_with_the_kalman_gain_is_the_short_form():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    P = M @ M.T + np.eye(3)
    C = rng.standard_normal((2, 3))
    R = 0.1 * np.eye(2)
    K, _ = r4skf.kalman_gain(P, C, R)
    P_post = r4skf.joseph_update(P, K, C, R)
    assert np.allclose(P_post, (np.eye(3) - K @ C) @ P, atol=1e-12)
    assert np.array_equal(P_post, P_post.T)


def test_cd_four_step_rejects_singular_innovation_covariance():
    # no prior uncertainty, no process noise and a noise-free second output: S = diag(1, 0)
    model = NonlinearModel(
        f=lambda x, u, t: np.zeros(2), h=lambda x: x, E=np.array([[1.0], [0.0]]),
        G=np.eye(2), Q=np.zeros((2, 2)), R=np.diag([1.0, 0.0]), dt=0.01,
    )
    state = FilterState(
        x_hat=np.zeros(2), P=np.zeros((2, 2)), d_hat=np.zeros(1), Pd=np.eye(1),
        gamma=np.zeros(2), k=0,
    )
    with pytest.raises(IllConditionedError):
        cdekf.cd_four_step(state, np.zeros(1), np.zeros(2), model)


def test_observer_step_rejects_rank_deficient_C_E_d():
    model = square_test_model()
    dm = discretize(model, 0.0)
    C = np.array([[1.0, 0.0], [0.0, 0.0]])  # the second input direction is invisible
    obs = uio.initial_observer_state(np.zeros(2), model.n_d)
    with pytest.raises(RankConditionError):
        uio.observer_step(obs, np.zeros(2), np.zeros(1), dm, C, np.eye(2))
