"""Acceptance gate: end-to-end behavioral criteria for the whole package.

Each test prints one `[criterion NN] PASS/FAIL` line (run with `-s` to see
them) covering benchmark-ratio reproduction, statistical properties, and
the numerical-kernel guarantees.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from uikf import cdekf, checks, r4skf, sim
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.cdekf import NonlinearModel
from uikf.model import discretize, moore_penrose_pinv


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def cases():
    """All three benchmark cases with both filters, 20 seeds each."""
    results, runtimes = {}, {}
    for case in (1, 2, 3):
        t0 = time.perf_counter()
        results[case] = sim.run_scenario(benchmark_case(case))
        runtimes[case] = time.perf_counter() - t0
    return results, runtimes


def d_ratio(result, channel):
    return (result.rmse_mean["r4skf"]["d"][channel]
            / result.rmse_mean["a2kf"]["d"][channel])


def test_criterion_01_case1_input_rmse_ratios_and_runtime(cases):
    results, runtimes = cases
    r1 = d_ratio(results[1], 0)
    r2 = d_ratio(results[1], 1)
    ok = 1.8 <= r1 <= 4.0 and 2.0 <= r2 <= 4.5 and max(runtimes.values()) < 30.0
    report(1, "case-1 unknown-input RMSE ratios and runtime", ok,
           f"d1 ratio={r1:.3f}, d2 ratio={r2:.3f}, slowest case {max(runtimes.values()):.1f}s")


def test_criterion_02_case3_ratio_and_noise_magnification(cases):
    results, _ = cases
    r1 = d_ratio(results[3], 0)
    growth = [results[3].rmse_mean["r4skf"]["d"][j]
              / results[1].rmse_mean["r4skf"]["d"][j] for j in range(2)]
    ok = 6.0 <= r1 <= 15.0 and all(7.0 <= g <= 13.0 for g in growth)
    report(2, "case-3 ratio and 10x noise magnification", ok,
           f"d1 ratio={r1:.3f}, growth={growth[0]:.2f}/{growth[1]:.2f}")


def test_criterion_03_state_rmse_parity(cases):
    results, _ = cases
    worst = 0.0
    for case in (1, 2, 3):
        rr = results[case].rmse_mean["r4skf"]["x"]
        ra = results[case].rmse_mean["a2kf"]["x"]
        worst = max(worst, float(np.max(np.maximum(rr / ra, ra / rr))))
    report(3, "per-state RMSE parity within factor 2", worst <= 2.0,
           f"worst ratio={worst:.3f}")


def test_criterion_04_case2_inversion(cases):
    results, _ = cases
    r = 1.0 / d_ratio(results[2], 1)  # A2KF / R4SKF for the fast sine channel
    report(4, "case-2 fast-input advantage inverts", r > 1.0,
           f"A2KF/R4SKF d2 ratio={r:.3f}")


def test_criterion_05_unbiasedness():
    cfg = benchmark_case(1, duration=2.0, seeds=range(1, 201),
                         estimators=("r4skf",), rmse_skip=0.0)
    cfg = replace(cfg, x0_hat=np.zeros(4))
    res = sim.run_scenario(cfg)
    K = cfg.n_steps
    worst = 0.0
    for k in (K // 2, K):
        errs = np.array([res.runs[s]["r4skf"].x_hat[k - 1] - res.truths[s].x[k]
                         for s in cfg.seeds])
        se = errs.std(axis=0, ddof=1) / np.sqrt(len(cfg.seeds))
        worst = max(worst, float(np.max(np.abs(errs.mean(axis=0)) / se)))
    report(5, "estimation error unbiased at mid/full horizon", worst <= 4.0,
           f"max |mean|/SE={worst:.2f} over 200 seeds")


def test_criterion_06_gain_irrelevance():
    results = checks.check_gain_irrelevance()
    ok = all(r.passed for r in results)
    report(6, "square-case gain irrelevance under 100-unit initial error", ok,
           "; ".join(f"{r.name}={r.value:.3g}" for r in results))


def test_criterion_07_observer_equivalence():
    results = checks.check_observer_equivalence()
    ok = all(r.passed for r in results)
    report(7, "observer/filter equivalence (square and fixed-gain)", ok,
           "; ".join(f"{r.name}={r.value:.3g}" for r in results))


def test_criterion_08_stability_certificates(cases):
    results, _ = cases
    # square case: the predictor error matrix vanishes
    model = checks.square_test_model()
    dm = discretize(model, 0.0)
    C = np.asarray(model.C(0), dtype=float)
    F_d = moore_penrose_pinv(C @ dm.E_d)
    A_bar, *_ = r4skf.stability_matrices(dm, C, F_d, np.zeros((2, 2)))
    rho_sq = float(np.max(np.abs(np.linalg.eigvals(A_bar))))
    scale = float(np.max(np.abs(np.linalg.eigvals(dm.A_d))))
    square_ok = rho_sq <= 1e-12 * scale

    rep = checks.stability_report(benchmark_model())
    steady_ok = rep["rho_A_tilde"] < 1.0

    # empirical boundedness whenever the certificate holds: past the
    # transient no error excursion exceeds 10x the median error
    bounded = True
    ratio_worst = 0.0
    for seed in results[1].config.seeds:
        truth = results[1].truths[seed]
        run = results[1].runs[seed]["r4skf"]
        err = np.linalg.norm(run.x_hat[100:] - truth.x[1:][100:], axis=1)
        ratio = float(err.max() / np.median(err))
        ratio_worst = max(ratio_worst, ratio)
        bounded = bounded and ratio <= 10.0

    ok = square_ok and steady_ok and bounded
    report(8, "stability certificates and empirical boundedness", ok,
           f"rho_square={rho_sq:.2e}, rho_tilde={rep['rho_A_tilde']:.4f}, "
           f"worst excursion/median={ratio_worst:.2f}")


def test_criterion_09_input_error_covariance_consistency(cases):
    results, _ = cases
    res = results[1]
    k_lo, k_hi = 100, 200  # 1 s <= t <= 2 s: both input channels are off
    errs, preds = [], []
    for seed in res.config.seeds:
        run = res.runs[seed]["r4skf"]
        errs.append(run.d_hat[k_lo:k_hi] - res.truths[seed].d[k_lo:k_hi])
        preds.append(run.Pd_diag[k_lo:k_hi])
    errs = np.concatenate(errs)
    predicted = np.concatenate(preds).mean(axis=0)
    empirical = (errs ** 2).mean(axis=0)
    ratios = empirical / predicted
    ok = bool(np.all((ratios >= 0.75) & (ratios <= 1.25)))
    report(9, "predicted vs empirical unknown-input error variance", ok,
           f"empirical/predicted={ratios[0]:.3f}, {ratios[1]:.3f}")


def test_criterion_10_qd_adaptation_dynamics(cases):
    results, _ = cases
    res = results[1]
    # seed-averaged adapted variance of the step channel
    q11 = np.mean([res.runs[s]["a2kf"].Qd_diag[:, 0] for s in res.config.seeds], axis=0)
    t = res.truths[res.config.seeds[0]].t[1:]
    quiescent = float(np.median(q11[t < 2.0]))
    peak_on = float(q11[np.abs(t - 3.0) <= 0.2].max())
    peak_off = float(q11[np.abs(t - 7.0) <= 0.2].max())
    peaks_ok = peak_on > 10.0 * quiescent and peak_off > 10.0 * quiescent
    recon = checks.check_qd_reconstruction()[0]
    ok = peaks_ok and recon.passed
    report(10, "adapted Q^d spikes at input edges and exact round-trip", ok,
           f"peaks/quiescent={peak_on / quiescent:.1f}, {peak_off / quiescent:.1f}; "
           f"round-trip err={recon.value:.2e}")


def test_criterion_11_continuous_discrete_reduction():
    model = benchmark_model()
    A = np.asarray(model.A(0.0), dtype=float)
    C = np.asarray(model.C(0), dtype=float)
    nl = NonlinearModel(
        f=lambda x, u, t: A @ x,
        h=lambda x: C @ x,
        E=np.asarray(model.E(0.0), dtype=float),
        G=np.eye(4),
        Q=np.asarray(model.Q(0.0), dtype=float),
        R=np.asarray(model.R(0), dtype=float),
        dt=model.dt,
        F=lambda x, u, t: A,
        H=lambda x: C,
    )
    rng = np.random.default_rng(17)
    lin = r4skf.initial_state(model, np.full(4, 10.0))
    cd = r4skf.FilterState(x_hat=np.full(4, 10.0), P=10.0 * np.eye(4),
                           d_hat=np.zeros(2), Pd=np.eye(2),
                           gamma=np.zeros(3), k=0)
    worst = 0.0
    for _ in range(300):
        y = 0.1 * rng.standard_normal(3)
        lin, _ = r4skf.step(lin, np.zeros(2), y, model)
        cd, _ = cdekf.cd_four_step(cd, np.zeros(2), y, nl, method="euler")
        scale = 1.0 + float(np.abs(lin.x_hat).max())
        worst = max(worst, float(np.abs(cd.x_hat - lin.x_hat).max()) / scale)
    linear_ok = worst <= 1e-12

    # RK4 order: halving the step shrinks the error by >= 2^3
    A2 = np.array([[-1.0, 0.2], [0.0, -0.5]])
    x0 = np.array([1.0, -1.0])
    t_end = 0.4
    exact = np.array([
        np.exp(-t_end) * x0[0] + 0.4 * x0[1] * (np.exp(-0.5 * t_end) - np.exp(-t_end)),
        np.exp(-0.5 * t_end) * x0[1],
    ])

    def run(dt, steps):
        m = NonlinearModel(f=lambda x, u, t: A2 @ x, h=lambda x: x,
                           E=np.zeros((2, 1)), G=np.eye(2), Q=np.eye(2),
                           R=np.eye(2), dt=dt)
        x = x0
        for _ in range(steps):
            x = cdekf.propagate_state(x, np.zeros(1), np.zeros(1), m, method="rk4")
        return x

    e_h = np.linalg.norm(run(0.4, 1) - exact)
    e_h2 = np.linalg.norm(run(0.2, 2) - exact)
    order_ok = e_h / e_h2 >= 8.0
    report(11, "linear reduction and RK4 convergence order", linear_ok and order_ok,
           f"max scaled deviation={worst:.2e}, halving gain={e_h / e_h2:.1f}x")


def test_criterion_12_numerical_kernels():
    rng = np.random.default_rng(23)
    pinv_worst = 0.0
    for _ in range(50):
        M = rng.standard_normal((4, 2))
        P = moore_penrose_pinv(M)
        s = np.linalg.norm(M)
        pinv_worst = max(
            pinv_worst,
            float(np.abs(M @ P @ M - M).max()) / s,
            float(np.abs(P @ M @ P - P).max()) / max(1.0, np.linalg.norm(P)),
            float(np.abs((M @ P).T - M @ P).max()),
            float(np.abs((P @ M).T - P @ M).max()),
        )
    pinv_ok = pinv_worst <= 1e-10

    def fn(x):
        return np.array([np.sin(x[0]) + x[1] ** 2, x[0] * np.exp(0.2 * x[1])])

    def jac(x):
        return np.array([[np.cos(x[0]), 2 * x[1]],
                         [np.exp(0.2 * x[1]), 0.2 * x[0] * np.exp(0.2 * x[1])]])

    jac_worst = 0.0
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        ref = jac(x)
        dev = np.abs(cdekf.finite_difference_jacobian(fn, x) - ref).max()
        jac_worst = max(jac_worst, float(dev / max(1.0, np.abs(ref).max())))
    jac_ok = jac_worst <= 1e-5

    cfg = benchmark_case(1, duration=1.0, seeds=(5,))
    t1 = sim.generate_truth(cfg, 5)
    t2 = sim.generate_truth(cfg, 5)
    det_ok = all(np.array_equal(a, b) for a, b in
                 ((t1.x, t2.x), (t1.y, t2.y), (t1.d, t2.d)))

    report(12, "pseudo-inverse, Jacobian and determinism kernels",
           pinv_ok and jac_ok and det_ok,
           f"penrose={pinv_worst:.2e}, jacobian={jac_worst:.2e}, bitwise={det_ok}")
