import numpy as np
import pytest

from uikf import cdekf, r4skf
from uikf.benchmark import benchmark_model
from uikf.cdekf import NonlinearModel
from uikf.model import DiscretizedModel
from uikf.r4skf import FilterState


def linear_nl_model(model):
    """Wrap a linear SystemModel as a NonlinearModel with analytic Jacobians."""
    A = np.asarray(model.A(0.0), dtype=float)
    B = np.asarray(model.B(0.0), dtype=float)
    C = np.asarray(model.C(0), dtype=float)
    return NonlinearModel(
        f=lambda x, u, t: A @ x + B @ u,
        h=lambda x: C @ x,
        E=np.asarray(model.E(0.0), dtype=float),
        G=np.asarray(model.G(0.0), dtype=float),
        Q=np.asarray(model.Q(0.0), dtype=float),
        R=np.asarray(model.R(0), dtype=float),
        dt=model.dt,
        F=lambda x, u, t: A,
        H=lambda x: C,
    )


def fresh_state(n_x, n_d, x0=None, P0=None):
    x0 = np.zeros(n_x) if x0 is None else np.asarray(x0, dtype=float)
    P0 = 10.0 * np.eye(n_x) if P0 is None else P0
    return FilterState(
        x_hat=x0, P=P0, d_hat=np.zeros(n_d), Pd=np.eye(n_d),
        gamma=np.zeros(0), k=0,
    )


class TestPropagateState:
    def _static(self):
        return NonlinearModel(
            f=lambda x, u, t: np.zeros_like(x),
            h=lambda x: x,
            E=np.zeros((2, 1)),
            G=np.eye(2),
            Q=np.eye(2),
            R=np.eye(2),
            dt=0.1,
        )

    def test_zero_field_leaves_state_unchanged(self):
        m = self._static()
        x = np.array([1.0, -2.0])
        for method in ("euler", "rk4"):
            out = cdekf.propagate_state(x, np.zeros(1), np.zeros(1), m, method=method)
            assert np.array_equal(out, x)

    def test_scalar_exponential_decay_rk4(self):
        m = NonlinearModel(
            f=lambda x, u, t: -x, h=lambda x: x,
            E=np.zeros((1, 1)), G=np.eye(1), Q=np.eye(1), R=np.eye(1), dt=0.1,
        )
        out = cdekf.propagate_state(np.ones(1), np.zeros(1), np.zeros(1), m, method="rk4")
        assert out[0] == pytest.approx(np.exp(-0.1), abs=1e-7)

    def test_euler_matches_hand_formula(self):
        m = NonlinearModel(
            f=lambda x, u, t: -x, h=lambda x: x,
            E=np.ones((1, 1)), G=np.eye(1), Q=np.eye(1), R=np.eye(1), dt=0.1,
        )
        out = cdekf.propagate_state(np.array([2.0]), np.zeros(1), np.array([0.5]), m,
                                    method="euler")
        # x + dt * (-x + E d) = 2 + 0.1 * (-2 + 0.5)
        assert out[0] == pytest.approx(1.85, abs=1e-15)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            cdekf.propagate_state(np.ones(2), np.zeros(1), np.zeros(1),
                                  self._static(), method="heun")

    def test_divergence_raises(self):
        m = NonlinearModel(
            f=lambda x, u, t: x ** 2, h=lambda x: x,
            E=np.zeros((1, 1)), G=np.eye(1), Q=np.eye(1), R=np.eye(1), dt=1.0,
        )
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            cdekf.propagate_state(np.array([1e200]), np.zeros(1), np.zeros(1), m,
                                  method="euler")

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_state_raises(self, method, bad):
        # on the zero field the bad entry passes through every stage unchanged
        with pytest.raises(FloatingPointError, match="diverged to non-finite values"):
            cdekf.propagate_state(np.array([1.0, bad]), np.zeros(1), np.zeros(1), self._static(), method=method)

    def test_rk4_halving_gains_at_least_eight(self):
        # fourth-order method: halving the step should shrink the one-interval
        # error by about 16x; require a conservative 8x
        A = np.array([[-1.0, 0.2], [0.0, -0.5]])
        x0 = np.array([1.0, -1.0])

        def run(dt, steps):
            m = NonlinearModel(
                f=lambda x, u, t: A @ x, h=lambda x: x,
                E=np.zeros((2, 1)), G=np.eye(2), Q=np.eye(2), R=np.eye(2), dt=dt,
            )
            x = x0
            for _ in range(steps):
                x = cdekf.propagate_state(x, np.zeros(1), np.zeros(1), m, method="rk4")
            return x

        # exact solution of the triangular system at t = 0.4
        t = 0.4
        exact = np.array(
            [
                np.exp(-t) * x0[0]
                + 0.2 * x0[1] * (np.exp(-0.5 * t) - np.exp(-t)) / 0.5,
                np.exp(-0.5 * t) * x0[1],
            ]
        )
        err_h = np.linalg.norm(run(0.4, 1) - exact)
        err_h2 = np.linalg.norm(run(0.2, 2) - exact)
        assert err_h / err_h2 >= 8.0


class TestPropagateCovariance:
    def test_scalar_hand_value(self):
        P = cdekf.propagate_covariance(
            np.array([[1.0]]), np.array([[-1.0]]), np.zeros((1, 1)), np.zeros((1, 1)), 0.1
        )
        assert P[0, 0] == pytest.approx(0.81, abs=1e-15)

    def test_equals_lyapunov_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            P = M @ M.T + 0.1 * np.eye(3)
            F = rng.standard_normal((3, 3))
            G = rng.standard_normal((3, 2))
            Q = np.diag(rng.uniform(0.1, 1.0, size=2))
            dt = 0.05
            out = cdekf.propagate_covariance(P, F, G, Q, dt)
            I = np.eye(3)
            ref = (I + F * dt) @ P @ (I + F * dt).T + G @ Q @ G.T * dt
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_diffusion_only(self):
        P = np.diag([1.0, 2.0])
        out = cdekf.propagate_covariance(P, np.zeros((2, 2)), np.eye(2), np.eye(2), 0.1)
        assert np.allclose(out, P + 0.1 * np.eye(2))

    def test_is_the_reference_of_the_shared_prediction(self):
        # cd_four_step predicts P with r4skf.gain_and_covariance on
        # A_d = I + F dt; the continuous-time rule gives the same P_pred
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(200):
            n_x, n_w = rng.integers(2, 6), rng.integers(1, 4)
            M = rng.standard_normal((n_x, n_x))
            P = M @ M.T + 0.1 * np.eye(n_x)
            F, G = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_x, n_w))
            W = rng.standard_normal((n_w, n_w))
            Q, dt = W @ W.T, 10.0 ** rng.uniform(-4, -1)
            I = np.eye(n_x)
            dm = DiscretizedModel(A_d=I + F * dt, B_d=np.zeros((n_x, 1)), E_d=I[:, :1] * dt, dt=dt)
            terms = r4skf.StepTerms(dm, I, I, Q, G, r4skf.unknown_input_gain(I, dm.E_d))
            want = cdekf.propagate_covariance(P, F, G, Q, dt)
            got = r4skf.gain_and_covariance(P, terms)[0]
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert worst <= 1e-14

    def test_preserves_symmetric_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            P = M @ M.T
            F = rng.standard_normal((3, 3))
            out = cdekf.propagate_covariance(P, F, np.eye(3), 0.1 * np.eye(3), 0.05)
            assert np.array_equal(out, out.T)
            assert np.linalg.eigvalsh(out).min() >= -1e-12 * np.trace(out)


class TestJacobians:
    def test_linear_map_exact(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, -1.0]])
        J = cdekf.finite_difference_jacobian(lambda x: A @ x, np.array([0.3, -0.7]))
        assert np.abs(J - A).max() <= 1e-9

    def test_matches_analytic_on_random_points(self):
        def fn(x):
            return np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[1], np.exp(0.1 * x[2])])

        def jac(x):
            return np.array(
                [
                    [np.cos(x[0]), 2 * x[1], 0.0],
                    [x[1], x[0], 0.0],
                    [0.0, 0.0, 0.1 * np.exp(0.1 * x[2])],
                ]
            )

        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=3)
            J = cdekf.finite_difference_jacobian(fn, x)
            ref = jac(x)
            assert np.abs(J - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())

    def test_analytic_jacobians_used_when_given(self):
        flag = {"F": 0, "H": 0}

        def F(x, u, t):
            flag["F"] += 1
            return -np.eye(1)

        def H(x):
            flag["H"] += 1
            return np.eye(1)

        m = NonlinearModel(
            f=lambda x, u, t: -x, h=lambda x: x,
            E=np.eye(1), G=np.eye(1), Q=1e-6 * np.eye(1), R=1e-6 * np.eye(1),
            dt=0.01, F=F, H=H,
        )
        state = fresh_state(1, 1)
        cdekf.cd_four_step(state, np.zeros(1), np.zeros(1), m)
        assert flag["F"] >= 1 and flag["H"] >= 1


class TestLinearReduction:
    def test_euler_trajectory_identical_to_linear_filter(self):
        model = benchmark_model()
        nl = linear_nl_model(model)
        rng = np.random.default_rng(21)
        lin = r4skf.initial_state(model, np.full(4, 10.0))
        cd = fresh_state(4, 2, x0=np.full(4, 10.0))
        u = np.zeros(2)
        for k in range(300):
            y = 0.1 * rng.standard_normal(3)
            lin, _ = r4skf.step(lin, u, y, model)
            cd, _ = cdekf.cd_four_step(cd, u, y, nl, method="euler")
            scale = 1.0 + np.abs(lin.x_hat).max()
            assert np.abs(cd.x_hat - lin.x_hat).max() <= 1e-12 * scale
            assert np.abs(cd.d_hat - lin.d_hat).max() <= 1e-12 * (1.0 + np.abs(lin.d_hat).max())
            assert np.abs(cd.P - lin.P).max() <= 1e-12 * (1.0 + np.abs(lin.P).max())


class TestNonlinearTracking:
    def test_constant_input_recovered_on_mildly_nonlinear_plant(self):
        A = np.array([[-1.0, 0.2], [0.0, -0.5]])
        E = np.array([[1.0], [0.5]])
        d_true = 0.8
        dt = 0.01

        def f(x, u, t):
            return A @ x - 0.1 * np.sin(x)

        nl = NonlinearModel(
            f=f, h=lambda x: x, E=E, G=np.eye(2),
            Q=1e-8 * np.eye(2), R=1e-8 * np.eye(2), dt=dt,
        )

        # noise-free truth on a 10x finer grid
        x = np.zeros(2)
        state = fresh_state(2, 1, P0=np.eye(2))
        d_tail = []
        for k in range(600):
            for _ in range(10):
                x = x + (dt / 10.0) * (f(x, None, 0.0) + E.ravel() * d_true)
            state, _ = cdekf.cd_four_step(state, np.zeros(1), x.copy(), nl, method="rk4")
            if k >= 300:
                d_tail.append(state.d_hat[0])
        d_mean = np.mean(d_tail)
        assert abs(d_mean - d_true) <= 0.10 * d_true
