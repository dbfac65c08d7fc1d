import numpy as np
import pytest

from cpgsnn.oscillator import (
    OscillatorParams,
    OscillatorSolution,
    closed_form,
    constants_from_state,
    integrate_rk4,
    ode_residual,
    sinusoidal_pe_frequency,
    verify_sinusoidal_pe_is_solution,
)


class TestClosedForm:
    def test_unit_oscillator(self):
        p = OscillatorParams(a=1.0, b=0.0, c=1.0, d=0.0)
        t = np.linspace(0, 5, 100)
        x, y = closed_form(p, k1=1.0, k2=0.0, t=t)
        assert np.allclose(x, np.cos(t), atol=1e-12)
        assert np.allclose(y, -np.sin(t), atol=1e-12)

    def test_initial_condition(self):
        p = OscillatorParams(a=2.0, b=1.5, c=0.7, d=-0.3)
        x, y = closed_form(p, k1=0.4, k2=-1.1, t=0.0)
        assert float(x) == pytest.approx(0.4 + p.d / p.c)
        assert float(y) == pytest.approx(-1.1 - p.b / p.a)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(a=-1.0, b=0.0, c=1.0, d=0.0)
        with pytest.raises(ValueError):
            OscillatorParams(a=1.0, b=0.0, c=0.0, d=0.0)

    def test_against_rk4_from_same_start(self):
        # frozen case: a=4, c=1, b=2, d=3, k1=0.5, k2=-0.2, t=0.7
        p = OscillatorParams(a=4.0, b=2.0, c=1.0, d=3.0)
        x0, y0 = closed_form(p, 0.5, -0.2, 0.0)
        traj = integrate_rk4(p, float(x0), float(y0), t_end=0.7, dt=1e-4)
        x_ref, y_ref = closed_form(p, 0.5, -0.2, 0.7)
        assert abs(traj[-1, 1] - float(x_ref)) < 1e-8
        assert abs(traj[-1, 2] - float(y_ref)) < 1e-8


class TestRK4:
    def test_fixed_point(self):
        p = OscillatorParams(a=1.0, b=0.0, c=1.0, d=0.0)
        traj = integrate_rk4(p, 0.0, 0.0, t_end=1.0, dt=1e-2)
        assert np.abs(traj[:, 1:]).max() == 0.0

    def test_periodicity(self):
        p = OscillatorParams(a=1.0, b=0.0, c=1.0, d=0.0)
        dt = 2 * np.pi / 6000
        traj = integrate_rk4(p, 1.0, 0.0, t_end=2 * np.pi, dt=dt)
        assert abs(traj[-1, 1] - 1.0) < 1e-6
        assert abs(traj[-1, 2]) < 1e-6

    def test_matches_closed_form_over_interval(self, rng):
        for _ in range(5):
            p = OscillatorParams(
                a=rng.uniform(0.1, 10), b=rng.uniform(-5, 5),
                c=rng.uniform(0.1, 10), d=rng.uniform(-5, 5),
            )
            k1, k2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            x0, y0 = closed_form(p, k1, k2, 0.0)
            traj = integrate_rk4(p, float(x0), float(y0), t_end=10.0, dt=1e-3)
            x, y = closed_form(p, k1, k2, traj[:, 0])
            err = max(np.abs(traj[:, 1] - x).max(), np.abs(traj[:, 2] - y).max())
            assert err < 1e-6

    def test_bad_steps_rejected(self):
        p = OscillatorParams(a=1.0, b=0.0, c=1.0, d=0.0)
        with pytest.raises(ValueError):
            integrate_rk4(p, 0, 0, t_end=1.0, dt=0.0)

    def test_scalar_step_equals_vector_reference_exactly(self):
        """The float step keeps the vector form's operations and their
        order, so the two trajectories agree bit for bit."""
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a, c = rng.uniform(0.1, 10.0, 2)
            b, d = rng.uniform(-5.0, 5.0, 2)
            x0, y0 = rng.uniform(-2.0, 2.0, 2)
            p = OscillatorParams(a=a, b=b, c=c, d=d)
            traj = integrate_rk4(p, x0, y0, t_end=1.0, dt=2e-3)
            ref = rk4_vector_reference(p, x0, y0, t_end=1.0, dt=2e-3)
            assert np.array_equal(traj, ref)


def rk4_vector_reference(params, x0, y0, t_end, dt):
    """Classical RK4 with the state as a numpy 2-vector."""
    a, b, c, d = params.a, params.b, params.c, params.d

    def deriv(state):
        x, y = state
        return np.array([a * y + b, -c * x + d])

    n = int(round(t_end / dt))
    out = np.empty((n + 1, 3))
    state = np.array([x0, y0], dtype=np.float64)
    out[0] = (0.0, x0, y0)
    for i in range(1, n + 1):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * dt * k1)
        k3 = deriv(state + 0.5 * dt * k2)
        k4 = deriv(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = (i * dt, state[0], state[1])
    return out


class TestReparameterization:
    @pytest.mark.parametrize("k1,k2", [(0.7, 0.3), (-1.2, 0.5), (0.4, -0.9)])
    def test_amplitude_form_identity(self, k1, k2):
        p = OscillatorParams(a=3.0, b=1.0, c=0.5, d=-2.0)
        sol = OscillatorSolution(p, k1, k2)
        shift = sol.phase_shift()
        for t in np.linspace(0, 7, 50):
            x, y = closed_form(p, k1, k2, t)
            xa, ya = sol.eval_amplitude_form(t + shift)
            assert abs(float(x) - xa) < 1e-9
            assert abs(float(y) - ya) < 1e-9

    def test_singular_k2_zero_limit(self):
        p = OscillatorParams(a=2.0, b=0.0, c=2.0, d=0.0)
        for k1 in (1.5, -1.5):
            sol = OscillatorSolution(p, k1, 0.0)
            assert sol.phase_shift() == pytest.approx(
                np.copysign(np.pi / 2, k1) / p.omega
            )
            for t in np.linspace(0, 4, 20):
                x, y = closed_form(p, k1, 0.0, t)
                xa, ya = sol.eval_amplitude_form(t + sol.phase_shift())
                assert abs(float(x) - xa) < 1e-9
                assert abs(float(y) - ya) < 1e-9

    def test_amplitude_invariants(self):
        p = OscillatorParams(a=3.0, b=1.0, c=0.5, d=-2.0)
        sol = OscillatorSolution(p, 0.7, 0.3)
        assert sol.amplitude_x == pytest.approx(
            np.sqrt(0.7**2 + (p.a / p.c) * 0.3**2)
        )
        assert sol.amplitude_y == pytest.approx(
            np.sqrt((p.c / p.a) * 0.7**2 + 0.3**2)
        )


class TestFrequency:
    def test_zero_crossing_period(self):
        p = OscillatorParams(a=2.5, b=0.0, c=1.3, d=0.0)
        traj = integrate_rk4(p, 1.0, 0.0, t_end=30.0, dt=1e-3)
        x = traj[:, 1]
        crossings = np.nonzero((x[:-1] > 0) & (x[1:] <= 0))[0]
        periods = np.diff(traj[crossings, 0])
        expected = 2 * np.pi / p.omega
        assert np.abs(periods - expected).max() / expected < 1e-3

    def test_invariant_sample(self, rng):
        for _ in range(20):
            p = OscillatorParams(
                a=rng.uniform(0.1, 10), b=rng.uniform(-5, 5),
                c=rng.uniform(0.1, 10), d=rng.uniform(-5, 5),
            )
            k1, k2 = constants_from_state(p, rng.uniform(-1, 1), rng.uniform(-1, 1))
            x0, y0 = closed_form(p, k1, k2, 0.0)
            traj = integrate_rk4(p, float(x0), float(y0), t_end=10.0, dt=1e-3)
            x, y = closed_form(p, k1, k2, traj[:, 0])
            assert np.abs(traj[:, 1] - x).max() < 1e-6


class TestSinusoidalPE:
    def test_first_pair_residual(self):
        report = verify_sinusoidal_pe_is_solution(512, 0)
        assert report["max_residual"] < 1e-6

    def test_wrong_pairing_is_not_a_solution(self):
        report = verify_sinusoidal_pe_is_solution(512, 0)
        assert report["wrong_pairing_residual"] > 0.5 * report["omega"]

    def test_single_point_identity(self):
        # omega = 1: x'(0) = cos(0) = 1 = a * y(0)
        w = sinusoidal_pe_frequency(0, 512)
        assert w == 1.0
        p = OscillatorParams(a=w, b=0.0, c=w, d=0.0)
        res = ode_residual(
            p, lambda t: np.sin(w * t), lambda t: np.cos(w * t),
            np.array([0.0]),
        )
        assert res < 1e-8

    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError):
            verify_sinusoidal_pe_is_solution(511, 0)

    @pytest.mark.parametrize("i", [0, 1, 255])
    def test_high_and_low_pairs(self, i):
        report = verify_sinusoidal_pe_is_solution(512, i)
        assert report["max_residual"] < 1e-6
