"""Coupled linear oscillator: ODE, closed-form solution, and checks.

The system is

    x'(t) =  a * y(t) + b
    y'(t) = -c * x(t) + d        with a > 0, c > 0,

whose general solution is a sinusoid of angular frequency sqrt(a*c) around
the offset (d/c, -b/a).  Positive b, d is the biologically motivated regime
but is not enforced; the math holds for all reals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OscillatorParams:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise ValueError(f"require a > 0 and c > 0, got a={self.a}, c={self.c}")

    @property
    def omega(self) -> float:
        return math.sqrt(self.a * self.c)


@dataclass
class OscillatorSolution:
    """Amplitude/offset re-parameterization of the general solution."""

    params: OscillatorParams
    k1: float
    k2: float

    @property
    def amplitude_x(self) -> float:
        p = self.params
        return math.sqrt(self.k1**2 + (p.a / p.c) * self.k2**2)

    @property
    def amplitude_y(self) -> float:
        p = self.params
        return math.sqrt((p.c / p.a) * self.k1**2 + self.k2**2)

    @property
    def offset_x(self) -> float:
        return self.params.d / self.params.c

    @property
    def offset_y(self) -> float:
        return -self.params.b / self.params.a

    def phase_shift(self) -> float:
        """Time shift t' - t that turns (cos, sin) form into (A sin, A cos).

        Computed as atan2(k1, k2*sqrt(a/c)) / omega, which also covers the
        k2 = 0 singular case: the limit is +-(pi/2)/omega with the sign of k1.
        """
        p = self.params
        if self.k1 == 0.0 and self.k2 == 0.0:
            return 0.0
        return math.atan2(self.k1, self.k2 * math.sqrt(p.a / p.c)) / p.omega

    def eval_amplitude_form(self, t_shifted: float) -> tuple[float, float]:
        p = self.params
        w = p.omega
        x = self.amplitude_x * math.sin(w * t_shifted) + self.offset_x
        y = self.amplitude_y * math.cos(w * t_shifted) + self.offset_y
        return x, y


def closed_form(
    params: OscillatorParams, k1: float, k2: float, t
) -> tuple:
    """Exact state at time t for integration constants k1, k2."""
    a, b, c, d = params.a, params.b, params.c, params.d
    w = params.omega
    t = np.asarray(t, dtype=np.float64)
    x = k1 * np.cos(w * t) + k2 * math.sqrt(a / c) * np.sin(w * t) + d / c
    y = -k1 * math.sqrt(c / a) * np.sin(w * t) + k2 * np.cos(w * t) - b / a
    return x, y


def constants_from_state(params: OscillatorParams, x0: float, y0: float):
    """Invert the t=0 closed form: k1 = x0 - d/c, k2 = y0 + b/a."""
    return x0 - params.d / params.c, y0 + params.b / params.a


def integrate_rk4(
    params: OscillatorParams, x0: float, y0: float, t_end: float, dt: float
) -> np.ndarray:
    """Classical fixed-step RK4 trajectory; rows are (t, x, y)."""
    if dt <= 0 or t_end <= 0:
        raise ValueError(f"require dt > 0 and t_end > 0, got dt={dt}, t_end={t_end}")
    # Python floats, not 2-vectors: the same operations in the same order
    # (so the same rounding) as the vector form, without an array per stage.
    a, b, c, d = float(params.a), float(params.b), float(params.c), float(params.d)
    half, sixth = 0.5 * dt, dt / 6.0
    n = int(round(t_end / dt))
    x, y = float(x0), float(y0)
    xs, ys = [x], [y]
    for _ in range(n):
        k1x, k1y = a * y + b, -c * x + d
        x2, y2 = x + half * k1x, y + half * k1y
        k2x, k2y = a * y2 + b, -c * x2 + d
        x3, y3 = x + half * k2x, y + half * k2y
        k3x, k3y = a * y3 + b, -c * x3 + d
        x4, y4 = x + dt * k3x, y + dt * k3y
        k4x, k4y = a * y4 + b, -c * x4 + d
        x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
        xs.append(x)
        ys.append(y)
    out = np.empty((n + 1, 3))
    out[:, 0] = np.arange(n + 1) * dt
    out[:, 1] = xs
    out[:, 2] = ys
    return out


def ode_residual(
    params: OscillatorParams,
    x_of_t,
    y_of_t,
    t_grid: np.ndarray,
    fd_step: float = 1e-4,
) -> float:
    """Max residual of (x', y') vs the ODE right side, by central differences."""
    a, b, c, d = params.a, params.b, params.c, params.d
    t = np.asarray(t_grid, dtype=np.float64)
    dx = (x_of_t(t + fd_step) - x_of_t(t - fd_step)) / (2 * fd_step)
    dy = (y_of_t(t + fd_step) - y_of_t(t - fd_step)) / (2 * fd_step)
    r1 = np.abs(dx - (a * y_of_t(t) + b))
    r2 = np.abs(dy - (-c * x_of_t(t) + d))
    return float(max(r1.max(), r2.max()))


def sinusoidal_pe_frequency(i: int, d_model: int) -> float:
    """Angular frequency of sinusoidal-PE pair i in a width-d_model encoding."""
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    if not 0 <= i < d_model // 2:
        raise ValueError(f"pair index {i} out of range for d_model={d_model}")
    return 1.0 / 10000.0 ** (2.0 * i / d_model)


def verify_sinusoidal_pe_is_solution(
    d_model: int,
    i: int,
    t_grid: np.ndarray | None = None,
    fd_step: float = 1e-4,
) -> dict:
    """Check that (sin(w t), cos(w t)) solves the oscillator with a=c=w, b=d=0.

    Returns a JSON-serializable residual report including a negative control:
    the wrong pairing (cos, cos) must leave a large residual.
    """
    w = sinusoidal_pe_frequency(i, d_model)
    params = OscillatorParams(a=w, b=0.0, c=w, d=0.0)
    if t_grid is None:
        # cover at least one period of this pair, but stay numerically benign
        t_grid = np.linspace(0.0, min(2 * math.pi / w, 1e5), 2001)
    residual = ode_residual(
        params, lambda t: np.sin(w * t), lambda t: np.cos(w * t), t_grid, fd_step
    )
    control = ode_residual(
        params, lambda t: np.cos(w * t), lambda t: np.cos(w * t), t_grid, fd_step
    )
    return {
        "d_model": d_model,
        "pair_index": i,
        "omega": w,
        "fd_step": fd_step,
        "grid": [float(t_grid[0]), float(t_grid[-1]), int(len(t_grid))],
        "max_residual": residual,
        "wrong_pairing_residual": control,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2)
