"""Discrete-time leaky integrate-and-fire dynamics with arctangent surrogate.

Forward semantics per step:

    U = H_prev + I
    S = 1  iff  U >= u_thr          (spike at exact equality)
    H = v_reset * S + (1 - S) * beta * U

The backward pass replaces dS/dU by the arctangent surrogate evaluated at
U - u_thr.  The reset term's dependence on S is treated as non-differentiable:
gradient flows through beta * U only.

Both are written by hand rather than composed from elementary tensor ops,
and both update the membrane in place (`_fire_and_reset`), so a step
allocates little beyond the arrays it keeps.  `lif_step` makes two graph
nodes per step, the spike and the new membrane, each a child of the
previous membrane and the input current; it keeps the surrogate slopes and
derives the reset gate beta * (1 - S) from the spikes in its backward.
`SpikingLayer` makes one node per sequence: its forward loops over the
steps in numpy and keeps the spikes S_t and surrogate slopes sg_t, and its
backward runs backpropagation through time in reverse step order,

    gU_t = g_t * sg_t + gU_(t+1) * beta * (1 - S_t),      gU_(T+1) = 0,

where g_t is the gradient arriving at S_t and gU_t is both the gradient of
U_t and of the input current I_t (U_t = H_(t-1) + I_t).

No-grad path: when no input requires grad (as in ``training.predict``,
which turns it off on every parameter), both skip the surrogate slopes and
the closure and return leaf tensors.  Spikes and membranes are the same on
both paths, bit for bit: the same `U >= u_thr` test, and H = beta * U or
v_reset, which is what the gated sum beta * (1 - S) * U + v_reset * S gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import SpikeTensor, Tensor, _unbroadcast


@dataclass
class LIFParams:
    beta: float = 0.9
    u_thr: float = 1.0
    v_reset: float = 0.0
    alpha: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if self.u_thr <= self.v_reset:
            raise ValueError(
                f"u_thr ({self.u_thr}) must exceed v_reset ({self.v_reset})"
            )
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass
class MembraneState:
    """Temporal output H threaded between steps."""

    h: Tensor
    step: int = 0


def surrogate_grad(u, alpha: float):
    """(alpha/2) / (1 + ((pi/2) * alpha * u)^2), the stand-in for dS/dU."""
    out = np.array(u, dtype=np.float64)
    _surrogate_in_place(out, alpha)
    return out[()]  # a scalar for a scalar u


def _surrogate_in_place(u: np.ndarray, alpha: float) -> None:
    """u <- surrogate_grad(u, alpha), with the same operations."""
    u *= np.pi / 2.0 * alpha
    np.square(u, out=u)
    u += 1.0
    np.divide(alpha / 2.0, u, out=u)


def spike(u_shifted: Tensor, alpha: float) -> Tensor:
    """Heaviside forward at u_shifted >= 0, surrogate-gradient backward."""
    data = (u_shifted.data >= 0.0).astype(np.float64)
    sg = surrogate_grad(u_shifted.data, alpha)

    def backward(g):
        u_shifted._accumulate(g * sg)

    return Tensor._make(data, (u_shifted,), backward)


def _fire_and_reset(u: np.ndarray, fired: np.ndarray, params: LIFParams,
                    slope: np.ndarray | None = None) -> None:
    """In place: fired <- U >= u_thr, u <- the next H.

    With `slope` given, it first receives the surrogate slope at U - u_thr.
    """
    if slope is not None:
        np.subtract(u, params.u_thr, out=slope)
        _surrogate_in_place(slope, params.alpha)
    np.greater_equal(u, params.u_thr, out=fired)
    u *= params.beta
    np.copyto(u, params.v_reset, where=fired)


def lif_step(
    state: MembraneState, input_current: Tensor, params: LIFParams
) -> tuple[Tensor, MembraneState]:
    """One membrane update; returns (binary spikes, new state)."""
    if not np.all(np.isfinite(input_current.data)):
        raise FloatingPointError("non-finite input current")
    h, i = state.h, input_current
    if np.broadcast_shapes(h.shape, i.shape) != i.shape:
        raise ValueError(
            f"state shape {h.shape} incompatible with input {i.shape}"
        )
    live = h.requires_grad or i.requires_grad
    h_next = h.data + i.data  # U, then H in place
    fired = np.empty(h_next.shape, dtype=bool)
    sg = np.empty_like(h_next) if live else None
    _fire_and_reset(h_next, fired, params, sg)
    s = fired.astype(np.float64)
    if not live:
        return Tensor(s), MembraneState(h=Tensor(h_next), step=state.step + 1)

    def route(gu):
        if h.requires_grad:
            h._accumulate(_unbroadcast(gu, h.shape))
        if i.requires_grad:
            i._accumulate(gu)

    def spike_backward(g):
        route(g * sg)

    def membrane_backward(g):
        route(g * (params.beta * (1.0 - s)))  # detached reset gate

    spikes = Tensor._make(s, (h, i), spike_backward)
    h_new = Tensor._make(h_next, (h, i), membrane_backward)
    return spikes, MembraneState(h=h_new, step=state.step + 1)


def lif_step_values(h_prev: float, current: float, params: LIFParams):
    """Plain-float step for non-differentiable simulations.

    Returns (u, s, h_new).  Threshold comparison allows a tiny tolerance so
    that exact-equality crossings survive float rounding.
    """
    u = h_prev + current
    s = 1 if u >= params.u_thr - 1e-12 else 0
    h = params.v_reset * s + (1 - s) * params.beta * u
    return u, s, h


class SpikingLayer:
    """Applies LIF dynamics across the leading step axis of a sequence.

    State is reset to H = 0 at sequence start; a layer instance owns its
    membrane state during a forward pass and is not shareable mid-pass.
    """

    def __init__(self, params: LIFParams | None = None):
        self.params = params or LIFParams()

    def __call__(self, x_seq: Tensor) -> SpikeTensor:
        return self.forward(x_seq)

    def forward(self, x_seq: Tensor) -> SpikeTensor:
        """One graph node for the whole sequence; see the module docstring."""
        x = x_seq.data
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite input current")
        p = self.params
        spikes = np.empty(x.shape)  # x may be a broadcast view
        slopes = np.empty(x.shape) if x_seq.requires_grad else None
        h = np.zeros(x.shape[1:])
        fired = np.empty(h.shape, dtype=bool)
        for t in range(x.shape[0]):
            h += x[t]
            _fire_and_reset(h, fired, p,
                            None if slopes is None else slopes[t])
            spikes[t] = fired
        if slopes is None:
            return SpikeTensor(Tensor(spikes), binary=True)

        def backward(g):
            gx = np.empty_like(g)
            gu = None
            for t in range(g.shape[0] - 1, -1, -1):
                gu_t = g[t] * slopes[t]
                if gu is not None:
                    gu_t += gu * (p.beta * (1.0 - spikes[t]))
                gx[t] = gu = gu_t
            x_seq._accumulate(gx)

        return SpikeTensor(Tensor._make(spikes, (x_seq,), backward),
                           binary=True)
