import numpy as np
import pytest

from cpgsnn.neuron import (
    LIFParams,
    MembraneState,
    SpikingLayer,
    lif_step,
    lif_step_values,
    spike,
    surrogate_grad,
)
from cpgsnn.tensor import Tensor


def make_state(shape=(1,)):
    return MembraneState(h=Tensor(np.zeros(shape)))


class TestLIFStep:
    def test_resting_neuron_stays_silent(self):
        params = LIFParams()
        s, state = lif_step(make_state(), Tensor([0.0]), params)
        assert s.data.item() == 0.0
        assert state.h.data.item() == 0.0

    def test_threshold_equality_fires(self):
        params = LIFParams(u_thr=1.0, v_reset=0.0)
        s, state = lif_step(make_state(), Tensor([1.0]), params)
        assert s.data.item() == 1.0
        assert state.h.data.item() == params.v_reset

    def test_first_spike_step_matches_recurrence_oracle(self):
        params = LIFParams(beta=0.9, u_thr=1.0, v_reset=0.0)
        i_c = 0.3
        # oracle: brute-force the recurrence U_k = beta*U_{k-1} + I
        u, k_oracle = 0.0, None
        for k in range(1, 200):
            u = params.beta * u + i_c
            if u >= params.u_thr:
                k_oracle = k
                break
        state = make_state()
        fired_at = None
        for k in range(1, 200):
            s, state = lif_step(state, Tensor([i_c]), params)
            if s.data.item() == 1.0:
                fired_at = k
                break
        assert fired_at == k_oracle

    def test_reset_correctness(self):
        params = LIFParams(beta=0.8, u_thr=1.0, v_reset=-0.3)
        s, state = lif_step(make_state(), Tensor([2.0]), params)
        assert s.data.item() == 1.0
        assert state.h.data.item() == params.v_reset

    def test_decay_correctness(self):
        params = LIFParams(beta=0.8, u_thr=1.0, v_reset=0.0)
        s, state = lif_step(make_state(), Tensor([0.5]), params)
        assert s.data.item() == 0.0
        assert state.h.data.item() == pytest.approx(0.8 * 0.5, abs=0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(FloatingPointError):
            lif_step(make_state(), Tensor([np.nan]), LIFParams())


class TestSurrogate:
    def test_value_at_origin(self):
        assert surrogate_grad(0.0, alpha=2.0) == pytest.approx(1.0)

    def test_tails_vanish_monotonically(self):
        u = np.linspace(0.0, 50.0, 200)
        v = surrogate_grad(u, alpha=2.0)
        assert np.all(np.diff(v) < 0)
        assert v[-1] < 1e-3
        assert np.allclose(surrogate_grad(-u, 2.0), v)  # even function

    def test_closed_form_point(self):
        # alpha=2, u=1: (alpha/2) / (1 + (pi/2 * 2)^2) = 1/(1+pi^2)
        expected = 1.0 / (1.0 + np.pi**2)
        assert surrogate_grad(1.0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.09200, abs=5e-6)

    def test_backward_equals_analytic_formula(self):
        u = Tensor([0.3, -1.2, 0.0], requires_grad=True)
        s = spike(u, alpha=2.0)
        s.sum().backward()
        assert np.allclose(u.grad, surrogate_grad(u.data, 2.0), atol=0)


class TestSpikingLayer:
    def test_zero_input_sequence(self):
        layer = SpikingLayer()
        out = layer(Tensor(np.zeros((4, 2, 3, 5))))
        assert out.shape == (4, 2, 3, 5)
        assert not out.bits.any()

    def test_constant_suprathreshold_input(self):
        params = LIFParams(beta=0.9, u_thr=1.0, v_reset=0.0)
        layer = SpikingLayer(params)
        out = layer(Tensor(np.full((4, 1, 1, 1), 1.0)))
        assert out.bits.all()  # spike at every step
        # hand-stepped: U=1 -> fire -> H=0, identically each step
        h = 0.0
        for _ in range(4):
            u = h + 1.0
            assert u >= params.u_thr
            h = params.v_reset

    def test_output_strictly_binary(self, rng):
        layer = SpikingLayer()
        out = layer(Tensor(rng.normal(size=(3, 2, 4, 6))))
        assert set(np.unique(out.bits)) <= {0, 1}

    def test_gradient_matches_hand_unrolled_bptt(self):
        # 2-step, 1-neuron: independently unrolled chain of surrogate factors
        params = LIFParams(beta=0.9, u_thr=1.0, v_reset=0.0, alpha=2.0)
        i1, i2 = 0.6, 0.7
        x = Tensor(np.array([i1, i2]).reshape(2, 1, 1, 1), requires_grad=True)
        out = SpikingLayer(params)(x)
        out.to_tensor().sum().backward()

        # oracle: forward trace
        u1 = i1
        s1 = 1.0 if u1 >= 1.0 else 0.0
        h1 = params.v_reset * s1 + (1 - s1) * params.beta * u1
        u2 = h1 + i2
        g1 = surrogate_grad(u1 - params.u_thr, params.alpha)
        g2 = surrogate_grad(u2 - params.u_thr, params.alpha)
        # dS1/dI1 = g1; dS2/dI1 = g2 * dU2/dI1 = g2 * beta*(1-s1) (detached reset)
        expected_d_i1 = g1 + g2 * params.beta * (1 - s1)
        expected_d_i2 = g2
        assert x.grad[0, 0, 0, 0] == pytest.approx(expected_d_i1, abs=1e-10)
        assert x.grad[1, 0, 0, 0] == pytest.approx(expected_d_i2, abs=1e-10)


def test_lif_params_validation():
    with pytest.raises(ValueError):
        LIFParams(beta=1.0)
    with pytest.raises(ValueError):
        LIFParams(u_thr=0.0, v_reset=0.0)
    with pytest.raises(ValueError):
        LIFParams(alpha=0.0)


def test_lif_step_values_matches_graph_step(rng):
    params = LIFParams(beta=0.85, u_thr=1.0, v_reset=-0.1)
    h = 0.0
    state = make_state()
    for _ in range(20):
        i = float(rng.normal())
        u, s, h = lif_step_values(h, i, params)
        sg, state = lif_step(state, Tensor([i]), params)
        assert sg.data.item() == s
        assert state.h.data.item() == pytest.approx(h, abs=1e-12)


PARAM_SETS = [
    LIFParams(),
    LIFParams(beta=0.5, u_thr=0.5, v_reset=0.0, alpha=4.0),
    LIFParams(beta=0.95, u_thr=1.2, v_reset=-0.3, alpha=1.0),
]


def lif_step_elementary(state, current, params):
    """lif_step composed from elementary tensor ops, one node per op."""
    u = state.h + current
    s = spike(u - params.u_thr, params.alpha)
    h_new = u * (params.beta * (1.0 - s.data)) + params.v_reset * s.data
    return s, MembraneState(h=h_new, step=state.step + 1)


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("t_steps", [1, 2, 5])
def test_spiking_layer_matches_lif_step_loop(params, t_steps):
    """The one-node BPTT sequence equals a step loop of lif_step."""
    rng = np.random.default_rng(t_steps)
    x0 = rng.normal(0.5, 1.0, size=(t_steps, 3, 4, 5))
    weights = rng.normal(size=x0.shape)  # varied upstream gradients

    x = Tensor(x0, requires_grad=True)
    out = SpikingLayer(params)(x)
    (out.to_tensor() * weights).sum().backward()

    currents = [Tensor(x0[t], requires_grad=True) for t in range(t_steps)]
    state = MembraneState(h=Tensor(np.zeros(x0.shape[1:])))
    loss = None
    for t, current in enumerate(currents):
        s, state = lif_step(state, current, params)
        assert np.array_equal(out.bits[t], s.data)
        term = (s * weights[t]).sum()
        loss = term if loss is None else loss + term
    loss.backward()

    assert 0 < out.bits.sum() < out.bits.size  # both branches exercised
    for t, current in enumerate(currents):
        assert np.abs(x.grad[t] - current.grad).max() <= 1e-12


@pytest.mark.parametrize("params", PARAM_SETS)
def test_lif_step_matches_elementary_composition(params):
    """The two-node step equals the per-op graph it replaces."""
    x0 = np.random.default_rng(6).normal(0.5, 1.0, (3, 4, 6))
    runs = []
    for step in (lif_step, lif_step_elementary):
        h0 = Tensor(np.full((4, 6), 0.3), requires_grad=True)
        currents = [Tensor(c, requires_grad=True) for c in x0]
        state = MembraneState(h=h0)
        outs = []
        for current in currents:
            s, state = step(state, current, params)
            outs.append(s)
        loss = (outs[0] + outs[1] * 2.0 + outs[2] * 3.0 + state.h).sum()
        loss.backward()
        runs.append(([o.data for o in outs], state.h.data, h0.grad,
                     [c.grad for c in currents]))
    (s_a, h_a, gh_a, gi_a), (s_b, h_b, gh_b, gi_b) = runs
    for a, b in zip(s_a, s_b):
        assert np.array_equal(a, b)
    assert np.array_equal(h_a, h_b)
    assert np.abs(gh_a - gh_b).max() <= 1e-12
    for a, b in zip(gi_a, gi_b):
        assert np.abs(a - b).max() <= 1e-12


NO_GRAD_PARAM_SETS = PARAM_SETS + [
    LIFParams(beta=0.7, u_thr=0.8, v_reset=0.2, alpha=3.0),
]


@pytest.mark.parametrize("params", NO_GRAD_PARAM_SETS)
@pytest.mark.parametrize("t_steps", [1, 2, 5])
def test_no_grad_paths_match_grad_paths(params, t_steps):
    """Without a live input both LIF forms build no node and reproduce the
    graph forms' spikes and membranes bit for bit."""
    rng = np.random.default_rng(10 + t_steps)
    x0 = rng.normal(0.5, 1.0, size=(t_steps, 3, 4, 5))
    x0[0, 0, 0] = params.u_thr  # exactly at threshold from rest

    graded = SpikingLayer(params)(Tensor(x0, requires_grad=True))
    plain = SpikingLayer(params)(Tensor(x0))
    assert graded.node._parents
    assert plain.node._parents == () and not plain.node.requires_grad
    assert plain.node.data.tobytes() == graded.node.data.tobytes()
    assert np.array_equal(plain.bits, graded.bits)
    assert plain.bits[0, 0, 0].all()
    assert 0 < plain.bits.sum() < plain.bits.size

    zeros = np.zeros(x0.shape[1:])
    state_g = MembraneState(h=Tensor(zeros))
    state_p = MembraneState(h=Tensor(zeros))
    for t in range(t_steps):
        s_g, state_g = lif_step(state_g, Tensor(x0[t], requires_grad=True),
                                params)
        s_p, state_p = lif_step(state_p, Tensor(x0[t]), params)
        assert s_p._parents == () and state_p.h._parents == ()
        assert s_p.data.tobytes() == s_g.data.tobytes()
        assert state_p.h.data.tobytes() == state_g.h.data.tobytes()
        assert state_p.step == state_g.step == t + 1
        assert np.array_equal(s_p.data, plain.bits[t])
