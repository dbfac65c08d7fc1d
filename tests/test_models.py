import copy
import weakref

import numpy as np
import pytest

from cpgsnn.encoder import CPGPEConfig
from cpgsnn.models import (
    ForecastModel,
    InputEncoder,
    ModelConfig,
    SpikeRNNLayer,
    SpikeTCNLayer,
)
from cpgsnn.neuron import LIFParams, MembraneState, lif_step, lif_step_values
from cpgsnn.tensor import ShapeError, SpikeTensor, Tensor, stack


def small_cpg():
    return CPGPEConfig(n_pairs=3, tau=100.0, eta=1.0, v_thres=0.5)


def make_config(**kwargs):
    defaults = dict(hidden_dim=8, n_layers=1, t_steps=3, seed=0)
    defaults.update(kwargs)
    if defaults.get("pe_mode") == "cpg" and "cpg" not in defaults:
        defaults["cpg"] = small_cpg()
    return ModelConfig(**defaults)


class TestInputEncoder:
    def test_output_is_binary_and_tiled(self, rng):
        enc = InputEncoder(2, 6, 4, LIFParams(), rng)
        out = enc(rng.normal(size=(3, 5, 2)))
        assert out.shape == (4, 3, 5, 6)
        assert set(np.unique(out.bits)) <= {0, 1}

    def test_normalization_stats(self, rng):
        enc = InputEncoder(2, 4, 2, LIFParams(), rng)
        history = rng.normal(loc=5.0, scale=3.0, size=(10, 6, 2))
        enc.fit_normalization(history)
        flat = history.reshape(-1, 2)
        assert np.allclose(enc.channel_mean, flat.mean(axis=0))
        assert np.allclose(enc.channel_std, flat.std(axis=0) + 1e-8)

    def test_rejects_non_finite(self, rng):
        enc = InputEncoder(1, 4, 2, LIFParams(), rng)
        bad = np.ones((2, 3, 1))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            enc(bad)


class TestSpikeRNNLayer:
    def test_hand_stepped_oracle(self, rng):
        """Single neuron, 3 steps: replay the exact recurrence by hand."""
        lif = LIFParams(beta=0.9, u_thr=1.0, v_reset=0.0)
        layer = SpikeRNNLayer(1, 1, lif, rng, norm=False)
        w_in = float(layer.w_in.weight.data[0, 0])
        b = float(layer.w_in.bias.data[0])
        w_rec = float(layer.w_rec.weight.data[0, 0])

        bits = np.array([1, 0, 1], dtype=np.uint8).reshape(3, 1, 1, 1)
        out = layer(SpikeTensor(bits))

        h, s_prev = 0.0, 0.0
        expected = []
        for t in range(3):
            current = bits[t, 0, 0, 0] * w_in + b + s_prev * w_rec
            _, s, h = lif_step_values(h, current, lif)
            expected.append(s)
            s_prev = s
        assert out.bits[:, 0, 0, 0].tolist() == expected

    def test_zero_recurrence_is_feedforward(self, rng):
        lif = LIFParams()
        layer = SpikeRNNLayer(2, 3, lif, rng)
        layer.w_rec.weight.data[:] = 0.0
        x = SpikeTensor((rng.random((3, 2, 4, 2)) < 0.5).astype(np.uint8))
        out1 = layer(x)
        # permuting positions permutes outputs identically (weight sharing)
        perm = np.array([3, 0, 2, 1])
        out2 = layer(SpikeTensor(x.bits[:, :, perm, :]))
        assert np.array_equal(out2.bits, out1.bits[:, :, perm, :])

    def test_shared_norm_updates_running_stats_once_per_step(self, rng):
        layer = SpikeRNNLayer(2, 3, LIFParams(), rng)
        layer.w_rec.weight.data[:] = 0.0  # current_t = x_t @ W_in + b
        bits = (rng.random((3, 2, 4, 2)) < 0.5).astype(np.uint8)
        layer(SpikeTensor(bits))
        m = layer.bn.momentum
        mean, var = np.zeros(3), np.ones(3)
        for t in range(3):
            drive = bits[t] @ layer.w_in.weight.data + layer.w_in.bias.data
            mean = (1 - m) * mean + m * drive.mean(axis=(0, 1))
            var = (1 - m) * var + m * drive.var(axis=(0, 1), ddof=1)
        assert np.allclose(layer.bn.running_mean, mean, rtol=0, atol=1e-12)
        assert np.allclose(layer.bn.running_var, var, rtol=0, atol=1e-12)

    def test_gradients_flow_to_both_weight_sets(self, rng):
        layer = SpikeRNNLayer(2, 4, LIFParams(beta=0.9), rng, norm=False)
        # scale weights up so spikes occur and the recurrent path is active
        layer.w_in.weight.data *= 4.0
        x = SpikeTensor(np.ones((3, 2, 3, 2), dtype=np.uint8))
        out = layer(x)
        out.to_tensor().sum().backward()
        assert np.abs(layer.w_in.weight.grad).sum() > 0
        assert np.abs(layer.w_rec.weight.grad).sum() > 0


def select(x, i, axis=0):
    """The slice of index i along `axis`, with that axis dropped; its
    backward adds into that slice of the parent's gradient."""
    index = (slice(None),) * axis + (i,)

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[index] += g

    return Tensor._make(x.data[index], (x,), backward)


def rnn_reference(layer, x):
    """SpikeRNNLayer composed from per-step nodes: select, the recurrent
    matmul and add, BatchNorm, lif_step, then stack."""
    t_steps, b, l, _ = x.shape
    d_out = layer.w_in.weight.shape[1]
    drive = layer.w_in(x.to_tensor())
    state = MembraneState(h=Tensor(np.zeros((b, l, d_out))))
    outs = []
    for t in range(t_steps):
        current = select(drive, t, 0)
        if outs:
            current = current + outs[-1] @ layer.w_rec.weight
        if layer.bn is not None:
            current = layer.bn(current)
        s, state = lif_step(state, current, layer.lif)
        outs.append(s)
    return stack(outs, axis=0)


# the recurrence axis, named in each case id
@pytest.mark.parametrize("axis", ["step"])
@pytest.mark.parametrize("norm,training", [(True, True), (True, False),
                                           (False, True)])
@pytest.mark.parametrize("t_steps", [1, 2, 3])
def test_rnn_scan_matches_per_slot_graph(axis, norm, training, t_steps):
    """The one-node scan equals the per-step composition it replaces."""
    rng = np.random.default_rng(t_steps)
    layer = SpikeRNNLayer(3, 4, LIFParams(beta=0.8, u_thr=0.7, v_reset=-0.1),
                          rng, norm)
    layer.w_in.weight.data *= 3.0
    layer.w_in.bias.data[:] = rng.normal(size=4)
    if norm:
        layer.bn.training = training
        layer.bn.running_mean = rng.normal(size=4)
        layer.bn.running_var = rng.uniform(0.5, 2.0, size=4)
        layer.bn.scale.data = rng.uniform(0.5, 1.5, size=4)
        layer.bn.shift.data = rng.normal(0.3, 0.5, size=4)
    twin = copy.deepcopy(layer)
    bits = (rng.random((t_steps, 2, 5, 3)) < 0.5).astype(np.float64)
    weights = rng.normal(size=(t_steps, 2, 5, 4))

    runs = []
    for model, forward in ((layer, lambda m, x: m(x).to_tensor()),
                           (twin, rnn_reference)):
        x = Tensor(bits, requires_grad=True)
        out = forward(model, SpikeTensor(x))
        (out * weights).sum().backward()
        params = [p.grad for _, p in model.parameters()]
        stats = [b.copy() for _, b in model.buffers()]
        runs.append((out.data, x.grad, params, stats))
    (out_a, gx_a, gp_a, st_a), (out_b, gx_b, gp_b, st_b) = runs

    assert 0 < out_b.sum() < out_b.size  # both branches exercised
    # same operations in the same order: equal to the last bit
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(gx_a, gx_b)
    for a, b in zip(gp_a, gp_b):  # W_rec gets no gradient from one slot
        assert (a is None and b is None) or np.array_equal(a, b)
    for a, b in zip(st_a, st_b):
        assert np.array_equal(a, b)


def test_rnn_scan_without_grad_builds_no_node(rng):
    layer = SpikeRNNLayer(3, 4, LIFParams(), rng)
    x = SpikeTensor((rng.random((2, 2, 5, 3)) < 0.5).astype(np.uint8))
    graded = layer(x).node
    for _, p in layer.parameters():
        p.requires_grad = False
    plain = layer(x).node
    assert graded._parents and plain._parents == ()
    assert np.array_equal(graded.data, plain.data)


class TestSpikeTCNLayer:
    def test_causality_perturbation(self, rng):
        """Flipping a bit at position p never changes outputs before p."""
        layer = SpikeTCNLayer(2, 3, kernel_size=3, dilation=1,
                              lif=LIFParams(), rng=rng)
        layer.bn.training = False
        x = (rng.random((2, 3, 8, 2)) < 0.5).astype(np.uint8)
        base = layer(SpikeTensor(x)).bits
        p = 4
        flipped = x.copy()
        flipped[:, :, p, :] ^= 1
        out = layer(SpikeTensor(flipped)).bits
        assert np.array_equal(out[:, :, :p, :], base[:, :, :p, :])

    def test_receptive_field(self, rng):
        layer = SpikeTCNLayer(2, 2, kernel_size=3, dilation=4,
                              lif=LIFParams(), rng=rng)
        assert layer.receptive_field == 9

    def test_span_longer_than_sequence_rejected(self, rng):
        layer = SpikeTCNLayer(2, 2, kernel_size=5, dilation=2,
                              lif=LIFParams(), rng=rng)
        with pytest.raises(ShapeError):
            layer(SpikeTensor(np.zeros((1, 2, 6, 2), dtype=np.uint8)))

    def test_kernel_size_one_is_pointwise(self, rng):
        layer = SpikeTCNLayer(2, 3, kernel_size=1, dilation=1,
                              lif=LIFParams(), rng=rng)
        layer.bn.training = False
        x = (rng.random((1, 2, 5, 2)) < 0.5).astype(np.uint8)
        out = layer(SpikeTensor(x)).bits
        perm = np.array([4, 2, 0, 1, 3])
        out_perm = layer(SpikeTensor(x[:, :, perm, :])).bits
        assert np.array_equal(out_perm, out[:, :, perm, :])


class TestForecastModel:
    def test_forward_shapes(self, rng):
        for backbone in ("rnn", "tcn"):
            model = ForecastModel(make_config(backbone=backbone), 2, 5)
            pred = model(rng.normal(size=(4, 10, 2)))
            assert pred.shape == (4, 5, 2)

    def test_seed_determinism(self, rng):
        history = rng.normal(size=(3, 8, 2))
        a = ForecastModel(make_config(seed=7), 2, 4)(history)
        b = ForecastModel(make_config(seed=7), 2, 4)(history)
        c = ForecastModel(make_config(seed=8), 2, 4)(history)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("pe_mode", ["none", "cpg", "float", "random"])
    def test_all_pe_modes_run(self, pe_mode, rng):
        model = ForecastModel(make_config(pe_mode=pe_mode), 2, 3)
        model.set_training(True)
        pred = model(rng.normal(size=(4, 10, 2)))
        assert pred.shape == (4, 3, 2)
        loss = (pred * pred).mean()
        loss.backward()

    def test_without_pe_output_is_permutation_invariant(self, rng):
        # shared weights + rate pooling over positions: shuffling the
        # history along the position axis cannot change the prediction
        model = ForecastModel(make_config(pe_mode="none"), 2, 3)
        history = rng.normal(size=(2, 10, 2))
        perm = rng.permutation(10)
        a = model(history)
        b = model(history[:, perm, :])
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_with_cpg_pe_output_is_position_sensitive(self, rng):
        model = ForecastModel(make_config(pe_mode="cpg"), 2, 3)
        model.set_training(True)  # batch stats are permutation-invariant
        history = rng.normal(size=(2, 10, 2))
        perm = np.roll(np.arange(10), 3)
        a = model(history)
        b = model(history[:, perm, :])
        assert not np.allclose(a.data, b.data, atol=1e-9)

    def test_rate_monotonicity(self, rng):
        # stronger inputs cannot lower the first-step spike count of the
        # encoder when all projection weights are positive
        enc = InputEncoder(1, 6, 3, LIFParams(), np.random.default_rng(0))
        enc.proj.weight.data = np.abs(enc.proj.weight.data)
        enc.proj.bias.data[:] = 0.0
        weak = enc(np.full((1, 4, 1), 0.5))
        strong = enc(np.full((1, 4, 1), 3.0))
        assert strong.bits.sum() >= weak.bits.sum()

    def test_parameter_accounting_cpg_delta(self):
        # adding the positional block costs exactly (D+2N)*D + D linear
        # parameters plus the 2*D batch-norm pair
        d, n = 8, 3
        base = ForecastModel(make_config(pe_mode="none", hidden_dim=d), 2, 3)
        with_pe = ForecastModel(
            make_config(pe_mode="cpg", hidden_dim=d, cpg=small_cpg()), 2, 3
        )
        delta = with_pe.n_parameters() - base.n_parameters()
        assert delta == (d + 2 * n) * d + d + 2 * d

    @pytest.mark.parametrize("pe_mode", ["cpg", "random"])
    def test_checkpoint_names(self, pe_mode):
        # the names checkpoints record; a rename stops old ones loading
        model = ForecastModel(make_config(pe_mode=pe_mode), 2, 3)
        assert [name for name, _ in model.parameters()] == [
            "encoder.proj.weight", "encoder.proj.bias",
            "pe_block.linear.weight", "pe_block.linear.bias",
            "pe_block.bn.scale", "pe_block.bn.shift",
            "layers.0.w_in.weight", "layers.0.w_in.bias",
            "layers.0.w_rec.weight", "layers.0.bn.scale",
            "layers.0.bn.shift", "head.weight", "head.bias",
        ]
        assert [name for name, _ in model.buffers()] == [
            "encoder.channel_mean", "encoder.channel_std",
            "pe_block.bn.running_mean", "pe_block.bn.running_var",
            "layers.0.bn.running_mean", "layers.0.bn.running_var",
        ]

    @pytest.mark.parametrize("pe_mode", ["none", "cpg"])
    def test_train_forward_graph_freed_with_its_outputs(self, rng, pe_mode):
        # no layer keeps its last forward graph once the caller drops it
        model = ForecastModel(make_config(pe_mode=pe_mode), 2, 3)
        model.set_training(True)
        pred = model(rng.normal(size=(4, 8, 2)))
        nodes, todo = [], [pred]
        while todo:
            node = todo.pop()
            if node._parents:
                nodes.append(weakref.ref(node))
                todo.extend(node._parents)
        assert len(nodes) > 5
        del pred, node, todo
        assert all(ref() is None for ref in nodes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(backbone="transformer")
        with pytest.raises(ValueError):
            ModelConfig(pe_mode="learned")
        with pytest.raises(TypeError):  # the readout knob was removed
            ModelConfig(readout="rate")


def test_overfit_tiny_dataset():
    """Sanity: a small model fits 4 windows far better than the mean."""
    from types import SimpleNamespace

    from cpgsnn.training import TrainConfig, predict, train
    from cpgsnn.data import WindowSplit

    t = np.arange(30, dtype=float)
    series = np.sin(2 * np.pi * t / 10.0).reshape(30, 1)
    hist = np.stack([series[i:i + 8] for i in range(4)])
    targ = np.stack([series[i + 8:i + 12] for i in range(4)])
    split = WindowSplit(hist, targ)
    dataset = SimpleNamespace(train=split, valid=split)

    model = ForecastModel(make_config(hidden_dim=16, t_steps=2), 1, 4)
    cfg = TrainConfig(lr=3e-2, epochs=150, batch_size=4, patience=150)
    train(model, dataset, cfg)
    pred = predict(model, hist)
    mse = float(((pred - targ) ** 2).mean())
    mean_mse = float(((targ - targ.mean()) ** 2).mean())
    assert mse < 0.5 * mean_mse


class TestMLPHead:
    def test_head_hidden_selects_two_layer_head(self):
        from cpgsnn.models import MLPHead

        cfg = make_config(head_hidden=16)
        model = ForecastModel(cfg, 2, 4)
        assert isinstance(model.head, MLPHead)
        out = model(np.zeros((3, 10, 2)) + 0.1)
        assert out.shape == (3, 4, 2)

    def test_negative_head_hidden_rejected(self):
        with pytest.raises(ValueError):
            make_config(head_hidden=-1)

    def test_head_is_nonlinear(self, rng):
        from cpgsnn.models import MLPHead

        head = MLPHead(3, 8, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        y2 = head(x * 2.0)
        y1 = head(x)
        # doubling the input does not double the output minus the bias
        bias = head(Tensor(np.zeros((1, 3))))
        assert not np.allclose(y2.data - bias.data, 2 * (y1.data - bias.data))

    def test_gradients_reach_first_layer(self, rng):
        from cpgsnn.models import MLPHead

        head = MLPHead(3, 8, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        (head(x) ** 2).sum().backward()
        assert np.abs(head.fc1.weight.grad).sum() > 0


class TestAbsoluteTimeModel:
    def test_offsets_change_cpg_predictions_only(self, rng):
        hist = rng.normal(size=(4, 12, 2))
        off_a = np.array([0, 5, 9, 2])
        off_b = np.array([3, 1, 7, 11])
        for mode, expect_change in (("none", False), ("cpg", True)):
            cfg = make_config(pe_mode=mode, hidden_dim=6)
            model = ForecastModel(cfg, 2, 4)
            model.set_training(True)  # fresh running stats give no spikes
            ya = model(hist, off_a).data
            yb = model(hist, off_b).data
            assert np.allclose(ya, yb) != expect_change

    def test_offset_zero_sample_sees_tick_zero_codes(self, rng):
        from cpgsnn.blocks import CPGPEBlock, _concat_codes, _window_codes

        cfg = small_cpg()
        codes = CPGPEBlock(3, cfg, rng=rng)._tick_codes(20)
        rows = _window_codes(codes, np.array([0]), seq_len=10)
        x = Tensor(np.zeros((2, 1, 10, 3)))
        pe = _concat_codes(x, rows).data[..., 3:]  # what the block sees
        assert np.array_equal(pe[0, 0], codes[:10])
        assert np.array_equal(pe[1, 0], codes[:10])
