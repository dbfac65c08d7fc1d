import numpy as np
import pytest

from cpgsnn import blocks
from cpgsnn.blocks import (CPGLinearLayer, CPGPEBlock, FloatPEBlock,
                           _concat_codes)
from cpgsnn.encoder import CPGPEConfig, float_pe, generate_pe, random_pe
from cpgsnn.tensor import ShapeError, SpikeTensor, Tensor


def random_spikes(rng, shape):
    return SpikeTensor((rng.random(shape) < 0.5).astype(np.uint8))


def small_config(**kwargs):
    defaults = dict(n_pairs=3, tau=100.0, eta=1.0, v_thres=0.5)
    defaults.update(kwargs)
    return CPGPEConfig(**defaults)


class TestCPGPEBlock:
    def test_shape_preserved_and_binary(self, rng):
        block = CPGPEBlock(8, small_config(), rng=rng)
        x = random_spikes(rng, (2, 3, 5, 8))
        y = block(x)
        assert y.shape == (2, 3, 5, 8)
        assert set(np.unique(y.bits)) <= {0, 1}

    def test_wrong_width_rejected(self, rng):
        block = CPGPEBlock(8, small_config(), rng=rng)
        with pytest.raises(ShapeError):
            block(random_spikes(rng, (2, 3, 5, 7)))

    def test_parameter_count(self, rng):
        # Linear (D+2N)*D + D, BatchNorm 2*D
        d, n = 8, 3
        block = CPGPEBlock(d, small_config(n_pairs=n), rng=rng)
        assert block.n_parameters() == (d + 2 * n) * d + d + 2 * d

    def test_gradients_reach_linear_weights(self, rng):
        block = CPGPEBlock(4, small_config(), rng=rng)
        x = random_spikes(rng, (2, 4, 3, 4))
        y = block(x)
        y.to_tensor().sum().backward()
        assert block.linear.weight.grad is not None
        assert np.abs(block.linear.weight.grad).sum() > 0

    def test_positional_channels_change_output(self, rng):
        # identical inputs at two positions must map to different
        # pre-activations whenever their codes differ
        cfg = small_config(n_pairs=4, tau=10.0)
        block = CPGPEBlock(4, cfg, rng=rng)
        block.bn.training = False
        x = SpikeTensor(np.zeros((1, 2, 6, 4), dtype=np.uint8))
        pe = generate_pe(1, 6, cfg)
        y = block.linear(
            Tensor(
                np.concatenate(
                    [x.bits.astype(float),
                     np.broadcast_to(pe.bits, (1, 2, 6, cfg.width)).astype(float)],
                    axis=3,
                )
            )
        )
        codes = pe.bits[0, 0]
        for p in range(5):
            if not np.array_equal(codes[p], codes[p + 1]):
                assert not np.allclose(y.data[0, 0, p], y.data[0, 0, p + 1])


class TestSpikeAdditionForbidden:
    def test_no_elementwise_add_on_spike_payloads(self, rng):
        x = random_spikes(rng, (1, 1, 2, 3))
        y = random_spikes(rng, (1, 1, 2, 3))
        with pytest.raises(TypeError):
            x + y


class TestCPGLinearEquivalence:
    def test_block_weights_reproduce_concat_block(self, rng):
        """Splitting the concat block's weight into two parallel maps must
        give identical real pre-activations to 1e-12."""
        d_in, d_out = 6, 5
        cfg = small_config(n_pairs=3)
        concat_block = CPGPEBlock(d_in, cfg, rng=rng)
        # reuse d_in == d_model for the concat block; build the linear
        # variant with the same split weights
        lin = CPGLinearLayer(d_in, d_in, cfg, rng=rng)
        w = concat_block.linear.weight.data
        lin.linear1.weight.data = w[:d_in].copy()
        lin.linear1.bias.data = concat_block.linear.bias.data.copy()
        lin.linear2.weight.data = w[d_in:].copy()

        x = random_spikes(rng, (2, 3, 4, d_in))
        pe = generate_pe(2, 4, cfg)

        from cpgsnn.tensor import concat_features
        from cpgsnn.blocks import _broadcast_pe

        x1 = concat_features(x, _broadcast_pe(pe, 3))
        pre_concat = concat_block.linear(x1.to_tensor()).data
        pre_linear = (
            lin.linear1(x.to_tensor()).data
            + (pe.to_tensor() @ lin.linear2.weight).data
        )
        assert np.abs(pre_concat - pre_linear).max() < 1e-12

    def test_forward_shape_and_binarity(self, rng):
        lin = CPGLinearLayer(6, 5, small_config(), rng=rng)
        y = lin(random_spikes(rng, (2, 3, 4, 6)))
        assert y.shape == (2, 3, 4, 5)
        assert set(np.unique(y.bits)) <= {0, 1}

    def test_wrong_input_width(self, rng):
        lin = CPGLinearLayer(6, 5, small_config(), rng=rng)
        with pytest.raises(ShapeError):
            lin(random_spikes(rng, (2, 3, 4, 7)))


class TestRandomPEBlock:
    """The random-code baseline: CPGPEBlock with a `random_seed`."""

    def test_codes_fixed_across_calls(self, rng, monkeypatch):
        block = CPGPEBlock(4, small_config(), rng=rng, random_seed=3)
        a = block_codes(block, 2, 5, monkeypatch).copy()
        b = block_codes(block, 2, 5, monkeypatch)
        assert np.array_equal(a, b)

    def test_forward_binary(self, rng):
        block = CPGPEBlock(4, small_config(), rng=rng, random_seed=0)
        y = block(random_spikes(rng, (2, 3, 5, 4)))
        assert y.shape == (2, 3, 5, 4)
        assert set(np.unique(y.bits)) <= {0, 1}


def block_codes(block, t_steps, seq_len, monkeypatch):
    """The codes a block without offsets concatenates after its input."""
    seen = []

    def spy(x, codes):
        seen.append(codes)
        return _concat_codes(x, codes)

    monkeypatch.setattr(blocks, "_concat_codes", spy)
    block(random_spikes(np.random.default_rng(0),
                        (t_steps, 2, seq_len, block.d_model)))
    return seen[0]


@pytest.mark.parametrize("t_steps,seq_len", [(1, 6), (2, 4), (3, 7)])
def test_no_offset_codes_equal_generate_pe(t_steps, seq_len, rng,
                                           monkeypatch):
    cfg = small_config()
    block = CPGPEBlock(4, cfg, rng=rng)
    expected = generate_pe(t_steps, seq_len, cfg).bits
    assert np.array_equal(block_codes(block, t_steps, seq_len, monkeypatch),
                          expected)


@pytest.mark.parametrize("t_steps,seq_len", [(1, 6), (2, 4), (3, 7)])
def test_no_offset_random_codes_equal_random_pe(t_steps, seq_len, rng,
                                                monkeypatch):
    cfg = small_config()
    block = CPGPEBlock(4, cfg, rng=rng, random_seed=3)
    block._tick_codes(50)  # a longer table first: its prefix is read
    expected = random_pe(t_steps * seq_len, cfg.width, 0.5, 3).reshape(
        t_steps, 1, seq_len, cfg.width)
    assert np.array_equal(block_codes(block, t_steps, seq_len, monkeypatch),
                          expected)


class TestFloatPEBlock:
    def test_adds_sinusoidal_table(self, rng):
        block = FloatPEBlock(4)
        x = Tensor(rng.normal(size=(2, 3, 5, 4)))
        y = block(x)
        expected = x.data + float_pe(np.arange(5), 4)
        assert np.allclose(y.data, expected, atol=1e-15)

    def test_rejects_spike_input(self, rng):
        block = FloatPEBlock(4)
        with pytest.raises(TypeError):
            block(random_spikes(rng, (1, 1, 2, 4)))

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            FloatPEBlock(5)


class TestAbsoluteTimeOffsets:
    """Offset mode: codes indexed by absolute series tick, not window slot."""

    def test_cpg_slices_match_tick_code_table(self, rng):
        from cpgsnn.blocks import _window_codes

        config = small_config()
        codes = CPGPEBlock(4, config, rng=rng)._tick_codes(30)
        offsets = np.array([0, 7, 18])
        pe = _window_codes(codes, offsets, seq_len=12)
        assert pe.shape == (3, 12, config.width)
        for b, off in enumerate(offsets):
            assert np.array_equal(pe[b], codes[off:off + 12])

    def test_negative_offset_rejected(self, rng):
        block = CPGPEBlock(6, small_config(), rng=rng)
        with pytest.raises(ValueError):
            block(random_spikes(rng, (2, 2, 8, 6)), offsets=np.array([3, -1]))

    def test_cpg_tick_codes_prefix_consistent(self, rng):
        block = CPGPEBlock(4, small_config(), rng=rng)
        short = block._tick_codes(20).copy()
        long = block._tick_codes(50)
        assert np.array_equal(long[:20], short)

    def test_random_tick_codes_prefix_consistent(self, rng):
        block = CPGPEBlock(4, small_config(), rng=rng, random_seed=3)
        short = block._tick_codes(15).copy()
        long = block._tick_codes(40)
        assert np.array_equal(long[:15], short)

    def test_offsets_change_block_output(self, rng):
        from cpgsnn.neuron import LIFParams

        # low threshold so eval-mode pre-activations actually spike
        block = CPGPEBlock(6, small_config(), LIFParams(u_thr=0.1), rng)
        block.bn.training = False  # keep samples independent of batch stats
        x = random_spikes(rng, (2, 2, 8, 6))
        y0 = block(x, offsets=np.array([0, 0]))
        y1 = block(x, offsets=np.array([0, 13]))
        assert np.array_equal(y0.bits[:, 0], y1.bits[:, 0])
        assert not np.array_equal(y0.bits[:, 1], y1.bits[:, 1])

    def test_no_offsets_path_unchanged(self, rng):
        # omitting offsets falls back to shared window-relative codes
        block = CPGPEBlock(6, small_config(), rng=rng)
        x = random_spikes(rng, (2, 3, 8, 6))
        a = block(x)
        b = block(x, offsets=None)
        assert np.array_equal(a.bits, b.bits)

    def test_random_offsets_binary_output(self, rng):
        block = CPGPEBlock(5, small_config(n_pairs=4), rng=rng, random_seed=1)
        x = random_spikes(rng, (2, 4, 6, 5))
        y = block(x, offsets=np.array([3, 0, 11, 2]))
        assert set(np.unique(y.bits)) <= {0.0, 1.0}
