"""Lite spiking sequence models for desk-scale forecasting.

The backbones (recurrent and causal-dilated-convolution) operate position-
wise with shared weights, so without a positional encoding their feature
maps are permutation-equivariant along the sequence axis.  The readout
pools spike rates over both the step axis and the position axis before a
single non-spiking linear head, which keeps the head position-agnostic:
any positional awareness must come from the encoding under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import CPGPEBlock, FloatPEBlock
from .encoder import CPGPEConfig
from .neuron import LIFParams, SpikingLayer, _fire_and_reset
from .nn import BatchNorm, Linear, Module
from .tensor import (ShapeError, SpikeTensor, Tensor, repeat_leading,
                     shift_positions)

PE_MODES = ("none", "cpg", "float", "random")


@dataclass
class ModelConfig:
    backbone: str = "rnn"  # rnn | tcn
    hidden_dim: int = 32
    n_layers: int = 1
    t_steps: int = 4
    pe_mode: str = "none"
    head_hidden: int = 0  # 0 = linear head, > 0 = two-layer tanh head
    kernel_size: int = 3
    lif: LIFParams = field(default_factory=LIFParams)
    cpg: CPGPEConfig | None = None  # random codes take its width too
    seed: int = 0

    def __post_init__(self):
        if self.backbone not in ("rnn", "tcn"):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.pe_mode not in PE_MODES:
            raise ValueError(f"unknown pe_mode {self.pe_mode!r}")
        if self.head_hidden < 0:
            raise ValueError(f"head_hidden must be >= 0, got {self.head_hidden}")
        if self.pe_mode == "cpg" and self.cpg is None:
            self.cpg = CPGPEConfig()


class InputEncoder(Module):
    """Standardize -> linear projection -> repeat over steps -> spiking layer.

    The projection is the only real-valued computation before the spiking
    path; float-PE, when active, is added to the projection (pre-spike).
    """

    def __init__(self, in_channels: int, d_model: int, t_steps: int,
                 lif: LIFParams, rng: np.random.Generator,
                 float_pe_block: FloatPEBlock | None = None):
        self.in_channels = in_channels
        self.t_steps = t_steps
        self.proj = Linear(in_channels, d_model, rng)
        self.sn = SpikingLayer(lif)
        self.float_pe_block = float_pe_block
        self.channel_mean = np.zeros(in_channels)
        self.channel_std = np.ones(in_channels)

    def fit_normalization(self, history: np.ndarray, eps: float = 1e-8):
        flat = history.reshape(-1, history.shape[-1])
        self.channel_mean = flat.mean(axis=0)
        self.channel_std = flat.std(axis=0) + eps

    def __call__(self, history: np.ndarray) -> SpikeTensor:
        if not np.all(np.isfinite(history)):
            raise ValueError("non-finite history values")
        z = (history - self.channel_mean) / self.channel_std
        current = self.proj(Tensor(z))  # (B, L, D)
        if self.float_pe_block is not None:
            current = self.float_pe_block(current)
        seq = repeat_leading(current, self.t_steps)  # (T, B, L, D) view
        return self.sn(seq)


class SpikeRNNLayer(Module):
    """Recurrent spiking cell, unrolled over the step axis.

    I(t) = x_t @ W_in + s_(t-1) @ W_rec + b, with LIF membrane dynamics.
    W_rec = 0 reduces to a feedforward spiking layer.  The cell is shared
    across positions, so it carries no state between them.

    Input currents pass through a shared batch normalization before the
    membrane update (norm=True); sparse binary inputs otherwise produce
    sub-threshold currents at initialization and the layer never spikes.
    The normalization runs once per step, so in train mode its running
    statistics take T updates per forward.

    The layer is one graph node.  Its forward runs the steps in order (W_in,
    the recurrent term, the normalization and the LIF update, in place) and
    keeps, per step, the spikes, the surrogate slopes and the normalization's
    x_hat and std.  Its backward runs the BPTT of `neuron` through them in
    reverse step order, where the gradient of a step's spikes also takes the
    recurrent term's share, g_rec = gC_(t+1) @ W_rec^T, and then the W_in
    gradients over the whole sequence.  The recurrent term is skipped at the
    first step, where s_(t-1) = 0 contributes exactly nothing.  Without a
    live input or parameter the layer keeps nothing and returns a leaf.

    Each step writes s_(t-1) @ W_rec into its own output slot before the
    spikes.  The no-grad scan writes its currents and spike masks into
    `_scratch`, a (B, L, D) float64 and a bool buffer held across calls and
    reallocated only for a new shape, so it allocates only its output and
    the membrane.  Outputs are fresh arrays, but a layer is not reentrant.
    """

    def __init__(self, d_in: int, d_out: int, lif: LIFParams,
                 rng: np.random.Generator, norm: bool = True):
        self.w_in = Linear(d_in, d_out, rng)
        self.w_rec = Linear(d_out, d_out, rng, bias=False)
        self.bn = BatchNorm(d_out) if norm else None
        self.lif = lif
        self._scratch = (np.empty(0), np.empty(0, dtype=bool))

    def __call__(self, x: SpikeTensor) -> SpikeTensor:
        xt = x.to_tensor()
        w_in, w, bn, p = self.w_in, self.w_rec.weight, self.bn, self.lif
        parents = (xt, w_in.weight, w)
        if w_in.bias is not None:
            parents += (w_in.bias,)
        if bn is not None:
            parents += (bn.scale, bn.shift)
        live = any(t.requires_grad for t in parents)
        spikes = np.empty(xt.shape[:-1] + w.shape[1:])
        slopes = np.empty(spikes.shape) if live else None
        norm_saved = []  # (x_hat, std) per step
        training = bn is not None and bn.training
        h = np.zeros(spikes.shape[1:])
        if live:  # the normalization keeps each step's current as x_hat
            buf, fired = None, np.empty(h.shape, dtype=bool)
        else:
            if self._scratch[0].shape != h.shape:
                self._scratch = (np.empty(h.shape),
                                 np.empty(h.shape, dtype=bool))
            buf, fired = self._scratch
        for t in range(len(spikes)):
            current = w_in.forward_array(xt.data[t], out=buf)
            if t > 0:  # s_(t-1) @ W_rec, in the slot step t writes last
                current += np.matmul(spikes[t - 1], w.data, out=spikes[t])
            if bn is not None:
                current, x_hat, std = bn.normalize(current, keep_x_hat=live)
                norm_saved.append((x_hat, std))
            if not np.isfinite(current, out=fired).all():
                raise FloatingPointError("non-finite input current")
            h += current
            _fire_and_reset(h, fired, p, None if slopes is None else slopes[t])
            spikes[t] = fired
        if not live:
            return SpikeTensor(Tensor(spikes), binary=True)

        def backward(g):
            g_steps = np.empty(g.shape)
            gu = g_rec = None
            for t in range(len(g) - 1, -1, -1):
                gu_t = (g[t] if g_rec is None else g[t] + g_rec) * slopes[t]
                if gu is not None:
                    gu_t += gu * (p.beta * (1.0 - spikes[t]))
                gu = gu_t
                if bn is not None:
                    gu_t = bn.backward_arrays(gu_t, *norm_saved[t], training,
                                              True)
                g_steps[t] = gu_t
                if t > 0:
                    g_rec = gu_t @ w.data.T
                    if w.requires_grad:
                        w._accumulate(spikes[t - 1].reshape(-1, w.shape[0]).T
                                      @ gu_t.reshape(-1, w.shape[1]),
                                      owned=True)
            # W_in over the whole sequence
            gx = w_in.backward_arrays(xt.data, g_steps, xt.requires_grad)
            if gx is not None:
                xt._accumulate(gx, owned=True)

        return SpikeTensor(Tensor._make(spikes, parents, backward),
                           binary=True)


class SpikeTCNLayer(Module):
    """Causal dilated convolution over positions, then BN and spiking."""

    def __init__(self, d_in: int, d_out: int, kernel_size: int, dilation: int,
                 lif: LIFParams, rng: np.random.Generator):
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.taps = [Linear(d_in, d_out, rng, bias=(k == 0))
                     for k in range(kernel_size)]
        self.bn = BatchNorm(d_out)
        self.sn = SpikingLayer(lif)

    def __call__(self, x: SpikeTensor) -> SpikeTensor:
        t_steps, b, l, _ = x.shape
        span = (self.kernel_size - 1) * self.dilation
        if span >= l:
            raise ShapeError(
                f"kernel span {span + 1} exceeds sequence length {l}"
            )
        xt = x.to_tensor()
        y = None
        for k, tap in enumerate(self.taps):
            xk = shift_positions(xt, k * self.dilation, axis=2)
            yk = tap(xk)
            y = yk if y is None else y + yk
        return self.sn(self.bn(y))

    @property
    def receptive_field(self) -> int:
        return (self.kernel_size - 1) * self.dilation + 1


class MLPHead(Module):
    """Two-layer real-valued readout head with a tanh hidden layer.

    Operating on pooled statistics only, it stays position-agnostic; it
    exists because a purely linear head cannot turn pooled spike counts
    into the nonlinear functions of them that forecasting requires.
    """

    def __init__(self, d_in: int, d_hidden: int, d_out: int,
                 rng: np.random.Generator):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, d_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).tanh())


class ForecastModel(Module):
    """Encoder -> optional PE block -> spiking backbone -> pooled readout."""

    def __init__(self, config: ModelConfig, in_channels: int, l_pred: int):
        self.config = config
        self.in_channels = in_channels
        self.l_pred = l_pred
        rng = np.random.default_rng(config.seed)
        d = config.hidden_dim
        float_block = FloatPEBlock(d) if config.pe_mode == "float" else None
        self.encoder = InputEncoder(
            in_channels, d, config.t_steps, config.lif, rng, float_block
        )
        if config.pe_mode in ("cpg", "random"):
            random_seed = config.seed if config.pe_mode == "random" else None
            self.pe_block = CPGPEBlock(d, config.cpg or CPGPEConfig(),
                                       config.lif, rng, random_seed)
        else:
            self.pe_block = None
        self.layers = []
        for i in range(config.n_layers):
            if config.backbone == "rnn":
                self.layers.append(
                    SpikeRNNLayer(d, d, config.lif, rng)
                )
            else:
                self.layers.append(
                    SpikeTCNLayer(d, d, config.kernel_size, 2**i,
                                  config.lif, rng)
                )
        if config.head_hidden > 0:
            self.head = MLPHead(d, config.head_hidden,
                                l_pred * in_channels, rng)
        else:
            self.head = Linear(d, l_pred * in_channels, rng)

    def set_training(self, training: bool) -> None:
        for m in self._bn_modules():
            m.training = training

    def _bn_modules(self):
        out = []
        if self.pe_block is not None:
            out.append(self.pe_block.bn)
        for layer in self.layers:
            if getattr(layer, "bn", None) is not None:
                out.append(layer.bn)
        return out

    def backbone_spikes(self, history: np.ndarray,
                        offsets: np.ndarray | None = None) -> SpikeTensor:
        x = self.encoder(history)
        if self.pe_block is not None:
            x = self.pe_block(x, offsets)
        for layer in self.layers:
            x = layer(x)
        return x

    def readout(self, x: SpikeTensor) -> Tensor:
        """Reduce spikes over steps and positions, project to the horizon."""
        rate = x.to_tensor().mean(axis=0)  # (B, L, D) over steps
        pooled = rate.mean(axis=1)  # (B, D) over positions
        b = pooled.shape[0]
        y = self.head(pooled)
        return y.reshape(b, self.l_pred, self.in_channels)

    def __call__(self, history: np.ndarray,
                 offsets: np.ndarray | None = None) -> Tensor:
        """Forecast from history windows.

        When per-window series offsets are given, the positional block
        indexes its codes by absolute series tick rather than by position
        within the window, so windows taken at different points of the
        series receive different codes.
        """
        return self.readout(self.backbone_spikes(history, offsets))
