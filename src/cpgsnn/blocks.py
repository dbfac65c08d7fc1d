"""Pluggable positional-encoding blocks.

The spike-form block concatenates the positional spike matrix along the
feature axis and maps back to the input width through Linear -> BN -> SN,
so the output stays strictly binary.  Direct elementwise addition of two
spike matrices is structurally impossible here: binary payloads only meet
through concatenation or through real-valued pre-activations.

The block's input is one graph node: the window's rows of a float64
per-tick code table (kept by the block, rebuilt only to grow), gathered with
one fancy index and concatenated after the spikes.  The codes are constants,
so its backward routes only the spike slice.

`CPGLinearLayer` is the drop-in linear variant: two parallel projections
(input and positional code) are summed as real values before BN and the
spiking layer.  With block-structured weights it reproduces the concat
block bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .encoder import CPGPEConfig, float_pe, generate_pe, random_pe
from .neuron import LIFParams, SpikingLayer
from .nn import BatchNorm, Linear, Module
from .tensor import ShapeError, SpikeTensor, Tensor

_PE_CACHE: dict[tuple, SpikeTensor] = {}


def cached_pe(t_steps: int, seq_len: int, config: CPGPEConfig) -> SpikeTensor:
    """The positional tensor is input-independent; compute once per shape."""
    key = (
        t_steps, seq_len, config.n_pairs, config.tau, config.eta,
        config.v_thres, config.flatten_order,
    )
    if key not in _PE_CACHE:
        _PE_CACHE[key] = generate_pe(t_steps, seq_len, config)
    return _PE_CACHE[key]


def _broadcast_pe(pe: SpikeTensor, batch: int) -> SpikeTensor:
    t, _, l, w = pe.shape
    bits = np.broadcast_to(pe.bits, (t, batch, l, w))
    return SpikeTensor(bits.copy())


def _window_codes(table: np.ndarray, offsets: np.ndarray,
                  seq_len: int) -> np.ndarray:
    """(B, L, W) rows of a per-tick code table, one window per sample.

    Absolute-time indexing: sample b at position p reads the code of series
    tick offsets[b] + p, identically on every step.  Codes at any tick are
    independent of the horizon the table was generated for, so windows drawn
    against different horizons agree wherever they overlap.
    """
    offsets = np.asarray(offsets)
    if offsets.min() < 0:  # a negative index would wrap to the table's end
        raise ValueError(f"offsets must be >= 0, got {offsets.min()}")
    return table[offsets[:, None] + np.arange(seq_len)]


def _concat_codes(x: Tensor, codes: np.ndarray) -> Tensor:
    """[x | codes] along the feature axis; codes broadcast to x's leading
    shape and get no gradient."""
    lead = x.shape[:-1]
    d = x.shape[-1]
    data = np.concatenate(
        [x.data, np.broadcast_to(codes, lead + codes.shape[-1:])], axis=-1
    )

    def backward(g):
        x._accumulate(g[..., :d])

    return Tensor._make(data, (x,), backward)


def cached_tick_codes(horizon: int, config: CPGPEConfig) -> np.ndarray:
    """(horizon, width) per-tick CPG codes for absolute-time indexing."""
    return cached_pe(1, horizon, config).bits[0, 0]


class CPGPEBlock(Module):
    """Dimension-neutral positional block: (T,B,L,D) -> (T,B,L,D)."""

    def __init__(
        self,
        d_model: int,
        config: CPGPEConfig,
        lif: LIFParams | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.config = config
        self.linear = Linear(d_model + config.width, d_model, rng)
        self.bn = BatchNorm(d_model)
        self.sn = SpikingLayer(lif)
        self._table: np.ndarray | None = None

    def _tick_codes(self, horizon: int) -> np.ndarray:
        """Per-tick codes as float64, rebuilt only when a window needs more
        ticks than the table holds."""
        if self._table is None or len(self._table) < horizon:
            self._table = cached_tick_codes(horizon, self.config).astype(
                np.float64)
        return self._table

    def __call__(self, x: SpikeTensor,
                 offsets: np.ndarray | None = None) -> SpikeTensor:
        t, _, l, d = x.shape
        if d != self.d_model:
            raise ShapeError(
                f"block configured for D={self.d_model}, input has D={d}"
            )
        if offsets is None:
            codes = cached_pe(t, l, self.config).bits
        else:
            table = self._tick_codes(int(np.max(offsets)) + l)
            codes = _window_codes(table, offsets, l)
        y = self.linear(_concat_codes(x.to_tensor(), codes))
        return self.sn(self.bn(y))


class CPGLinearLayer(Module):
    """Linear layer with the positional code injected through a parallel map."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        config: CPGPEConfig,
        lif: LIFParams | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.d_in = d_in
        self.d_out = d_out
        self.config = config
        self.linear1 = Linear(d_in, d_out, rng)
        self.linear2 = Linear(config.width, d_out, rng, bias=False)
        self.bn = BatchNorm(d_out)
        self.sn = SpikingLayer(lif)

    def __call__(self, x: SpikeTensor) -> SpikeTensor:
        t, b, l, d = x.shape
        if d != self.d_in:
            raise ShapeError(f"expected D_in={self.d_in}, input has D={d}")
        pe = cached_pe(t, l, self.config)
        x1 = self.linear1(x.to_tensor())
        x2 = pe.to_tensor() @ self.linear2.weight  # (T,1,L,D_out), broadcast over B
        x3 = x1 + x2
        return self.sn(self.bn(x3))


class RandomPEBlock(Module):
    """Ablation baseline: same plumbing as CPGPEBlock, random fixed codes."""

    def __init__(
        self,
        d_model: int,
        width: int,
        spike_prob: float = 0.5,
        seed: int = 0,
        lif: LIFParams | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.width = width
        self.spike_prob = spike_prob
        self.seed = seed
        self.linear = Linear(d_model + width, d_model, rng)
        self.bn = BatchNorm(d_model)
        self.sn = SpikingLayer(lif)
        self._codes: np.ndarray | None = None
        self._table: np.ndarray | None = None

    def _pe_bits(self, t_steps: int, seq_len: int) -> np.ndarray:
        n = t_steps * seq_len
        if self._codes is None or self._codes.shape[0] != n:
            self._codes = random_pe(n, self.width, self.spike_prob, self.seed)
        return self._codes.reshape(t_steps, 1, seq_len, self.width)

    def _tick_codes(self, horizon: int) -> np.ndarray:
        # Bernoulli rows are drawn tick-major, so a longer table agrees
        # with a shorter one on their shared prefix.
        if self._table is None or len(self._table) < horizon:
            self._table = random_pe(
                horizon, self.width, self.spike_prob, self.seed
            ).astype(np.float64)
        return self._table

    def __call__(self, x: SpikeTensor,
                 offsets: np.ndarray | None = None) -> SpikeTensor:
        t, _, l, d = x.shape
        if d != self.d_model:
            raise ShapeError(
                f"block configured for D={self.d_model}, input has D={d}"
            )
        if offsets is None:
            codes = self._pe_bits(t, l)
        else:
            table = self._tick_codes(int(np.max(offsets)) + l)
            codes = _window_codes(table, offsets, l)
        y = self.linear(_concat_codes(x.to_tensor(), codes))
        return self.sn(self.bn(y))


class FloatPEBlock(Module):
    """Real-valued sinusoidal addition, usable only before the first spiking
    layer; its output is dense and deliberately not a SpikeTensor."""

    def __init__(self, d_model: int):
        if d_model % 2 != 0:
            raise ValueError(f"d_model must be even, got {d_model}")
        self.d_model = d_model

    def __call__(self, x_real: Tensor) -> Tensor:
        if isinstance(x_real, SpikeTensor):
            raise TypeError("FloatPEBlock operates on dense pre-spike values")
        l = x_real.shape[-2]
        pe = float_pe(np.arange(l), self.d_model)  # (L, D), broadcasts
        return x_real + pe
