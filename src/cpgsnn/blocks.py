"""Pluggable positional-encoding blocks.

The spike-form block concatenates the positional spike matrix along the
feature axis and maps back to the input width through Linear -> BN -> SN,
so the output stays strictly binary.  Direct elementwise addition of two
spike matrices is structurally impossible here: binary payloads only meet
through concatenation or through real-valued pre-activations.

Every code comes from one private float64 table of per-tick codes that a
block builds on its first call and only grows: row n is the CPG code of
tick n (`encoder.cpg_pe_at`) or, for the random-code baseline, row n of a
seeded Bernoulli matrix.  Two reads index it:

- without offsets, the paper's T x L code, the first T*L rows step-major:
  step s, position p reads tick s*L + p (equal to `encoder.generate_pe`);
- with per-window offsets, absolute time: sample b at position p reads
  tick offsets[b] + p on every step, gathered with one fancy index.

The codes are concatenated after the spikes in one graph node; they are
constants, so its backward routes only the spike slice.

`CPGLinearLayer` is the drop-in linear variant: two parallel projections
(input and positional code) are summed as real values before BN and the
spiking layer.  With block-structured weights it reproduces the concat
block bit-exactly; it reads the step-major code from its own table.
"""

from __future__ import annotations

import numpy as np

from .encoder import CPGPEConfig, cpg_pe_at, float_pe, random_pe
from .neuron import LIFParams, SpikingLayer
from .nn import BatchNorm, Linear, Module
from .tensor import ShapeError, SpikeTensor, Tensor


def _grown_table(table: np.ndarray | None, n_ticks: int, config: CPGPEConfig,
                 random_seed: int | None = None) -> np.ndarray:
    """`table` if it holds `n_ticks` codes, else a float64 table of that many.

    Row n is `cpg_pe_at(n, config)`, or with a `random_seed` row n of a
    seeded Bernoulli(0.5) matrix of the same width.  Bernoulli rows are
    drawn tick-major, so in both sources a longer table agrees with a
    shorter one on their shared prefix.
    """
    if table is not None and len(table) >= n_ticks:
        return table
    if random_seed is None:
        codes = cpg_pe_at(np.arange(n_ticks), config)
    else:
        codes = random_pe(n_ticks, config.width, 0.5, random_seed)
    return codes.astype(np.float64)


def _step_codes(table: np.ndarray, t_steps: int, seq_len: int) -> np.ndarray:
    """(T, 1, L, W) step-major code: step s, position p reads tick s*L + p."""
    return table[:t_steps * seq_len].reshape(t_steps, 1, seq_len, -1)


def _broadcast_pe(pe: SpikeTensor, batch: int) -> SpikeTensor:
    t, _, l, w = pe.shape
    return SpikeTensor(np.broadcast_to(pe.bits, (t, batch, l, w)))


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


class CPGPEBlock(Module):
    """Dimension-neutral positional block: (T,B,L,D) -> (T,B,L,D).

    Its codes are the CPG codes of `config`, or with a `random_seed` the
    ablation baseline: fixed seeded Bernoulli(0.5) codes of the same width,
    through the same concat -> Linear -> BN -> SN plumbing.
    """

    def __init__(
        self,
        d_model: int,
        config: CPGPEConfig,
        lif: LIFParams | None = None,
        rng: np.random.Generator | None = None,
        random_seed: int | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.config = config
        self.random_seed = random_seed
        self.linear = Linear(d_model + config.width, d_model, rng)
        self.bn = BatchNorm(d_model)
        self.sn = SpikingLayer(lif)
        self._table: np.ndarray | None = None

    def _tick_codes(self, n_ticks: int) -> np.ndarray:
        """The block's tick table, grown when a call needs more ticks."""
        self._table = _grown_table(self._table, n_ticks, self.config,
                                   self.random_seed)
        return self._table

    def __call__(self, x: SpikeTensor,
                 offsets: np.ndarray | None = None) -> SpikeTensor:
        t, _, l, d = x.shape
        if d != self.d_model:
            raise ShapeError(
                f"block configured for D={self.d_model}, input has D={d}"
            )
        if offsets is None:
            codes = _step_codes(self._tick_codes(t * l), t, l)
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
        self._table: np.ndarray | None = None

    def __call__(self, x: SpikeTensor) -> SpikeTensor:
        t, b, l, d = x.shape
        if d != self.d_in:
            raise ShapeError(f"expected D_in={self.d_in}, input has D={d}")
        self._table = _grown_table(self._table, t * l, self.config)
        pe = Tensor(_step_codes(self._table, t, l))
        x1 = self.linear1(x.to_tensor())
        x2 = pe @ self.linear2.weight  # (T,1,L,D_out), broadcast over B
        x3 = x1 + x2
        return self.sn(self.bn(x3))


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
