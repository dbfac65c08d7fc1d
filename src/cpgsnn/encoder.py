"""Spike-form positional codes from thresholded oscillator potentials.

Channel pair i (of N) thresholds cos and sin of eta * t / tau^(i/N) at
v_thres, emitting 1 when the potential is at or above threshold.  The step
axis T and position axis L are flattened step-major into a single index,
t = s*L + p, so every (step, position) combination receives a unique code:
the paper's T x L code is the first T*L per-tick codes.

Baselines: the real-valued sinusoidal encoding of Transformers and a fixed
Bernoulli random spike matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import SpikeTensor


@dataclass
class CPGPEConfig:
    n_pairs: int = 20
    tau: float = 10000.0
    eta: float = 1.0
    v_thres: float = 0.8

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.tau <= 1.0:
            raise ValueError(f"tau must be > 1, got {self.tau}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not -1.0 <= self.v_thres < 1.0:
            raise ValueError(
                f"v_thres must be in [-1, 1) or every channel is silent, "
                f"got {self.v_thres}"
            )

    @property
    def width(self) -> int:
        return 2 * self.n_pairs

    def pair_frequencies(self) -> np.ndarray:
        """Angular frequency of each pair: eta / tau^(i/N), i = 1..N."""
        i = np.arange(1, self.n_pairs + 1)
        return self.eta / self.tau ** (i / self.n_pairs)


def _step_at_zero(z: np.ndarray) -> np.ndarray:
    # ties spike: step(0) = 1, mirroring the ">=" firing convention
    return (z >= 0.0).astype(np.uint8)


def cpg_pe_at(t: int | np.ndarray, config: CPGPEConfig) -> np.ndarray:
    """Binary code of length 2N for flattened index t (cos then sin per pair).

    Vectorized: an array t of shape (M,) yields codes of shape (M, 2N).
    """
    t = np.asarray(t)
    if np.any(t < 0):
        raise ValueError("flattened index t must be >= 0")
    scalar = t.ndim == 0
    if scalar:
        t = t.reshape(1)
    phases = np.multiply.outer(t.astype(np.float64), config.pair_frequencies())
    code = np.empty(phases.shape[:-1] + (config.width,), dtype=np.uint8)
    code[..., 0::2] = _step_at_zero(np.cos(phases) - config.v_thres)
    code[..., 1::2] = _step_at_zero(np.sin(phases) - config.v_thres)
    return code[0] if scalar else code


def generate_pe(t_steps: int, seq_len: int, config: CPGPEConfig) -> SpikeTensor:
    """Spike positional tensor of shape (T, 1, L, 2N), broadcastable over batch.

    Step-major: entry (step s, position p) is the code of t = s*L + p.
    """
    if t_steps < 1 or seq_len < 1:
        raise ValueError(f"T and L must be >= 1, got T={t_steps}, L={seq_len}")
    codes = cpg_pe_at(np.arange(t_steps * seq_len), config)
    return SpikeTensor(codes.reshape(t_steps, 1, seq_len, config.width))


def repetition_rate(codes) -> float:
    """Fraction of codes sharing their exact bit pattern with another code."""
    codes = np.asarray(codes)
    if codes.size == 0:
        raise ValueError("repetition_rate of an empty code list")
    keys = [bytes(row) for row in codes.astype(np.uint8)]
    counts: dict[bytes, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    repeated = sum(c for c in counts.values() if c > 1)
    return repeated / len(keys)


def position_repetition_rate(pe: SpikeTensor) -> float:
    """Fraction of positions whose full representation collides with another.

    A position's representation is its code stacked across the whole step
    axis, shape (T * width,).  This is the quantity the positional analysis
    compares: two positions are indistinguishable only if they agree at every
    step.  It is stricter than comparing single flattened codes, where a pair
    of adjacent indices can collide within one step yet still be separated at
    the others.
    """
    seq_len = pe.shape[2]
    per_pos = pe.bits[:, 0, :, :].transpose(1, 0, 2).reshape(seq_len, -1)
    return repetition_rate(per_pos)


def float_pe(pos: int | np.ndarray, d_model: int) -> np.ndarray:
    """Real-valued sinusoidal encoding: sin/cos of pos / 10000^(2i/d)."""
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    pos = np.asarray(pos, dtype=np.float64)
    scalar = pos.ndim == 0
    if scalar:
        pos = pos.reshape(1)
    i = np.arange(d_model // 2)
    angles = np.multiply.outer(pos, 1.0 / 10000.0 ** (2.0 * i / d_model))
    pe = np.empty(angles.shape[:-1] + (d_model,))
    pe[..., 0::2] = np.sin(angles)
    pe[..., 1::2] = np.cos(angles)
    return pe[0] if scalar else pe


def random_pe(
    seq_len: int, width: int, spike_prob: float, seed: int
) -> np.ndarray:
    """Fixed seeded Bernoulli spike matrix of shape (seq_len, width)."""
    if not 0.0 <= spike_prob <= 1.0:
        raise ValueError(f"spike_prob must be in [0,1], got {spike_prob}")
    rng = np.random.default_rng(seed)
    return (rng.random((seq_len, width)) < spike_prob).astype(np.uint8)


def export_pe_csv(pe: SpikeTensor, path: str | Path) -> None:
    """Raster CSV: one row per flattened t, one column per channel bit."""
    t_steps, _, seq_len, width = pe.shape
    rows = pe.bits[:, 0, :, :].reshape(t_steps * seq_len, width)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"ch{j}" for j in range(width)])
        for t, row in enumerate(rows):
            writer.writerow([t] + row.tolist())
