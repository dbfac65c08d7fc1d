"""Surrogate-gradient trainer: MSE on standardized targets, Adam, early
stopping on validation R^2, JSON-lines logging.

`predict` runs without a graph: for the length of the call it turns
`requires_grad` off on every parameter the model lists (and BatchNorm to
eval mode), so every op returns a leaf and the LIF layers take their
forward-only path; both are restored on return, also on error.  `train`
builds the graph as usual, and each minibatch's graph is freed when its
loss goes out of scope.  Each epoch's log entry splits its `wall_ms` into
the forward (with the loss), backward, optimizer and validation times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, iter_batches
from .metrics import compute_r2
from .models import ForecastModel
from .tensor import Tensor


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    patience: int = 30  # early-stopping tolerance, in epochs


class DivergenceError(RuntimeError):
    pass


class Adam:
    """Adam whose moments are two flat float64 buffers, m and v, holding
    the parameters one after another.  A step gathers the gradients with
    one concatenate (zeros for a parameter without one) and updates both
    buffers in place; each parameter then gets its slice of the update.
    The parameters stay separate arrays, rebound on every step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._slices, n = [], 0
        for _, p in params:
            self._slices.append(slice(n, n + p.size))
            n += p.size
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = np.concatenate([np.zeros(p.size) if p.grad is None
                            else p.grad.reshape(-1) for _, p in self.params])
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        mhat = self.m / (1 - b1**self.t)
        vhat = self.v / (1 - b2**self.t)
        upd = self.lr * mhat / (np.sqrt(vhat) + self.eps)
        for (_, p), sl in zip(self.params, self._slices):
            p.data = p.data - upd[sl].reshape(p.shape)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def standardize_target(model: ForecastModel, target: np.ndarray) -> np.ndarray:
    enc = model.encoder
    return (target - enc.channel_mean) / enc.channel_std


def destandardize(model: ForecastModel, values: np.ndarray) -> np.ndarray:
    enc = model.encoder
    return values * enc.channel_std + enc.channel_mean


def predict(model: ForecastModel, history: np.ndarray,
            offsets: np.ndarray | None = None,
            batch_size: int = 256) -> np.ndarray:
    """De-standardized predictions for a full split, eval mode, no graph.

    The caller's train/eval mode and each parameter's `requires_grad` are
    restored on return, also on error.
    """
    modes = [(m, m.training) for m in model._bn_modules()]
    params = [p for _, p in model.parameters()]
    model.set_training(False)
    for p in params:
        p.requires_grad = False
    outs = []
    try:
        for lo in range(0, history.shape[0], batch_size):
            off = None if offsets is None else offsets[lo:lo + batch_size]
            pred = model(history[lo:lo + batch_size], off)
            outs.append(pred.data)
    finally:
        for p in params:
            p.requires_grad = True
        for m, training in modes:
            m.training = training
    return destandardize(model, np.concatenate(outs, axis=0))


def train(model: ForecastModel, dataset: Dataset,
          config: TrainConfig, log_path: str | Path | None = None) -> dict:
    """Fit the model; returns the training log (also written as JSONL)."""
    model.encoder.fit_normalization(dataset.train.history)
    params = model.parameters()
    opt = Adam(params, config.lr)
    rng = np.random.default_rng(config.seed)
    log: list[dict] = []
    best_r2 = -np.inf
    best_state = None
    since_best = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        model.set_training(True)
        losses = []
        skipped = 0
        split = dict.fromkeys(("fwd", "bwd", "opt", "eval"), 0.0)
        for hist, targ, offs in iter_batches(dataset.train, config.batch_size,
                                             rng):
            if hist.shape[0] < 2:
                skipped += 1  # batch-norm needs a real batch
                continue
            for _, p in params:
                p.zero_grad()
            t1 = time.perf_counter()
            pred = model(hist, offs)
            loss = mse_loss(pred, standardize_target(model, targ))
            if not np.isfinite(loss.data):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch}"
                )
            t2 = time.perf_counter()
            loss.backward()
            t3 = time.perf_counter()
            opt.step()
            t4 = time.perf_counter()
            split["fwd"] += t2 - t1
            split["bwd"] += t3 - t2
            split["opt"] += t4 - t3
            losses.append(float(loss.data))
        t1 = time.perf_counter()
        valid_pred = predict(model, dataset.valid.history,
                             dataset.valid.offsets)
        valid_r2 = compute_r2(valid_pred, dataset.valid.target)
        split["eval"] = time.perf_counter() - t1
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "valid_r2": float(valid_r2),
            "skipped_batches": skipped,
            "wall_ms": int(1000 * (time.perf_counter() - t0)),
            **{f"{k}_ms": int(1000 * v) for k, v in split.items()},
        }
        log.append(entry)
        if valid_r2 > best_r2:
            best_r2 = valid_r2
            best_state = (
                [(name, p.data.copy()) for name, p in params],
                [(name, b.copy()) for name, b in model.buffers()],
            )
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    if best_state is not None:
        lookup = dict(params)
        for name, data in best_state[0]:
            lookup[name].data = data
        buf_lookup = dict(model.buffers())
        for name, data in best_state[1]:
            buf_lookup[name][...] = data
    if log_path is not None:
        with open(log_path, "w") as fh:
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    return {"log": log, "best_valid_r2": float(best_r2)}
