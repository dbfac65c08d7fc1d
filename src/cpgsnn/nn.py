"""Trainable layers: linear maps, batch normalization, parameter bookkeeping.

Checkpoints are a flat binary file of float64 values plus a JSON sidecar
manifest recording names, shapes and byte offsets.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .tensor import ShapeError, Tensor


class Module:
    """Base class with recursive parameter discovery."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, val in vars(self).items():
            if name.startswith("_"):
                continue  # private attributes hold state, not parameters
            if isinstance(val, Tensor) and val.requires_grad:
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend((f"{name}.{sub}", p) for sub, p in val.parameters())
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(
                            (f"{name}.{i}.{sub}", p) for sub, p in item.parameters()
                        )
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Non-trainable persistent state: running stats, normalization."""
        out = []
        for name, val in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(val, np.ndarray):
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend((f"{name}.{sub}", b) for sub, b in val.buffers())
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(
                            (f"{name}.{i}.{sub}", b) for sub, b in item.buffers()
                        )
        return out

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for _, p in self.parameters())


class Linear(Module):
    """y = x @ W + b with uniform +-sqrt(1/fan_in) initialization.

    One graph node per call; its backward reads only x, W and the gradient.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        bound = np.sqrt(1.0 / d_in)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        w, b = self.weight, self.bias
        if x.ndim < 2 or x.shape[-1] != w.shape[0]:
            raise ShapeError(f"inner dimensions disagree: {x.shape} @ {w.shape}")
        data = x.data @ w.data
        if b is not None:
            data = data + b.data
        lead = tuple(range(x.ndim - 1))

        def backward(g):
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.reshape(-1, w.shape[0]).T
                              @ g.reshape(-1, w.shape[1]))
            if b is not None and b.requires_grad:
                b._accumulate(g.sum(axis=lead))

        parents = (x, w) if b is None else (x, w, b)
        return Tensor._make(data, parents, backward)


class BatchNorm(Module):
    """Normalization over the feature (last) axis.

    Train mode uses batch statistics over all leading axes and updates the
    running estimates by exponential moving average; eval mode uses the
    running estimates.  Requires an effective batch of at least 2 in train
    mode.

    Each call is one graph node.  With x_hat = (x - mean) / std over the N
    leading positions and gy = g * scale, the train-mode backward is the
    closed form through the batch statistics,

        dx = (gy - mean(gy) - x_hat * mean(gy * x_hat)) / std,

    and the eval-mode backward is dx = gy / std with the running std.  Both
    keep x_hat and std, nothing else of the forward.
    """

    def __init__(self, n_features: int, eps: float = 1e-5, momentum: float = 0.1):
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.n_features = n_features
        self.eps = eps
        self.momentum = momentum
        self.scale = Tensor(np.ones(n_features), requires_grad=True)
        self.shift = Tensor(np.zeros(n_features), requires_grad=True)
        self.running_mean = np.zeros(n_features)
        self.running_var = np.ones(n_features)
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.n_features:
            raise ShapeError(
                f"expected {self.n_features} features, got input shape {x.shape}"
            )
        axes = tuple(range(x.ndim - 1))
        if self.training:
            n = int(np.prod(x.shape[:-1]))
            if n < 2:
                raise ValueError(f"batch of size {n} < 2 in train mode")
            mu = x.data.sum(axis=axes, keepdims=True) * (1.0 / n)
            xc = x.data - mu
            var = (xc * xc).sum(axis=axes, keepdims=True) * (1.0 / n)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.reshape(-1)
            # unbiased estimate for the running variance, matching convention
            self.running_var = (
                (1 - m) * self.running_var
                + m * var.reshape(-1) * n / max(n - 1, 1)
            )
            std = np.sqrt(var + self.eps)
            x_hat = xc / std
        else:
            std = np.sqrt(self.running_var + self.eps)
            x_hat = (x.data - self.running_mean) / std
        scale, shift, training = self.scale, self.shift, self.training

        def backward(g):
            if scale.requires_grad:
                scale._accumulate((g * x_hat).sum(axis=axes))
            if shift.requires_grad:
                shift._accumulate(g.sum(axis=axes))
            if not x.requires_grad:
                return
            gy = g * scale.data
            if training:
                gy = (gy - gy.mean(axis=axes, keepdims=True)
                      - x_hat * (gy * x_hat).mean(axis=axes, keepdims=True))
            x._accumulate(gy / std)

        return Tensor._make(x_hat * scale.data + shift.data,
                            (x, scale, shift), backward)


def save_checkpoint(module: Module, path: str | Path) -> None:
    """Write parameters and buffers as flat float64 binary + JSON manifest."""
    path = Path(path)
    manifests = {"params": [], "buffers": []}
    offset = 0
    with open(path, "wb") as fh:
        for kind, entries in (
            ("params", [(n, p.data) for n, p in module.parameters()]),
            ("buffers", module.buffers()),
        ):
            for name, arr in entries:
                raw = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
                fh.write(raw)
                manifests[kind].append(
                    {"name": name, "shape": list(arr.shape), "offset": offset}
                )
                offset += len(raw)
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps({"dtype": "float64", **manifests}, indent=2)
    )


def _read_entry(blob: bytes, entry: dict) -> np.ndarray:
    shape = tuple(entry["shape"])
    count = int(np.prod(shape)) if shape else 1
    return np.frombuffer(
        blob, dtype=np.float64, count=count, offset=entry["offset"]
    ).reshape(shape)


def load_checkpoint(module: Module, path: str | Path) -> None:
    path = Path(path)
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    blob = path.read_bytes()
    params = dict(module.parameters())
    for entry in manifest["params"]:
        p = params[entry["name"]]
        arr = _read_entry(blob, entry)
        if p.shape != arr.shape:
            raise ShapeError(
                f"checkpoint shape {arr.shape} != parameter shape {p.shape} "
                f"for {entry['name']}"
            )
        p.data = arr.copy()
    buffers = dict(module.buffers())
    for entry in manifest.get("buffers", []):
        b = buffers[entry["name"]]
        arr = _read_entry(blob, entry)
        if b.shape != arr.shape:
            raise ShapeError(
                f"checkpoint shape {arr.shape} != buffer shape {b.shape} "
                f"for {entry['name']}"
            )
        b[...] = arr
