"""Trainable layers: linear maps, batch normalization, parameter bookkeeping.

Checkpoints are a flat binary file of float64 values plus a JSON sidecar
manifest recording names, shapes and byte offsets.  Saving replaces both
files by rename; loading rejects a checkpoint whose names or shapes differ
from the module's.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .tensor import ShapeError, Tensor


def leading_sum(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, as one BLAS product: shape (D,).

    On the narrow (N, D) arrays of the training path, ones(N) @ x is several
    times faster than numpy's multi-axis reduction.
    """
    flat = x.reshape(-1, x.shape[-1])
    return np.ones(len(flat)) @ flat


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

    def n_parameters(self) -> int:
        return sum(p.size for _, p in self.parameters())


class Linear(Module):
    """y = x @ W + b with uniform +-sqrt(1/fan_in) initialization.

    One graph node per call; its backward reads only x, W and the gradient.
    `forward_array` and `backward_arrays` are the same arithmetic on arrays,
    for a fused node that applies the layer inside its own loop.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        bound = np.sqrt(1.0 / d_in)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        data = self.forward_array(x.data)

        def backward(g):
            gx = self.backward_arrays(x.data, g, x.requires_grad)
            if gx is not None:
                x._accumulate(gx, owned=True)

        w, b = self.weight, self.bias
        parents = (x, w) if b is None else (x, w, b)
        return Tensor._make(data, parents, backward)

    def forward_array(self, x: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """x @ W + b on an array, written into `out` if one is given."""
        w = self.weight
        if x.ndim < 2 or x.shape[-1] != w.shape[0]:
            raise ShapeError(f"inner dimensions disagree: {x.shape} @ {w.shape}")
        data = np.matmul(x, w.data, out=out)
        if self.bias is not None:
            data += self.bias.data
        return data

    def backward_arrays(self, x: np.ndarray, g: np.ndarray,
                        input_grad: bool) -> np.ndarray | None:
        """Accumulate the weight and bias gradients of one call on input x;
        return the input gradient when `input_grad` is set."""
        w, b = self.weight, self.bias
        if w.requires_grad:
            w._accumulate(x.reshape(-1, w.shape[0]).T
                          @ g.reshape(-1, w.shape[1]), owned=True)
        if b is not None and b.requires_grad:
            b._accumulate(leading_sum(g), owned=True)
        return g @ w.data.T if input_grad else None


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
    keep x_hat and std, nothing else of the forward, and without a live
    input or parameter they keep nothing.  `normalize` and
    `backward_arrays` are the same arithmetic on arrays, for the recurrent
    layer's fused node.
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
        live = x.requires_grad or self.scale.requires_grad
        y, x_hat, std = self.normalize(x.data.copy(), keep_x_hat=live)
        training = self.training

        def backward(g):
            gx = self.backward_arrays(g, x_hat, std, training, x.requires_grad)
            if gx is not None:
                x._accumulate(gx, owned=True)

        return Tensor._make(y, (x, self.scale, self.shift), backward)

    def normalize(self, x: np.ndarray, keep_x_hat: bool = True):
        """Normalize the array x in place, so that it becomes x_hat, and
        return (y, x_hat, std); in train mode the running statistics take
        one update.  Without `keep_x_hat`, y is built in x_hat's buffer and
        x_hat comes back as None."""
        if x.shape[-1] != self.n_features:
            raise ShapeError(
                f"expected {self.n_features} features, got input shape {x.shape}"
            )
        x_hat, y = x, None
        if self.training:
            n = int(np.prod(x.shape[:-1]))
            if n < 2:
                raise ValueError(f"batch of size {n} < 2 in train mode")
            mu = leading_sum(x) * (1.0 / n)
            x_hat -= mu
            y = x_hat * x_hat  # the squares first, the output later
            var = leading_sum(y) * (1.0 / n)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu
            # unbiased estimate for the running variance, matching convention
            self.running_var = (
                (1 - m) * self.running_var + m * var * n / max(n - 1, 1)
            )
            std = np.sqrt(var + self.eps)
        else:
            std = np.sqrt(self.running_var + self.eps)
            x_hat -= self.running_mean
        x_hat /= std
        if keep_x_hat:  # into the squares' buffer in train mode
            y = np.multiply(x_hat, self.scale.data, out=y)
        else:
            y, x_hat = x_hat, None
            y *= self.scale.data
        y += self.shift.data
        return y, x_hat, std

    def backward_arrays(self, g: np.ndarray, x_hat: np.ndarray,
                        std: np.ndarray, training: bool,
                        input_grad: bool) -> np.ndarray | None:
        """Accumulate the scale and shift gradients of one call; return the
        input gradient when `input_grad` is set."""
        if self.scale.requires_grad:
            self.scale._accumulate(leading_sum(g * x_hat), owned=True)
        if self.shift.requires_grad:
            self.shift._accumulate(leading_sum(g), owned=True)
        if not input_grad:
            return None
        gy = g * self.scale.data
        if training:
            n = g.size // g.shape[-1]
            gy = (gy - leading_sum(gy) / n
                  - x_hat * (leading_sum(gy * x_hat) / n))
        return gy / std


def save_checkpoint(module: Module, path: str | Path) -> None:
    """Write parameters and buffers as flat float64 binary + JSON manifest.

    Both files are first written in full as `<name>.tmp` beside their
    targets and then renamed over them, so a failed save leaves any previous
    checkpoint as it was.
    """
    path = Path(path)
    manifests = {"params": [], "buffers": []}
    raws = []
    offset = 0
    for kind, entries in (
        ("params", [(n, p.data) for n, p in module.parameters()]),
        ("buffers", module.buffers()),
    ):
        for name, arr in entries:
            raws.append(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
            manifests[kind].append(
                {"name": name, "shape": list(arr.shape), "offset": offset}
            )
            offset += len(raws[-1])
    manifest = json.dumps({"dtype": "float64", **manifests}, indent=2)
    files = [(path, b"".join(raws)),
             (path.with_suffix(path.suffix + ".json"), manifest.encode())]
    temps = [target.with_name(target.name + ".tmp") for target, _ in files]
    try:
        for tmp, (_, payload) in zip(temps, files):
            tmp.write_bytes(payload)
        for tmp, (target, _) in zip(temps, files):
            os.replace(tmp, target)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _read_entry(blob: bytes, entry: dict) -> np.ndarray:
    shape = tuple(entry["shape"])
    count = int(np.prod(shape)) if shape else 1
    return np.frombuffer(
        blob, dtype=np.float64, count=count, offset=entry["offset"]
    ).reshape(shape)


def load_checkpoint(module: Module, path: str | Path) -> None:
    """Load a checkpoint written by `save_checkpoint` into `module`.

    The checkpoint must hold exactly the module's parameters and buffers,
    with the same shapes; otherwise one error names every mismatch and the
    module is left unchanged.
    """
    path = Path(path)
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    blob = path.read_bytes()
    targets = {
        "parameter": {name: p for name, p in module.parameters()},
        "buffer": dict(module.buffers()),
    }
    entries = {"parameter": manifest["params"],
               "buffer": manifest.get("buffers", [])}
    problems = []
    for kind in targets:
        saved = [e["name"] for e in entries[kind]]
        missing = [n for n in targets[kind] if n not in saved]
        extra = [n for n in saved if n not in targets[kind]]
        if missing:
            problems.append(f"missing {kind}s {missing}")
        if extra:
            problems.append(f"extra {kind}s {extra}")
    if problems:
        raise ValueError(f"checkpoint {path} does not match the module: "
                         + "; ".join(problems))
    loaded = []
    for kind in targets:
        for entry in entries[kind]:
            target = targets[kind][entry["name"]]
            arr = _read_entry(blob, entry)
            if target.shape != arr.shape:
                raise ShapeError(
                    f"checkpoint shape {arr.shape} != {kind} shape "
                    f"{target.shape} for {entry['name']}"
                )
            loaded.append((kind, target, arr))
    for kind, target, arr in loaded:
        if kind == "parameter":
            target.data = arr.copy()
        else:
            target[...] = arr
