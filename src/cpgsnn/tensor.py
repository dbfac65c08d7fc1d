"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 and row-major.  The graph is built eagerly: each op
returns a new ``Tensor`` holding a closure that routes the incoming gradient
to its parents.  ``backward`` walks the graph once in reverse topological
order, so repeated subexpressions accumulate gradients additively.  A
node's first gradient is stored as a copy, unless the backward hands over a
fresh array of its own (`_accumulate(..., owned=True)`); later ones are
added in place.

The elementary ops below are composable and checked against finite
differences.  The layers the trainer runs through use fused nodes instead:
one node per layer call, whose closure holds only what its hand-written
backward reads and skips parents that need no gradient:

- ``nn.Linear``: ``x @ W + b``;
- ``nn.BatchNorm``: normalisation with the closed-form backward through the
  batch statistics (train mode), or one affine map (eval mode); both layers
  take their sums over the leading axes as one BLAS product
  (``nn.leading_sum``);
- ``neuron.SpikingLayer``: a whole LIF sequence with a BPTT backward, and
  ``neuron.lif_step``: one spike node and one membrane node per step;
- ``models.SpikeRNNLayer``: the whole layer, a scan over its slots (input
  map, recurrent term, normalisation and LIF update) with a BPTT backward;
- ``blocks``: the concatenation of spikes and positional codes, whose
  backward routes only the spike slice.

No-grad path: an op links its parents and keeps its closure only when some
parent requires grad or has parents of its own; otherwise it returns a leaf
and the closure is dropped at once.  With ``requires_grad`` off on every
parameter, as ``training.predict`` sets it for the length of a call, a
forward pass therefore builds no graph, and the fused LIF nodes also skip
the arrays only their backward reads.  No layer keeps a reference to its
output, so a graph lives exactly as long as the caller holds its outputs.

``Tensor.mean`` is one node (the sum and the scaling together).
``repeat_leading`` repeats a tensor along a new leading axis as a read-only
view.

Spiking activations travel between layers as ``SpikeTensor``: a strictly
binary (T, B, L, D) array, optionally carrying a reference to the graph node
that produced it so gradients can flow through the surrogate path.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on misuse of the computation graph (e.g. backward on non-scalar)."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A dense float64 array plus a gradient slot and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        live = tuple(p for p in parents if p.requires_grad or p._parents)
        if live:
            out.requires_grad = any(p.requires_grad for p in parents)
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to the gradient.  The first g is stored as a C-ordered
        float64 copy, as it may be another node's gradient or a view of it,
        unless the caller hands over (`owned`) a fresh array of that layout
        and shape that nothing else holds."""
        if self.grad is None:
            if (owned and g.base is None and g.dtype == np.float64
                    and g.flags.c_contiguous and g.shape == self.data.shape):
                self.grad = g
                return
            grad = np.array(g, dtype=np.float64, order="C")
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy()
            self.grad = grad
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(_as_const(other))
        data = self.data + other.data

        def backward(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(_as_const(other))
        data = self.data - other.data

        def backward(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(-g, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor(_as_const(other)) - self

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(_as_const(other))
        data = self.data * other.data

        def backward(g):
            self._accumulate(_unbroadcast(g * other.data, self.shape))
            other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(_as_const(other))
        data = self.data / other.data

        def backward(g):
            self._accumulate(_unbroadcast(g / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-g * self.data / other.data**2, other.shape)
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor(_as_const(other)) / self

    def __pow__(self, p: float):
        data = self.data**p

        def backward(g):
            self._accumulate(g * p * self.data ** (p - 1), owned=True)

        return Tensor._make(data, (self,), backward)

    def sqrt(self):
        data = np.sqrt(self.data)

        def backward(g):
            self._accumulate(g * 0.5 / data, owned=True)

        return Tensor._make(data, (self,), backward)

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - data * data), owned=True)

        return Tensor._make(data, (self,), backward)

    # -- reductions / reshaping ----------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return self._sum(axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self._sum(axis, keepdims, 1.0 / n)

    def _sum(self, axis, keepdims, scale=None):
        """Sum over `axis`, then times `scale` if one is given; one node."""
        data = self.data.sum(axis=axis, keepdims=keepdims)
        if scale is not None:
            data *= scale

        def backward(g):
            if scale is not None:
                g = g * scale
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(self.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes):
        axes = axes or None
        data = self.data.transpose(axes)
        inv = np.argsort(axes) if axes else None

        def backward(g):
            self._accumulate(g.transpose(inv) if inv is not None else g.transpose())

        return Tensor._make(data, (self,), backward)

    # -- linear algebra -------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """Contract the last axis of self with a 2-D weight matrix."""
        if not isinstance(other, Tensor):
            other = Tensor(_as_const(other))
        if other.ndim != 2:
            raise ShapeError(f"matmul weight must be 2-D, got shape {other.shape}")
        if self.ndim < 2:
            raise ShapeError(f"matmul input must be >=2-D, got shape {self.shape}")
        if self.shape[-1] != other.shape[0]:
            raise ShapeError(
                f"inner dimensions disagree: {self.shape} @ {other.shape}"
            )
        data = self.data @ other.data

        def backward(g):
            self._accumulate(g @ other.data.T, owned=True)
            a2 = self.data.reshape(-1, self.shape[-1])
            g2 = g.reshape(-1, other.shape[1])
            other._accumulate(a2.T @ g2, owned=True)

        return Tensor._make(data, (self, other), backward)

    __matmul__ = matmul

    # -- graph traversal ------------------------------------------------------

    def backward(self) -> None:
        """Populate gradients of all graph ancestors of this scalar loss."""
        if self.size != 1:
            raise GraphError(f"backward requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


# -- multi-input ops ----------------------------------------------------------


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Concatenate along `axis`, splitting the gradient on the way back."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def repeat_leading(x: Tensor, n: int) -> Tensor:
    """n copies of x along a new leading axis, as a read-only view; the
    backward sums the n gradients."""
    data = np.broadcast_to(x.data, (n,) + x.shape)

    def backward(g):
        x._accumulate(g.sum(axis=0), owned=True)

    return Tensor._make(data, (x,), backward)


def shift_positions(x: Tensor, offset: int, axis: int) -> Tensor:
    """Shift forward along `axis` by `offset`, zero-filling the front.

    y[..., p, ...] = x[..., p - offset, ...]; used for causal convolutions.
    """
    if offset == 0:
        return x * 1.0
    n = x.shape[axis]
    if offset >= n:
        raise ShapeError(f"shift offset {offset} >= axis length {n}")
    src = [slice(None)] * x.ndim
    src[axis] = slice(0, n - offset)
    data = np.zeros_like(x.data)
    dst = [slice(None)] * x.ndim
    dst[axis] = slice(offset, n)
    data[tuple(dst)] = x.data[tuple(src)]

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[tuple(src)] = g[tuple(dst)]
        x._accumulate(gx)

    return Tensor._make(data, (x,), backward)


# -- spike payload ------------------------------------------------------------

class SpikeTensor:
    """Strictly binary (T, B, L, D) activation array.

    The only legal inter-layer payload on spiking paths.  `node` optionally
    references the producing graph Tensor so surrogate gradients can flow.
    A payload is checked for 0/1 values unless the caller passes
    `binary=True`, as the spiking layers do for the spikes they build from
    a threshold comparison.  `bits` is a C-ordered uint8 copy: of a
    caller's payload at once, of a layer's own spikes (`binary=True`) on
    first read, since the training and predict paths never read it.
    """

    __slots__ = ("_payload", "_bits", "node")

    def __init__(self, values, node: Tensor | None = None, *,
                 binary: bool = False):
        arr = values.data if isinstance(values, Tensor) else np.asarray(values)
        if arr.ndim != 4:
            raise ShapeError(f"SpikeTensor must be 4-D (T,B,L,D), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"SpikeTensor dims must be >= 1, got {arr.shape}")
        self._payload, self._bits = arr, None
        if not binary:
            if not np.all((arr == 0) | (arr == 1)):
                raise ValueError("SpikeTensor values must be exactly 0 or 1")
            self._payload = self._bits = np.array(arr, dtype=np.uint8,
                                                  order="C")
        if node is None and isinstance(values, Tensor):
            node = values
        self.node = node

    @property
    def bits(self) -> np.ndarray:
        if self._bits is None:
            self._bits = np.array(self._payload, dtype=np.uint8, order="C")
        return self._bits

    @property
    def shape(self):
        return self._payload.shape

    def to_tensor(self) -> Tensor:
        """Graph node for this payload (constant if none was attached)."""
        if self.node is not None:
            return self.node
        return Tensor(self.bits.astype(np.float64))

    def __repr__(self):
        return f"SpikeTensor(shape={self.shape})"


def concat_features(x: SpikeTensor, y: SpikeTensor) -> SpikeTensor:
    """Concatenate two spike payloads along the feature axis (x leads)."""
    if x.shape[:3] != y.shape[:3]:
        raise ShapeError(
            f"leading shapes disagree: {x.shape[:3]} vs {y.shape[:3]}"
        )
    node = None
    if x.node is not None or y.node is not None:
        node = concat([x.to_tensor(), y.to_tensor()], axis=3)
        return SpikeTensor(node)
    return SpikeTensor(np.concatenate([x.bits, y.bits], axis=3))
