import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpgsnn.nn import BatchNorm, Linear, leading_sum
from cpgsnn.tensor import (
    GraphError,
    ShapeError,
    SpikeTensor,
    Tensor,
    concat,
    concat_features,
    repeat_leading,
    shift_positions,
    stack,
)

from conftest import numeric_grad, rel_err

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal((a @ b).data, [[3, 4], [5, 6]])

    def test_scalar_case(self):
        assert (Tensor([[2.0]]) @ Tensor([[3.0]])).data.item() == 6.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(4, 3\).*\(2, 2\)"):
            Tensor(np.ones((4, 3))) @ Tensor(np.ones((2, 2)))

    def test_gradient_matches_finite_differences(self, rng):
        a0 = rng.normal(size=(4, 3))
        b0 = rng.normal(size=(3, 2))

        def loss(a, b):
            return float(((Tensor(a) @ Tensor(b)) ** 2).sum().data)

        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        for t, i in ((a, 0), (b, 1)):
            num = numeric_grad(loss, (a0, b0), i)
            assert rel_err(t.grad, num).max() < 1e-5

    def test_batched_input(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        y = x @ w
        assert y.shape == (2, 3, 5, 6)
        (y * y).sum().backward()
        num = numeric_grad(
            lambda xd, wd: float(((Tensor(xd) @ Tensor(wd)) ** 2).sum().data),
            (x.data, w.data), 1,
        )
        assert rel_err(w.grad, num).max() < 1e-4


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_elementwise_square(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [4.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            (x * x).backward()

    def test_shared_subexpression_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        (y + y).sum().backward()
        assert np.array_equal(x.grad, [4.0])

    @pytest.mark.parametrize("op", [
        lambda x: x.transpose(),
        lambda x: x.transpose(1, 2, 0),
        lambda x: x.sum(axis=1),
        lambda x: x.sum(axis=(0, 2), keepdims=True),
    ], ids=["transpose", "permute", "sum", "sum_keepdims"])
    def test_gradient_is_c_contiguous(self, op, rng):
        # a permuted or broadcast view of the gradient is stored C-ordered
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        y = op(x)
        (y * Tensor(rng.normal(size=y.shape))).sum().backward()
        assert x.grad.flags.c_contiguous

    def test_two_layer_net_matches_finite_differences(self, rng):
        w1_0 = rng.normal(size=(3, 5))
        w2_0 = rng.normal(size=(5, 2))
        x0 = rng.normal(size=(6, 3))

        def loss(x, w1, w2):
            h = Tensor(x) @ Tensor(w1)
            h = h * h  # smooth nonlinearity
            return float(((h @ Tensor(w2)) ** 2).mean().data)

        w1 = Tensor(w1_0, requires_grad=True)
        w2 = Tensor(w2_0, requires_grad=True)
        h = Tensor(x0) @ w1
        ((h * h @ w2) ** 2).mean().backward()
        for t, i in ((w1, 1), (w2, 2)):
            num = numeric_grad(loss, (x0, w1_0, w2_0), i)
            assert rel_err(t.grad, num).max() < 1e-4


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / (b + 3.0),
        lambda a, b: (a * a + b).sqrt(),
        lambda a, b: a.tanh() * b,
        lambda a, b: a.reshape(6) + b.reshape(6),
        lambda a, b: concat([a, b], axis=1),
        lambda a, b: stack([a, b], axis=0),
        lambda a, b: a.mean(axis=0) + b.sum(axis=0),
        lambda a, b: repeat_leading(a, 3) * b,
    ],
)
def test_op_gradcheck(op, rng):
    a0 = rng.normal(size=(2, 3)) + 2.0
    b0 = rng.normal(size=(2, 3)) + 2.0

    def loss(a, b):
        return float((op(Tensor(a), Tensor(b)) ** 2).sum().data)

    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    (op(a, b) ** 2).sum().backward()
    for t, i in ((a, 0), (b, 1)):
        num = numeric_grad(loss, (a0, b0), i)
        assert rel_err(t.grad, num).max() < 1e-4


@pytest.mark.parametrize("n", [1, 2, 4])
def test_repeat_leading_equals_stack_of_copies(n, rng):
    x0 = rng.normal(size=(2, 3, 4))
    weights = rng.normal(size=(n, 2, 3, 4))
    runs = []
    for repeat in (lambda x: repeat_leading(x, n),
                   lambda x: stack([x] * n, axis=0)):
        x = Tensor(x0, requires_grad=True)
        y = repeat(x)
        (y * weights).sum().backward()
        runs.append((y.data, x.grad))
    (y_a, g_a), (y_b, g_b) = runs
    assert np.array_equal(y_a, y_b)
    assert np.array_equal(g_a, g_b)  # the n gradients summed in step order


def test_broadcast_add_gradcheck(rng):
    x0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3,))

    def loss(x, b):
        return float(((Tensor(x) + Tensor(b)) ** 2).sum().data)

    x = Tensor(x0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    ((x + b) ** 2).sum().backward()
    assert rel_err(b.grad, numeric_grad(loss, (x0, b0), 1)).max() < 1e-4


def test_shift_positions_gradcheck(rng):
    x0 = rng.normal(size=(2, 5, 3))
    x = Tensor(x0, requires_grad=True)
    y = shift_positions(x, 2, axis=1)
    assert np.array_equal(y.data[:, :2], np.zeros((2, 2, 3)))
    assert np.array_equal(y.data[:, 2:], x0[:, :3])
    (y * y).sum().backward()
    num = numeric_grad(
        lambda xd: float(
            (shift_positions(Tensor(xd), 2, axis=1) ** 2).sum().data
        ),
        (x0,), 0,
    )
    assert rel_err(x.grad, num).max() < 1e-4


class TestBatchNorm:
    def test_constant_column_yields_shift(self, rng):
        bn = BatchNorm(3)
        bn.shift.data = np.array([1.0, -2.0, 0.5])
        x = Tensor(np.full((8, 3), 7.0))
        y = bn(x)
        assert np.allclose(y.data, bn.shift.data, atol=1e-6)

    def test_standardized_input_identity(self, rng):
        x0 = rng.normal(size=(64, 4))
        x0 = (x0 - x0.mean(axis=0)) / x0.std(axis=0)
        bn = BatchNorm(4, eps=1e-12)
        y = bn(Tensor(x0))
        assert np.abs(y.data - x0).max() < 1e-6

    def test_train_mode_statistics(self, rng):
        x0 = rng.normal(loc=3.0, scale=2.0, size=(8, 4))
        y = BatchNorm(4, eps=1e-12)(Tensor(x0)).data
        assert np.abs(y.mean(axis=0)).max() < 1e-5
        assert np.abs(y.var(axis=0) - 1.0).max() < 1e-5

    def test_degenerate_batch_rejected(self):
        with pytest.raises(ValueError, match="batch of size 1"):
            BatchNorm(3)(Tensor(np.ones((1, 3))))

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(2)
        for _ in range(200):
            bn(Tensor(rng.normal(loc=5.0, scale=3.0, size=(32, 2))))
        bn.training = False
        y = bn(Tensor(np.full((4, 2), 5.0)))
        assert np.abs(y.data).max() < 0.2  # mean input maps near zero

    def test_gradcheck(self, rng):
        x0 = rng.normal(size=(6, 3))

        def loss(x):
            bn = BatchNorm(3)
            return float((bn(Tensor(x)) ** 2).sum().data)

        bn = BatchNorm(3)
        x = Tensor(x0, requires_grad=True)
        (bn(x) ** 2).sum().backward()
        assert rel_err(x.grad, numeric_grad(loss, (x0,), 0)).max() < 1e-4


class TestLeadingSum:
    @pytest.mark.parametrize("shape", [(1, 8), (7, 3), (1, 1, 4), (4, 5, 6),
                                       (1, 2, 3, 8), (2, 16, 48, 8)])
    def test_matches_numpy_sum(self, shape, rng):
        x = rng.normal(size=shape)
        ref = x.sum(axis=tuple(range(x.ndim - 1)))
        got = leading_sum(x)
        assert got.shape == ref.shape
        # relative to the sum of magnitudes, the scale of round-off
        scale = np.abs(x).sum(axis=tuple(range(x.ndim - 1)))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        """The golden trajectory relies on leading sums that do not depend
        on how many threads BLAS runs."""
        script = (
            "import hashlib, numpy as np\n"
            "from cpgsnn.nn import leading_sum\n"
            "rng = np.random.default_rng(0)\n"
            "h = hashlib.sha256()\n"
            "for shape in [(16, 36), (16, 128), (16, 48, 8), (2, 16, 48, 8),\n"
            "              (768, 128), (2, 256, 48, 8)]:\n"
            "    h.update(leading_sum(rng.normal(size=shape)).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]


class TestSpikeTensor:
    def test_binarity_enforced(self):
        with pytest.raises(ValueError, match="0 or 1"):
            SpikeTensor(np.full((1, 1, 2, 2), 0.5))

    def test_binary_payload_skips_value_check_only(self):
        x = SpikeTensor(np.ones((1, 1, 2, 2)), binary=True)
        assert x.bits.dtype == np.uint8
        with pytest.raises(ShapeError):
            SpikeTensor(np.ones((2, 2)), binary=True)

    def test_bits_c_ordered(self):
        view = np.broadcast_to((np.arange(18) % 2).reshape(3, 1, 6)[:, :, ::2],
                               (2, 3, 2, 3))
        x = SpikeTensor(view)
        assert x.bits.flags.c_contiguous
        assert np.array_equal(x.bits, view)
        assert x.to_tensor().data.flags.c_contiguous

    def test_requires_4d(self):
        with pytest.raises(ShapeError):
            SpikeTensor(np.ones((2, 2)))

    def test_concat_features_shapes(self):
        x = SpikeTensor(np.ones((1, 1, 2, 3)))
        y = SpikeTensor(np.zeros((1, 1, 2, 2)))
        z = concat_features(x, y)
        assert z.shape == (1, 1, 2, 5)
        assert np.array_equal(z.bits[..., :3], x.bits)

    def test_concat_leading_mismatch(self):
        x = SpikeTensor(np.ones((1, 1, 2, 3)))
        y = SpikeTensor(np.ones((1, 2, 2, 3)))
        with pytest.raises(ShapeError):
            concat_features(x, y)

    def test_concat_binary_closure(self, rng):
        x = SpikeTensor((rng.random((2, 2, 3, 4)) < 0.5).astype(np.uint8))
        y = SpikeTensor((rng.random((2, 2, 3, 2)) < 0.5).astype(np.uint8))
        z = concat_features(x, y)
        assert set(np.unique(z.bits)) <= {0, 1}


def test_linear_layer_bias_broadcast(rng):
    lin = Linear(3, 2, rng)
    x = Tensor(rng.normal(size=(4, 3)))
    y = lin(x)
    assert y.shape == (4, 2)
    assert np.allclose(y.data, x.data @ lin.weight.data + lin.bias.data)
