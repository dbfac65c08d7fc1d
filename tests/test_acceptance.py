"""End-to-end acceptance gate.

Each test class checks one headline guarantee of the toolkit at its stated
tolerance and runtime budget:

1. positional-code uniqueness at reference settings (640 positions, 0.00%)
2. emitter/resetter circuit periodicity over the full parameter grid
3. oscillator closed form vs RK4 and the sinusoidal-PE solution property
4. gradient integrity (finite differences + hand-unrolled spiking oracle)
5. binarity of every spiking pathway and concat/add equivalence
6. desk-scale forecasting ablation (structured codes beat no codes;
   random codes do not)
7. metric implementations vs brute-force loop oracles
8. exact parameter accounting for the positional-code block

The ablation test trains 9 models and dominates the suite's runtime
(several minutes); everything else completes in seconds.
"""

import json
import time

import numpy as np
import pytest

from cpgsnn.blocks import CPGLinearLayer, CPGPEBlock, _broadcast_pe
from cpgsnn.circuit import verify_grid
from cpgsnn.cli import main as cli_main
from cpgsnn.encoder import CPGPEConfig, generate_pe
from cpgsnn.experiment import load_config, run_single
from cpgsnn.data import build_dataset
from cpgsnn.metrics import compute_r2, compute_rse
from cpgsnn.models import ForecastModel, ModelConfig
from cpgsnn.neuron import (
    LIFParams,
    MembraneState,
    lif_step,
    surrogate_grad,
)
from cpgsnn.nn import BatchNorm, Linear
from cpgsnn.oscillator import (
    OscillatorParams,
    closed_form,
    constants_from_state,
    integrate_rk4,
    verify_sinusoidal_pe_is_solution,
)
from cpgsnn.tensor import (
    SpikeTensor,
    Tensor,
    concat,
    concat_features,
    shift_positions,
    stack,
)

from conftest import numeric_grad, rel_err

CONFIG_PATH = "configs/ablation.json"


def random_spikes(rng, shape):
    return SpikeTensor((rng.random(shape) < 0.5).astype(np.uint8))


def eval_batchnorm(n, rng):
    """Eval-mode BatchNorm with non-trivial running statistics and affine."""
    bn = BatchNorm(n)
    bn.running_mean = rng.normal(size=n)
    bn.running_var = rng.uniform(0.5, 2.0, n)
    bn.scale.data = rng.uniform(0.5, 1.5, n)
    bn.shift.data = rng.normal(size=n)
    bn.training = False
    return bn


class TestCodeUniqueness:
    """640 stacked positional codes at reference settings never repeat."""

    def test_pe_analyze_reports_zero_repetition(self, tmp_path):
        start = time.perf_counter()
        rc = cli_main(["pe-analyze", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        report = json.loads((tmp_path / "pe_report.json").read_text())
        assert report["flattened_length"] == 640
        assert report["n_pairs"] == 20
        assert report["tau"] == 10000.0
        assert report["eta"] == pytest.approx(2 * np.pi)
        assert report["v_thres"] == 0.8
        assert report["repetition_rate"] == 0.0
        assert report["repetition_rate_percent"] == "0.00%"
        assert elapsed < 1.0


class TestCircuitGrid:
    """Emitter/resetter pairs realize 0^R 1^K bit-exactly for five periods
    across every (beta, R, K, v_reset) combination."""

    def test_full_grid(self):
        start = time.perf_counter()
        report = verify_grid()
        elapsed = time.perf_counter() - start
        # 4 betas x 9 burst offsets x 4 burst lengths x 2 resets
        assert report["n_cases"] == 288
        assert report["n_failed"] == 0
        assert report["all_pass"]
        for case in report["reports"]:
            assert case["first_mismatch_step"] is None
            assert case["state_recurrence_error"] < 1e-9
        assert elapsed < 5.0


class TestOscillator:
    """Closed-form solution tracks RK4; sinusoidal codes solve the ODE."""

    def test_closed_form_matches_rk4(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            a, c = rng.uniform(0.1, 10.0, 2)
            b, d = rng.uniform(-5.0, 5.0, 2)
            x0, y0 = rng.uniform(-2.0, 2.0, 2)
            params = OscillatorParams(a=a, b=b, c=c, d=d)
            traj = integrate_rk4(params, x0, y0, t_end=10.0, dt=2e-3)
            k1, k2 = constants_from_state(params, x0, y0)
            x, y = closed_form(params, k1, k2, traj[:, 0])
            worst = max(
                worst,
                np.abs(traj[:, 1] - x).max(),
                np.abs(traj[:, 2] - y).max(),
            )
        elapsed = time.perf_counter() - start
        assert worst < 1e-6
        assert elapsed < 10.0

    @pytest.mark.parametrize("i", [0, 1, 255])
    def test_sinusoidal_pe_solves_oscillator(self, i):
        report = verify_sinusoidal_pe_is_solution(d_model=512, i=i)
        assert report["max_residual"] < 1e-6
        # the control residual scales with omega; demand clear separation
        assert (report["wrong_pairing_residual"]
                > 1e3 * max(report["max_residual"], 1e-12))


class TestGradientIntegrity:
    """Reverse-mode gradients agree with central finite differences, and a
    hand-unrolled two-step spiking chain agrees to near machine precision."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / (b + 3.0),
            lambda a, b: a ** 2 + b,
            lambda a, b: (a * a + b).sqrt(),
            lambda a, b: a.tanh() * b,
            lambda a, b: a @ b.reshape(3, 2),
            lambda a, b: a.reshape(6) * b.reshape(6),
            lambda a, b: concat([a, b], axis=0),
            lambda a, b: stack([a, b], axis=1),
            lambda a, b: a.mean(axis=0) + b.sum(axis=1).mean(),
            lambda a, b: shift_positions(a * b, 1, axis=0),
        ],
    )
    def test_op_finite_differences(self, op, rng):
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

    @pytest.mark.parametrize("module_fn", [
        lambda rng: Linear(3, 2, rng),
        lambda rng: BatchNorm(3),
        # 4-D input: statistics over three leading axes
        lambda rng: lambda x: BatchNorm(3)(x.reshape(2, 1, 3, 3)),
        lambda rng: eval_batchnorm(3, rng),
    ])
    def test_module_finite_differences(self, module_fn, rng):
        x0 = rng.normal(size=(6, 3))

        def loss(x):
            m = module_fn(np.random.default_rng(7))
            return float((m(Tensor(x)) ** 2).sum().data)

        m = module_fn(np.random.default_rng(7))
        x = Tensor(x0, requires_grad=True)
        (m(x) ** 2).sum().backward()
        assert rel_err(x.grad, numeric_grad(loss, (x0,), 0)).max() < 1e-4

    def test_two_step_one_neuron_hand_oracle(self):
        """Unrolled chain rule with the detached reset gate:

        dL/dw = g1*x1 + g2*(beta*(1-s1)*x1 + x2)

        where gk is the surrogate slope at step k and L = s1 + s2.
        """
        params = LIFParams(beta=0.7, u_thr=1.0, v_reset=-0.1, alpha=2.0)
        x1, x2 = 0.9, 1.3
        w0 = 1.2

        w = Tensor(np.array([w0]), requires_grad=True)
        state = MembraneState(h=Tensor(np.zeros(1)))
        s1, state = lif_step(state, w * x1, params)
        s2, state = lif_step(state, w * x2, params)
        (s1 + s2).sum().backward()

        # hand-unrolled plain-float forward and surrogate chain
        u1 = w0 * x1
        sp1 = 1.0 if u1 >= params.u_thr else 0.0
        h1 = params.beta * (1.0 - sp1) * u1 + params.v_reset * sp1
        u2 = h1 + w0 * x2
        g1 = surrogate_grad(u1 - params.u_thr, params.alpha)
        g2 = surrogate_grad(u2 - params.u_thr, params.alpha)
        expected = g1 * x1 + g2 * (params.beta * (1.0 - sp1) * x1 + x2)

        assert abs(float(w.grad[0]) - float(expected)) < 1e-10


class TestBinarity:
    """10^4 randomized forward passes through every spiking pathway emit
    only 0/1, and the concat block equals the two-projection form."""

    def _assert_binary(self, bits):
        assert set(np.unique(bits)) <= {0.0, 1.0}

    def test_ten_thousand_random_passes(self):
        rng = np.random.default_rng(99)
        cfg = CPGPEConfig(n_pairs=3, tau=50.0, eta=1.0, v_thres=0.5)
        block = CPGPEBlock(6, cfg, rng=rng)
        lin = CPGLinearLayer(6, 5, cfg, rng=rng)
        rnn = ForecastModel(
            ModelConfig(backbone="rnn", hidden_dim=6, t_steps=2,
                        pe_mode="cpg", cpg=cfg), 2, 3)
        tcn = ForecastModel(
            ModelConfig(backbone="tcn", hidden_dim=6, t_steps=2,
                        pe_mode="cpg", cpg=cfg), 2, 3)
        rnn.set_training(True)
        tcn.set_training(True)
        for _ in range(4000):
            y = block(random_spikes(rng, (1, 2, 4, 6)))
            self._assert_binary(y.bits)
        for _ in range(3000):
            y = lin(random_spikes(rng, (1, 2, 4, 6)))
            self._assert_binary(y.bits)
        for model, n in ((rnn, 1500), (tcn, 1500)):
            for _ in range(n):
                history = rng.normal(size=(2, 8, 2))
                spikes = model.backbone_spikes(history)
                self._assert_binary(spikes.bits)

    def test_concat_equals_two_projection_form(self, rng):
        d = 6
        cfg = CPGPEConfig(n_pairs=3, tau=100.0, eta=1.0, v_thres=0.5)
        concat_block = CPGPEBlock(d, cfg, rng=rng)
        lin = CPGLinearLayer(d, d, cfg, rng=rng)
        w = concat_block.linear.weight.data
        lin.linear1.weight.data = w[:d].copy()
        lin.linear1.bias.data = concat_block.linear.bias.data.copy()
        lin.linear2.weight.data = w[d:].copy()

        x = random_spikes(rng, (2, 3, 4, d))
        pe = generate_pe(2, 4, cfg)
        x1 = concat_features(x, _broadcast_pe(pe, 3))
        pre_concat = concat_block.linear(x1.to_tensor()).data
        pre_linear = (
            lin.linear1(x.to_tensor()).data
            + (pe.to_tensor() @ lin.linear2.weight).data
        )
        assert np.abs(pre_concat - pre_linear).max() < 1e-12


@pytest.mark.slow
class TestForecastAblation:
    """Structured positional codes transfer to later, unseen window offsets;
    random codes do not.  Mean test R^2 over three seeds must show a clear
    gain for the structured codes and no gain for random ones."""

    def test_three_seed_ablation(self):
        start = time.perf_counter()
        config = load_config(CONFIG_PATH)
        assert config["pe_modes"] == ["none", "cpg", "random"]
        assert config["seeds"] == [0, 1, 2]
        dataset = build_dataset(config["dataset"])
        means = {}
        for pe_mode in config["pe_modes"]:
            scores = []
            for seed in config["seeds"]:
                _, record = run_single(
                    dataset, config["model"], config["train"], seed, pe_mode
                )
                scores.append(record["test"]["r2"])
            means[pe_mode] = float(np.mean(scores))
        elapsed = time.perf_counter() - start
        assert means["cpg"] >= means["none"] + 0.02, means
        assert abs(means["random"] - means["none"]) <= 0.01, means
        assert elapsed < 15 * 60


class TestMetricOracles:
    """Vectorized metrics agree with explicit triple-loop reimplementations."""

    @staticmethod
    def _r2_loops(pred, target):
        m, l, c = target.shape
        terms = []
        for j in range(l):
            for k in range(c):
                mean = sum(target[i, j, k] for i in range(m)) / m
                for i in range(m):
                    denom = (target[i, j, k] - mean) ** 2
                    if denom != 0.0:
                        num = (target[i, j, k] - pred[i, j, k]) ** 2
                        terms.append(1.0 - num / denom)
        return sum(terms) / len(terms)

    @staticmethod
    def _rse_loops(pred, target):
        m, l, c = target.shape
        num = 0.0
        denom = 0.0
        for j in range(l):
            for k in range(c):
                mean = sum(target[i, j, k] for i in range(m)) / m
                for i in range(m):
                    num += (target[i, j, k] - pred[i, j, k]) ** 2
                    denom += (target[i, j, k] - mean) ** 2
        return np.sqrt(num / denom)

    def test_fifty_random_instances(self):
        rng = np.random.default_rng(515)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            l = int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            target = rng.normal(size=(m, l, c))
            pred = target + rng.normal(scale=0.5, size=(m, l, c))
            r2_ref = self._r2_loops(pred, target)
            rse_ref = self._rse_loops(pred, target)
            # 1e-12 absolute, relaxed to relative when a near-zero-variance
            # element pushes |R^2| beyond float64 resolution at 1e-12
            assert (abs(compute_r2(pred, target) - r2_ref)
                    <= 1e-12 * max(1.0, abs(r2_ref)))
            assert (abs(compute_rse(pred, target) - rse_ref)
                    <= 1e-12 * max(1.0, abs(rse_ref)))

    def test_identity_cases_exact(self, rng):
        target = rng.normal(size=(6, 3, 2))
        assert compute_r2(target.copy(), target) == 1.0
        assert compute_rse(target.copy(), target) == 0.0


class TestParameterAccounting:
    """Adding the positional-code block grows the linear parameter count by
    exactly (D + 2N) * D + D; its normalization adds 2D more."""

    @pytest.mark.parametrize("d,n", [(8, 3), (16, 5), (32, 20)])
    def test_cpg_vs_none_delta(self, d, n):
        cfg = CPGPEConfig(n_pairs=n, tau=100.0, eta=1.0, v_thres=0.5)
        base = dict(backbone="rnn", hidden_dim=d, t_steps=2, cpg=cfg)
        none = ForecastModel(ModelConfig(pe_mode="none", **base), 3, 4)
        with_pe = ForecastModel(ModelConfig(pe_mode="cpg", **base), 3, 4)
        linear_delta = (d + 2 * n) * d + d
        assert (with_pe.pe_block.linear.n_parameters()
                == linear_delta)
        assert (with_pe.n_parameters() - none.n_parameters()
                == linear_delta + 2 * d)
