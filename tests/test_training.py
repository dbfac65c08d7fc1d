import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cpgsnn import experiment, nn
from cpgsnn.data import DatasetSpec, build_dataset
from cpgsnn.encoder import CPGPEConfig
from cpgsnn.experiment import (load_config, parse_config, run_experiment,
                               run_single)
from cpgsnn.models import ForecastModel, ModelConfig
from cpgsnn.nn import Linear, load_checkpoint, save_checkpoint
from cpgsnn.tensor import Tensor
from cpgsnn.training import (
    Adam,
    DivergenceError,
    TrainConfig,
    destandardize,
    mse_loss,
    predict,
    train,
)


def tiny_dataset(seed=0, length=220):
    spec = DatasetSpec(length=length, n_channels=2, l_obs=16, l_pred=4,
                       seed=seed, periods=(10.0, 7.0))
    return build_dataset(spec)


def tiny_model(pe_mode="none", seed=0):
    cfg = ModelConfig(hidden_dim=8, n_layers=1, t_steps=2,
                      pe_mode=pe_mode, seed=seed)
    return ForecastModel(cfg, 2, 4)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.json"))


@pytest.mark.parametrize("cls,knob", [
    (ModelConfig, "recurrence"),
    (ModelConfig, "readout_pool"),
    (ModelConfig, "random_pe_prob"),
    (TrainConfig, "optimizer"),
    (TrainConfig, "momentum"),
    (TrainConfig, "min_epochs"),
    (CPGPEConfig, "flatten_order"),
])
def test_removed_knob_rejected(cls, knob):
    with pytest.raises(TypeError, match=knob):
        cls(**{knob: None})


class ReferenceAdam:
    """Adam with one pair of moment arrays per parameter, the form the flat
    buffers must reproduce bit for bit."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for _, p in params]
        self.v = [np.zeros_like(p.data) for _, p in params]
        self.t = 0

    def step(self):
        self.t += 1
        for i, (_, p) in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            mhat = self.m[i] / (1 - self.beta1**self.t)
            vhat = self.v[i] / (1 - self.beta2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


class ThreeParams(nn.Module):
    def __init__(self, rng):
        self.a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        self.b = Tensor(rng.normal(size=5), requires_grad=True)
        self.c = Tensor(rng.normal(size=(2, 1, 3)), requires_grad=True)


class TestOptimizers:
    def test_flat_adam_equals_per_parameter_adam(self, tmp_path):
        """200 steps of random gradients, some None, with a checkpoint
        loaded into both copies mid-run (it rebinds every p.data)."""
        rng = np.random.default_rng(5)
        flat = ThreeParams(rng)
        ref = copy.deepcopy(flat)
        opts = Adam(flat.parameters(), lr=1e-2), ReferenceAdam(
            ref.parameters(), lr=1e-2)
        n_none = 0
        for step in range(200):
            for (_, p), (_, q) in zip(flat.parameters(), ref.parameters()):
                if rng.random() < 0.2:
                    p.grad = q.grad = None
                    n_none += 1
                else:
                    g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-4, 3)
                    p.grad, q.grad = g.copy(), g.copy()
            if step == 100:
                save_checkpoint(flat, tmp_path / "ckpt.bin")
            if step == 150:
                load_checkpoint(flat, tmp_path / "ckpt.bin")
                load_checkpoint(ref, tmp_path / "ckpt.bin")
            for opt in opts:
                opt.step()
            for (_, p), (_, q) in zip(flat.parameters(), ref.parameters()):
                assert p.data.tobytes() == q.data.tobytes(), step
        assert n_none > 0
        assert opts[0].m.tobytes() == np.concatenate(
            [m.ravel() for m in opts[1].m]).tobytes()

    def test_adam_minimizes_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        for _ in range(300):
            p.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_adam_first_step_magnitude(self):
        # bias correction makes the very first update ~lr regardless of grad
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01)
        p.zero_grad()
        (p * 1000.0).sum().backward()
        opt.step()
        assert abs(1.0 - p.data[0]) == pytest.approx(0.01, rel=1e-6)


class TestTrainLoop:
    def test_loss_decreases_and_log_written(self, tmp_path):
        dataset = tiny_dataset()
        model = tiny_model()
        cfg = TrainConfig(lr=1e-2, epochs=8, batch_size=16)
        log_path = tmp_path / "log.jsonl"
        out = train(model, dataset, cfg, log_path=log_path)
        losses = [e["train_loss"] for e in out["log"]]
        assert losses[-1] < losses[0]
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == len(out["log"])
        json.loads(lines[0])

    def test_early_stopping(self):
        dataset = tiny_dataset()
        model = tiny_model()
        cfg = TrainConfig(lr=0.0, epochs=50, batch_size=16, patience=3)
        out = train(model, dataset, cfg)
        # with lr=0 validation never improves after the first epoch
        assert len(out["log"]) <= 5

    def test_divergence_detection(self):
        dataset = tiny_dataset()
        model = tiny_model()
        model.head.bias.data[:] = np.inf
        with pytest.raises(DivergenceError):
            train(model, dataset, TrainConfig(epochs=1))

    def test_best_state_restored(self):
        dataset = tiny_dataset()
        model = tiny_model()
        cfg = TrainConfig(lr=1e-2, epochs=5, batch_size=16)
        out = train(model, dataset, cfg)
        pred = predict(model, dataset.valid.history)
        from cpgsnn.metrics import compute_r2
        assert compute_r2(pred, dataset.valid.target) == pytest.approx(
            out["best_valid_r2"], abs=1e-9
        )

    def test_skipped_batches_logged(self):
        # 140 training windows: batches of 139 and 1, the 1 is skipped
        dataset = tiny_dataset()
        assert dataset.train.n % 139 == 1
        out = train(tiny_model(), dataset,
                    TrainConfig(lr=1e-2, epochs=2, batch_size=139))
        assert [e["skipped_batches"] for e in out["log"]] == [1, 1]
        out = train(tiny_model(), dataset,
                    TrainConfig(lr=1e-2, epochs=1, batch_size=70))
        assert out["log"][0]["skipped_batches"] == 0

    def test_epoch_time_split(self):
        out = train(tiny_model("cpg"), tiny_dataset(),
                    TrainConfig(lr=1e-2, epochs=2, batch_size=16))
        for entry in out["log"]:
            split = [entry[k] for k in ("fwd_ms", "bwd_ms", "opt_ms",
                                        "eval_ms")]
            assert all(isinstance(v, int) and v >= 0 for v in split)
            assert sum(split) <= entry["wall_ms"]

    def test_mse_loss_value(self, rng):
        pred = Tensor(rng.normal(size=(4, 3, 2)))
        target = rng.normal(size=(4, 3, 2))
        assert mse_loss(pred, target).data == pytest.approx(
            ((pred.data - target) ** 2).mean()
        )


class TestPredictMode:
    def test_predict_restores_eval_mode(self):
        dataset = tiny_dataset()
        model = tiny_model(pe_mode="cpg")
        model.set_training(False)
        ref = predict(model, dataset.valid.history, dataset.valid.offsets)
        assert not any(m.training for m in model._bn_modules())
        # running statistics stay frozen between calls in eval mode
        model(dataset.valid.history[:4], dataset.valid.offsets[:4])
        again = predict(model, dataset.valid.history, dataset.valid.offsets)
        assert np.array_equal(ref, again)

    def test_predict_restores_train_mode_on_error(self):
        model = tiny_model()
        model.set_training(True)
        with pytest.raises(ValueError):
            predict(model, np.full((2, 16, 2), np.nan))
        assert all(m.training for m in model._bn_modules())


class TestNoGradPredict:
    def test_matches_eval_mode_graph_forward(self, monkeypatch):
        dataset = tiny_dataset()
        model = tiny_model(pe_mode="cpg")
        train(model, dataset, TrainConfig(lr=1e-2, epochs=2, batch_size=16))
        hist, offs = dataset.valid.history, dataset.valid.offsets
        model.set_training(False)
        graph_out = model(hist, offs)
        assert graph_out._parents  # the parameters make it a graph
        ref = destandardize(model, graph_out.data)

        outputs = []
        forward = ForecastModel.__call__

        def spy(self, *args):
            outputs.append(forward(self, *args))
            return outputs[-1]

        monkeypatch.setattr(ForecastModel, "__call__", spy)
        pred = predict(model, hist, offs)
        assert np.array_equal(pred, ref)
        assert outputs and all(o._parents == () for o in outputs)

    def test_restores_requires_grad(self):
        model = tiny_model()
        params = [p for _, p in model.parameters()]
        frozen = params[0]
        frozen.requires_grad = False  # a caller's frozen parameter stays so
        dataset = tiny_dataset()
        predict(model, dataset.valid.history, dataset.valid.offsets)
        assert [p.requires_grad for p in params] == [False] + [True] * (
            len(params) - 1)
        with pytest.raises(ValueError):
            predict(model, np.full((2, 16, 2), np.nan))
        assert [p.requires_grad for p in params] == [False] + [True] * (
            len(params) - 1)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = tiny_model(seed=1)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        clone = tiny_model(seed=2)
        load_checkpoint(clone, path)
        for (name_a, a), (name_b, b) in zip(model.parameters(),
                                            clone.parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)

    def test_manifest_sidecar(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        manifest = json.loads((tmp_path / "model.bin.json").read_text())
        assert manifest["dtype"] == "float64"
        names = [entry["name"] for entry in manifest["params"]]
        assert names == [name for name, _ in model.parameters()]

    def test_forward_pass_does_not_add_parameters(self, rng):
        # recurrent membrane state must stay out of the parameter list
        model = tiny_model()
        before = [name for name, _ in model.parameters()]
        model(rng.normal(size=(3, 10, 2)))
        after = [name for name, _ in model.parameters()]
        assert before == after

    def test_name_mismatch_rejected(self, tmp_path):
        # the linear head has head.{weight,bias}, the MLP head head.fc1/fc2
        path = tmp_path / "model.bin"
        save_checkpoint(tiny_model(), path)
        cfg = ModelConfig(hidden_dim=8, n_layers=1, t_steps=2, head_hidden=4)
        clone = ForecastModel(cfg, 2, 4)
        before = [p.data.copy() for _, p in clone.parameters()]
        with pytest.raises(ValueError) as err:
            load_checkpoint(clone, path)
        message = str(err.value)
        assert "missing parameters" in message and "extra parameters" in message
        for name in ("head.fc1.weight", "head.fc2.bias", "'head.weight'",
                     "'head.bias'"):
            assert name in message
        for b, (_, p) in zip(before, clone.parameters()):
            assert np.array_equal(b, p.data)  # nothing was loaded

    def test_save_replaces_files_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_checkpoint(tiny_model(seed=1), path)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "model.bin", "model.bin.json"]
        saved = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(nn.os, "replace", fail)
        with pytest.raises(OSError):
            save_checkpoint(tiny_model(seed=2), path)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == saved

    def test_shape_mismatch_rejected(self, tmp_path, rng):
        small = Linear(2, 3, rng)
        big = Linear(2, 4, rng)
        path = tmp_path / "lin.bin"
        save_checkpoint(small, path)
        with pytest.raises(ValueError):
            load_checkpoint(big, path)


class TestExperiment:
    def test_parse_config_defaults(self):
        cfg = parse_config({})
        assert cfg["seeds"] == [0]
        assert cfg["pe_modes"] == ["none"]
        assert cfg["model"].hidden_dim == 32

    def test_parse_config_nested(self):
        doc = {
            "dataset": {"length": 300, "l_obs": 12, "l_pred": 3},
            "model": {"hidden_dim": 8, "lif": {"beta": 0.8},
                      "cpg": {"n_pairs": 4}},
            "train": {"epochs": 2},
            "seeds": [1, 2],
            "pe_modes": ["none", "cpg"],
        }
        cfg = parse_config(doc)
        assert cfg["model"].lif.beta == 0.8
        assert cfg["model"].cpg.n_pairs == 4
        assert cfg["train"].epochs == 2

    def test_unknown_section_rejected(self):
        # a typo'd section would otherwise train with the defaults
        with pytest.raises(ValueError, match="trian"):
            parse_config({"trian": {"epochs": 3}})

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_builds_every_pe_mode(self, path):
        cfg = load_config(path)
        spec = cfg["dataset"]
        history = np.zeros((2, spec.l_obs, spec.n_channels))
        for pe_mode in cfg["pe_modes"]:
            model_cfg = dataclasses.replace(cfg["model"], pe_mode=pe_mode)
            model = ForecastModel(model_cfg, spec.n_channels, spec.l_pred)
            pred = model(history, np.array([0, 5]))
            assert pred.shape == (2, spec.l_pred, spec.n_channels)

    def test_run_single_record(self):
        dataset = tiny_dataset()
        model_cfg = ModelConfig(hidden_dim=8, t_steps=2)
        _, record = run_single(dataset, model_cfg, TrainConfig(epochs=2),
                               seed=0, pe_mode="none")
        assert record["pe_mode"] == "none"
        assert "r2" in record["test"]
        assert record["n_parameters"] > 0

    def test_run_experiment_aggregates(self, tmp_path):
        doc = {
            "dataset": {"length": 220, "n_channels": 2, "l_obs": 16,
                        "l_pred": 4, "periods": [10.0, 7.0]},
            "model": {"hidden_dim": 8, "t_steps": 2,
                      "cpg": {"n_pairs": 3, "tau": 100.0}},
            "train": {"epochs": 2, "batch_size": 16},
            "seeds": [0, 1],
            "pe_modes": ["none", "cpg"],
        }
        result = run_experiment(parse_config(doc), out_dir=tmp_path)
        assert len(result["records"]) == 4
        assert set(result["aggregates"]) == {"none", "cpg"}
        assert result["aggregates"]["none"]["n_runs"] == 2
        saved = json.loads((tmp_path / "results.json").read_text())
        assert saved["aggregates"] == result["aggregates"]

    def test_failed_run_keeps_traceback(self, tmp_path, monkeypatch, capsys):
        real = experiment.run_single

        def flaky(dataset, model_cfg, train_cfg, seed, pe_mode, **kw):
            if seed == 1:
                raise DivergenceError("forced failure")
            return real(dataset, model_cfg, train_cfg, seed, pe_mode, **kw)

        monkeypatch.setattr(experiment, "run_single", flaky)
        doc = {
            "dataset": {"length": 220, "n_channels": 2, "l_obs": 16,
                        "l_pred": 4, "periods": [10.0, 7.0]},
            "model": {"hidden_dim": 8, "t_steps": 2},
            "train": {"epochs": 1, "batch_size": 16},
            "seeds": [0, 1],
            "pe_modes": ["none"],
        }
        result = run_experiment(parse_config(doc), out_dir=tmp_path)
        ok, failed = result["records"]
        assert "test" in ok and "error" not in ok
        assert failed["error"] == "DivergenceError: forced failure"
        assert failed["traceback"].startswith("Traceback")
        assert "in flaky" in failed["traceback"]
        assert failed["traceback"] in capsys.readouterr().err
        assert result["aggregates"]["none"]["n_runs"] == 1
        saved = json.loads((tmp_path / "results.json").read_text())
        assert saved["records"][1]["traceback"] == failed["traceback"]

    def test_results_are_deterministic(self, tmp_path):
        doc = {
            "dataset": {"length": 220, "n_channels": 2, "l_obs": 16,
                        "l_pred": 4, "periods": [10.0, 7.0]},
            "model": {"hidden_dim": 8, "t_steps": 2},
            "train": {"epochs": 2, "batch_size": 16},
            "seeds": [0],
            "pe_modes": ["none"],
        }
        a = run_experiment(parse_config(doc))
        b = run_experiment(parse_config(doc))
        assert a == b


class TestBuffers:
    def test_buffers_listed_recursively(self):
        model = tiny_model()
        names = [n for n, _ in model.buffers()]
        assert "encoder.channel_mean" in names
        assert "encoder.channel_std" in names
        assert any("bn.running_mean" in n for n in names)

    def test_checkpoint_restores_buffers(self, tmp_path):
        dataset = tiny_dataset()
        model = tiny_model()
        train(model, dataset, TrainConfig(lr=1e-2, epochs=3, batch_size=16))
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        ref = predict(model, dataset.test.history, dataset.test.offsets)

        clone = tiny_model(seed=9)
        load_checkpoint(clone, path)
        out = predict(clone, dataset.test.history, dataset.test.offsets)
        assert np.array_equal(ref, out)

    def test_best_state_includes_buffers(self):
        dataset = tiny_dataset()
        model = tiny_model()
        out = train(model, dataset, TrainConfig(lr=1e-2, epochs=6,
                                                batch_size=16))
        from cpgsnn.metrics import compute_r2
        pred = predict(model, dataset.valid.history, dataset.valid.offsets)
        assert compute_r2(pred, dataset.valid.target) == pytest.approx(
            out["best_valid_r2"], abs=1e-12
        )
