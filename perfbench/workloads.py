"""The three benchmark workloads, driven through cpgsnn's public API.

Each workload is a closed loop from one client: `setup()` builds what the
first op needs, and `op(i)` runs op i to completion, checks its output and
returns (kind, items).  Every input is generated from the workload seed.

`instrument()` wraps the layer boundaries each workload crosses in tracer
spans, from this file, for the traced run only.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import inspect
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from cpgsnn import circuit, cli, data, experiment, oscillator, training
from cpgsnn.blocks import CPGPEBlock
from cpgsnn.models import ForecastModel, InputEncoder, SpikeRNNLayer
from cpgsnn.tensor import Tensor

from harness import CheckFailed, Tracer, median, self_times

# Model and dataset shape of configs/ablation.json, frozen here so that a
# config edit does not silently change the benchmark's unit of work.
ABLATION_DOC = {
    "dataset": {
        "length": 600, "n_channels": 3, "l_obs": 48, "l_pred": 12,
        "periods": [12.0, 24.0, 48.0], "waveform": "square",
        "noise_sigma": 0.1,
    },
    "model": {
        "backbone": "rnn", "hidden_dim": 8, "n_layers": 1, "t_steps": 2,
        "head_hidden": 128, "lif": {"u_thr": 0.5},
        "cpg": {"n_pairs": 4, "tau": 16.0, "eta": 1.0471975511965976,
                "v_thres": 0.5},
    },
    "train": {"epochs": 600, "batch_size": 16, "lr": 0.005, "patience": 600},
}

EVAL_BATCH = 256
EVAL_BATCHES = 8

# Acceptance #3 of tests/test_acceptance.py.
RK4_SYSTEMS = 100
RK4_DT = 2e-3
RK4_T_END = 10.0
RK4_STEPS = int(round(RK4_T_END / RK4_DT))
RK4_TOL = 1e-6
GRID_CASES = 288
PE_CODES = 640
RK4_PER_ROUND = 10  # gates schedule: 10 RK4 systems, one grid, one pe-analyze

# Wall-clock bounds of the gates in tests/test_acceptance.py, in seconds.
GATE_BOUNDS_S = {"rk4": 10.0, "grid": 5.0, "pe_analyze": 1.0}


def _config(seed: int) -> dict:
    doc = copy.deepcopy(ABLATION_DOC)
    doc["dataset"]["seed"] = seed
    return experiment.parse_config(doc)


class Workload:
    name: str
    primary: str  # the op kind whose latencies are the end-to-end figures
    warmup_ops: int

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def close(self) -> None:
        pass


class TrainCPG(Workload):
    """One op is one epoch of training.train on the cpg model: 24 minibatch
    steps of 16 windows, then predict on the validation split."""

    name = "train-cpg"
    primary = "epoch"
    warmup_ops = 3

    def setup(self) -> None:
        cfg = _config(self.seed)
        self.dataset = data.build_dataset(cfg["dataset"])
        model_cfg = dataclasses.replace(cfg["model"], pe_mode="cpg",
                                        seed=self.seed)
        self.model = ForecastModel(model_cfg,
                                   self.dataset.train.history.shape[-1],
                                   self.dataset.spec.l_pred)
        self.train_cfg = dataclasses.replace(cfg["train"], epochs=1)
        self.windows = self.dataset.train.n + self.dataset.valid.n

    def op(self, i: int):
        # train() builds its Adam per call, so the moments restart every
        # epoch; the work of an epoch is that of the gate's epochs.  The
        # batch order of epoch i comes from (workload seed, i).
        order_seed = int(np.random.default_rng([self.seed, i]).integers(2**31))
        fit = training.train(self.model, self.dataset,
                             dataclasses.replace(self.train_cfg,
                                                 seed=order_seed))
        loss = fit["log"][-1]["train_loss"]
        if not math.isfinite(loss):
            raise CheckFailed(f"train loss {loss}")
        # compute_r2 rejects a shape mismatch; a non-finite prediction
        # makes the validation R^2 non-finite
        if not math.isfinite(fit["best_valid_r2"]):
            raise CheckFailed(f"valid R^2 {fit['best_valid_r2']}")
        return "epoch", self.windows

    def trace_points(self, stats: "TraceStats"):
        return _model_points(stats) + [
            (ForecastModel, "readout", "models.readout", None),
            (training, "mse_loss", "training.loss", stats.walk_graph),
            (training.Adam, "step", "training.adam", None),
            (Tensor, "backward", "tensor.backward", None),
            (training, "predict", "training.predict", _check_prediction),
            (training, "compute_r2", "metrics.r2", None),
        ]


class EvalNone(Workload):
    """One op is training.predict on one full batch of 256 sliding windows
    of a generated series, with the pe_mode="none" model."""

    name = "eval-none"
    primary = "batch"
    warmup_ops = 10

    def setup(self) -> None:
        cfg = _config(self.seed)
        spec = cfg["dataset"]
        spec = dataclasses.replace(
            spec, length=EVAL_BATCH * EVAL_BATCHES + spec.l_obs + spec.l_pred - 1
        )
        series = data.gen_series(spec)
        self.windows = data.make_windows(series, spec.l_obs, spec.l_pred)
        model_cfg = dataclasses.replace(cfg["model"], pe_mode="none",
                                        seed=self.seed)
        self.model = ForecastModel(model_cfg, series.shape[-1], spec.l_pred)
        self.model.encoder.fit_normalization(self.windows.history)
        # Train-mode forward passes set the BatchNorm running statistics
        # that eval mode uses, so spike rates are those of a fitted model.
        self.model.set_training(True)
        for b in range(EVAL_BATCHES):
            self.model(*self._batch(b))
        self.order = np.random.default_rng(self.seed).permutation(
            np.tile(np.arange(EVAL_BATCHES), 64)
        )

    def _batch(self, b: int):
        sl = slice(b * EVAL_BATCH, (b + 1) * EVAL_BATCH)
        return self.windows.history[sl], self.windows.offsets[sl]

    def op(self, i: int):
        hist, offs = self._batch(int(self.order[i % len(self.order)]))
        pred = training.predict(self.model, hist, offs, batch_size=EVAL_BATCH)
        _check_prediction(pred, EVAL_BATCH)
        return "batch", EVAL_BATCH

    def trace_points(self, stats: "TraceStats"):
        return _model_points(stats) + [
            (ForecastModel, "readout", "models.readout", stats.walk_graph),
            (training, "predict", "training.predict", None),
        ]


class Gates(Workload):
    """The non-training acceptance gates, as a repeating schedule of ten
    closed-form-vs-RK4 systems, one circuit grid and one pe-analyze call."""

    name = "gates"
    primary = "rk4"
    warmup_ops = RK4_PER_ROUND + 2

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.out_dir = root / ".perfbench_tmp" / f"gates-{os.getpid()}"

    def setup(self) -> None:
        # drawn in the order of the acceptance test, from the workload seed
        rng = np.random.default_rng(self.seed)
        self.systems = []
        for _ in range(RK4_SYSTEMS):
            a, c = rng.uniform(0.1, 10.0, 2)
            b, d = rng.uniform(-5.0, 5.0, 2)
            x0, y0 = rng.uniform(-2.0, 2.0, 2)
            self.systems.append(
                (oscillator.OscillatorParams(a=a, b=b, c=c, d=d), x0, y0)
            )
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.out_dir.parent.rmdir()  # only if no other run is using it

    def op(self, i: int):
        rnd, slot = divmod(i, RK4_PER_ROUND + 2)
        if slot < RK4_PER_ROUND:
            return self._rk4((rnd * RK4_PER_ROUND + slot) % RK4_SYSTEMS)
        if slot == RK4_PER_ROUND:
            return self._grid()
        return self._pe_analyze()

    def _rk4(self, k: int):
        params, x0, y0 = self.systems[k]
        traj = oscillator.integrate_rk4(params, x0, y0, t_end=RK4_T_END,
                                        dt=RK4_DT)
        k1, k2 = oscillator.constants_from_state(params, x0, y0)
        x, y = oscillator.closed_form(params, k1, k2, traj[:, 0])
        err = max(np.abs(traj[:, 1] - x).max(), np.abs(traj[:, 2] - y).max())
        if not err < RK4_TOL:
            raise CheckFailed(f"system {k}: RK4 worst error {err:.3e}")
        return "rk4", 1

    def _grid(self):
        report = circuit.verify_grid()
        if report["n_cases"] != GRID_CASES or report["n_failed"] != 0 \
                or not report["all_pass"]:
            raise CheckFailed(
                f"grid: {report['n_cases']} cases, {report['n_failed']} failed"
            )
        return "grid", GRID_CASES

    def _pe_analyze(self):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["pe-analyze", "--out", str(self.out_dir)])
        report = json.loads((self.out_dir / "pe_report.json").read_text())
        if rc != 0 or report["flattened_length"] != PE_CODES \
                or report["repetition_rate"] != 0.0:
            raise CheckFailed(
                f"pe-analyze: rc={rc}, {report['flattened_length']} codes, "
                f"repetition rate {report['repetition_rate']}"
            )
        return "pe_analyze", PE_CODES

    def trace_points(self, stats: "TraceStats"):
        return [
            (oscillator, "integrate_rk4", "oscillator.rk4", None),
            (oscillator, "closed_form", "oscillator.closed_form", None),
            (circuit, "verify_grid", "circuit.grid", None),
            (circuit, "verify_period", "circuit.case", None),
            (cli, "main", "cli.pe_analyze", None),
            (cli, "generate_pe", "encoder.generate_pe", None),
            (cli, "position_repetition_rate", "encoder.repetition", None),
            (cli, "repetition_rate", "encoder.repetition", None),
            (cli, "export_pe_csv", "encoder.export_csv", None),
        ]


WORKLOADS = {w.name: w for w in (TrainCPG, EvalNone, Gates)}


# -- tracing ------------------------------------------------------------------


def _check_prediction(pred, n: int | None = None) -> None:
    rows = pred.shape[0] if n is None else n
    if pred.shape != (rows, 12, 3):
        raise CheckFailed(f"prediction shape {pred.shape} != ({rows}, 12, 3)")
    if not np.all(np.isfinite(pred)):
        raise CheckFailed("non-finite prediction")


def _model_points(stats: "TraceStats"):
    return [
        (InputEncoder, "__call__", "models.encoder", stats.spikes("encoder")),
        (CPGPEBlock, "__call__", "blocks.pe", stats.spikes("pe")),
        (SpikeRNNLayer, "__call__", "models.rnn", stats.spikes("rnn")),
        (training, "iter_batches", "data.batch", None),
    ]


class TraceStats:
    """Counts taken at the traced boundaries: spikes and graph size.

    Spike rates count the traced ops numbered below `rate_ops` only, so that
    they do not depend on how many ops a run fits in its time.
    """

    def __init__(self, tracer: Tracer, rate_ops: int):
        self.tracer = tracer
        self.rate_ops = rate_ops
        self.ones: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.graph_nodes: list[int] = []
        self.graph_bytes: list[int] = []

    def spikes(self, layer: str):
        def after(out):
            bits = out.bits
            if bits.max(initial=0) > 1:
                raise CheckFailed(f"{layer} spike payload is not 0/1")
            if self.tracer.op_id >= self.rate_ops:
                return
            self.ones[layer] = self.ones.get(layer, 0) + int(
                np.count_nonzero(bits))
            self.total[layer] = self.total.get(layer, 0) + bits.size

        return after

    def spike_rate(self, layer: str) -> float:
        total = self.total.get(layer, 0)
        return self.ones.get(layer, 0) / total if total else 0.0

    def walk_graph(self, root: Tensor) -> None:
        """Nodes reachable from root, leaves included, and their summed
        payload bytes.  Reads the engine's private parent links."""
        seen: dict[int, Tensor] = {}
        todo = [root]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                todo.extend(node._parents)
        self.graph_nodes.append(len(seen))
        self.graph_bytes.append(sum(n.data.nbytes for n in seen.values()))


@contextlib.contextmanager
def instrument(workload, tracer: Tracer, stats: TraceStats):
    """Wrap the workload's layer boundaries in spans; restore on exit."""
    saved = []
    try:
        for owner, attr, name, after in workload.trace_points(stats):
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            if inspect.isgeneratorfunction(orig):
                setattr(owner, attr, tracer.wrap_iter(name, orig))
            else:
                setattr(owner, attr, tracer.wrap(name, orig, after))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _us(seconds) -> float:
    return 1e6 * seconds


def layer_figures(tracer: Tracer, stats: TraceStats) -> dict:
    """Per-layer figures from the traced phase, keyed by metric name.

    Times are medians over calls of the span's self time; a layer the
    workload never calls reads 0.
    """
    spans = tracer.spans
    own = self_times(spans)
    per_call: dict[str, list] = {}
    incl: dict[str, list] = {}
    per_op: dict[tuple, float] = {}
    for s, t in zip(spans, own):
        per_call.setdefault(s.name, []).append(t)
        incl.setdefault(s.name, []).append(s.end - s.start)
        per_op[(s.name, s.op_id)] = per_op.get((s.name, s.op_id), 0.0) + t

    def med(values, scale=1.0):
        return scale * median(values) if values else 0.0

    def call_us(name):
        return med(per_call.get(name, ()), 1e6)

    repetition = [v for (n, _), v in per_op.items() if n == "encoder.repetition"]
    return {
        "models.encoder.fwd_us": call_us("models.encoder"),
        "models.rnn.fwd_us": call_us("models.rnn"),
        "models.readout.fwd_us": call_us("models.readout"),
        "blocks.pe.fwd_us": call_us("blocks.pe"),
        "tensor.backward_us": call_us("tensor.backward"),
        "training.loss.fwd_us": call_us("training.loss"),
        "training.adam_us": call_us("training.adam"),
        "training.predict_ms": med(incl.get("training.predict", ()), 1e3),
        "data.batch_us": call_us("data.batch"),
        "metrics.r2_us": call_us("metrics.r2"),
        "tensor.graph_nodes": med(stats.graph_nodes),
        "tensor.graph_mb": med(stats.graph_bytes, 1e-6),
        "neuron.spike_rate.encoder": stats.spike_rate("encoder"),
        "neuron.spike_rate.pe": stats.spike_rate("pe"),
        "neuron.spike_rate.rnn": stats.spike_rate("rnn"),
        "oscillator.rk4_us_per_step": call_us("oscillator.rk4") / RK4_STEPS,
        "oscillator.closed_form_us": call_us("oscillator.closed_form"),
        "circuit.case_us": call_us("circuit.case"),
        "circuit.grid_ms": med(incl.get("circuit.grid", ()), 1e3),
        "encoder.generate_pe_us": call_us("encoder.generate_pe"),
        "encoder.repetition_us": med(repetition, 1e6),
        "encoder.export_csv_us": call_us("encoder.export_csv"),
        "cli.pe_analyze_ms": med(incl.get("cli.pe_analyze", ()), 1e3),
    }


def self_time_table(tracer: Tracer, n_ops: int) -> list[tuple]:
    """(span name, calls per op, self ms per op) over the traced phase."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + t
    return sorted(
        ((name, calls[name] / n_ops, 1e3 * total[name] / n_ops)
         for name in calls),
        key=lambda row: -row[2],
    )
