"""Experiment orchestration: config parsing, multi-seed runs, aggregation.

A config is a single JSON document with nested sections:

    {
      "dataset": { ... DatasetSpec fields ... },
      "model":   { ... ModelConfig fields (lif/cpg as nested objects) ... },
      "train":   { ... TrainConfig fields ... },
      "seeds":   [1, 2, 3],
      "pe_modes": ["none", "cpg"]
    }

Every section is optional; an unknown one (a typo) raises ValueError.

Results are deterministic for a fixed config: wall-clock data stays in the
training logs, never in the result records.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import traceback
from pathlib import Path

from .data import DatasetSpec, build_dataset
from .encoder import CPGPEConfig
from .metrics import evaluate
from .models import ForecastModel, ModelConfig
from .neuron import LIFParams
from .training import TrainConfig, predict, train


SECTIONS = ("dataset", "model", "train", "seeds", "pe_modes")


def parse_config(doc: dict) -> dict:
    unknown = sorted(set(doc) - set(SECTIONS))
    if unknown:
        raise ValueError(f"unknown config sections {unknown}; "
                         f"expected some of {list(SECTIONS)}")
    dataset = DatasetSpec(**doc.get("dataset", {}))
    model_doc = dict(doc.get("model", {}))
    lif = LIFParams(**model_doc.pop("lif", {}))
    cpg_doc = model_doc.pop("cpg", None)
    cpg = CPGPEConfig(**cpg_doc) if cpg_doc is not None else None
    model = ModelConfig(lif=lif, cpg=cpg, **model_doc)
    train_cfg = TrainConfig(**doc.get("train", {}))
    return {
        "dataset": dataset,
        "model": model,
        "train": train_cfg,
        "seeds": list(doc.get("seeds", [0])),
        "pe_modes": list(doc.get("pe_modes", [model.pe_mode])),
    }


def load_config(path: str | Path) -> dict:
    return parse_config(json.loads(Path(path).read_text()))


def _model_with(cfg: ModelConfig, pe_mode: str, seed: int) -> ModelConfig:
    return dataclasses.replace(cfg, pe_mode=pe_mode, seed=seed)


def run_single(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
               seed: int, pe_mode: str, log_path=None):
    """One training run; returns (model, result record)."""
    cfg = _model_with(model_cfg, pe_mode, seed)
    in_channels = dataset.train.history.shape[-1]
    model = ForecastModel(cfg, in_channels, dataset.spec.l_pred)
    tc = dataclasses.replace(train_cfg, seed=seed)
    fit = train(model, dataset, tc, log_path=log_path)
    pred = predict(model, dataset.test.history,
                   getattr(dataset.test, "offsets", None))
    report = evaluate(pred, dataset.test.target)
    record = {
        "pe_mode": pe_mode,
        "seed": seed,
        "best_valid_r2": fit["best_valid_r2"],
        "best_epoch": fit["best_epoch"],
        "test": report.to_dict(),
        "n_parameters": model.n_parameters(),
    }
    return model, record


def run_experiment(config: dict, out_dir: str | Path | None = None) -> dict:
    """Train every (pe_mode, seed) pair and aggregate test metrics.

    A run that raises is recorded with its error and traceback (the
    traceback also goes to stderr), and the other runs go on.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(config["dataset"])
    records = []
    for pe_mode in config["pe_modes"]:
        for seed in config["seeds"]:
            log_path = (
                out_dir / f"train_{pe_mode}_seed{seed}.jsonl"
                if out_dir is not None else None
            )
            try:
                _, record = run_single(
                    dataset, config["model"], config["train"], seed, pe_mode,
                    log_path=log_path,
                )
            except Exception as exc:  # partial results still emitted
                trace = traceback.format_exc()
                print(f"run pe_mode={pe_mode} seed={seed} failed:\n{trace}",
                      file=sys.stderr)
                record = {"pe_mode": pe_mode, "seed": seed,
                          "error": f"{type(exc).__name__}: {exc}",
                          "traceback": trace}
            records.append(record)
    aggregates = {}
    for pe_mode in config["pe_modes"]:
        rs = [r for r in records
              if r["pe_mode"] == pe_mode and "error" not in r]
        if rs:
            aggregates[pe_mode] = {
                "mean_test_r2": sum(r["test"]["r2"] for r in rs) / len(rs),
                "mean_test_rse": sum(r["test"]["rse"] for r in rs) / len(rs),
                "n_runs": len(rs),
            }
    result = {"records": records, "aggregates": aggregates}
    if out_dir is not None:
        (out_dir / "results.json").write_text(json.dumps(result, indent=2))
    return result
