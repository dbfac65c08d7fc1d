"""Pinned training trajectory: the first five epochs of the quickstart cpg run.

Refactors of the autodiff engine, the layers or the trainer must reproduce
these figures to 1e-9 relative.  Summation order may legitimately change the
last digits, never more.  The values were recorded with numpy 2.4 on x86-64.
"""

import dataclasses
from pathlib import Path

import numpy as np

from cpgsnn.data import build_dataset
from cpgsnn.experiment import load_config
from cpgsnn.models import ForecastModel
from cpgsnn.training import train

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quickstart.json"
RTOL = 1e-9

# (train_loss, valid_r2) per epoch
EPOCHS = [
    (1.0175071971044045, -0.03060137943878401),
    (1.0059757867533778, -0.027935036859295173),
    (1.006166578454957, -0.020837948001524376),
    (1.0033330007380026, -0.025290642661109072),
    (1.0028013520070338, -0.022063367281996562),
]

# Position-weighted L1 norm of every parameter and buffer after training
# (the best-validation state, epoch 2, that train() restores).
DIGEST = {
    "encoder.proj.weight": 12.102366481263477,
    "encoder.proj.bias": 0.5821006909472859,
    "pe_block.linear.weight": 26.499730192685796,
    "pe_block.linear.bias": 4.0517451121414443e-10,
    "pe_block.bn.scale": 11.538445261371304,
    "pe_block.bn.shift": 0.6400334090403246,
    "layers.0.w_in.weight": 18.21855445537893,
    "layers.0.w_in.bias": 6.866899973031012e-10,
    "layers.0.w_rec.weight": 18.278895524471498,
    "layers.0.bn.scale": 10.919716108806659,
    "layers.0.bn.shift": 1.0306773790610575,
    "head.fc1.weight": 250.1236530081619,
    "head.fc1.bias": 6.0423199816432955,
    "head.fc2.weight": 293.869898994347,
    "head.fc2.bias": 0.44298446033539013,
    "encoder.channel_mean": 0.02157070121928242,
    "encoder.channel_std": 4.532438889042242,
    "pe_block.bn.running_mean": 2.3469514852842215,
    "pe_block.bn.running_var": 1.5136030779076042,
    "layers.0.bn.running_mean": 1.889175109124776,
    "layers.0.bn.running_var": 1.555088649875417,
}


def weighted_l1(a: np.ndarray) -> float:
    a = np.abs(np.asarray(a, dtype=np.float64).ravel())
    return float((a * np.linspace(1.0, 2.0, a.size)).sum())


def test_quickstart_cpg_first_five_epochs():
    config = load_config(CONFIG)
    dataset = build_dataset(config["dataset"])
    model_cfg = dataclasses.replace(config["model"], pe_mode="cpg", seed=0)
    model = ForecastModel(model_cfg, dataset.train.history.shape[-1],
                          dataset.spec.l_pred)
    fit = train(model, dataset,
                dataclasses.replace(config["train"], epochs=5, seed=0))

    got = [(e["train_loss"], e["valid_r2"]) for e in fit["log"]]
    assert len(got) == len(EPOCHS)
    np.testing.assert_allclose(got, EPOCHS, rtol=RTOL, atol=0)

    digest = {name: weighted_l1(p.data) for name, p in model.parameters()}
    digest.update((name, weighted_l1(b)) for name, b in model.buffers())
    assert digest.keys() == DIGEST.keys()
    for name, ref in DIGEST.items():
        # The biases ahead of a BatchNorm get zero gradient in exact
        # arithmetic; their ~1e-10 values are round-off, so the tolerance
        # is relative to max(|ref|, 1).
        assert abs(digest[name] - ref) <= RTOL * max(abs(ref), 1.0), name
