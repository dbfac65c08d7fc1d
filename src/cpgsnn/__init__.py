"""Spiking-network toolkit: LIF dynamics with surrogate gradients, binary
positional encoding from thresholded oscillators, and a desk-scale
forecasting harness."""

from .tensor import (
    GraphError,
    ShapeError,
    SpikeTensor,
    Tensor,
    concat,
    concat_features,
    stack,
)
from .neuron import LIFParams, MembraneState, SpikingLayer, lif_step, spike, surrogate_grad
from .oscillator import (
    OscillatorParams,
    OscillatorSolution,
    closed_form,
    integrate_rk4,
    verify_sinusoidal_pe_is_solution,
)
from .encoder import (
    CPGPEConfig,
    cpg_pe_at,
    float_pe,
    generate_pe,
    position_repetition_rate,
    random_pe,
    repetition_rate,
)
from .circuit import (
    CircuitParams,
    CircuitTrace,
    derive_currents,
    first_spike_time,
    first_spike_time_uncorrected,
    simulate_circuit,
    simulate_first_spike,
    verify_grid,
    verify_period,
)
from .blocks import CPGLinearLayer, CPGPEBlock, FloatPEBlock
from .models import ForecastModel, ModelConfig, SpikeRNNLayer, SpikeTCNLayer
from .metrics import MetricReport, compute_r2, compute_rse, evaluate
from .data import DatasetSpec, build_dataset, gen_series, make_windows
from .training import TrainConfig, train, predict
from .experiment import load_config, parse_config, run_experiment

__version__ = "0.1.0"
