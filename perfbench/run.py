"""cpgsnn benchmark: three closed-loop workloads against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload train-cpg --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads (one client, each op starts when the previous one ends):

  train-cpg  one op = one epoch of training.train, cpg model, ablation shape
  eval-none  one op = training.predict on 256 windows, none model
  gates      closed form vs RK4 per system, plus circuit grid and pe-analyze

With --trace 0 the run prints the end-to-end metrics:

  setup_s      median time to build a workload's inputs and model
  op_ms_p90    90th percentile op latency (an epoch, a 256-window predict,
               an RK4 system)
  ok_ratio     ops whose checks passed over ops attempted
  peak_rss_mb  peak resident memory of the run

and, in its table only, the median and mean op latency and the items (windows
or RK4 systems) per second.  These carry no bound: on a shared virtual
machine whose speed switches between two modes, a run's median follows
whichever mode held most of it, while the 90th percentile stays with the
slower mode.

With --trace 1 it runs half its time with spans around each layer's
public calls and half untraced, and prints the per-layer metrics.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    LoopResult,
    TooFewSamples,
    Tracer,
    median,
    min_samples_for,
    run_closed_loop,
    self_times,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS may spread a tiny matmul over every core; on a small shared machine
# that costs more than it saves and makes timings depend on other load.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed again on a throwaway workload through the timed loop, at
# most once a second and in at most a twentieth of the loop's time: a median
# over the whole run does not follow a short spell when the machine runs
# faster or slower than usual.
SETUP_EVERY_S = 1.0
SETUP_SHARE = 0.05
TAIL_Q = 0.9
MAX_LOOP_S = 140.0  # a run must end well inside three minutes
MIN_TRACED_OPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.encoder.fwd_us": "us",
    "models.rnn.fwd_us": "us",
    "models.readout.fwd_us": "us",
    "blocks.pe.fwd_us": "us",
    "tensor.backward_us": "us",
    "training.loss.fwd_us": "us",
    "training.adam_us": "us",
    "training.predict_ms": "ms",
    "data.batch_us": "us",
    "metrics.r2_us": "us",
    "tensor.graph_nodes": "count",
    "tensor.graph_mb": "MB-computed",
    "neuron.spike_rate.encoder": "ratio",
    "neuron.spike_rate.pe": "ratio",
    "neuron.spike_rate.rnn": "ratio",
    "oscillator.rk4_us_per_step": "us",
    "oscillator.closed_form_us": "us",
    "circuit.case_us": "us",
    "circuit.grid_ms": "ms",
    "encoder.generate_pe_us": "us",
    "encoder.repetition_us": "us",
    "encoder.export_csv_us": "us",
    "cli.pe_analyze_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}

WORKLOAD_NAMES = ("train-cpg", "eval-none", "gates")


def pin_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"


def import_package():
    """Import cpgsnn from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cpgsnn

    if Path(cpgsnn.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cpgsnn imported from {cpgsnn.__file__}, not {SRC}")
    return cpgsnn


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(loop: LoopResult, primary: str, setup_s: list,
                       attempted: int, failed: int, rss_mb: float) -> dict:
    lat = loop.latencies_ms[primary]
    values = {
        "setup_s": median(setup_s),
        "op_ms_p90": tail_percentile(lat, TAIL_Q),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer_metrics(figures: dict) -> dict:
    return {k: {"value": figures[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def with_setups(w, op, every_s: float, share: float):
    """op, except that now and then the call sets up a fresh copy of the
    workload instead, as an op of kind "setup": at most every `every_s`
    seconds, and taking at most `share` of the time."""
    due = [time.perf_counter() + every_s]

    def op_or_setup(i):
        start = time.perf_counter()
        if start < due[0]:
            return op(i)
        type(w)(w.seed, w.root).setup()
        end = time.perf_counter()
        due[0] = end + max(every_s, (end - start) / share)
        return "setup", 1

    return op_or_setup


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import cpgsnn from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    print("env " + json.dumps(environment()))
    w = wl.WORKLOADS[name](seed, ROOT)
    try:
        t0 = time.perf_counter()
        w.setup()
        setup_s = [time.perf_counter() - t0]
        # warm-up ops fill caches; they count as attempted but are not timed
        warm = run_closed_loop(w.op, MAX_LOOP_S, w.primary, 0, MAX_LOOP_S,
                               max_ops=w.warmup_ops)
        loops = [warm]
        offset = w.warmup_ops
        if not trace:
            timed = run_closed_loop(
                with_setups(w, lambda i: w.op(offset + i), SETUP_EVERY_S,
                            SETUP_SHARE),
                seconds, w.primary, min_samples_for(TAIL_Q), MAX_LOOP_S)
            loops.append(timed)
            setup_s += [ms / 1e3 for ms in timed.latencies_ms.get("setup", ())]
        else:
            # traced first, so the traced ops start from the same state on
            # every run and the spike rates of its first ops depend on the
            # seed alone
            tracer = Tracer()
            stats = wl.TraceStats(tracer, MIN_TRACED_OPS)
            op_span = tracer.wrap("op", w.op)

            def traced_op(i):
                tracer.op_id = i
                return op_span(offset + i)

            with wl.instrument(w, tracer, stats):
                traced = run_closed_loop(traced_op, seconds / 2, w.primary,
                                         MIN_TRACED_OPS, MAX_LOOP_S / 2)
            loops.append(traced)
            offset += traced.attempted
            base = run_closed_loop(lambda i: w.op(offset + i), seconds / 2,
                                   w.primary, MIN_TRACED_OPS, MAX_LOOP_S / 2)
            loops.append(base)
    finally:
        w.close()
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for msg in lp.failures:
            print("FAILED " + msg, file=sys.stderr)
    correct = failed == 0
    try:
        if not trace:
            metrics = end_to_end_metrics(timed, w.primary, setup_s,
                                         attempted, failed, peak_rss_mb())
            report_end_to_end(w, timed, metrics, wl)
        else:
            metrics = per_layer_metrics(traced_figures(wl, w, base, traced,
                                                       tracer, stats))
            report_per_layer(tracer, traced, metrics, wl)
    except (TooFewSamples, statistics.StatisticsError, KeyError):
        if correct:
            raise
        metrics = {}  # failed ops left too few samples for the figures
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def traced_figures(wl, w, base: LoopResult, traced: LoopResult,
                   tracer: Tracer, stats) -> dict:
    figures = wl.layer_figures(tracer, stats)
    traced_p50 = median(traced.latencies_ms[w.primary])
    op_self = [
        t for s, t in zip(tracer.spans, self_times(tracer.spans))
        if s.name == "op"
    ]
    figures["trace.op_ms_p50"] = traced_p50
    figures["trace.overhead_ms"] = (
        traced_p50 - median(base.latencies_ms[w.primary]))
    figures["trace.unattributed_ms"] = 1e3 * median(op_self)
    return figures


def report_end_to_end(w, loop: LoopResult, metrics: dict, wl) -> None:
    lat = loop.latencies_ms[w.primary]
    mean_ms = sum(lat) / len(lat)
    print(f"{w.name}: {len(lat)} {w.primary} ops timed; p50 {median(lat):.3f} "
          f"ms, mean {mean_ms:.3f} ms, "
          f"{1e3 * loop.items[w.primary] / mean_ms:.2f} items/s")
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
    if w.name != "gates":
        return
    # each gate's wall time against its bound in tests/test_acceptance.py;
    # an overrun is reported, never counted as a failed op
    rk4_gate_s = sum(lat[:wl.RK4_SYSTEMS]) / 1e3
    rows = [
        ("rk4", f"{wl.RK4_SYSTEMS} systems", rk4_gate_s),
        ("grid", f"{wl.GRID_CASES} cases, p50",
         median(loop.latencies_ms["grid"]) / 1e3),
        ("pe_analyze", f"{wl.PE_CODES} codes, p50",
         median(loop.latencies_ms["pe_analyze"]) / 1e3),
    ]
    for kind, what, secs in rows:
        bound = wl.GATE_BOUNDS_S[kind]
        verdict = "within" if secs < bound else "OVER"
        print(f"  gate {kind:<10} ({what}) {secs:8.3f} s  bound {bound:g} s "
              f"{verdict}; n={len(loop.latencies_ms[kind])}")


def report_per_layer(tracer: Tracer, loop: LoopResult, metrics: dict,
                     wl) -> None:
    n_ops = loop.attempted
    print(f"traced phase: {n_ops} ops, {len(tracer.spans)} spans")
    print("  self time per op by span (ms):")
    for name, calls, ms in wl.self_time_table(tracer, n_ops):
        print(f"    {name:<24} {calls:8.2f} calls {ms:10.3f} ms")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
