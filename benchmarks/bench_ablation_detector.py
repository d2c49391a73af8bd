"""Ablation benchmarks for the design choices of the range-based anomaly detector."""

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core.fault_models import TransientBitFlip
from repro.core.injector import inject_weight_faults
from repro.core.mitigation.anomaly import RangeAnomalyDetector
from repro.experiments.common import build_drone_bundle, evaluate_drone_msf
from repro.experiments.fig7_drone import executor_policy
from repro.io.results import ResultTable


def _msf_with_margin(bundle, config, margin, compare_integer_only, ber, seed):
    rng = np.random.default_rng(seed)
    executor = bundle.make_executor()
    try:
        inject_weight_faults(executor, TransientBitFlip(ber), rng=rng)
        detector = RangeAnomalyDetector(
            bundle.range_profile,
            margin=margin,
            compare_integer_bits_only=compare_integer_only,
        )
        detector.apply_to_weights(executor)
        return evaluate_drone_msf(
            executor_policy(executor),
            bundle.env(config.environment),
            trials=config.eval_trials,
            max_steps=config.max_eval_steps,
        )
    finally:
        executor.restore_clean_weights()


@pytest.mark.benchmark(group="ablation")
def test_ablation_detection_margin(benchmark, drone_config):
    """Sweep the detection margin around the paper's 10% choice."""
    bundle = build_drone_bundle(drone_config, seed=0)

    def run():
        table = ResultTable(title="Ablation: anomaly-detection margin (weight faults, BER=1e-4)")
        for margin in (0.0, 0.1, 0.5):
            msf = np.mean(
                [_msf_with_margin(bundle, drone_config, margin, True, 1e-4, seed) for seed in (0, 1)]
            )
            table.add(margin=margin, mean_safe_flight=float(msf))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    report(table)


@pytest.mark.benchmark(group="ablation")
def test_ablation_compare_mode(benchmark, drone_config):
    """Sign+integer-bit comparison vs full-value comparison in the detector."""
    bundle = build_drone_bundle(drone_config, seed=0)

    def run():
        table = ResultTable(title="Ablation: detector compare mode (weight faults, BER=1e-4)")
        for integer_only in (True, False):
            msf = np.mean(
                [
                    _msf_with_margin(bundle, drone_config, 0.1, integer_only, 1e-4, seed)
                    for seed in (0, 1)
                ]
            )
            table.add(compare_integer_bits_only=integer_only, mean_safe_flight=float(msf))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    report(table)
