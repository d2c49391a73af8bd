"""``batch_size x workers`` composition profile for the campaign engines.

The engine knobs compose: ``CampaignRunner(batch_size=B, workers=W)`` shards
batches across W worker processes, each evaluating B replicas through the
vectorized forward path.  This module profiles the small knob grid on the
Fig. 5 and Fig. 7 campaigns, records every operating point (and the best
one) in ``BENCH_composition_*.json``, asserts all points stay bit-identical,
and fails if composing the knobs ever loses to plain serial execution —
the floor that makes ``--workers``/``--batch-size`` safe advice.

Runs as plain pytest, like the other guardrails::

    PYTHONPATH=src python -m pytest benchmarks/bench_composition.py -q
"""

import dataclasses
import time

import numpy as np
import pytest

from bench_snapshot_lib import write_snapshot
from repro.core import Campaign, CampaignRunner
from repro.core.fault_models import TransientBitFlip
from repro.experiments.common import build_drone_bundle, train_grid_nn
from repro.experiments.config import DroneConfig, GridNNConfig
from repro.experiments.fig5_inference import _NNInferenceTrial
from repro.experiments.fig7_drone import _DroneMSFTrial

#: The profiled operating points.  (1, 1) is the serial baseline; the rest
#: exercise each knob alone and both together.  Small on purpose — this runs
#: in CI, and the interesting signal is the *shape*, not exhaustive coverage.
GRID = [(1, 1), (1, 8), (2, 1), (2, 8)]  # (workers, batch_size)

#: Campaign repetitions: divisible by every profiled batch size.
REPETITIONS = 32


def _best_of(fn, rounds=2):
    """Best-of-N wall-clock time (min is the standard low-noise estimator)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _metrics(result):
    return [o.metric for o in result.outcomes]


def _profile(name, trial):
    campaign = Campaign(f"composition-{name}", repetitions=REPETITIONS, seed=3)
    campaign.run(trial, runner=CampaignRunner(batch_size=1, workers=1))  # warm caches

    times = {}
    reference_metrics = None
    for workers, batch_size in GRID:
        runner = CampaignRunner(batch_size=batch_size, workers=workers)
        elapsed, result = _best_of(lambda: campaign.run(trial, runner=runner))
        times[(workers, batch_size)] = elapsed
        if reference_metrics is None:
            reference_metrics = _metrics(result)
        else:
            assert _metrics(result) == reference_metrics, (
                f"{name}: workers={workers} batch_size={batch_size} diverged "
                "from the serial baseline — every composition must be "
                "bit-identical"
            )

    serial_time = times[(1, 1)]
    best_point = min(times, key=times.get)
    best_time = times[best_point]
    lines = ", ".join(
        f"W={w} B={b}: {t:.3f}s ({serial_time / t:.2f}x)"
        for (w, b), t in sorted(times.items())
    )
    print(f"\ncomposition {name} ({REPETITIONS} trials): {lines}")
    write_snapshot(
        f"composition_{name}",
        {
            "repetitions": REPETITIONS,
            "points": {
                f"workers={w},batch={b}": t for (w, b), t in sorted(times.items())
            },
            "serial_s": serial_time,
            "best_point": f"workers={best_point[0]},batch={best_point[1]}",
            "best_s": best_time,
            "best_speedup": serial_time / best_time,
        },
    )
    # The floor: the best *composed* operating point (serial excluded, so the
    # assert cannot pass vacuously) must not lose to plain serial execution.
    composed = {point: t for point, t in times.items() if point != (1, 1)}
    best_composed = min(composed, key=composed.get)
    assert composed[best_composed] <= serial_time, (
        f"{name}: every composed operating point lost to serial "
        f"(best W={best_composed[0]} B={best_composed[1]} at "
        f"{composed[best_composed]:.3f}s vs serial {serial_time:.3f}s)"
    )


def test_composition_profile_fig5():
    config = GridNNConfig.fast()
    agent, env, _ = train_grid_nn(config, np.random.default_rng(0))
    trial = _NNInferenceTrial(
        agent, env, "transient-m", 0.01, config.max_steps, config.weight_qformat, 5
    )
    _profile("fig5", trial)


def test_composition_profile_fig7():
    config = dataclasses.replace(
        DroneConfig.fast(), image_size=20, eval_trials=1, max_eval_steps=80
    )
    bundle = build_drone_bundle(config, seed=0)
    trial = _DroneMSFTrial(bundle, "indoor-long", weight_fault=TransientBitFlip(1e-3))
    _profile("fig7", trial)
