"""Native-batch-vs-serial guardrail for the Fig. 7 drone campaigns.

:class:`~repro.envs.drone.DroneNavEnvBatch` steps B drone episodes in
lockstep through replica-axis numpy ray casting, while the batched
evaluator runs the B fault-injected policy replicas as one stacked forward
pass.  This module times the same Fig. 7 MSF campaign with the native
batched engine and under the serial engine
(``CampaignRunner(batch_size=1, workers=1)``), asserts both produce
bit-identical per-trial MSF values, and **fails if the native batch is less
than 2x faster than serial** at the pinned batch size.

Runs as plain pytest (no pytest-benchmark plugin), like the other
guardrails (see the "fig7 smoke" job in ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batched_fig7.py -q
"""

import dataclasses
import time

import pytest

from bench_snapshot_lib import write_snapshot
from repro.core import Campaign, CampaignRunner
from repro.core.fault_models import TransientBitFlip
from repro.experiments.common import build_drone_bundle
from repro.experiments.config import DroneConfig
from repro.experiments.fig7_drone import _DroneMSFTrial

#: Batch size the acceptance guardrail is pinned at.
BATCH_SIZE = 8

#: Campaign repetitions: six full batches per engine, enough episode work to
#: dominate timer noise while keeping the total run CI-friendly.
REPETITIONS = 48

#: Required end-to-end advantage of the native batched engine over
#: the serial engine at ``BATCH_SIZE`` — campaign wall-clock, not env-only.
REQUIRED_SPEEDUP = 2.0

ENV_NAME = "indoor-long"


@pytest.fixture(scope="module")
def drone_bundle():
    # A small image keeps the (shared) stacked network forward from masking
    # the environment cost this guardrail exists to compare; 20 is the
    # smallest input the drone CNN accepts.
    config = dataclasses.replace(
        DroneConfig.fast(), image_size=20, eval_trials=1, max_eval_steps=80
    )
    return build_drone_bundle(config, seed=0)


def _best_of(fn, rounds=3):
    """Best-of-N wall-clock time (min is the standard low-noise estimator)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _metrics(result):
    return [o.metric for o in result.outcomes]


def test_native_batch_at_least_2x_faster_than_serial(drone_bundle):
    # The zero-BER point of the fig7b sweep: clean weights, so episodes run
    # their full course and the timing compares steady-state stepping cost.
    native = _DroneMSFTrial(
        drone_bundle, ENV_NAME, weight_fault=TransientBitFlip(0.0)
    )
    campaign = Campaign("fig7-guardrail", repetitions=REPETITIONS, seed=3)

    batched = CampaignRunner(batch_size=BATCH_SIZE, workers=1)
    campaign.run(native, runner=batched)  # warm caches before timing
    native_time, native_result = _best_of(lambda: campaign.run(native, runner=batched))
    serial_time, serial_result = _best_of(
        lambda: campaign.run(native, runner=CampaignRunner(batch_size=1, workers=1))
    )

    assert _metrics(native_result) == _metrics(serial_result), (
        "native batched and serial campaigns diverged — the two paths must "
        "be bit-identical"
    )

    speedup_vs_serial = serial_time / native_time
    print(
        f"\nfig7 MSF campaign ({REPETITIONS} trials, single worker): "
        f"serial {serial_time:.3f}s, native(B={BATCH_SIZE}) {native_time:.3f}s "
        f"-> {speedup_vs_serial:.2f}x vs serial"
    )
    write_snapshot(
        "batched_fig7",
        {
            "repetitions": REPETITIONS,
            "batch_size": BATCH_SIZE,
            "image_size": 20,
            "eval_trials": 1,
            "serial_s": serial_time,
            "native_s": native_time,
            "speedup_vs_serial": speedup_vs_serial,
        },
    )
    assert speedup_vs_serial >= REQUIRED_SPEEDUP, (
        f"native drone batch is only {speedup_vs_serial:.2f}x faster than "
        f"serial at B={BATCH_SIZE} (required: {REQUIRED_SPEEDUP}x); the "
        "vectorized hot path has regressed"
    )


def test_faulty_campaign_identical_across_engines(drone_bundle):
    # Untimed identity check at a damaging BER: faulted replicas diverge and
    # finish at different steps, exercising the partial-batch stepping the
    # timed clean run barely touches.
    native = _DroneMSFTrial(
        drone_bundle, ENV_NAME, weight_fault=TransientBitFlip(1e-3)
    )
    campaign = Campaign("fig7-guardrail-faulty", repetitions=REPETITIONS, seed=7)
    native_result = campaign.run(
        native, runner=CampaignRunner(batch_size=BATCH_SIZE, workers=1)
    )
    serial_result = campaign.run(native, runner=CampaignRunner(batch_size=1, workers=1))
    assert _metrics(native_result) == _metrics(serial_result)
