"""Batched-vs-serial guardrail for the Fig. 5 inference campaign.

The batched campaign engine exists to make inference campaigns faster; this
module keeps that promise honest.  It times the same Fig. 5 campaign (clean
policy trained once, timing covers campaign execution only) under
``CampaignRunner(batch_size=1, workers=1)`` and
``CampaignRunner(batch_size=8, workers=1)`` and **fails if the batched path
is slower than serial** — while also asserting the two engines
produce bit-identical per-trial outcomes.

Unlike the figure benchmarks this module needs no pytest-benchmark plugin,
so CI can run it as a plain pytest invocation (see the "Batched engine
guardrail" step in ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_batched_fig5.py -q
"""

import time

import numpy as np
import pytest

from bench_snapshot_lib import write_snapshot
from repro.core import Campaign, CampaignRunner
from repro.experiments.common import train_grid_nn
from repro.experiments.config import GridNNConfig
from repro.experiments.fig5_inference import _NNInferenceTrial

#: Batch size the acceptance guardrail is pinned at.
BATCH_SIZE = 8

#: Campaign repetitions: enough work to dominate timer noise, small enough
#: for CI (a few seconds per engine).
REPETITIONS = 48


def _best_of(fn, rounds=3):
    """Best-of-N wall-clock time (min is the standard low-noise estimator)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_guardrail(trial, label):
    campaign = Campaign(f"fig5-guardrail-{label}", repetitions=REPETITIONS, seed=3)
    serial_runner = CampaignRunner(batch_size=1, workers=1)
    batched_runner = CampaignRunner(batch_size=BATCH_SIZE, workers=1)
    serial_time, serial = _best_of(lambda: campaign.run(trial, runner=serial_runner))
    batched_time, batched = _best_of(lambda: campaign.run(trial, runner=batched_runner))
    assert [o.metric for o in batched.outcomes] == [o.metric for o in serial.outcomes], (
        f"{label}: batched outcomes diverged from serial — the engines must be "
        "bit-identical"
    )
    speedup = serial_time / batched_time
    print(
        f"\nfig5 {label} campaign ({REPETITIONS} trials, single worker): "
        f"serial {serial_time:.2f}s, batched(B={BATCH_SIZE}) {batched_time:.2f}s "
        f"-> {speedup:.2f}x"
    )
    write_snapshot(
        f"batched_fig5_{label}",
        {
            "repetitions": REPETITIONS,
            "batch_size": BATCH_SIZE,
            "serial_s": serial_time,
            "batched_s": batched_time,
            "speedup": speedup,
        },
    )
    assert speedup >= 1.0, (
        f"batched fig5 {label} campaign is SLOWER than serial at B={BATCH_SIZE} "
        f"({speedup:.2f}x); the vectorized path has regressed"
    )
    return speedup


@pytest.mark.parametrize("mode", ["transient-m", "transient-1"])
def test_batched_nn_fig5_not_slower_than_serial(mode):
    config = GridNNConfig.fast()
    agent, env, _ = train_grid_nn(config, np.random.default_rng(0))
    trial = _NNInferenceTrial(
        agent, env, mode, 0.01, config.max_steps, config.weight_qformat, 5
    )
    _run_guardrail(trial, f"nn-{mode}")

