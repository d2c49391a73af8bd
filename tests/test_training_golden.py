"""Golden bit-identity of tabular training under stuck-at faults.

Fig. 4b's extra-training campaign and a single faulted training run are
pinned to values recorded with the whole-table Q-value codec (every step
decoding and re-encoding the full table).  Training's element accessors
must reproduce them exactly: a change to the arithmetic of the Bellman
update or to the order of RNG draws (epsilon, random action, greedy
tie-break, fault sampling) changes these numbers.
"""

import hashlib

import numpy as np
import pytest

from repro.api import ExecutionConfig
from repro.core.injector import PermanentTrainingFaultHook
from repro.experiments.common import train_tabular
from repro.experiments.config import GridTabularConfig
from repro.experiments.fig4_convergence import run_permanent_extra_training

EXTRA_TRAINING_TABLE = [
    ("stuck-at-0", 0.0, 0.8),
    ("stuck-at-0", 0.01, 0.575),
    ("stuck-at-1", 0.0, 0.8),
    ("stuck-at-1", 0.01, 0.0),
]

#: sha256 of the little-endian int64 raw Q-table words after training.
QTABLE_SHA256 = {
    0: "ed6034ec086c66a7c6ba321bc0354ee34af3052321596f762c8e28f506a7fd86",
    1: "9aae5d9df6aef81d9a01e8fb3812fda1596f267df4671f9281d402099686b085",
}
TRAINING_STEPS = {0: 4691, 1: 7450}


@pytest.mark.parametrize("batch_size", [1, 4])
def test_permanent_extra_training_table(batch_size):
    table = run_permanent_extra_training(
        GridTabularConfig.fast(),
        [0.0, 0.01],
        extra_episode_grid=(10,),
        execution=ExecutionConfig(seed=11, repetitions=4, workers=1, batch_size=batch_size),
    )
    rows = [(r["fault_type"], r["bit_error_rate"], r["success_rate"]) for r in table.rows]
    assert rows == EXTRA_TRAINING_TABLE
    assert all(r["extra_episodes"] == 10 and r["repetitions"] == 4 for r in table.rows)


@pytest.mark.parametrize("stuck_value", [0, 1])
def test_faulted_training_qtable(stuck_value):
    rng = np.random.default_rng(5)
    hook = PermanentTrainingFaultHook(0.01, stuck_value=stuck_value, rng=rng)
    agent, _, result = train_tabular(GridTabularConfig.fast(), rng, hooks=[hook])
    raw = agent.memory_buffers()["qtable"].raw
    assert hashlib.sha256(raw.astype("<i8").tobytes()).hexdigest() == QTABLE_SHA256[stuck_value]
    assert sum(record.steps for record in result.records) == TRAINING_STEPS[stuck_value]
