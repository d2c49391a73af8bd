"""Sweep orchestration: many experiment points, computed at most once each.

The paper's headline figures are all sweeps — failure rate vs. fault rate,
bit position, quantization width, mitigation strategy.  ``repro.sweep``
turns such studies into data: a :class:`SweepSpec` enumerates points over a
registered experiment's typed parameters (grid / zip / random), and a
:class:`SweepRunner` executes them through the campaign engine with
content-addressed caching (:mod:`repro.store`), JSONL checkpoint / resume,
identity-derived per-point seeds, optional precision-adaptive repetition
growth (:class:`AdaptiveConfig`), and optional point parallelism over the
campaign engine's process pool (``workers=N``, bit-identical results).
The public entry points are :func:`repro.api.sweep` (``sweep_workers=N``)
and ``python -m repro sweep`` (``--sweep-workers N``).
"""

from repro.sweep.artifact import SweepArtifact, SweepPoint
from repro.sweep.checkpoint import SweepCheckpoint, sweep_digest
from repro.sweep.runner import (
    SWEEP_WORKERS_ENV_VAR,
    AdaptiveConfig,
    SweepExecutionError,
    SweepRunner,
    default_sweep_workers,
    derive_point_seed,
)
from repro.sweep.spec import SWEEP_MODES, SweepSpec, coerce_param_value

__all__ = [
    "SWEEP_MODES",
    "SWEEP_WORKERS_ENV_VAR",
    "AdaptiveConfig",
    "SweepArtifact",
    "SweepCheckpoint",
    "SweepExecutionError",
    "SweepPoint",
    "SweepRunner",
    "SweepSpec",
    "coerce_param_value",
    "default_sweep_workers",
    "derive_point_seed",
    "sweep_digest",
]
