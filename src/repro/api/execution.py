"""The unified execution configuration for experiment campaigns.

:class:`ExecutionConfig` bundles the campaign knobs (``seed``,
``repetitions``, ``workers``, ``batch_size``, ``checkpoint_dir``,
``resume``, ``scale``) into one frozen, validated object.  It is the only
way an experiment driver or :func:`repro.experiments.common.run_campaign`
learns them, and the single place the declarative API resolves the campaign
environment variables (``REPRO_CAMPAIGN_WORKERS`` / ``REPRO_CAMPAIGN_BATCH`` /
``REPRO_SCALE``; ``REPRO_CAMPAIGN_REPS`` stays with the config presets via
:func:`repro.core.campaign.default_repetitions`).

``ExecutionConfig()`` leaves every engine knob at "inherit from the
environment"; :meth:`ExecutionConfig.resolved` pins the environment-derived
values so a run's provenance (recorded in
:class:`~repro.api.artifact.ExperimentArtifact`) shows the engine that
actually executed.
"""

from __future__ import annotations

import dataclasses
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.envvars import parse_positive_int
from repro.core.runner import CampaignRunner, default_batch_size, default_workers

__all__ = ["ExecutionConfig"]


@dataclass(frozen=True)
class ExecutionConfig:
    """How an experiment's campaigns execute, as one immutable bundle.

    Parameters
    ----------
    seed:
        Master seed for the experiment (training RNGs and campaign
        ``SeedSequence`` roots all derive from it).
    repetitions:
        Campaign repetition count; ``None`` defers to the experiment
        config's preset (which itself honours ``REPRO_CAMPAIGN_REPS``).
        Explicit values must be positive — ``repetitions=0`` raises instead
        of silently meaning "use the default".
    workers:
        Campaign worker processes (``"auto"`` = one per CPU, normalized at
        construction); ``None`` defers to ``REPRO_CAMPAIGN_WORKERS``.
    batch_size:
        Trials per vectorized batch; ``None`` defers to
        ``REPRO_CAMPAIGN_BATCH``.  Trial functions without a ``run_batch``
        implementation fall back to scalar execution, so the knob is safe
        for every experiment.
    checkpoint_dir:
        Directory receiving per-campaign JSONL trial checkpoints.
    resume:
        Skip trials already recorded under ``checkpoint_dir`` (requires
        ``checkpoint_dir``).
    scale:
        Experiment scale preset (``"small"`` / ``"medium"`` / ``"paper"``);
        ``None`` defers to ``REPRO_SCALE``.
    """

    seed: int = 0
    repetitions: Optional[int] = None
    workers: Optional[Union[int, str]] = None
    batch_size: Optional[int] = None
    checkpoint_dir: Optional[Path] = None
    resume: bool = False
    scale: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        try:
            # operator.index accepts true integer types (int, numpy integers)
            # while rejecting floats, so a seed=2.9 cannot silently truncate.
            object.__setattr__(self, "seed", operator.index(self.seed))
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if self.repetitions is not None:
            object.__setattr__(
                self,
                "repetitions",
                parse_positive_int(self.repetitions, "repetitions"),
            )
        if self.workers is not None:
            object.__setattr__(
                self, "workers", parse_positive_int(self.workers, "workers", allow_auto=True)
            )
        if self.batch_size is not None:
            object.__setattr__(
                self, "batch_size", parse_positive_int(self.batch_size, "batch_size")
            )
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", Path(self.checkpoint_dir))
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        if self.scale is not None:
            from repro.experiments.config import ExperimentScale

            object.__setattr__(self, "scale", ExperimentScale(self.scale).value)

    # -- environment resolution ----------------------------------------- #
    def resolved(self) -> "ExecutionConfig":
        """Pin every ``None`` knob to its environment-derived value.

        This is where the campaign environment variables are consulted on
        behalf of the declarative API: ``REPRO_CAMPAIGN_WORKERS`` and
        ``REPRO_CAMPAIGN_BATCH`` fill the engine knobs and ``REPRO_SCALE``
        pins the scale preset.  ``repetitions`` stays ``None`` on purpose —
        the experiment config's preset is its default, and that preset
        already honours ``REPRO_CAMPAIGN_REPS`` through
        :func:`repro.core.campaign.default_repetitions` (the one place that
        variable is read).  The result executes identically but records
        concrete values for provenance.
        """
        from repro.experiments.config import get_scale

        return self.replace(
            workers=self.workers if self.workers is not None else default_workers(),
            batch_size=self.batch_size
            if self.batch_size is not None
            else default_batch_size(),
            scale=self.scale if self.scale is not None else get_scale().value,
        )

    # -- derived behaviour ---------------------------------------------- #
    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A copy with the given fields replaced (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def resolve_repetitions(self, config_default: int) -> int:
        """The campaign repetition count: explicit override or config preset."""
        if self.repetitions is not None:
            return self.repetitions
        return parse_positive_int(config_default, "config repetitions")

    def campaign_runner(self) -> CampaignRunner:
        """Build the campaign engine these knobs describe."""
        return CampaignRunner(batch_size=self.batch_size, workers=self.workers)

    def engine_description(self) -> str:
        """Human-readable engine summary, e.g. ``"batched(8) x 4 workers"``."""
        resolved = self.resolved()
        workers = resolved.workers or 1
        batch = resolved.batch_size or 1
        if batch > 1 and workers > 1:
            return f"batched({batch}) x {workers} workers"
        if batch > 1:
            return f"batched({batch})"
        if workers > 1:
            return f"parallel({workers} workers)"
        return "serial"

    def cache_key_dict(self) -> Dict[str, Any]:
        """The execution fields that determine an experiment's *numbers*.

        This is what the content-addressed artifact store digests: the seed,
        the repetition count and the scale preset.  The engine knobs
        (``workers`` / ``batch_size``) and the checkpoint knobs are excluded
        on purpose — campaigns are contractually bit-identical across
        serial / parallel / batched execution, so a result computed on one
        engine is a valid cache hit for every other.

        When ``repetitions`` is ``None`` the count comes from the experiment
        config's preset, which honours ``REPRO_CAMPAIGN_REPS``; the raw value
        of that variable is folded into the key so changing it invalidates
        cached results instead of silently serving counts from a different
        environment.
        """
        from repro.core.campaign import REPS_ENV_VAR

        key: Dict[str, Any] = {
            "seed": self.seed,
            "repetitions": self.repetitions,
            "scale": self.resolved().scale,
        }
        if self.repetitions is None:
            key["reps_env"] = os.environ.get(REPS_ENV_VAR)
        return key

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (used by experiment artifacts)."""
        return {
            "seed": self.seed,
            "repetitions": self.repetitions,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "checkpoint_dir": None if self.checkpoint_dir is None else str(self.checkpoint_dir),
            "resume": self.resume,
            "scale": self.scale,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ExecutionConfig":
        return cls(**{key: data.get(key) for key in data if key in _FIELD_NAMES})


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExecutionConfig)}
