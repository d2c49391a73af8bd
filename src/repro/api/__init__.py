"""repro.api — the declarative experiment API (the public entry point).

Experiments are *data*: each paper figure registers one or more
:class:`~repro.experiments.registry.ExperimentSpec` objects describing its
typed sweep parameters, and :func:`run` executes any spec by name under a
single :class:`ExecutionConfig` that bundles every engine / checkpoint /
seed / scale knob::

    from repro import api

    artifact = api.run(
        "fig5.inference",
        params={"approach": "nn"},
        execution=api.ExecutionConfig(seed=1, batch_size=8, workers=4),
    )
    artifact.result      # the ResultTable, bit-identical to a serial run
    artifact.engine      # "batched(8) x 4 workers"
    artifact.to_json("fig5.json")

The same registry drives the CLI (``python -m repro <figure>`` and
``python -m repro list``), so anything expressible as a flag is expressible
programmatically and vice versa.  The figure drivers (the ``run_*``
functions in :mod:`repro.experiments`) take the same config as their
keyword-only ``execution`` argument.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Iterator, List, Mapping, Optional

from repro.api.artifact import ExperimentArtifact
from repro.api.execution import ExecutionConfig

__all__ = [
    "ExecutionConfig",
    "ExperimentArtifact",
    "run",
    "sweep",
    "get_spec",
    "list_experiments",
]


@contextlib.contextmanager
def _telemetry_collector() -> Iterator[Optional[Any]]:
    """Yield a subscribed :class:`~repro.telemetry.Metrics`, or ``None``.

    When the process-global event bus has subscribers (a trace sink, a
    progress reporter, …) this attaches a metrics aggregator for the
    duration of the ``with`` block so the resulting artifact can carry a
    ``telemetry`` summary.  On the untraced fast path it yields ``None``
    without importing anything beyond the bus module.
    """
    from repro.telemetry.bus import default_bus

    bus = default_bus()
    if not bus.active:
        yield None
        return
    from repro.telemetry.metrics import Metrics

    collector = Metrics()
    bus.subscribe(collector)
    try:
        yield collector
    finally:
        bus.unsubscribe(collector)


def get_spec(name: str):
    """Look up a registered :class:`~repro.experiments.registry.ExperimentSpec`."""
    from repro.experiments.registry import get_spec as _get_spec

    return _get_spec(name)


def list_experiments() -> List[Any]:
    """Every registered spec, ordered by figure (``fig2`` … ``summary``)."""
    from repro.experiments.registry import list_specs

    return list_specs()


def run(
    spec_or_name,
    params: Optional[Mapping[str, Any]] = None,
    *,
    execution: Optional[ExecutionConfig] = None,
    cache: str = "off",
    store: Any = None,
    **param_overrides: Any,
) -> ExperimentArtifact:
    """Run one registered experiment and return a provenance-carrying artifact.

    Parameters
    ----------
    spec_or_name:
        An :class:`~repro.experiments.registry.ExperimentSpec` or its
        registered name (e.g. ``"fig5.inference"``).
    params:
        Experiment parameter overrides, validated against the spec's typed
        parameter schema (unknown names raise ``TypeError``).  Scalar
        overrides may also be passed as keyword arguments.
    execution:
        The :class:`ExecutionConfig`; defaults to environment-driven serial
        execution.  Engine choice never changes the numbers — campaigns are
        bit-identical across serial / parallel / batched execution for the
        same seed.
    cache:
        Artifact-store policy.  ``"off"`` (default) never touches the store;
        ``"reuse"`` returns the stored artifact when this exact invocation
        (spec, params, seed/repetitions/scale, code fingerprint) has run
        before, executing nothing; ``"refresh"`` always executes and
        overwrites the stored entry.
    store:
        The :class:`~repro.store.ArtifactStore` (or its root path) used when
        ``cache`` is not ``"off"``; ``None`` selects the default store
        (``REPRO_STORE_DIR`` or ``.repro-store``).
    """
    from repro.experiments.registry import ExperimentSpec, get_spec as _get_spec

    if isinstance(spec_or_name, ExperimentSpec):
        spec = spec_or_name
    else:
        spec = _get_spec(str(spec_or_name))
    merged = dict(params or {})
    for name, value in param_overrides.items():
        if name in merged:
            raise TypeError(f"parameter {name!r} given both in params= and as a keyword")
        merged[name] = value
    resolved_params = spec.resolve_params(merged)
    execution = (execution or ExecutionConfig()).resolved()

    with _telemetry_collector() as collector:
        digest = None
        if cache != "off" or store is not None:
            from repro.store import artifact_key, resolve_store, validate_cache_policy

            validate_cache_policy(cache)
            if cache == "off":
                raise TypeError(
                    "store= was given but cache='off'; pass cache='reuse' or 'refresh'"
                )
            store = resolve_store(store)
            digest = artifact_key(spec.name, resolved_params, execution)
            if cache == "reuse":
                hit = store.get(digest)
                if hit is not None:
                    if collector is not None:
                        hit = dataclasses.replace(
                            hit, telemetry=collector.summary_dict()
                        )
                    return hit

        start = time.perf_counter()
        result = spec.run_fn(execution, **resolved_params)
        wall_time = time.perf_counter() - start
        artifact = ExperimentArtifact(
            spec_name=spec.name,
            params=resolved_params,
            execution=execution,
            wall_time_s=wall_time,
            result=result,
        )
        # The store always receives the telemetry-free form so stored bytes
        # (and hence digest-addressed content) are identical with tracing on
        # or off; the summary rides only on the object handed back.
        if digest is not None:
            store.put(artifact, digest=digest)
        if collector is not None:
            artifact = dataclasses.replace(
                artifact, telemetry=collector.summary_dict()
            )
        return artifact


def sweep(
    experiment,
    axes: Optional[Mapping[str, Any]] = None,
    *,
    mode: str = "grid",
    samples: Optional[int] = None,
    sample_seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    execution: Optional[ExecutionConfig] = None,
    repetitions: Any = None,
    target_ci: float = 0.05,
    initial_repetitions: int = 4,
    growth: float = 2.0,
    max_repetitions: Optional[int] = None,
    cache: str = "reuse",
    store: Any = None,
    checkpoint: Any = None,
    resume: bool = False,
    progress: Any = None,
    sweep_workers: Any = None,
):
    """Run a parameter sweep over one registered experiment.

    A sweep executes one :func:`run` per *point* — a fully resolved
    parameter assignment — through the existing campaign engines, with
    content-addressed caching (points the repo has already computed are
    served from the artifact store and execute zero trials), JSONL
    checkpoint/resume, and identity-derived per-point seeds that make the
    sweep bit-identical to independent :func:`run` calls in any order::

        artifact = api.sweep(
            "fig5.inference",
            {"episodes_per_trial": [1, 2, 5]},
            params={"fast": True},
            execution=api.ExecutionConfig(seed=7, batch_size=8),
        )
        artifact.table()            # every point's rows, flattened
        artifact.cache_hits         # how many points came from the store

    Parameters
    ----------
    experiment:
        A registered spec name (e.g. ``"fig5.inference"``), an
        ``ExperimentSpec``, or a pre-built
        :class:`~repro.sweep.SweepSpec` (in which case ``axes`` / ``mode`` /
        ``samples`` / ``params`` must be left unset).
    axes:
        Mapping of parameter name to the values it sweeps over.
    mode:
        ``"grid"`` (Cartesian product, default), ``"zip"`` (lockstep) or
        ``"random"`` (uniform draws; requires ``samples``).
    params:
        Base parameters pinned for every point (e.g. ``{"fast": True}``).
    execution:
        Shared :class:`ExecutionConfig`; its seed is the sweep seed from
        which every point's campaign seed is derived, and its engine knobs
        apply to every point.
    repetitions:
        ``None`` (use ``execution`` / config presets), a positive int
        (pinned for every point), or ``"auto"`` — adaptive mode, growing
        each point's campaign in rounds until the Wilson CI half-width of
        its headline success-rate metric is at most ``target_ci``.
    target_ci, initial_repetitions, growth, max_repetitions:
        Adaptive-mode knobs (see :class:`~repro.sweep.AdaptiveConfig`);
        ignored unless ``repetitions="auto"``.
    cache:
        Artifact-store policy per point: ``"reuse"`` (default), ``"refresh"``
        or ``"off"``.
    store:
        The :class:`~repro.store.ArtifactStore` or its root path (``None`` =
        the default store).
    checkpoint:
        Path of a JSONL sweep checkpoint recording completed points;
        ``resume=True`` skips points already recorded there.
    progress:
        Callback ``(points completed, total points)``.
    sweep_workers:
        Point-level parallelism: map the sweep's points over this many pool
        worker processes (:class:`~repro.sweep.SweepRunner` ``workers``),
        with bit-identical results.  ``None`` reads ``REPRO_SWEEP_WORKERS``
        (default 1 = in-process); ``"auto"`` = one worker per CPU.
    """
    from repro.experiments.registry import ExperimentSpec
    from repro.sweep import AdaptiveConfig, SweepRunner, SweepSpec

    if isinstance(experiment, SweepSpec):
        if axes is not None or params is not None or samples is not None:
            raise TypeError(
                "pass either a SweepSpec or axes/params/samples, not both"
            )
        sweep_spec = experiment
    else:
        if isinstance(experiment, ExperimentSpec):
            experiment = experiment.name
        if not axes:
            raise TypeError("sweep needs axes ({param: values}) or a SweepSpec")
        axis_items = tuple((name, tuple(values)) for name, values in axes.items())
        sweep_spec = SweepSpec(
            experiment=str(experiment),
            axes=axis_items,
            mode=mode,
            base_params=tuple((params or {}).items()),
            samples=samples,
            sample_seed=sample_seed,
        )

    adaptive = None
    if repetitions == "auto":
        adaptive = AdaptiveConfig(
            target_ci=target_ci,
            initial_repetitions=initial_repetitions,
            growth=growth,
            max_repetitions=max_repetitions,
        )
    elif repetitions is not None:
        execution = (execution or ExecutionConfig()).replace(repetitions=repetitions)

    runner = SweepRunner(
        cache=cache, store=store, progress=progress, workers=sweep_workers
    )
    with _telemetry_collector() as collector:
        artifact = runner.run(
            sweep_spec, execution, adaptive=adaptive, checkpoint=checkpoint, resume=resume
        )
        if collector is not None:
            artifact.telemetry = collector.summary_dict()
        return artifact
