"""Command-line entry point: run any figure campaign from the shell.

``python -m repro <figure>`` reproduces one paper figure (or the headline
summary); every subcommand, its flags and its help text are generated from
the declarative experiment registry (:mod:`repro.experiments.registry`), so
registering a new :class:`~repro.experiments.registry.ExperimentSpec` is all
it takes to extend the CLI::

    python -m repro list                               # enumerate the specs
    python -m repro list --json                        # machine-readable schema
    python -m repro fig2 --approach tabular --workers 4
    python -m repro fig5 --fast --batch-size 4
    python -m repro fig7 --fast --workers auto
    python -m repro fig10 --checkpoint-dir runs/fig10 --resume
    python -m repro summary --out-dir results/
    python -m repro sweep fig5.inference --grid episodes_per_trial=1,2,5 \
        --set fast=true --store runs/store     # cached parameter sweep
    python -m repro sweep fig5.inference --grid approach=tabular,nn \
        --reps auto --target-ci 0.05           # adaptive precision

``python -m repro sweep <spec>`` orchestrates many points of one registered
experiment: ``--grid`` / ``--zip`` / ``--random`` build the point set,
results are cached in a content-addressed artifact store (``--cache
reuse|refresh|off``, ``--store DIR``), ``--sweep-checkpoint`` +
``--resume`` restart interrupted sweeps, and ``--reps auto`` grows each
point's campaign until its success-rate CI half-width is below
``--target-ci``.

The shared execution flags map one-to-one onto
:class:`repro.api.ExecutionConfig`: ``--workers`` selects the parallel
campaign engine and ``--batch-size`` the batched-vectorized engine (both
bit-identical to serial runs for the same seed, and freely combinable);
``--checkpoint-dir`` streams every campaign's trial outcomes to JSONL files
so an interrupted sweep can be restarted with ``--resume``.
``REPRO_SCALE``, ``REPRO_CAMPAIGN_REPS``, ``REPRO_CAMPAIGN_WORKERS`` and
``REPRO_CAMPAIGN_BATCH`` keep working as environment-level defaults.
With ``--out-dir`` each experiment writes its full
:class:`~repro.api.ExperimentArtifact` (result + provenance) as JSON.

Every run/sweep subcommand also takes the observability flags: ``--trace
PATH`` (or ``REPRO_TRACE``) records every telemetry event as JSONL,
``--progress`` shows a live status line, ``--quiet`` silences progress
(result tables still print), and ``python -m repro trace summarize|validate
FILE`` post-processes a recorded trace.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.experiments.registry import (
    ParamSpec,
    figures,
    list_specs,
    specs_for_figure,
)

__all__ = ["main", "build_parser"]

#: ``--reps`` spelling selecting the adaptive-precision mode (sweep only).
_AUTO_REPS = "auto"


# --------------------------------------------------------------------------- #
# Parser generation
# --------------------------------------------------------------------------- #
def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The shared engine/checkpoint/seed flags (one per ExecutionConfig knob)."""
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=lambda v: None if v == "" else v,
        default=None,
        metavar="N",
        help="campaign worker processes ('auto' = one per CPU; default: "
        "REPRO_CAMPAIGN_WORKERS or serial)",
    )
    group.add_argument(
        "--batch-size",
        default=None,
        metavar="B",
        help="trials evaluated per vectorized batch (default: "
        "REPRO_CAMPAIGN_BATCH or serial; trial functions without a "
        "vectorized implementation fall back to scalar execution)",
    )
    group.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="stream per-campaign trial outcomes to JSONL files in DIR",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already recorded under --checkpoint-dir",
    )
    group.add_argument("--seed", type=int, default=0, help="campaign seed (default: 0)")
    group.add_argument(
        "--reps",
        default=None,
        metavar="N",
        help="campaign repetitions (default: config / REPRO_CAMPAIGN_REPS)",
    )
    group.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write each experiment's artifact (result + provenance) as JSON into DIR",
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record every telemetry event as JSONL to PATH (default: "
        "REPRO_TRACE if set; summarize later with 'python -m repro trace "
        "summarize PATH')",
    )
    observability.add_argument(
        "--progress",
        action="store_true",
        help="show a live rewritten status line (trials, cache hits, CI "
        "half-width) on stderr instead of per-point progress lines",
    )
    observability.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress output (result tables still print)",
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the ``sweep`` subcommand (axes, cache, adaptive precision)."""
    parser.add_argument(
        "experiment",
        metavar="spec",
        help="registered experiment spec to sweep (see 'python -m repro list')",
    )
    axes = parser.add_argument_group("sweep axes")
    axes.add_argument(
        "--grid",
        action="append",
        default=None,
        metavar="PARAM=V1,V2,...",
        help="sweep axis for the Cartesian-product mode (repeatable)",
    )
    axes.add_argument(
        "--zip",
        action="append",
        default=None,
        dest="zip_axes",
        metavar="PARAM=V1,V2,...",
        help="sweep axis advancing in lockstep with the other --zip axes "
        "(repeatable; all must have equal lengths)",
    )
    axes.add_argument(
        "--random",
        action="append",
        default=None,
        dest="random_axes",
        metavar="PARAM=V1,V2,...",
        help="sweep axis sampled uniformly per point (repeatable; needs --samples)",
    )
    axes.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help="number of random-mode points to draw",
    )
    axes.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the random-mode draw (default: 0; independent of --seed)",
    )
    axes.add_argument(
        "--set",
        action="append",
        default=None,
        dest="base_params",
        metavar="PARAM=VALUE",
        help="pin a non-swept parameter for every point (repeatable), "
        "e.g. --set fast=true",
    )
    _add_execution_flags(parser)
    adaptive = parser.add_argument_group("adaptive precision (--reps auto)")
    adaptive.add_argument(
        "--target-ci",
        type=float,
        default=0.05,
        metavar="W",
        help="target Wilson CI half-width of each point's headline "
        "success-rate metric (default: 0.05)",
    )
    adaptive.add_argument(
        "--initial-reps",
        type=int,
        default=4,
        metavar="N",
        help="campaign size of the first adaptive round (default: 4)",
    )
    adaptive.add_argument(
        "--growth",
        type=float,
        default=2.0,
        metavar="G",
        help="minimum per-round repetition growth factor (default: 2.0)",
    )
    adaptive.add_argument(
        "--max-reps",
        type=int,
        default=None,
        metavar="N",
        help="per-point repetition budget for adaptive mode (default: unbounded)",
    )
    cache = parser.add_argument_group("artifact cache")
    cache.add_argument(
        "--cache",
        choices=("reuse", "refresh", "off"),
        default="reuse",
        help="artifact-store policy: reuse cached points (default), refresh "
        "(recompute and overwrite), or off",
    )
    cache.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="artifact store root (default: REPRO_STORE_DIR or .repro-store)",
    )
    cache.add_argument(
        "--sweep-checkpoint",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSONL file recording completed sweep points; with --resume, "
        "points already recorded there are skipped",
    )
    pool = parser.add_argument_group("point parallelism")
    pool.add_argument(
        "--sweep-workers",
        default=None,
        metavar="N",
        help="run the sweep's points on N pool worker processes ('auto' = "
        "one per CPU); results are bit-identical to --sweep-workers 1, and "
        "a dead worker stops the sweep with an error naming its unfinished "
        "points (resume with --sweep-checkpoint) (default: "
        "REPRO_SWEEP_WORKERS or 1)",
    )


@contextlib.contextmanager
def _cli_telemetry(args, *, default_progress: bool = False) -> Iterator[None]:
    """Attach the trace sink / progress reporter the CLI flags ask for.

    ``--trace`` (or ``REPRO_TRACE``) subscribes a JSONL
    :class:`~repro.telemetry.TraceSink`; ``--progress`` a live status line;
    ``default_progress=True`` (the sweep subcommand) a per-point progress
    line unless ``--quiet``.  Everything is unsubscribed and closed on the
    way out, including on ``parser.error`` exits.
    """
    from repro.telemetry import TRACE_ENV_VAR, ProgressReporter, TraceSink, default_bus

    trace = args.trace
    if trace is None:
        env_trace = os.environ.get(TRACE_ENV_VAR, "")
        trace = Path(env_trace) if env_trace else None
    bus = default_bus()
    sink = reporter = None
    try:
        if trace is not None:
            sink = TraceSink(trace)
            bus.subscribe(sink)
        if not args.quiet:
            if args.progress:
                reporter = ProgressReporter(mode="live")
            elif default_progress:
                reporter = ProgressReporter(mode="lines")
            if reporter is not None:
                bus.subscribe(reporter)
        yield
    finally:
        if reporter is not None:
            bus.unsubscribe(reporter)
            reporter.close()
        if sink is not None:
            bus.unsubscribe(sink)
            sink.close()
            if not args.quiet:
                print(
                    f"trace written to {trace} ({sink.events_written} events)",
                    file=sys.stderr,
                )


def _flag_name(param: ParamSpec) -> str:
    return "--" + param.name.replace("_", "-")


def _add_param_flag(parser: argparse.ArgumentParser, param: ParamSpec) -> None:
    """Derive one argparse flag from a typed spec parameter."""
    help_text = (param.help or param.name).replace("%", "%%")
    if param.type is bool:
        if param.default:
            # bool-default-true parameters become --no-<name> switches.
            parser.add_argument(
                "--no-" + param.name.replace("_", "-"),
                dest=param.name,
                action="store_false",
                help=f"disable: {help_text}",
            )
        else:
            parser.add_argument(_flag_name(param), action="store_true", help=help_text)
        parser.set_defaults(**{param.name: param.default})
        return
    parser.add_argument(
        _flag_name(param),
        type=param.type,
        default=param.default,
        choices=param.choices,
        help=f"{help_text} (default: {param.default})",
    )


def _figure_params(figure: str) -> List[ParamSpec]:
    """Union of a figure's spec parameters (deduplicated by name).

    Two specs may share a parameter name as long as the flag they generate
    is the same (type, default, choices); help text may differ — the first
    registration wins.  Genuinely conflicting declarations are a
    programming error and fail the parser build.
    """
    merged: Dict[str, ParamSpec] = {}
    for spec in specs_for_figure(figure):
        for param in spec.params:
            existing = merged.get(param.name)
            if existing is None:
                merged[param.name] = param
            elif (existing.type, existing.default, existing.choices) != (
                param.type,
                param.default,
                param.choices,
            ):
                raise ValueError(
                    f"figure {figure!r}: specs disagree on parameter {param.name!r}"
                )
    return list(merged.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a fault-injection figure campaign from the DAC'21 "
        "reproduction.  Subcommands are generated from the experiment "
        "registry; see 'python -m repro list'.",
    )
    subparsers = parser.add_subparsers(dest="figure", metavar="figure", required=True)
    # figure -> subparser, so flag-validation errors can report the usage of
    # the subcommand actually invoked instead of the top-level synopsis.
    parser.figure_parsers = {}

    list_parser = subparsers.add_parser(
        "list",
        help="list every registered experiment spec and its parameters",
        description="Enumerate the declarative experiment registry.",
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the registry as machine-readable JSON (name, description, "
        "typed parameter schema per spec)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a cached parameter sweep over one registered spec",
        description="Orchestrate many points of one experiment spec with "
        "content-addressed result caching, sweep checkpoint/resume and "
        "optional adaptive ('--reps auto') precision-driven sampling.",
    )
    _add_sweep_flags(sweep_parser)
    parser.figure_parsers["sweep"] = sweep_parser

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarize or validate a JSONL telemetry trace",
        description="Work with traces recorded via --trace / REPRO_TRACE.",
    )
    trace_actions = trace_parser.add_subparsers(
        dest="trace_action", metavar="action", required=True
    )
    summarize_parser = trace_actions.add_parser(
        "summarize",
        help="fold a trace into a telemetry report (counters + phase timings)",
        description="Aggregate every event of a JSONL trace into counters and "
        "per-phase timing tables.",
    )
    summarize_parser.add_argument(
        "trace_file", type=Path, metavar="FILE", help="JSONL trace to summarize"
    )
    summarize_parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the report as machine-readable JSON",
    )
    validate_parser = trace_actions.add_parser(
        "validate",
        help="strictly parse a trace, failing on malformed or unknown events",
        description="Parse every line of a JSONL trace against the typed event "
        "schema; any malformed line or unknown event kind fails the check.",
    )
    validate_parser.add_argument(
        "trace_file", type=Path, metavar="FILE", help="JSONL trace to validate"
    )
    parser.figure_parsers["trace"] = trace_parser

    for figure in figures():
        specs = specs_for_figure(figure)
        summary = "; ".join(spec.description for spec in specs)
        sub = subparsers.add_parser(
            figure,
            # argparse %-interpolates help strings, so literal % (e.g. "+39%")
            # must be escaped.
            help=summary.replace("%", "%%"),
            description=f"Runs: {'; '.join(spec.name for spec in specs)}.",
        )
        _add_execution_flags(sub)
        for param in _figure_params(figure):
            _add_param_flag(sub, param)
        parser.figure_parsers[figure] = sub
    return parser


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #
def _render_listing_json() -> str:
    """The registry as machine-readable JSON (``python -m repro list --json``).

    Schema: a list of spec objects — ``name`` / ``figure`` / ``description``
    / ``params`` (each with name, type, default, help, choices,
    minimum) — the contract sweep tooling and external runners build on.
    """
    return json.dumps([spec.to_json_dict() for spec in list_specs()], indent=2)


def _render_listing() -> str:
    lines = ["Registered experiment specs:", ""]
    for spec in list_specs():
        lines.append(spec.name)
        lines.append(f"    {spec.description}")
        if spec.params:
            rendered = "; ".join(param.describe() for param in spec.params)
            lines.append(f"    params: {rendered}")
    lines.append("")
    lines.append(
        "Run a figure with 'python -m repro <figure>', or any single spec "
        "programmatically via repro.api.run(name)."
    )
    return "\n".join(lines)


def _execution_from_args(args, parser: argparse.ArgumentParser):
    from repro.api import ExecutionConfig

    try:
        return ExecutionConfig(
            seed=args.seed,
            repetitions=args.reps,
            workers=args.workers,
            batch_size=args.batch_size,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except ValueError as exc:
        reporter = getattr(parser, "figure_parsers", {}).get(args.figure, parser)
        reporter.error(str(exc))


def _artifact_slug(title: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in title).strip("_")


def _parse_axis_arg(text: str, parser: argparse.ArgumentParser):
    """Split one ``PARAM=V1,V2,...`` axis flag into (name, raw value list)."""
    name, sep, values = text.partition("=")
    if not sep or not name or not values:
        parser.error(f"axis must look like param=v1,v2,..., got {text!r}")
    return name, [v for v in values.split(",") if v != ""]


def _run_trace(args, parser: argparse.ArgumentParser) -> int:
    """The ``trace`` subcommand: summarize / validate a JSONL trace."""
    from repro.telemetry import TelemetryReport, read_trace

    reporter = parser.figure_parsers["trace"]
    if not args.trace_file.is_file():
        reporter.error(f"no such trace file: {args.trace_file}")
    if args.trace_action == "validate":
        try:
            events = read_trace(args.trace_file, strict=True)
        except ValueError as exc:
            print(f"invalid trace {args.trace_file}: {exc}", file=sys.stderr)
            return 1
        print(f"{args.trace_file}: {len(events)} events, all valid")
        return 0
    report = TelemetryReport.from_trace(args.trace_file)
    if args.as_json:
        print(json.dumps(report.summary_dict(), indent=2, default=float))
    else:
        print(report.render())
    return 0


def _run_sweep(args, parser: argparse.ArgumentParser) -> int:
    from repro import api
    from repro.io.tables import render_table
    from repro.sweep import SweepSpec

    reporter = parser.figure_parsers["sweep"]
    groups = {
        "grid": args.grid,
        "zip": args.zip_axes,
        "random": args.random_axes,
    }
    used = [mode for mode, axes in groups.items() if axes]
    if len(used) != 1:
        reporter.error("pass axes with exactly one of --grid / --zip / --random")
    mode = used[0]
    axes = dict(_parse_axis_arg(text, reporter) for text in groups[mode])
    base_params = {}
    for text in args.base_params or []:
        name, values = _parse_axis_arg(text, reporter)
        if len(values) != 1:
            reporter.error(f"--set takes a single value, got {text!r}")
        base_params[name] = values[0]

    repetitions = args.reps
    if repetitions is not None and repetitions != _AUTO_REPS:
        repetitions = str(repetitions)
    try:
        execution = api.ExecutionConfig(
            seed=args.seed,
            workers=args.workers,
            batch_size=args.batch_size,
            checkpoint_dir=args.checkpoint_dir,
            resume=bool(args.resume and args.checkpoint_dir is not None),
        )
        sweep_spec = SweepSpec(
            experiment=args.experiment,
            axes=tuple((name, tuple(values)) for name, values in axes.items()),
            mode=mode,
            base_params=tuple(base_params.items()),
            samples=args.samples,
            sample_seed=args.sample_seed,
        )
    except (KeyError, ValueError, TypeError) as exc:
        reporter.error(str(exc))

    # Progress is no longer a hard-wired print: the sweep loop emits
    # telemetry events and _cli_telemetry decides what (if anything) gets
    # rendered — per-point lines by default, a live status line under
    # --progress, nothing under --quiet.
    try:
        with _cli_telemetry(args, default_progress=True):
            artifact = api.sweep(
                sweep_spec,
                execution=execution,
                repetitions=repetitions,
                target_ci=args.target_ci,
                initial_repetitions=args.initial_reps,
                growth=args.growth,
                max_repetitions=args.max_reps,
                cache=args.cache,
                store=args.store,
                checkpoint=args.sweep_checkpoint,
                sweep_workers=args.sweep_workers,
                # --resume means "resume whatever was checkpointed":
                # sweep-level resume only applies when a sweep checkpoint
                # exists (the campaign-level --checkpoint-dir resume is
                # handled by the ExecutionConfig built above).
                resume=bool(args.resume and args.sweep_checkpoint is not None),
            )
    except (KeyError, ValueError, TypeError) as exc:
        reporter.error(str(exc))

    print()
    print(render_table(artifact.summary_table()))
    print()
    print(render_table(artifact.table()))
    hits = artifact.cache_hits
    print(
        f"\n{len(artifact.points)} points, {hits} cache hit(s), "
        f"{artifact.executed_trials} trial(s) executed, "
        f"{artifact.wall_time_s:.2f}s"
    )
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        out = args.out_dir / f"sweep_{args.experiment.replace('.', '_')}.json"
        artifact.to_json(out)
        print(f"sweep artifact written to {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.figure == "list":
        print(_render_listing_json() if args.as_json else _render_listing())
        return 0
    if args.figure == "sweep":
        return _run_sweep(args, parser)
    if args.figure == "trace":
        return _run_trace(args, parser)

    from repro import api
    from repro.io.tables import render_table

    execution = _execution_from_args(args, parser)
    with _cli_telemetry(args):
        for spec in specs_for_figure(args.figure):
            params = {param.name: getattr(args, param.name) for param in spec.params}
            try:
                params = spec.resolve_params(params)
            except (TypeError, ValueError) as exc:
                parser.figure_parsers[args.figure].error(str(exc))
            artifact = api.run(spec, params, execution=execution)
            print()
            print(render_table(artifact.as_table()))
            if args.out_dir is not None:
                args.out_dir.mkdir(parents=True, exist_ok=True)
                artifact.to_json(args.out_dir / f"{_artifact_slug(artifact.title)}.json")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe reader (e.g. `... | head`) closed early; not an
        # error.  Detach stdout so the interpreter's exit-time flush does
        # not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
