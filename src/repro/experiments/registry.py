"""The declarative experiment registry.

Every paper-figure experiment is registered as an :class:`ExperimentSpec`: a
named, introspectable description of the experiment (its typed sweep
parameters and a run function taking an
:class:`~repro.api.execution.ExecutionConfig`).  Specs are declared next to
the drivers they wrap with the :func:`register_experiment` decorator::

    @register_experiment(
        "fig5.inference",
        description="Success rate vs BER per inference fault mode",
        params=(
            ParamSpec("approach", str, "tabular", choices=("tabular", "nn")),
            ParamSpec("fast", bool, False),
        ),
    )
    def _inference_spec(execution: ExecutionConfig, *, approach, fast):
        ...

The registry is what makes experiments *data*: :func:`repro.api.run` looks
specs up by name, the CLI (``python -m repro``) generates its subcommands,
flags and ``list`` output from it, and future scenario packs register new
specs without touching the CLI at all.  Spec modules are imported by
:func:`load_all_specs` on first registry access (not when this module or
:mod:`repro.api` is imported), so using :class:`ExecutionConfig` or the
result containers alone never pulls in the full experiment stack.
"""

from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "register_experiment",
    "get_spec",
    "list_specs",
    "spec_names",
    "figures",
    "specs_for_figure",
    "load_all_specs",
]

#: Modules that declare experiment specs (imported by :func:`load_all_specs`).
SPEC_MODULES: Tuple[str, ...] = (
    "repro.experiments.fig2_training",
    "repro.experiments.fig3_return_curves",
    "repro.experiments.fig4_convergence",
    "repro.experiments.fig5_inference",
    "repro.experiments.fig7_drone",
    "repro.experiments.fig8_mitigation_training",
    "repro.experiments.fig9_exploration",
    "repro.experiments.fig10_anomaly",
    "repro.experiments.summary",
)

_TYPE_NAMES = {int: "int", float: "float", str: "str", bool: "bool"}


@dataclass(frozen=True)
class ParamSpec:
    """One typed, introspectable experiment parameter.

    ``type`` must be one of ``int`` / ``float`` / ``str`` / ``bool`` — the
    CLI derives argparse flags from it (``bool`` parameters become on/off
    switches), and :meth:`ExperimentSpec.resolve_params` uses it to validate
    programmatic values.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    minimum: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.type not in _TYPE_NAMES:
            raise TypeError(
                f"parameter {self.name!r}: type must be one of "
                f"{sorted(t.__name__ for t in _TYPE_NAMES)}, got {self.type!r}"
            )
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))

    def validate(self, value: Any) -> Any:
        """Coerce/validate one value for this parameter.

        Strings coerce through the declared type (the CLI's view of the
        world), but numeric values must be lossless: an int parameter
        rejects ``2.7`` (and bools) instead of silently truncating, the
        same contract :class:`~repro.api.execution.ExecutionConfig` applies
        to its seed.
        """
        if self.type is bool:
            if not isinstance(value, bool):
                raise TypeError(f"parameter {self.name!r} must be a bool, got {value!r}")
        elif isinstance(value, bool):
            # bool subclasses int; a flag passed where a number belongs is a
            # transposition mistake, not a value.
            raise TypeError(
                f"parameter {self.name!r} must be {_TYPE_NAMES[self.type]}, got {value!r}"
            )
        elif self.type is int and not isinstance(value, str):
            try:
                value = operator.index(value)
            except TypeError as exc:
                raise TypeError(
                    f"parameter {self.name!r} must be int, got {value!r}"
                ) from exc
        else:
            try:
                value = self.type(value)
            except (TypeError, ValueError) as exc:
                raise TypeError(
                    f"parameter {self.name!r} must be {_TYPE_NAMES[self.type]}, "
                    f"got {value!r}"
                ) from exc
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ValueError(
                f"parameter {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        return value

    def describe(self) -> str:
        """Compact one-line rendering for ``python -m repro list``."""
        if self.choices is not None:
            kind = "{" + ",".join(str(c) for c in self.choices) + "}"
        else:
            kind = _TYPE_NAMES[self.type]
        return f"{self.name}: {kind} = {self.default}"

    def to_json_dict(self) -> Dict[str, Any]:
        """Machine-readable schema entry (``python -m repro list --json``)."""
        return {
            "name": self.name,
            "type": _TYPE_NAMES[self.type],
            "default": self.default,
            "help": self.help,
            "choices": None if self.choices is None else list(self.choices),
            "minimum": self.minimum,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: name, typed parameters and a run function.

    ``run_fn`` is called as ``run_fn(execution, **params)`` and returns a
    :class:`~repro.io.results.ResultTable` or
    :class:`~repro.io.results.SeriesResult`.  ``name`` is dotted
    ``<figure>.<experiment>`` (e.g. ``"fig5.inference"``); the figure prefix
    groups specs into CLI subcommands.
    """

    name: str
    description: str
    run_fn: Callable[..., Any]
    params: Tuple[ParamSpec, ...] = field(default_factory=tuple)

    @property
    def figure(self) -> str:
        """The CLI subcommand this spec belongs to (``"fig5.inference"`` → ``"fig5"``)."""
        return self.name.split(".", 1)[0]

    def param(self, name: str) -> ParamSpec:
        """Look one declared parameter up by name (``KeyError`` for typos)."""
        for param in self.params:
            if param.name == name:
                return param
        valid = [param.name for param in self.params] or ["<none>"]
        raise KeyError(f"spec {self.name!r} has no parameter {name!r} (valid: {valid})")

    def to_json_dict(self) -> Dict[str, Any]:
        """Machine-readable spec description (``python -m repro list --json``)."""
        return {
            "name": self.name,
            "figure": self.figure,
            "description": self.description,
            "params": [param.to_json_dict() for param in self.params],
        }

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Defaults merged with ``overrides``, validated against the schema.

        Unknown parameter names raise ``TypeError`` (listing the valid
        names), so typos fail loudly instead of silently running the default
        sweep.
        """
        overrides = dict(overrides or {})
        resolved: Dict[str, Any] = {}
        for param in self.params:
            if param.name in overrides:
                resolved[param.name] = param.validate(overrides.pop(param.name))
            else:
                resolved[param.name] = param.default
        if overrides:
            valid = [param.name for param in self.params] or ["<none>"]
            raise TypeError(
                f"unknown parameter(s) for {self.name!r}: "
                f"{sorted(overrides)} (valid: {valid})"
            )
        return resolved


_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register_experiment(
    name: str,
    *,
    description: str,
    params: Sequence[ParamSpec] = (),
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class-of-one decorator registering a run function as an experiment spec.

    The decorated function is returned unchanged (with the spec attached as
    ``fn.spec``), so modules can still call it directly.
    """
    if "." not in name:
        raise ValueError(
            f"experiment name must be dotted '<figure>.<experiment>', got {name!r}"
        )
    seen = set()
    for param in params:
        if param.name in seen:
            raise ValueError(f"duplicate parameter {param.name!r} in spec {name!r}")
        seen.add(param.name)

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _REGISTRY.get(name)
        if existing is not None and not _same_declaration(existing.run_fn, fn):
            raise ValueError(
                f"experiment {name!r} is already registered by "
                f"{existing.run_fn.__module__}.{existing.run_fn.__qualname__}"
            )
        spec = ExperimentSpec(
            name=name,
            description=description,
            run_fn=fn,
            params=tuple(params),
        )
        _REGISTRY[name] = spec
        fn.spec = spec
        return fn

    return decorate


def _same_declaration(existing: Callable[..., Any], candidate: Callable[..., Any]) -> bool:
    """Whether two run functions are the same declaration.

    Identity covers ordinary repeat decoration; module+qualname equality
    additionally lets ``importlib.reload`` of a spec module re-register its
    own specs (replacing them) instead of crashing, while still rejecting a
    *different* experiment claiming an existing name.
    """
    if existing is candidate:
        return True
    return (existing.__module__, existing.__qualname__) == (
        candidate.__module__,
        candidate.__qualname__,
    )


def load_all_specs() -> None:
    """Import every spec module so the registry is fully populated."""
    global _LOADED
    if _LOADED:
        return
    for module in SPEC_MODULES:
        importlib.import_module(module)
    _LOADED = True


def get_spec(name: str) -> ExperimentSpec:
    """Look an experiment spec up by its registered name."""
    load_all_specs()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(spec_names())
        raise KeyError(f"unknown experiment {name!r}; registered specs: {known}") from None


def list_specs() -> List[ExperimentSpec]:
    """Every registered spec, ordered by figure then name."""
    load_all_specs()
    return sorted(_REGISTRY.values(), key=lambda spec: (_figure_key(spec.figure), spec.name))


def spec_names() -> List[str]:
    return [spec.name for spec in list_specs()]


def figures() -> List[str]:
    """The distinct figure prefixes, in natural (fig2 < fig10) order."""
    ordered: Dict[str, None] = {}
    for spec in list_specs():
        ordered.setdefault(spec.figure, None)
    return list(ordered)


def specs_for_figure(figure: str) -> List[ExperimentSpec]:
    """All specs grouped under one CLI subcommand, in registration order."""
    load_all_specs()
    specs = [spec for spec in _REGISTRY.values() if spec.figure == figure]
    if not specs:
        raise KeyError(f"no experiments registered for figure {figure!r}")
    return specs


def _figure_key(figure: str) -> Tuple[int, Any]:
    """Natural sort: fig2 < fig10, named groups (summary) after figures."""
    if figure.startswith("fig") and figure[3:].isdigit():
        return (0, int(figure[3:]))
    return (1, figure)
