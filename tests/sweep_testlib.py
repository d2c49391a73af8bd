"""Shared synthetic experiment spec for the sweep / store test suites.

Registers ``synthetic.bernoulli`` — a real registry spec whose campaign
trials are trivially cheap (one Bernoulli draw plus one normal draw per
trial), so the sweep orchestrator, the artifact store and the adaptive
sampler can be exercised end-to-end in milliseconds while still running
through the genuine ``Campaign`` / runner / ``run_campaign`` machinery.

Importing this module is idempotent (re-registration of the same
declaration is allowed by the registry), and the spec rides through the
real CLI/registry plumbing exactly like the fig2–fig10 specs.
"""

from __future__ import annotations

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.experiments.common import run_campaign
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable

SPEC_NAME = "synthetic.bernoulli"

#: Default repetition count when neither execution nor env pins one.
DEFAULT_REPS = 8


class BernoulliTrial:
    """One campaign trial: a Bernoulli success and a normal metric draw.

    Module-level (picklable) and batch-capable, so every engine — serial,
    parallel and batched — can run it.  ``run_batch`` replays the scalar
    draw order per replica, keeping the engines bit-identical.
    """

    def __init__(self, p: float) -> None:
        self.p = p

    def __call__(self, rng: np.random.Generator) -> TrialOutcome:
        success = bool(rng.random() < self.p)
        return TrialOutcome(success=success, metric=float(rng.normal()))

    def run_batch(self, rngs):
        return [self(rng) for rng in rngs]


@register_experiment(
    SPEC_NAME,
    description="Synthetic Bernoulli campaign (test-only): success_rate ~ p",
    params=(
        ParamSpec("p", float, 0.5, help="per-trial success probability"),
        ParamSpec("label", str, "a", help="campaign label (cache-key salt)"),
    ),
)
def run_bernoulli(execution: ExecutionConfig, *, p: float, label: str) -> ResultTable:
    repetitions = execution.resolve_repetitions(DEFAULT_REPS)
    campaign = Campaign(f"synthetic-{label}", repetitions, seed=execution.seed)
    result = run_campaign(campaign, BernoulliTrial(p), execution=execution)
    table = ResultTable(title=f"Synthetic Bernoulli ({label})")
    table.add(
        label=label,
        p=p,
        success_rate=result.success_rate,
        repetitions=repetitions,
        mean_metric=result.mean_metric,
    )
    return table
