"""Fig. 5 — impact of faults on Grid World inference.

Inference is a sequential decision process, so transient faults come in two
modes (Sec. 4.1.2):

* **Transient-1** — the fault hits a read register and corrupts only a single
  decision step; the following steps see clean values.
* **Transient-M** — the fault hits the memory holding the policy (Q table or
  weights) and therefore corrupts every remaining step of the episode.

Permanent stuck-at-0 / stuck-at-1 faults affect the whole episode as well.
The clean policy is trained once per configuration and the injection is then
repeated many times with independent fault sites.

The NN trial has one implementation, the batched ``run_batch``: under a
:class:`~repro.core.runner.CampaignRunner` with ``batch_size=B`` each batch
of B trials becomes B policy *replicas* evaluated simultaneously — fault
patterns apply to stacked quantized buffers in one vectorized bit
operation, Q-values come from one stacked forward pass per step, and the
Grid World steps all replicas through vectorized integer math.  A single
trial is a one-replica batch.  Every replica samples its faults from its
own trial RNG, so outcomes are bit-identical for every batch size
(``tests/test_batched_parity.py`` checks them against a scalar
per-episode oracle).  The tabular trial is scalar only; the batched engine
runs it once per trial inside each batch (a replica-stacked Q table
measured slower than that).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.api.execution import ExecutionConfig
from repro.core.campaign import Campaign, TrialOutcome
from repro.core.evaluator import BatchedEvaluator
from repro.core.fault_models import FaultModel, StuckAtFault, TransientBitFlip
from repro.experiments.common import (
    greedy_policy,
    run_campaign,
    train_grid_nn,
    train_tabular,
)
from repro.experiments.config import (
    APPROACH_PARAM,
    FAST_PARAM,
    GridNNConfig,
    GridTabularConfig,
    grid_ber_sweep,
    grid_config_for,
)
from repro.experiments.registry import ParamSpec, register_experiment
from repro.io.results import ResultTable
from repro.rl.dqn import DQNAgent
from repro.rl.evaluation import greedy_rollout, greedy_rollouts
from repro.rl.tabular import TabularQAgent

__all__ = ["INFERENCE_FAULT_MODES", "run_inference_fault_sweep"]

GridConfig = Union[GridTabularConfig, GridNNConfig]

#: The four fault modes plotted in Fig. 5.
INFERENCE_FAULT_MODES = ("transient-1", "transient-m", "stuck-at-0", "stuck-at-1")

#: Modes whose faults are injected into the policy memory before the episode.
_MEMORY_FAULT_MODES = ("transient-m", "stuck-at-0", "stuck-at-1")


def _memory_fault_model(mode: str, ber: float) -> FaultModel:
    if mode == "transient-m":
        return TransientBitFlip(ber)
    if mode == "stuck-at-0":
        return StuckAtFault(ber, stuck_value=0)
    return StuckAtFault(ber, stuck_value=1)


# --------------------------------------------------------------------------- #
# Tabular policy corruption
# --------------------------------------------------------------------------- #
def _tabular_episode(
    agent: TabularQAgent,
    env,
    mode: str,
    ber: float,
    rng: np.random.Generator,
    max_steps: int,
) -> bool:
    """Run one inference episode of the tabular policy under the given fault mode.

    ``agent`` is shared across every trial of the sweep, so all per-episode
    randomness — including the clones' RNGs — must come from the trial
    ``rng``.  Drawing from the shared agent's RNG here would make trial
    outcomes depend on execution order, breaking parallel/serial and
    checkpoint-resume reproducibility.
    """
    working = agent.clone(rng=np.random.default_rng(rng.integers(2**63)))
    table = working.memory_buffers()["qtable"]
    if mode in _MEMORY_FAULT_MODES:
        _memory_fault_model(mode, ber).inject(table, rng)

    fault_step = int(rng.integers(max_steps)) if mode == "transient-1" else -1
    state = env.reset()
    for step in range(max_steps):
        if step == fault_step and ber > 0:
            # Corrupt only this decision: flip bits in a scratch copy of the
            # table, pick the action from it, then continue with clean values.
            scratch = agent.clone(rng=np.random.default_rng(rng.integers(2**63)))
            TransientBitFlip(ber).inject(scratch.memory_buffers()["qtable"], rng)
            action = scratch.select_action(state, explore=False)
        else:
            action = working.select_action(state, explore=False)
        state, _, done, info = env.step(action)
        if done:
            return bool(info.get("success", False))
    return False


class _TabularInferenceTrial:
    """One Fig. 5 tabular campaign trial: N faulted inference episodes.

    Runs :func:`_tabular_episode` once per episode.
    """

    def __init__(
        self,
        agent: TabularQAgent,
        env,
        mode: str,
        ber: float,
        max_steps: int,
        episodes_per_trial: int,
    ) -> None:
        self.agent = agent
        self.env = env
        self.mode = mode
        self.ber = ber
        self.max_steps = max_steps
        self.episodes_per_trial = episodes_per_trial

    def __call__(self, rng: np.random.Generator) -> TrialOutcome:
        successes = [
            _tabular_episode(self.agent, self.env, self.mode, self.ber, rng, self.max_steps)
            for _ in range(self.episodes_per_trial)
        ]
        return TrialOutcome(success=None, metric=float(np.mean(successes)))


# --------------------------------------------------------------------------- #
# NN policy corruption
# --------------------------------------------------------------------------- #
class _NNInferenceTrial:
    """One Fig. 5 NN campaign trial: N faulted quantized-inference episodes.

    Every batch of trials runs on one
    :class:`~repro.core.evaluator.BatchedEvaluator`, restored to its clean
    weights before each injection: all trials' weight-fault patterns apply
    to stacked quantized buffers in one vectorized bit operation, and every
    environment step encodes the still-running replicas' states in one
    encoder call and evaluates them through a single stacked forward pass.
    Transient-1 decisions reuse one 1-replica evaluator the same way.  A
    single trial (``__call__``) is a one-replica batch.
    """

    def __init__(
        self,
        agent: DQNAgent,
        env,
        mode: str,
        ber: float,
        max_steps: int,
        qformat,
        episodes_per_trial: int,
    ) -> None:
        self.agent = agent
        self.env = env
        self.mode = mode
        self.ber = ber
        self.max_steps = max_steps
        self.qformat = qformat
        self.episodes_per_trial = episodes_per_trial

    def __call__(self, rng: np.random.Generator) -> TrialOutcome:
        return self.run_batch([rng])[0]

    def run_batch(self, rngs: Sequence[np.random.Generator]) -> List[TrialOutcome]:
        network = self.agent.network
        evaluator = BatchedEvaluator(network, self.qformat, len(rngs))
        transient1 = None
        if self.mode == "transient-1" and self.ber > 0:
            transient1 = BatchedEvaluator(network, self.qformat, 1)
        successes: List[List[bool]] = [[] for _ in rngs]
        for _ in range(self.episodes_per_trial):
            for replica, ok in enumerate(self._episode_batch(evaluator, transient1, rngs)):
                successes[replica].append(ok)
        return [
            TrialOutcome(success=None, metric=float(np.mean(trial_successes)))
            for trial_successes in successes
        ]

    def _episode_batch(
        self,
        evaluator: BatchedEvaluator,
        transient1: Optional[BatchedEvaluator],
        rngs: Sequence[np.random.Generator],
    ) -> List[bool]:
        if self.mode in _MEMORY_FAULT_MODES and self.ber > 0:
            evaluator.restore_clean_weights()
            evaluator.inject_weight_faults(
                _memory_fault_model(self.mode, self.ber), rngs
            )
        fault_steps = [
            int(rng.integers(self.max_steps)) if self.mode == "transient-1" else -1
            for rng in rngs
        ]
        encoder = self.agent.state_encoder

        def policy(step: int, indices: np.ndarray, states: List[object]) -> List[int]:
            encoded = encoder(np.asarray(states))[:, None]
            greedy = evaluator.greedy_actions(encoded, replicas=indices)
            actions = [int(action) for action in greedy]
            if transient1 is not None:
                for j, replica in enumerate(indices):
                    if step == fault_steps[replica]:
                        actions[j] = self._transient1_action(
                            transient1, rngs[replica], encoded[j]
                        )
            return actions

        rollouts = greedy_rollouts(policy, self.env.batched(len(rngs)), max_steps=self.max_steps)
        return [rollout.success for rollout in rollouts]

    def _transient1_action(
        self, evaluator: BatchedEvaluator, rng: np.random.Generator, encoded: np.ndarray
    ) -> int:
        # Transient-1 hits a read register: only this one decision sees the
        # corrupted weights, read through a clean 1-replica evaluator
        # faulted from the trial generator.
        evaluator.restore_clean_weights()
        evaluator.inject_weight_faults(TransientBitFlip(self.ber), [rng])
        q = evaluator.forward(encoded[None])
        return int(np.argmax(q[0]))


# --------------------------------------------------------------------------- #
# Sweep driver
# --------------------------------------------------------------------------- #
def run_inference_fault_sweep(
    config: GridConfig,
    bit_error_rates: Sequence[float],
    fault_modes: Sequence[str] = INFERENCE_FAULT_MODES,
    episodes_per_trial: int = 5,
    *,
    execution: ExecutionConfig = ExecutionConfig(),
) -> ResultTable:
    """Success rate vs BER for each inference fault mode (Fig. 5a / 5b).

    Every engine ``execution`` selects gives a bit-identical table for the
    same seed.
    """
    seed = execution.seed
    for mode in fault_modes:
        if mode not in INFERENCE_FAULT_MODES:
            raise ValueError(f"unknown fault mode {mode!r}; choose from {INFERENCE_FAULT_MODES}")
    approach = "nn" if isinstance(config, GridNNConfig) else "tabular"
    repetitions = execution.resolve_repetitions(config.repetitions)

    rng = np.random.default_rng(seed)
    if approach == "nn":
        agent, eval_env, _ = train_grid_nn(config, rng)
    else:
        agent, eval_env, _ = train_tabular(config, rng)
    baseline = greedy_rollout(greedy_policy(agent), eval_env, max_steps=config.max_steps)

    table = ResultTable(title=f"Fig5 inference faults ({approach})")
    table.add(
        approach=approach,
        fault_mode="baseline",
        bit_error_rate=0.0,
        success_rate=float(baseline.success),
        repetitions=1,
    )

    for mode in fault_modes:
        for ber in bit_error_rates:
            if approach == "nn":
                trial = _NNInferenceTrial(
                    agent, eval_env, mode, ber, config.max_steps,
                    config.weight_qformat, episodes_per_trial,
                )
            else:
                trial = _TabularInferenceTrial(
                    agent, eval_env, mode, ber, config.max_steps, episodes_per_trial
                )

            campaign = Campaign(
                f"fig5-{approach}-{mode}-ber{ber}", repetitions, seed=seed + 1
            )
            result = run_campaign(campaign, trial, execution=execution)
            table.add(
                approach=approach,
                fault_mode=mode,
                bit_error_rate=ber,
                success_rate=result.mean_metric,
                repetitions=repetitions,
            )
    return table


# --------------------------------------------------------------------------- #
# Declarative specs
# --------------------------------------------------------------------------- #
@register_experiment(
    "fig5.inference",
    description="Fig. 5a/5b — success rate vs BER per inference fault mode "
    "(transient-1 / transient-M / stuck-at-0 / stuck-at-1)",
    params=(
        APPROACH_PARAM,
        FAST_PARAM,
        ParamSpec(
            "episodes_per_trial",
            int,
            5,
            help="inference episodes evaluated per campaign trial",
            minimum=1,
        ),
    ),
)
def _inference_spec(
    execution: ExecutionConfig, *, approach: str, fast: bool, episodes_per_trial: int
) -> ResultTable:
    config = grid_config_for(approach, fast, scale=execution.scale)
    return run_inference_fault_sweep(
        config,
        grid_ber_sweep(execution.scale),
        episodes_per_trial=episodes_per_trial,
        execution=execution,
    )
