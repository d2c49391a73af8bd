"""Shared building blocks for the experiment drivers.

These helpers construct environments and agents from the config presets,
train clean baseline policies, and wrap them as greedy evaluation policies.
The drone policy is pre-trained once per process and cached, because every
drone experiment (Fig. 7b-e, Fig. 10b) starts from the same clean policy.

:func:`run_campaign` is the single entry point the drivers use to execute a
campaign: it builds the engine an :class:`~repro.api.execution.ExecutionConfig`
describes and wires up a per-campaign JSONL checkpoint under its
``checkpoint_dir``, so an interrupted sweep resumes with ``resume=True``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, Optional, Tuple, Union

import numpy as np

from repro.core.campaign import Campaign, CampaignResult, TrialFn

if TYPE_CHECKING:  # pragma: no cover - typing-only (api imports experiments)
    from repro.api.execution import ExecutionConfig
from repro.io.results import CampaignCheckpoint

from repro.envs.drone import DroneNavEnv, make_drone_env
from repro.envs.drone.expert import GreedyDepthExpert, collect_dataset
from repro.envs.gridworld import GridWorld, make_gridworld
from repro.experiments.config import DroneConfig, GridNNConfig, GridTabularConfig
from repro.nn.buffers import LayerRangeProfile, QuantizedExecutor
from repro.nn.network import Sequential
from repro.policies import build_grid_q_network, small_c3f2
from repro.rl import (
    DecayingEpsilonGreedy,
    DoubleDQNAgent,
    DQNAgent,
    TabularQAgent,
    TrainingHooks,
    TrainingResult,
    evaluate_success_rate,
    train_agent,
)
from repro.rl.evaluation import evaluate_mean_metric
from repro.rl.imitation import behaviour_clone

__all__ = [
    "run_campaign",
    "run_fault_campaign",
    "campaign_checkpoint_path",
    "build_tabular_agent",
    "build_nn_agent",
    "make_train_eval_envs",
    "train_tabular",
    "train_grid_nn",
    "greedy_policy",
    "evaluate_grid_policy",
    "DronePolicyBundle",
    "build_drone_bundle",
    "clear_drone_cache",
    "evaluate_drone_msf",
]

Policy = Callable[[object], int]


# --------------------------------------------------------------------------- #
# Campaign execution
# --------------------------------------------------------------------------- #
def campaign_checkpoint_path(campaign_name: str, checkpoint_dir: Union[str, Path]) -> Path:
    """Checkpoint file for one named campaign (name sanitized for filesystems)."""
    safe = re.sub(r"[^\w.+-]+", "_", campaign_name)
    return Path(checkpoint_dir) / f"{safe}.jsonl"


def run_campaign(
    campaign: Campaign, trial_fn: TrialFn, *, execution: "ExecutionConfig"
) -> CampaignResult:
    """Execute a campaign on the engine and checkpoint that ``execution`` names.

    ``execution.batch_size > 1`` selects the batched engine, which vectorizes
    trial functions implementing ``run_batch`` and falls back to scalar
    execution otherwise.  When ``execution.checkpoint_dir`` is set, outcomes
    stream to ``<checkpoint_dir>/<campaign name>.jsonl`` and
    ``execution.resume`` skips trials already recorded there.
    """
    checkpoint = None
    if execution.checkpoint_dir is not None:
        checkpoint = CampaignCheckpoint(
            campaign_checkpoint_path(campaign.name, execution.checkpoint_dir)
        )
    return campaign.run(
        trial_fn,
        runner=execution.campaign_runner(),
        checkpoint=checkpoint,
        resume=execution.resume,
    )


def run_fault_campaign(
    campaign: Campaign,
    trial_fn: TrialFn,
    bit_error_rate: float,
    fault_free: Dict[Hashable, CampaignResult],
    *,
    execution: "ExecutionConfig",
    key: Hashable = (),
) -> CampaignResult:
    """Run one campaign of a fault sweep, and each fault-free campaign once.

    A training-fault trial adds no fault at ``bit_error_rate == 0``, and its
    RNG depends only on the campaign seed and the trial index.  So the BER-0
    campaigns a driver runs for different fault kinds (stuck-at-0 and
    stuck-at-1, or each injection episode) compute the same outcomes.  The
    first one runs and is kept in ``fault_free`` (one dict per driver call);
    a later one with the same seed, size and ``key`` reports that result and
    executes no trial.  ``key`` names anything else the trial depends on,
    such as the training length.
    """
    if bit_error_rate > 0:
        return run_campaign(campaign, trial_fn, execution=execution)
    key = (campaign.seed, campaign.repetitions, key)
    if key not in fault_free:
        fault_free[key] = run_campaign(campaign, trial_fn, execution=execution)
    return fault_free[key]


# --------------------------------------------------------------------------- #
# Grid World
# --------------------------------------------------------------------------- #
def build_tabular_agent(
    config: GridTabularConfig, env: GridWorld, rng: np.random.Generator
) -> TabularQAgent:
    """Construct the tabular Q-learning agent described by ``config``."""
    return TabularQAgent(
        env.n_states,
        env.n_actions,
        gamma=config.gamma,
        learning_rate=config.learning_rate,
        schedule=DecayingEpsilonGreedy(
            config.epsilon_start, config.epsilon_floor, config.epsilon_decay
        ),
        qformat=config.qformat,
        value_scale=config.value_scale,
        initial_q=config.initial_q,
        rng=rng,
    )


def build_nn_agent(
    config: GridNNConfig, env: GridWorld, rng: np.random.Generator
) -> DoubleDQNAgent:
    """Construct the NN-based (Double DQN) Grid World agent."""
    network = build_grid_q_network(
        env.n_states, env.n_actions, hidden_sizes=config.hidden_sizes, rng=rng
    )
    return DoubleDQNAgent(
        network,
        env.one_hot,
        env.n_actions,
        gamma=config.gamma,
        learning_rate=config.learning_rate,
        schedule=DecayingEpsilonGreedy(
            config.epsilon_start, config.epsilon_floor, config.epsilon_decay
        ),
        replay_capacity=config.replay_capacity,
        batch_size=config.batch_size,
        train_every=config.train_every,
        target_update_every=config.target_update_every,
        weight_qformat=config.weight_qformat,
        rng=rng,
    )


def make_train_eval_envs(
    config, rng: np.random.Generator
) -> Tuple[GridWorld, GridWorld]:
    """Training and evaluation Grid World environments for a config.

    The NN config trains with exploring starts and shaped rewards; evaluation
    always starts from the source cell so the reported success rate matches
    the paper's definition.
    """
    if isinstance(config, GridNNConfig):
        train_env = make_gridworld(
            config.density,
            random_start=True,
            free_reward=config.free_reward,
            bump_reward=config.bump_reward,
            rng=rng,
        )
        eval_env = make_gridworld(
            config.density,
            free_reward=config.free_reward,
            bump_reward=config.bump_reward,
        )
    else:
        train_env = make_gridworld(config.density, rng=rng)
        eval_env = make_gridworld(config.density)
    return train_env, eval_env


def train_tabular(
    config: GridTabularConfig,
    rng: np.random.Generator,
    hooks: Iterable[TrainingHooks] = (),
    episodes: Optional[int] = None,
) -> Tuple[TabularQAgent, GridWorld, TrainingResult]:
    """Train a tabular agent from scratch; returns (agent, eval_env, history)."""
    train_env, eval_env = make_train_eval_envs(config, rng)
    agent = build_tabular_agent(config, train_env, rng)
    result = train_agent(
        agent,
        train_env,
        episodes=episodes or config.episodes,
        max_steps_per_episode=config.max_steps,
        hooks=hooks,
    )
    return agent, eval_env, result


def train_grid_nn(
    config: GridNNConfig,
    rng: np.random.Generator,
    hooks: Iterable[TrainingHooks] = (),
    episodes: Optional[int] = None,
) -> Tuple[DoubleDQNAgent, GridWorld, TrainingResult]:
    """Train the NN-based Grid World agent; returns (agent, eval_env, history)."""
    train_env, eval_env = make_train_eval_envs(config, rng)
    agent = build_nn_agent(config, train_env, rng)
    result = train_agent(
        agent,
        train_env,
        episodes=episodes or config.episodes,
        max_steps_per_episode=config.max_steps,
        hooks=hooks,
    )
    return agent, eval_env, result


def greedy_policy(agent) -> Policy:
    """Wrap an agent as a greedy (exploitation-only) policy callable."""
    return lambda state: agent.select_action(state, explore=False)


def evaluate_grid_policy(policy: Policy, env: GridWorld, trials: int, max_steps: int = 100) -> float:
    """Success rate of a policy on the Grid World evaluation environment."""
    return evaluate_success_rate(policy, env, trials=trials, max_steps=max_steps)


# --------------------------------------------------------------------------- #
# Drone
# --------------------------------------------------------------------------- #
@dataclass
class DronePolicyBundle:
    """A pre-trained drone policy plus its environments and range profile."""

    config: DroneConfig
    network: Sequential
    envs: Dict[str, DroneNavEnv]
    clean_state: Dict[str, np.ndarray]
    range_profile: LayerRangeProfile

    def env(self, name: Optional[str] = None) -> DroneNavEnv:
        return self.envs[name or self.config.environment]

    def make_executor(self, qformat=None) -> QuantizedExecutor:
        """Fresh quantized executor over a clean copy of the policy."""
        self.network.load_state_dict(self.clean_state)
        return QuantizedExecutor(self.network, qformat or self.config.qformat)

    def restore_clean(self) -> None:
        self.network.load_state_dict(self.clean_state)


_DRONE_CACHE: Dict[Tuple, DronePolicyBundle] = {}


def clear_drone_cache() -> None:
    """Drop cached pre-trained drone policies (mainly for tests)."""
    _DRONE_CACHE.clear()


def _drone_cache_key(config: DroneConfig, seed: int) -> Tuple:
    # Every field the pretraining or the range profile reads.  The rest of
    # the config (evaluation and fine-tuning knobs) is the caller's own and
    # travels on the returned bundle, not in the key.
    return (
        config.image_size,
        config.n_actions,
        config.pretrain_samples,
        config.pretrain_extra_env_samples,
        config.pretrain_epochs,
        round(config.pretrain_learning_rate, 8),
        config.qformat,
        seed,
    )


def build_drone_bundle(config: DroneConfig, seed: int = 0) -> DronePolicyBundle:
    """Pre-train (or fetch the cached) drone policy for a config.

    The policy is trained against the privileged depth expert with samples
    drawn from *both* environments, so the same network can be evaluated on
    ``indoor-long`` and ``indoor-vanleer`` (Fig. 7b).  A cache hit shares
    the pretrained network but carries the caller's ``config``.
    """
    key = _drone_cache_key(config, seed)
    cached = _DRONE_CACHE.get(key)
    if cached is not None:
        cached.restore_clean()
        return cached if cached.config == config else replace(cached, config=config)

    rng = np.random.default_rng(seed)
    envs = {
        "indoor-long": make_drone_env("indoor-long", image_size=config.image_size),
        "indoor-vanleer": make_drone_env("indoor-vanleer", image_size=config.image_size),
    }
    images = []
    targets = []
    sample_plan = {
        "indoor-long": config.pretrain_samples,
        "indoor-vanleer": config.pretrain_extra_env_samples,
    }
    for name, env in envs.items():
        n_samples = sample_plan[name]
        if n_samples <= 0:
            continue
        expert = GreedyDepthExpert(env)
        imgs, tgts = collect_dataset(env, expert, n_samples, rng)
        images.append(imgs)
        targets.append(tgts)
    images = np.concatenate(images)
    targets = np.concatenate(targets)

    network = small_c3f2(config.image_size, n_actions=config.n_actions, rng=rng)
    behaviour_clone(
        network,
        images,
        targets,
        epochs=config.pretrain_epochs,
        learning_rate=config.pretrain_learning_rate,
        rng=rng,
    )

    executor = QuantizedExecutor(network, config.qformat)
    calibration = images[:: max(1, len(images) // 32)]
    profile = executor.profile_ranges(calibration)

    bundle = DronePolicyBundle(
        config=config,
        network=network,
        envs=envs,
        clean_state=network.state_dict(),
        range_profile=profile,
    )
    _DRONE_CACHE[key] = bundle
    return bundle


def evaluate_drone_msf(
    policy: Policy,
    env: DroneNavEnv,
    trials: int,
    max_steps: int,
) -> float:
    """Mean Safe Flight distance of a policy in metres."""
    return evaluate_mean_metric(
        policy, env, "flight_distance", trials=trials, max_steps=max_steps
    )
