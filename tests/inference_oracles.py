"""Scalar reference implementations of the inference campaign trials.

The program runs every Fig. 5 NN, Fig. 7b-e and Fig. 10b inference trial
through one batched path (a single trial is a one-replica batch).  These
are the independent scalar formulations those trials replaced: one
:class:`~repro.nn.buffers.QuantizedExecutor`, one scalar environment and
one episode at a time.  ``tests/test_batched_parity.py`` checks the
batched trials against them, outcome for outcome, at every batch size.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.campaign import TrialOutcome
from repro.core.fault_models import FaultModel, TransientBitFlip
from repro.core.injector import (
    ActivationFaultInjector,
    InputFaultInjector,
    inject_weight_faults,
)
from repro.core.mitigation.anomaly import RangeAnomalyDetector
from repro.core.sites import BufferSelector
from repro.experiments.common import DronePolicyBundle, evaluate_drone_msf
from repro.experiments.fig5_inference import _MEMORY_FAULT_MODES, _memory_fault_model
from repro.nn.buffers import QuantizedExecutor
from repro.quant.qformat import QFormat
from repro.rl.dqn import DQNAgent


# --------------------------------------------------------------------------- #
# Fig. 5 NN inference
# --------------------------------------------------------------------------- #
def _nn_episode(
    agent: DQNAgent,
    env,
    mode: str,
    ber: float,
    rng: np.random.Generator,
    max_steps: int,
    qformat,
) -> bool:
    """Run one inference episode of the NN policy under the given fault mode."""
    executor = QuantizedExecutor(agent.network, qformat)
    try:
        if mode in _MEMORY_FAULT_MODES and ber > 0:
            model = _memory_fault_model(mode, ber)
            executor.apply_weight_faults(
                lambda name, tensor: model.inject(tensor, rng)
            )

        fault_step = int(rng.integers(max_steps)) if mode == "transient-1" else -1
        state = env.reset()
        for step in range(max_steps):
            if step == fault_step and ber > 0:
                # Transient-1 hits a read register: only this one decision
                # sees the corrupted weights.  Query a one-off faulted
                # executor and restore the clean weights immediately, so the
                # remaining steps run clean instead of inheriting the faults
                # through the shared network.
                faulty_executor = QuantizedExecutor(agent.network, qformat)
                faulty_executor.apply_weight_faults(
                    lambda name, tensor: TransientBitFlip(ber).inject(tensor, rng)
                )
                q = faulty_executor.forward(agent.state_encoder(state)[None])[0]
                faulty_executor.restore_clean_weights()
            else:
                q = executor.forward(agent.state_encoder(state)[None])[0]
            action = int(np.argmax(q))
            state, _, done, info = env.step(action)
            if done:
                return bool(info.get("success", False))
        return False
    finally:
        executor.restore_clean_weights()


def nn_trial_oracle(trial, rng: np.random.Generator) -> TrialOutcome:
    """A Fig. 5 ``_NNInferenceTrial`` run one scalar episode at a time."""
    successes = [
        _nn_episode(
            trial.agent, trial.env, trial.mode, trial.ber, rng, trial.max_steps, trial.qformat
        )
        for _ in range(trial.episodes_per_trial)
    ]
    return TrialOutcome(success=None, metric=float(np.mean(successes)))


# --------------------------------------------------------------------------- #
# Fig. 7b-e and Fig. 10b drone inference
# --------------------------------------------------------------------------- #
def executor_policy(executor: QuantizedExecutor) -> Callable[[np.ndarray], int]:
    """Greedy policy reading Q-values through the quantized executor."""
    return lambda state: int(np.argmax(executor.forward(state[None])[0]))


def _make_executor(bundle: DronePolicyBundle, qformat=None) -> QuantizedExecutor:
    """Fresh quantized executor over a clean copy of the policy."""
    bundle.network.load_state_dict(bundle.clean_state)
    return QuantizedExecutor(bundle.network, qformat or bundle.config.qformat)


def _msf_with_faults(
    bundle: DronePolicyBundle,
    env_name: str,
    rng: np.random.Generator,
    qformat: Optional[QFormat] = None,
    weight_fault: Optional[FaultModel] = None,
    weight_selector: Optional[BufferSelector] = None,
    activation_injector: Optional[ActivationFaultInjector] = None,
    input_injector: Optional[InputFaultInjector] = None,
) -> float:
    """MSF of the bundle's policy with the given fault configuration applied."""
    config = bundle.config
    executor = _make_executor(bundle, qformat)
    if weight_fault is not None and weight_fault.bit_error_rate > 0:
        inject_weight_faults(executor, weight_fault, selector=weight_selector, rng=rng)
    if activation_injector is not None:
        executor.activation_hooks.append(activation_injector)
    if input_injector is not None:
        executor.input_hooks.append(input_injector)
    try:
        return evaluate_drone_msf(
            executor_policy(executor),
            bundle.env(env_name),
            trials=config.eval_trials,
            max_steps=config.max_eval_steps,
        )
    finally:
        executor.restore_clean_weights()


def drone_trial_oracle(trial, rng: np.random.Generator) -> TrialOutcome:
    """A Fig. 7b-e ``_DroneMSFTrial`` (no weight scrub) run as scalar episodes."""
    activation = None
    input_inj = None
    if trial.activation_fault is not None:
        activation = ActivationFaultInjector(
            trial.activation_fault, mode=trial.activation_mode, rng=rng
        )
    if trial.input_fault is not None:
        input_inj = InputFaultInjector(trial.input_fault, rng=rng)
    msf = _msf_with_faults(
        trial.bundle,
        trial.env_name,
        rng,
        qformat=trial.qformat,
        weight_fault=trial.weight_fault,
        weight_selector=trial.weight_selector,
        activation_injector=activation,
        input_injector=input_inj,
    )
    return TrialOutcome(metric=msf)


def fig10b_trial_oracle(
    bundle: DronePolicyBundle,
    ber: float,
    mitigation: bool,
    margin: float,
    rng: np.random.Generator,
) -> TrialOutcome:
    """One Fig. 10b trial: weight faults, then the range detector's weight scrub."""
    config = bundle.config
    executor = _make_executor(bundle)
    try:
        if ber > 0:
            inject_weight_faults(executor, TransientBitFlip(ber), rng=rng)
        if mitigation:
            detector = RangeAnomalyDetector(bundle.range_profile, margin=margin)
            detector.apply_to_weights(executor)
        msf = evaluate_drone_msf(
            executor_policy(executor),
            bundle.env(config.environment),
            trials=config.eval_trials,
            max_steps=config.max_eval_steps,
        )
        return TrialOutcome(metric=msf)
    finally:
        executor.restore_clean_weights()
