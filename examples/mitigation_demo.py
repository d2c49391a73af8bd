"""Demonstration of the two fault-mitigation techniques (Sec. 5).

1. Training-time: a transient fault is injected mid-training; the adaptive
   exploration controller detects the reward drop and boosts exploration.
2. Inference-time: transient faults corrupt the NN weights; the range-based
   anomaly detector scrubs the out-of-range values before they reach the
   policy.

Run with:  python examples/mitigation_demo.py
"""

import numpy as np

from repro.core.fault_models import TransientBitFlip
from repro.core.injector import TransientTrainingFaultHook, inject_weight_faults
from repro.core.mitigation import AdaptiveExplorationController, RangeAnomalyDetector
from repro.experiments.common import greedy_policy, train_grid_nn, train_tabular
from repro.experiments.config import GridNNConfig, GridTabularConfig
from repro.nn.buffers import QuantizedExecutor
from repro.rl import evaluate_success_rate


def training_mitigation_demo() -> None:
    print("== Training-time mitigation: adaptive exploration-rate adjustment ==")
    config = GridTabularConfig(eval_trials=30)
    inject_episode = int(config.episodes * 0.95)

    for mitigated in (False, True):
        rng = np.random.default_rng(7)
        hooks = [TransientTrainingFaultHook(0.01, inject_episode=inject_episode, rng=rng)]
        controller = None
        if mitigated:
            controller = AdaptiveExplorationController(alpha=0.8)
            hooks.append(controller)
        agent, eval_env, _ = train_tabular(config, rng, hooks=hooks)
        rate = evaluate_success_rate(greedy_policy(agent), eval_env, trials=30)
        label = "with mitigation   " if mitigated else "without mitigation"
        extra = ""
        if controller is not None:
            extra = (
                f" (transient detections: {controller.transient_detections}, "
                f"adjustments: {len(controller.adjustments)})"
            )
        print(f"  {label}: success rate {rate:.2f}{extra}")


def inference_mitigation_demo() -> None:
    print("\n== Inference-time mitigation: range-based anomaly detection ==")
    config = GridNNConfig(eval_trials=30)
    rng = np.random.default_rng(3)
    agent, eval_env, _ = train_grid_nn(config, rng)

    calibration = eval_env.one_hot(np.arange(eval_env.n_states))
    profile = QuantizedExecutor(agent.network, config.weight_qformat).profile_ranges(calibration)

    for mitigated in (False, True):
        executor = QuantizedExecutor(agent.network, config.weight_qformat)
        inject_weight_faults(executor, TransientBitFlip(0.005), rng=np.random.default_rng(11))
        detector = None
        if mitigated:
            detector = RangeAnomalyDetector(profile, margin=0.1)
            detector.apply_to_weights(executor)
        policy = lambda s: int(np.argmax(executor.forward(agent.state_encoder(s)[None])[0]))
        rate = evaluate_success_rate(policy, eval_env, trials=20, max_steps=config.max_steps)
        label = "with detector   " if mitigated else "without detector"
        extra = f" (anomalies removed: {detector.counters.detected_anomalies})" if detector else ""
        print(f"  {label}: success rate {rate:.2f}{extra}")
        executor.restore_clean_weights()


if __name__ == "__main__":
    training_mitigation_demo()
    inference_mitigation_demo()
