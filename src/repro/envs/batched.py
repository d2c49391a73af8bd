"""Batched environment stepping.

The batched inference-campaign engine evaluates B fault-injected policy
replicas simultaneously, which requires stepping B *independent* episodes in
lockstep.  :class:`BatchedEnv` is the interface the batched rollout engine
(:func:`repro.rl.evaluation.greedy_rollouts`) drives:

* :meth:`BatchedEnv.reset_all` starts a fresh episode in every replica;
* :meth:`BatchedEnv.step_many` applies one action per *active* replica —
  replicas finish independently, so the rollout engine passes the indices
  of the episodes still running.

Two implementations exist: :class:`~repro.envs.gridworld.GridWorldBatch`
steps all Grid World replicas through vectorized integer math, and
:class:`~repro.envs.drone.DroneNavEnvBatch` steps drone replicas through
replica-axis numpy ray casting.  Both are exact: replica ``r`` of a batched
run visits the same states, rewards and ``info`` dictionaries as a scalar
environment stepped with the same actions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["BatchedEnv"]


class BatchedEnv:
    """B independent episodic environments stepped together.

    Subclasses must implement :meth:`reset_all` and :meth:`step_many`.
    """

    #: Number of discrete actions (shared by every replica).
    n_actions: int

    #: Number of independent replicas.
    n_replicas: int

    def reset_all(self) -> List[Any]:
        """Start a new episode in every replica; return the initial states."""
        raise NotImplementedError

    def step_many(
        self, actions: Sequence[int], indices: Sequence[int]
    ) -> Tuple[List[Any], np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """Apply ``actions[j]`` to replica ``indices[j]``.

        Returns ``(next_states, rewards, dones, infos)``, each aligned with
        ``indices`` (length ``len(indices)``, *not* ``n_replicas``).  Every
        replica behaves exactly like a scalar environment stepped with the
        same action sequence.
        """
        raise NotImplementedError

    def _check_actions(self, actions: np.ndarray) -> None:
        if actions.size and (actions.min() < 0 or actions.max() >= self.n_actions):
            raise ValueError(
                f"actions must lie in [0, {self.n_actions}), got range "
                f"[{actions.min()}, {actions.max()}]"
            )
