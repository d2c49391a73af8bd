"""Privileged geometric expert for the drone task.

The paper pre-trains its drone policy offline (Double DQN in PEDRA) before
fine-tuning online.  Offline pre-training of a CNN by RL is far too slow in
pure numpy, so the reproduction substitutes *supervised pre-training against
a privileged expert*: for any drone pose the expert scores each of the 25
actions by the free-space distance along that action's heading (which it
reads directly from the world geometry).  The C3F2 network is then trained
to predict these per-action clearance scores from the camera image alone
(see :func:`repro.experiments.common.build_drone_bundle`), which yields the
same kind of "turn toward open space" policy the paper's RL training produces.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.envs.drone.env import DroneNavEnv

__all__ = ["GreedyDepthExpert", "collect_dataset"]

#: Pose draws ``collect_dataset`` makes per requested sample before it gives
#: up on a world whose free space (at the collision margin) is empty or tiny.
_ATTEMPTS_PER_SAMPLE = 1000


class GreedyDepthExpert:
    """Scores each action by simulating it against the world geometry.

    The score of an action combines three terms, all computed with privileged
    access to the floor plan:

    * 0 if executing the action (yaw change plus forward step, in sub-steps)
      would collide,
    * otherwise the free distance looking ahead from the post-action pose
      (normalized by ``lookahead``),
    * plus ``clearance_weight`` times the all-around clearance at the
      post-action pose, which makes the expert start weaving *before* it is
      boxed in,
    * plus a small straight-ahead bonus to break ties without dithering.
    """

    def __init__(
        self,
        env: DroneNavEnv,
        lookahead: float = 12.0,
        clearance_weight: float = 0.3,
        straight_bonus: float = 0.03,
    ) -> None:
        if lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {lookahead}")
        if clearance_weight < 0:
            raise ValueError(f"clearance_weight must be non-negative, got {clearance_weight}")
        self.env = env
        self.lookahead = lookahead
        self.clearance_weight = clearance_weight
        self.straight_bonus = straight_bonus

    def action_scores(self, pose: Optional[Tuple[float, float, float]] = None) -> np.ndarray:
        """Score in [0, ~1.5] for each action; higher is safer/more open.

        All actions are simulated at once: the sub-step positions of every
        action go through one :meth:`CorridorWorld.free_mask` query, and the
        look-ahead and clearance rays from every post-action pose through one
        :meth:`~CorridorWorld.ray_distances` and one
        :meth:`~CorridorWorld.clearances` pass.
        """
        x, y, heading = pose if pose is not None else self.env.pose
        env = self.env
        world = env.world
        headings = heading + env.actions.yaw_offsets
        step = env.actions.forward_step / env.substeps
        dx = step * np.cos(headings)
        dy = step * np.sin(headings)
        # Partial sums accumulated sub-step by sub-step, so each position
        # is the same float as in a sequential x += step * cos(heading).
        xs = np.empty((env.substeps, headings.size), dtype=np.float64)
        ys = np.empty_like(xs)
        xs[0] = x + dx
        ys[0] = y + dy
        for i in range(1, env.substeps):
            xs[i] = xs[i - 1] + dx
            ys[i] = ys[i - 1] + dy
        free = world.free_mask(xs, ys, margin=env.collision_radius + 0.05).all(axis=0)
        nx, ny = xs[-1], ys[-1]
        ahead = world.ray_distances(nx, ny, headings, self.lookahead) / self.lookahead
        clearance = np.minimum(world.clearances(nx, ny), 3.0) / 3.0
        scores = np.where(free, ahead + self.clearance_weight * clearance, 0.0)
        scores[env.actions.straight_action] += self.straight_bonus
        return scores

    def select_action(self, state: np.ndarray = None) -> int:
        """Best action for the environment's *current* pose (state is ignored)."""
        return int(np.argmax(self.action_scores()))


def collect_dataset(
    env: DroneNavEnv,
    expert: GreedyDepthExpert,
    num_samples: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample (image, per-action clearance score) pairs from random free poses.

    Poses are drawn uniformly over the free space of the environment's world
    with random headings, which covers the states the policy will encounter
    far better than on-policy rollouts of an untrained network.
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    images: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    world = env.world
    margin = env.collision_radius
    max_attempts = _ATTEMPTS_PER_SAMPLE * num_samples
    for _ in range(max_attempts):
        x = rng.uniform(0.0, world.length)
        y = rng.uniform(0.0, world.width)
        if not world.is_free(x, y, margin=margin):
            continue
        heading = rng.uniform(-np.pi, np.pi)
        images.append(env.camera.render(world, x, y, heading))
        targets.append(expert.action_scores((x, y, heading)))
        if len(images) == num_samples:
            return np.stack(images), np.stack(targets)
    raise ValueError(
        f"found {len(images)} of {num_samples} free poses in {max_attempts} "
        f"draws: world {world.name!r} has almost no point with clearance "
        f"margin {margin}"
    )
