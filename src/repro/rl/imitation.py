"""Supervised pre-training of the drone policy (offline-training substitute).

:func:`behaviour_clone` trains the C3F2 network to regress the privileged
expert's per-action clearance scores from camera images.  The resulting
network plays the role of the paper's offline-trained Double DQN policy: its
argmax steers toward open space, and it can subsequently be fine-tuned online
(last two layers only) with :class:`~repro.rl.dqn.DoubleDQNAgent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.nn.losses import mse_loss
from repro.nn.network import Sequential
from repro.nn.optim import Adam

__all__ = ["PretrainResult", "behaviour_clone"]


@dataclass
class PretrainResult:
    """Training record of a supervised pre-training run."""

    losses: List[float]

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no training steps were recorded")
        return self.losses[-1]


def behaviour_clone(
    network: Sequential,
    images: np.ndarray,
    targets: np.ndarray,
    epochs: int = 20,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
) -> PretrainResult:
    """Fit ``network`` to (image, per-action score) pairs by minibatch MSE."""
    if images.shape[0] != targets.shape[0]:
        raise ValueError(
            f"images and targets disagree on sample count: "
            f"{images.shape[0]} vs {targets.shape[0]}"
        )
    if epochs <= 0 or batch_size <= 0:
        raise ValueError("epochs and batch_size must be positive")
    rng = rng or np.random.default_rng()
    optimizer = Adam(network, learning_rate=learning_rate)
    num_samples = images.shape[0]
    losses: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(num_samples)
        epoch_losses = []
        for start in range(0, num_samples, batch_size):
            batch = order[start : start + batch_size]
            predictions = network.forward(images[batch], training=True)
            loss, grad = mse_loss(predictions, targets[batch])
            network.backward(grad)
            optimizer.step()
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return PretrainResult(losses=losses)

