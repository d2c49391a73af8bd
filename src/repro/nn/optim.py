"""Optimizers for the numpy NN substrate."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.nn.network import Sequential

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer operating on a :class:`~repro.nn.network.Sequential`.

    Parameters
    ----------
    network:
        The network whose parameters will be updated in place.
    learning_rate:
        Step size.
    frozen:
        Iterable of parameter-name prefixes to exclude from updates.  The
        drone policy fine-tunes only its last two layers online (transfer
        learning, Sec. 4.2.1); freezing the convolutional layers reproduces
        that setup.
    """

    def __init__(
        self,
        network: Sequential,
        learning_rate: float = 1e-3,
        frozen: Optional[Iterable[str]] = None,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.network = network
        self.learning_rate = learning_rate
        self.frozen: Set[str] = set(frozen or ())

    def freeze(self, prefix: str) -> None:
        """Exclude parameters whose name starts with ``prefix`` from updates."""
        self.frozen.add(prefix)

    def unfreeze(self, prefix: str) -> None:
        """Re-enable updates for parameters matching ``prefix``."""
        self.frozen.discard(prefix)

    def _is_frozen(self, name: str) -> bool:
        return any(name.startswith(prefix) for prefix in self.frozen)

    def step(self) -> None:
        """Apply one update using the gradients currently stored in the network."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        network: Sequential,
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
        frozen: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(network, learning_rate, frozen)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        params = self.network.named_params()
        grads = self.network.named_grads()
        for name, param in params.items():
            if self._is_frozen(name):
                continue
            grad = grads.get(name)
            if grad is None:
                continue
            if self.momentum:
                vel = self._velocity.setdefault(name, np.zeros_like(param))
                vel *= self.momentum
                vel -= self.learning_rate * grad
                param += vel
            else:
                param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    The first and second moments of every parameter live in two flat
    buffers, allocated once in network parameter order, and each step
    updates them in place: one pass per contiguous run of trainable
    parameters instead of one per parameter.  Frozen parameters keep their
    moments untouched until they are unfrozen.  Elementwise, the arithmetic
    is that of the per-parameter update ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g``, ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """

    def __init__(
        self,
        network: Sequential,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        frozen: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(network, learning_rate, frozen)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t = 0
        #: Flat-buffer span of each parameter, in network order.
        self._spans: Dict[str, slice] = {}
        offset = 0
        for name, param in network.named_params().items():
            self._spans[name] = slice(offset, offset + param.size)
            offset += param.size
        self._m = np.zeros(offset)
        self._v = np.zeros(offset)
        #: Gathered gradients, overwritten in place by the step to apply.
        self._grad = np.empty(offset)
        self._work = np.empty(offset)
        self._layout_frozen: Optional[Set[str]] = None
        self._trained: List[str] = []
        self._runs: List[slice] = []

    def _layout(self) -> Tuple[List[str], List[slice]]:
        """Trainable parameter names and the contiguous flat runs they cover."""
        if self._layout_frozen != self.frozen:
            self._layout_frozen = set(self.frozen)
            self._trained = [name for name in self._spans if not self._is_frozen(name)]
            runs: List[slice] = []
            for name in self._trained:
                span = self._spans[name]
                if runs and runs[-1].stop == span.start:
                    runs[-1] = slice(runs[-1].start, span.stop)
                else:
                    runs.append(span)
            self._runs = runs
        return self._trained, self._runs

    def step(self) -> None:
        self._t += 1
        trained, runs = self._layout()
        grads = self.network.named_grads()
        for name in trained:
            self._grad[self._spans[name]] = grads[name].ravel()
        m_scale = 1.0 - self.beta1**self._t
        v_scale = 1.0 - self.beta2**self._t
        for run in runs:
            grad, m, v, work = self._grad[run], self._m[run], self._v[run], self._work[run]
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=work)
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=work)
            v += np.multiply(work, grad, out=work)
            # step = lr * (m / m_scale) / (sqrt(v / v_scale) + eps)
            step = np.divide(m, m_scale, out=grad)
            step *= self.learning_rate
            np.divide(v, v_scale, out=work)
            np.sqrt(work, out=work)
            work += self.eps
            step /= work
        params = self.network.named_params()
        for name in trained:
            param = params[name]
            param -= self._grad[self._spans[name]].reshape(param.shape)
