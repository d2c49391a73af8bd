"""Layers for the numpy NN substrate.

Every layer implements ``forward`` / ``backward`` and exposes its trainable
parameters through ``params()`` / ``grads()`` dictionaries so optimizers and
the accelerator buffer model can address them by name.

Tensor layout conventions
-------------------------
* Dense inputs: ``(batch, features)``.
* Convolutional inputs: ``(batch, channels, height, width)``.
* Conv kernels: ``(out_channels, in_channels, kernel_h, kernel_w)``.

Replica-batched execution
-------------------------
Every layer additionally implements :meth:`Layer.forward_replicas`, which
prepends a *batch-of-replicas* axis to the scalar layout: the input is
``(replicas, *scalar_input_shape)`` and, optionally, a stack of per-replica
parameters ``(replicas, *param_shape)`` replaces the layer's own weights.
This is how the batched fault-injection engine evaluates B differently
corrupted copies of one network in a single numpy call per layer.  The
replica paths are written so that every replica's slice goes through
floating-point operations of exactly the same shape and order as the scalar
``forward`` — the results are bit-identical, which the differential test
suite (``tests/test_batched_parity.py``) enforces.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.nn.initializers import glorot_uniform, he_uniform, zeros_init

__all__ = ["Layer", "Dense", "Conv2D", "MaxPool2D", "ReLU", "Flatten"]


class Layer:
    """Base class for all layers."""

    #: Human-readable layer kind, used by experiments to group layers
    #: ("conv", "dense", "pool", "activation", "reshape").
    kind: str = "layer"

    def __init__(self, name: str = "") -> None:
        self.name = name or self.__class__.__name__.lower()

    # -- interface ------------------------------------------------------ #
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        """Inference forward over a leading batch-of-replicas axis.

        ``x`` has shape ``(replicas, *scalar_input_shape)``.  ``params``
        optionally supplies per-replica parameter stacks (each value shaped
        ``(replicas, *param_shape)``, keyed like :meth:`params`); without it
        the layer's own parameters are broadcast across all replicas.  Each
        replica's slice of the result is bit-identical to running
        :meth:`forward` on that slice alone.
        """
        raise NotImplementedError(
            f"{self.__class__.__name__} does not support replica-batched execution"
        )

    def forward_replicas_quantized(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]], qformat
    ) -> np.ndarray:
        """:meth:`forward_replicas` fused with post-layer quantization.

        The batched executor quantizes every layer's output into ``qformat``
        (the accelerator writes each result through its output buffer); this
        entry point lets layers fuse that quantization into their forward
        pass (see the ``QFormat`` fused helpers).  The default composes the two
        steps, which is exactly what the executor's per-layer quantize hook
        used to do, so overriding is purely an optimization — results must
        stay bit-identical.  ``x`` is already on the ``qformat`` grid (the
        quantized input or the previous layer's quantized output), so layers
        that only select or move values (ReLU, max-pooling, flatten) skip
        the codec.
        """
        return qformat.quantize(self.forward_replicas(x, params=params))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameter arrays keyed by local name."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys (after backward)."""
        return {}

    def set_params(self, new_params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place (used to load faulted weights)."""
        current = self.params()
        for key, value in new_params.items():
            if key not in current:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            current[key][...] = value

    @property
    def trainable(self) -> bool:
        return bool(self.params())

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output given an input shape (without batch dim)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    kind = "dense"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
        initializer: Callable = glorot_uniform,
    ) -> None:
        super().__init__(name=name)
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = initializer((in_features, out_features), rng)
        self.bias = zeros_init((out_features,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._last_input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._last_input = x
        return x @ self.weight + self.bias

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if params is None:
            # Shared weights: one broadcast matmul, same (batch, in) @ (in, out)
            # GEMM per replica slice as the scalar path.
            return np.matmul(x, self.weight) + self.bias
        weight, bias = params["weight"], params["bias"]
        # Per-replica weights: np.matmul maps each (batch, in) slice against
        # its own (in, out) stack entry — the identical GEMM the scalar path
        # issues, just looped in C instead of Python.
        return np.matmul(x, weight) + bias[:, None, :]

    def forward_replicas_quantized(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]], qformat
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if params is None:
            # Shared float weights (pre-fault-activation): one broadcast
            # matmul, then the bias+quantize tail.
            return qformat.bias_quantize(np.matmul(x, self.weight), self.bias)
        return qformat.matmul_bias_quantize(x, params["weight"], params["bias"])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward called before a training forward pass")
        x = self._last_input
        self.grad_weight = x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)


def _im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold image patches into columns for convolution-as-matmul.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch, out_h, out_w, channels * kernel_h * kernel_w)``.
    """
    batch, channels, height, width = x.shape
    if padding:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    padded_h, padded_w = x.shape[2], x.shape[3]
    out_h = (padded_h - kernel_h) // stride + 1
    out_w = (padded_w - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel_h}x{kernel_w} with stride {stride} does not fit "
            f"input of spatial size {height}x{width} (padding {padding})"
        )
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kernel_h, kernel_w),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kernel_h * kernel_w
    )
    return np.ascontiguousarray(cols), out_h, out_w


class Conv2D(Layer):
    """2-D convolution implemented with im2col + matmul."""

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
        initializer: Callable = he_uniform,
    ) -> None:
        super().__init__(name=name)
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = initializer(
            (out_channels, in_channels, kernel_size, kernel_size), rng
        )
        self.bias = zeros_init((out_channels,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], int, int]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        cols, out_h, out_w = _im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        w_flat = self.weight.reshape(self.out_channels, -1)
        out = cols @ w_flat.T + self.bias
        out = out.transpose(0, 3, 1, 2)
        if training:
            self._cache = (cols, x.shape, out_h, out_w)
        return out

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        replicas, batch = x.shape[0], x.shape[1]
        folded = x.reshape(replicas * batch, *x.shape[2:])
        cols, out_h, out_w = _im2col(
            folded, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        cols = cols.reshape(replicas, batch, out_h, out_w, -1)
        if params is None:
            w_flat_t = self.weight.reshape(self.out_channels, -1).T
            out = np.matmul(cols, w_flat_t) + self.bias
        else:
            # (replicas, 1, 1, k, out_channels) so matmul broadcasts each
            # replica's (out_w, k) @ (k, out_channels) slice — the same GEMM
            # shape the scalar path's ``cols @ w_flat.T`` produces.
            w_flat_t = params["weight"].reshape(replicas, self.out_channels, -1)
            w_flat_t = w_flat_t.transpose(0, 2, 1)[:, None, None, :, :]
            out = np.matmul(cols, w_flat_t) + params["bias"][:, None, None, None, :]
        return out.transpose(0, 1, 4, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols, input_shape, out_h, out_w = self._cache
        batch, _, height, width = input_shape
        grad_flat = grad_out.transpose(0, 2, 3, 1)  # (b, oh, ow, oc)

        w_flat = self.weight.reshape(self.out_channels, -1)
        self.grad_weight = (
            np.einsum("bijo,bijk->ok", grad_flat, cols).reshape(self.weight.shape)
        )
        self.grad_bias = grad_flat.sum(axis=(0, 1, 2))

        grad_cols = grad_flat @ w_flat  # (b, oh, ow, c*kh*kw)
        grad_input = np.zeros(
            (
                batch,
                self.in_channels,
                height + 2 * self.padding,
                width + 2 * self.padding,
            ),
            dtype=np.float64,
        )
        grad_cols = grad_cols.reshape(
            batch, out_h, out_w, self.in_channels, self.kernel_size, self.kernel_size
        ).transpose(0, 3, 1, 2, 4, 5)  # (b, c, oh, ow, kh, kw)
        # One strided scatter per kernel offset.  Offsets run in descending
        # order: for a fixed input pixel, descending offset is ascending
        # output index, so every pixel sums its terms in output order (the
        # order tests/test_nn_layers.py's per-output-pixel reference uses).
        h_span = self.stride * (out_h - 1) + 1
        w_span = self.stride * (out_w - 1) + 1
        for ki in range(self.kernel_size - 1, -1, -1):
            for kj in range(self.kernel_size - 1, -1, -1):
                grad_input[
                    :, :, ki : ki + h_span : self.stride, kj : kj + w_span : self.stride
                ] += grad_cols[..., ki, kj]
        if self.padding:
            grad_input = grad_input[
                :, :, self.padding : -self.padding, self.padding : -self.padding
            ]
        return grad_input

    def params(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def grads(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return (self.out_channels, out_h, out_w)


def _pool_windows(
    x: np.ndarray, out_h: int, out_w: int, size: int, stride: int
) -> np.ndarray:
    """Read-only (b, c, out_h, out_w, size, size) view of the pooling windows."""
    strides = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=x.shape[:2] + (out_h, out_w, size, size),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) windows."""

    kind = "pool"

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name: str = "") -> None:
        super().__init__(name=name)
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, channels, height, width = x.shape
        size, stride = self.pool_size, self.stride
        out_h = (height - size) // stride + 1
        out_w = (width - size) // stride + 1
        h_span = stride * (out_h - 1) + 1
        w_span = stride * (out_w - 1) + 1
        # Fold np.maximum over the size**2 window offsets, each one strided
        # slice of the whole input, in row-major window order: a few flat
        # elementwise passes instead of a reduction over a 6-D window view.
        out = x[:, :, 0:h_span:stride, 0:w_span:stride].copy()
        for pi in range(size):
            for pj in range(size):
                if pi or pj:
                    window = x[:, :, pi : pi + h_span : stride, pj : pj + w_span : stride]
                    np.maximum(out, window, out=out)
        if training:
            self._cache = (x, out.shape)
        return out

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        replicas, batch = x.shape[0], x.shape[1]
        folded = x.reshape(replicas * batch, *x.shape[2:])
        out = self.forward(folded, training=False)
        return out.reshape(replicas, batch, *out.shape[1:])

    def forward_replicas_quantized(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]], qformat
    ) -> np.ndarray:
        # The maximum of on-grid values is one of them: requantizing it is
        # the identity.
        return self.forward_replicas(x, params)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x, out_shape = self._cache
        grad_input = np.zeros_like(x)
        batch, channels, out_h, out_w = out_shape
        size = self.pool_size
        windows = _pool_windows(x, out_h, out_w, size, self.stride)
        # First maximum of each window, in row-major window order (ties go
        # to the earliest element, as a per-window argmax picks them).
        arg = windows.reshape(batch, channels, out_h, out_w, size * size).argmax(axis=-1)
        # Overlapping windows add into shared pixels; descending offsets
        # visit each pixel's windows in ascending output order.
        h_span = self.stride * (out_h - 1) + 1
        w_span = self.stride * (out_w - 1) + 1
        for pi in range(size - 1, -1, -1):
            for pj in range(size - 1, -1, -1):
                mask = (arg == pi * size + pj).astype(np.float64)
                grad_input[
                    :, :, pi : pi + h_span : self.stride, pj : pj + w_span : self.stride
                ] += mask * grad_out
        return grad_input

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        channels, height, width = input_shape
        out_h = (height - self.pool_size) // self.stride + 1
        out_w = (width - self.pool_size) // self.stride + 1
        return (channels, out_h, out_w)


class ReLU(Layer):
    """Rectified linear activation."""

    kind = "activation"

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def forward_replicas_quantized(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]], qformat
    ) -> np.ndarray:
        # relu of an on-grid value is that value or +0.0, both on the grid
        # (quantize never yields -0.0): requantizing is the identity.
        return self.forward_replicas(x, params)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_out * self._mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    kind = "reshape"

    def __init__(self, name: str = "") -> None:
        super().__init__(name=name)
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def forward_replicas(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return x.reshape(x.shape[0], x.shape[1], -1)

    def forward_replicas_quantized(
        self, x: np.ndarray, params: Optional[Dict[str, np.ndarray]], qformat
    ) -> np.ndarray:
        # A reshape of on-grid values: requantizing is the identity.
        return self.forward_replicas(x, params)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_out.reshape(self._input_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)
