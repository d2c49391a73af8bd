"""Tests for the numpy NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn import Adam, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential, SGD
from repro.nn.initializers import fan_in_out, glorot_uniform, he_uniform
from repro.nn.layers import _pool_windows
from repro.nn.losses import huber_loss, mse_loss
from repro.quant import Q16_NARROW, QFormat


def numerical_gradient(func, array, eps=1e-5):
    """Central-difference gradient of a scalar function w.r.t. an array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func()
        flat[i] = original - eps
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        assert np.allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_fn():
            pred = layer.forward(x, training=True)
            return mse_loss(pred, target)[0]

        loss_fn()
        _, grad_out = mse_loss(layer.forward(x, training=True), target)
        layer.backward(grad_out)
        numeric = numerical_gradient(loss_fn, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-5)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 2))

        def loss_fn():
            return mse_loss(layer.forward(x, training=True), target)[0]

        _, grad_out = mse_loss(layer.forward(x, training=True), target)
        grad_in = layer.backward(grad_out)
        numeric = numerical_gradient(loss_fn, x)
        assert np.allclose(grad_in, numeric, atol=1e-5)

    def test_backward_without_forward_raises(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_set_params(self, rng):
        layer = Dense(3, 2, rng=rng)
        layer.set_params({"weight": np.ones((3, 2))})
        assert np.all(layer.weight == 1.0)
        with pytest.raises(KeyError):
            layer.set_params({"nonexistent": np.ones(1)})


class TestConv2D:
    def test_forward_shape(self, rng):
        layer = Conv2D(2, 4, kernel_size=3, rng=rng)
        out = layer.forward(rng.normal(size=(2, 2, 8, 8)))
        assert out.shape == (2, 4, 6, 6)

    def test_forward_shape_with_stride_and_padding(self, rng):
        layer = Conv2D(1, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer.forward(rng.normal(size=(1, 1, 7, 7)))
        assert out.shape == (1, 3, 4, 4)
        assert layer.output_shape((1, 7, 7)) == (3, 4, 4)

    def test_forward_matches_manual_convolution(self, rng):
        layer = Conv2D(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 3, 3))
        out = layer.forward(x)
        kernel = layer.weight[0, 0]
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = np.sum(x[0, 0, i : i + 2, j : j + 2] * kernel) + layer.bias[0]
        assert np.allclose(out[0, 0], expected)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Conv2D(1, 2, kernel_size=2, rng=rng)
        x = rng.normal(size=(2, 1, 4, 4))
        target = rng.normal(size=(2, 2, 3, 3))

        def loss_fn():
            return mse_loss(layer.forward(x, training=True), target)[0]

        _, grad_out = mse_loss(layer.forward(x, training=True), target)
        layer.backward(grad_out)
        numeric = numerical_gradient(loss_fn, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Conv2D(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 3, 3))
        target = rng.normal(size=(1, 1, 2, 2))

        def loss_fn():
            return mse_loss(layer.forward(x, training=True), target)[0]

        _, grad_out = mse_loss(layer.forward(x, training=True), target)
        grad_in = layer.backward(grad_out)
        numeric = numerical_gradient(loss_fn, x)
        assert np.allclose(grad_in, numeric, atol=1e-4)

    def test_kernel_too_large_raises(self, rng):
        layer = Conv2D(1, 1, kernel_size=5, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 3, 3)))


class TestPoolingAndActivations:
    def test_maxpool_forward(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_maxpool_backward_routes_gradient_to_max(self):
        layer = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0  # position of value 5
        assert grad[0, 0, 0, 0] == 0.0

    def test_relu_masks_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0, 0.0]]))
        assert out.tolist() == [[0.0, 2.0, 0.0]]

    def test_relu_backward(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), training=True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert grad.tolist() == [[0.0, 5.0]]

    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 2, 2)
        out = layer.forward(x, training=True)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_pool_output_shape(self):
        assert MaxPool2D(2).output_shape((8, 10, 10)) == (8, 5, 5)


def reference_conv_input_grad(layer, x, grad_out):
    """Input gradient of ``layer`` by one scatter-add per output pixel.

    The per-output-pixel loop ``Conv2D.backward`` used before its scatter
    became one strided add per kernel offset; kept as the bit-exact oracle.
    """
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    batch, channels, height, width = x.shape
    out_h, out_w = grad_out.shape[2:]
    grad_flat = grad_out.transpose(0, 2, 3, 1)
    grad_cols = (grad_flat @ layer.weight.reshape(layer.out_channels, -1)).reshape(
        batch, out_h, out_w, channels, k, k
    )
    grad_input = np.zeros((batch, channels, height + 2 * p, width + 2 * p))
    for i in range(out_h):
        for j in range(out_w):
            grad_input[:, :, i * s : i * s + k, j * s : j * s + k] += grad_cols[:, i, j]
    return grad_input[:, :, p : p + height, p : p + width]


def reference_pool_input_grad(layer, x, grad_out):
    """Input gradient of ``layer`` by one masked add per pooling window."""
    size, s = layer.pool_size, layer.stride
    batch, channels = x.shape[:2]
    out_h, out_w = grad_out.shape[2:]
    grad_input = np.zeros_like(x)
    b_idx, c_idx = np.meshgrid(np.arange(batch), np.arange(channels), indexing="ij")
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, :, i * s : i * s + size, j * s : j * s + size]
            flat = window.reshape(batch, channels, -1)
            mask = np.zeros_like(flat)
            mask[b_idx, c_idx, flat.argmax(axis=2)] = 1.0
            grad_input[:, :, i * s : i * s + size, j * s : j * s + size] += (
                mask.reshape(window.shape) * grad_out[:, :, i, j][:, :, None, None]
            )
    return grad_input


class TestBackwardMatchesReferenceLoops:
    """Conv/pool input gradients are bit-identical to the per-pixel loops."""

    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv_input_gradient(self, kernel, padding, stride):
        rng = np.random.default_rng(100 * kernel + 10 * padding + stride)
        layer = Conv2D(2, 3, kernel_size=kernel, stride=stride, padding=padding, rng=rng)
        x = rng.normal(size=(2, 2, 9, 11))
        out = layer.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        grad = layer.backward(grad_out)
        assert np.array_equal(grad, reference_conv_input_grad(layer, x, grad_out))

    @pytest.mark.parametrize("size, stride", [(2, 2), (3, 2), (2, 1), (3, 3), (3, 1)])
    @pytest.mark.parametrize("tied", [False, True])
    def test_maxpool_input_gradient(self, size, stride, tied):
        rng = np.random.default_rng(10 * size + stride)
        shape = (3, 2, 8, 9)
        # Integers from a small range make most windows hold tied maxima.
        x = rng.integers(0, 3, size=shape).astype(float) if tied else rng.normal(size=shape)
        layer = MaxPool2D(size, stride=stride)
        out = layer.forward(x, training=True)
        grad_out = rng.normal(size=out.shape)
        grad = layer.backward(grad_out)
        assert np.array_equal(grad, reference_pool_input_grad(layer, x, grad_out))


def reference_maxpool_forward(layer, x):
    """``MaxPool2D.forward`` as one max over the 6-D window view; the oracle
    for the offset fold that replaced it."""
    size, stride = layer.pool_size, layer.stride
    out_h = (x.shape[2] - size) // stride + 1
    out_w = (x.shape[3] - size) // stride + 1
    return _pool_windows(x, out_h, out_w, size, stride).max(axis=(4, 5))


POOL_INPUTS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    "negative": lambda rng, shape: -rng.uniform(1.0, 5.0, size=shape),
    "tied": lambda rng, shape: rng.integers(-2, 2, size=shape).astype(float),
    "nan-inf": lambda rng, shape: rng.choice(
        np.array([np.nan, np.inf, -np.inf, 1.5, -2.0]), size=shape
    ),
    "signed-zero": lambda rng, shape: rng.choice(np.array([0.0, -0.0, -1.0]), size=shape),
}


class TestMaxPoolForwardMatchesWindowMax:
    @pytest.mark.parametrize(
        "size, stride", [(2, 2), (1, 1), (3, 2), (2, 1), (3, 3), (3, 1), (4, 3)]
    )
    @pytest.mark.parametrize("kind", sorted(POOL_INPUTS))
    def test_equals_window_max(self, size, stride, kind):
        rng = np.random.default_rng(10 * size + stride)
        layer = MaxPool2D(size, stride=stride)
        for shape in [(3, 2, 8, 9), (1, 1, 7, 5), (2, 3, size, size)]:
            x = POOL_INPUTS[kind](rng, shape)
            out = layer.forward(x)
            expected = reference_maxpool_forward(layer, x)
            assert out.shape == expected.shape
            if kind == "signed-zero":
                # numpy's max reduction leaves which zero of a tied -0.0/+0.0
                # window it returns to its loop order, so only the value is
                # pinned (no program path feeds -0.0 into a pool: ReLU and
                # quantize emit +0.0).
                assert np.array_equal(out, expected)
            else:
                assert np.array_equal(out.view(np.int64), expected.view(np.int64))


class TestGridPreservingLayersSkipTheCodec:
    """ReLU, max-pooling and flatten forward on-grid inputs without requantizing."""

    @pytest.mark.parametrize("qformat", [Q16_NARROW, QFormat(1, 3, 4)], ids=str)
    @pytest.mark.parametrize(
        "layer",
        [ReLU(), MaxPool2D(2), MaxPool2D(3, stride=1), Flatten()],
        ids=["relu", "pool2", "pool3s1", "flatten"],
    )
    def test_fused_equals_quantized_forward(self, layer, qformat):
        rng = np.random.default_rng(3)
        # Out-of-range values saturate to the format's extremes, and NaN
        # quantizes to the minimum: the grid's edge cases are all present.
        raw = rng.normal(scale=2 * qformat.max_value, size=(3, 2, 4, 7, 7))
        raw.reshape(-1)[:5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        with np.errstate(invalid="ignore"):
            x = qformat.quantize(raw)
        fused = layer.forward_replicas_quantized(x, None, qformat)
        expected = qformat.quantize(layer.forward_replicas(x))
        assert np.array_equal(fused.view(np.int64), expected.view(np.int64))


class TestLossesAndInitializers:
    def test_mse_zero_for_equal(self):
        loss, grad = mse_loss(np.ones((2, 2)), np.ones((2, 2)))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones((2, 2)), np.ones((3, 2)))

    def test_huber_quadratic_region_matches_mse_scale(self):
        pred = np.array([[0.1]])
        target = np.array([[0.0]])
        loss, _ = huber_loss(pred, target, delta=1.0)
        assert loss == pytest.approx(0.5 * 0.1**2)

    def test_huber_linear_region(self):
        loss, grad = huber_loss(np.array([[10.0]]), np.array([[0.0]]), delta=1.0)
        assert loss == pytest.approx(0.5 + 9.0)
        assert grad[0, 0] == pytest.approx(1.0)

    def test_huber_invalid_delta(self):
        with pytest.raises(ValueError):
            huber_loss(np.ones(1), np.ones(1), delta=0.0)

    def test_fan_in_out(self):
        assert fan_in_out((10, 5)) == (10, 5)
        assert fan_in_out((8, 4, 3, 3)) == (36, 72)

    def test_initializer_ranges(self, rng):
        weights = he_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 100)
        assert np.abs(weights).max() <= limit
        weights = glorot_uniform((100, 50), rng)
        assert np.abs(weights).max() <= np.sqrt(6.0 / 150)
