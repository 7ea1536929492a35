"""Tensor engine: forward semantics, gradients, checkpoints, determinism."""
import contextlib
import os
import weakref

import numpy as np
import pytest

from parcnn import tensor as T
from parcnn.errors import NumericalError
from parcnn.tensor import Tensor, load_checkpoint, save_checkpoint

from conftest import (_BN_LAYOUTS, _bn_layout, _layout, assert_channel_last, f64,
                      gradcheck)


class TestConv2d:
    def test_output_spatial_size_48_to_46(self):
        # 1-channel 48x48, K=3, stride 1, no padding
        x = Tensor(np.zeros((1, 1, 48, 48), np.float32))
        w = Tensor(np.zeros((100, 1, 3, 3), np.float32))
        y = T.conv2d(x, w)
        assert y.shape == (1, 100, 46, 46)

    def test_identity_kernel(self, rng):
        x = Tensor(np.ones((1, 1, 3, 3), np.float32))
        w = np.zeros((1, 1, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        y = T.conv2d(x, Tensor(w), padding=1)
        np.testing.assert_array_equal(y.data, x.data)

    def test_pointwise_scaling(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
        w = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        y = T.conv2d(x, w)
        np.testing.assert_array_equal(y.data, 2.0 * x.data)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4), np.float32))
        w = Tensor(np.zeros((1, 3, 3, 3), np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            T.conv2d(x, w)

    def test_nonpositive_output_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2), np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), np.float32))
        with pytest.raises(ValueError, match="non-positive"):
            T.conv2d(x, w)

    def test_linearity_without_bias(self, rng):
        xa = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        xb = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        a, b = 1.7, -0.6
        lhs = T.conv2d(Tensor(a * xa + b * xb), w, padding=1).data
        rhs = a * T.conv2d(Tensor(xa), w, padding=1).data \
            + b * T.conv2d(Tensor(xb), w, padding=1).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


class TestDepthwise:
    def test_identity_kernels(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 4))
                   .astype(np.float32))
        k = np.zeros((3, 3, 3), np.float32)
        k[:, 1, 1] = 1.0
        y = T.depthwise_conv2d(x, Tensor(k), padding=1)
        np.testing.assert_allclose(y.data, x.data, atol=1e-7)

    def test_constant_input_all_ones_kernel_against_direct_summation(self):
        # direct-summation oracle: each output counts the taps inside the image
        c_val = 2.5
        x = Tensor(np.full((1, 2, 4, 4), c_val, np.float32))
        k = Tensor(np.ones((2, 3, 3), np.float32))
        y = T.depthwise_conv2d(x, k, padding=1).data

        def taps(i, j, size=4):
            count = 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if 0 <= i + di < size and 0 <= j + dj < size:
                        count += 1
            return count

        for ch in range(2):
            for i in range(4):
                for j in range(4):
                    assert y[0, ch, i, j] == pytest.approx(taps(i, j) * c_val,
                                                           rel=1e-6)
        assert y[0, 0, 1, 1] == pytest.approx(9 * c_val, rel=1e-6)  # interior

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            T.depthwise_conv2d(Tensor(np.zeros((1, 2, 4, 4), np.float32)),
                               Tensor(np.zeros((3, 3, 3), np.float32)))

    def test_channel_independence(self, rng):
        x = rng.normal(size=(1, 3, 5, 5)).astype(np.float32)
        k = Tensor(rng.normal(size=(3, 3, 3)).astype(np.float32))
        base = T.depthwise_conv2d(Tensor(x), k, padding=1).data
        bumped = x.copy()
        bumped[0, 1] += 1.0    # perturb channel 1 only
        out = T.depthwise_conv2d(Tensor(bumped), k, padding=1).data
        np.testing.assert_array_equal(out[0, 0], base[0, 0])
        np.testing.assert_array_equal(out[0, 2], base[0, 2])
        assert np.abs(out[0, 1] - base[0, 1]).max() > 0


class TestBackward:
    def test_linear_sum_gradient_closed_form(self, rng):
        # y = W x, loss = sum(y)  =>  dL/dW = broadcast of x
        x = rng.normal(size=(1, 5)).astype(np.float32)
        w = Tensor(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
        loss = T.tsum(T.linear(Tensor(x), w))
        loss.backward()
        np.testing.assert_allclose(w.grad, np.tile(x, (3, 1)), rtol=1e-6)

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.square(x).backward()

    def test_separate_graphs_over_one_leaf_add_up(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        T.tsum(T.square(x)).backward()
        first = x.grad.copy()
        T.tsum(T.square(x)).backward()
        assert x.grad.tobytes() == (2 * first).tobytes()

    def test_numeric_gradient_perturbs_a_transposed_tensor(self, rng):
        # channel-last: a flat reshape of its data would be a copy
        x = Tensor(rng.normal(size=(2, 4, 3, 3)).transpose(0, 3, 1, 2), requires_grad=True)
        assert not x.data.flags.c_contiguous
        (numeric,) = T.numeric_gradient(lambda: T.tsum(T.square(x)), [x], step=1e-5)
        np.testing.assert_allclose(numeric, 2 * x.data, rtol=1e-6, atol=1e-8)

    def test_second_sweep_of_a_graph_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        loss = T.tsum(T.square(x))
        loss.backward()
        with pytest.raises(RuntimeError, match="already swept"):
            loss.backward()

    def test_sweep_into_a_subgraph_another_loss_freed_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        h = T.square(x)
        l1, l2 = T.tsum(h), T.tsum(T.mul(h, h))
        l1.backward()
        assert h.grad is None and h._parents == ()
        with pytest.raises(RuntimeError, match="already swept"):
            l2.backward()

    def test_sweep_frees_interior_activations(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32),
                   requires_grad=True)
        h = T.relu(T.conv2d(x, Tensor(rng.normal(size=(4, 3, 3, 3))
                                      .astype(np.float32), requires_grad=True)))
        activation = weakref.ref(h.data)   # Tensor has __slots__, so the ndarray
        loss = T.tsum(h)
        del h
        loss.backward()
        assert activation() is None
        assert loss.grad is None and loss._parents == ()
        assert x.grad is not None

    @pytest.mark.parametrize("layer", [
        "conv", "conv_stride2", "depthwise", "depthwise_bias", "pointwise",
        "linear", "batchnorm", "relu", "maxpool", "maxpool_padded",
        "maxpool_stride1", "softmax_logloss",
    ])
    def test_gradcheck_each_layer_kind(self, layer, rng):
        if layer == "conv":
            x = f64(rng.normal(size=(2, 3, 6, 6)))
            w = f64(rng.normal(size=(4, 3, 3, 3)))
            b = f64(rng.normal(size=(4,)))
            fn = lambda: T.tsum(T.square(T.conv2d(x, w, b, stride=1, padding=1)))
            leaves = [x, w, b]
        elif layer == "conv_stride2":
            x = f64(rng.normal(size=(2, 3, 7, 7)))
            w = f64(rng.normal(size=(4, 3, 3, 3)))
            b = f64(rng.normal(size=(4,)))
            fn = lambda: T.tsum(T.square(T.conv2d(x, w, b, stride=2, padding=1)))
            leaves = [x, w, b]
        elif layer == "depthwise":
            x = f64(rng.normal(size=(2, 3, 6, 6)))
            k = f64(rng.normal(size=(3, 3, 3)))
            fn = lambda: T.tsum(T.square(T.depthwise_conv2d(x, k, padding=1)))
            leaves = [x, k]
        elif layer == "depthwise_bias":
            x = f64(rng.normal(size=(2, 3, 7, 7)))
            k = f64(rng.normal(size=(3, 3, 3)))
            b = f64(rng.normal(size=(3,)))
            fn = lambda: T.tsum(T.square(T.depthwise_conv2d(x, k, b, padding=1)))
            leaves = [x, k, b]
        elif layer == "pointwise":
            x = f64(rng.normal(size=(2, 3, 5, 5)))
            w = f64(rng.normal(size=(6, 3, 1, 1)))
            fn = lambda: T.tsum(T.square(T.conv2d(x, w)))
            leaves = [x, w]
        elif layer == "linear":
            x = f64(rng.normal(size=(4, 5)))
            w = f64(rng.normal(size=(3, 5)))
            b = f64(rng.normal(size=(3,)))
            fn = lambda: T.tsum(T.square(T.linear(x, w, b)))
            leaves = [x, w, b]
        elif layer == "batchnorm":
            x = f64(rng.normal(size=(3, 4, 5, 5)))
            scale = f64(1.0 + 0.1 * rng.normal(size=(4,)))
            shift = f64(rng.normal(size=(4,)))
            rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))

            def fn():
                rm.data[...] = 0.0   # keep running stats fixed across FD calls
                rv.data[...] = 1.0
                return T.tsum(T.square(T.batch_norm2d(
                    x, scale, shift, rm, rv, training=True)))

            leaves = [x, scale, shift]
        elif layer == "relu":
            x = f64(rng.normal(size=(4, 4)) + np.where(
                rng.normal(size=(4, 4)) > 0, 0.5, -0.5))   # keep off the kink
            fn = lambda: T.tsum(T.square(T.relu(x)))
            leaves = [x]
        elif layer == "maxpool":
            x = f64(rng.normal(size=(2, 2, 7, 7)))
            fn = lambda: T.tsum(T.square(T.max_pool2d(x, 3, 2)))
            leaves = [x]
        elif layer == "maxpool_padded":
            x = f64(rng.normal(size=(2, 2, 7, 7)))
            fn = lambda: T.tsum(T.square(T.max_pool2d(x, 3, 2, padding=1)))
            leaves = [x]
        elif layer == "maxpool_stride1":
            x = f64(rng.normal(size=(2, 2, 7, 7)))
            fn = lambda: T.tsum(T.square(T.max_pool2d(x, 3, 1)))
            leaves = [x]
        else:  # softmax composed with log-loss
            x = f64(rng.normal(size=(4, 6)))
            onehot = np.zeros((4, 6))
            onehot[np.arange(4), [0, 3, 5, 2]] = 1.0
            fn = lambda: T.mul(T.tsum(T.mul(T.log_softmax(x), Tensor(onehot))),
                               Tensor(np.asarray(-0.25)))
            leaves = [x]
        assert gradcheck(fn, leaves, step=1e-5) < 1e-3


# -- reference ops ------------------------------------------------------------
# max_pool2d, relu and Tensor._accumulate as they were before their data
# movement was rewritten. The engine must keep their float operations and
# order, so its outputs and gradients must equal these byte for byte, in
# value and (apart from max pooling's output, which is channel-last whatever
# the input's layout) in memory layout. ref_conv2d (a GEMM over
# channel-major windows), ref_depthwise_conv2d (an einsum over sliding
# windows) and ref_batch_norm2d (the plain formula) sum in another order
# than the engine's tap-major GEMM, tap multiply-adds and GEMM channel sums,
# so the engine is held to them run in float64, within a tolerance;
# ref_conv2d also byte for byte on rounded values, whose sums are exact in
# any order.

def _patches(xp, kernel, stride):
    """(N,C,Hp,Wp) -> view (N,C,Ho,Wo,K,K) of sliding windows."""
    v = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return v[:, :, ::stride, ::stride]


def _ref_scatter_patches(shape, gpatches, kernel, stride):
    gxp = np.zeros(shape, dtype=gpatches.dtype)
    ho, wo = gpatches.shape[2], gpatches.shape[3]
    for i in range(kernel):
        for j in range(kernel):
            gxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                gpatches[:, :, :, :, i, j]
    return gxp


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    n, c_in, h, w = x.shape
    c_out, _, k, _ = weight.shape
    ho = T.conv_output_size(h, k, stride, padding)
    wo = T.conv_output_size(w, k, stride, padding)
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    cols = _patches(xp, k, stride).transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, -1)
    wmat = weight.data.reshape(c_out, -1)
    out = cols @ wmat.T
    if bias is not None:
        out = out + bias.data
    data = out.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2)

    def backward(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, c_out)
        if weight.requires_grad:
            weight._accumulate((g2.T @ cols).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))
        if x.requires_grad:
            gcols = (g2 @ wmat).reshape(n, ho, wo, c_in, k, k).transpose(0, 3, 1, 2, 4, 5)
            gxp = _ref_scatter_patches(xp.shape, gcols, k, stride)
            gx = gxp[:, :, padding:padding + h, padding:padding + w] if padding else gxp
            x._accumulate(gx)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return T._make(data, parents, backward, "conv2d")


def ref_depthwise_conv2d(x, kernel, bias=None, padding=0):
    n, c, h, w = x.shape
    k = kernel.shape[1]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    pv = _patches(xp, k, 1)
    data = np.einsum("nchwij,cij->nchw", pv, kernel.data, optimize=True)
    if bias is not None:
        data = data + bias.data[None, :, None, None]

    def backward(g):
        if kernel.requires_grad:
            kernel._accumulate(np.einsum("nchwij,nchw->cij", pv, g, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gpatches = np.einsum("nchw,cij->nchwij", g, kernel.data, optimize=True)
            gxp = _ref_scatter_patches(xp.shape, gpatches, k, 1)
            gx = gxp[:, :, padding:padding + h, padding:padding + w] if padding else gxp
            x._accumulate(gx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return T._make(data, parents, backward, "depthwise_conv2d")


def ref_max_pool2d(x, window=3, stride=2, padding=0):
    n, c, h, w = x.shape
    ho = T.conv_output_size(h, window, stride, padding)
    wo = T.conv_output_size(w, window, stride, padding)
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    pv = _patches(xp, window, stride).reshape(n, c, ho, wo, window * window)
    idx = pv.argmax(axis=-1)
    data = np.take_along_axis(pv, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if not x.requires_grad:
            return
        gflat = np.zeros((n, c, ho, wo, window * window), dtype=g.dtype)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gpatches = gflat.reshape(n, c, ho, wo, window, window)
        gxp = _ref_scatter_patches(xp.shape, gpatches, window, stride)
        gx = gxp[:, :, padding:padding + h, padding:padding + w] if padding else gxp
        x._accumulate(gx)

    return T._make(data, (x,), backward, "max_pool2d")


def ref_batch_norm2d(x, scale, shift, running_mean, running_var,
                     training, momentum=0.1, eps=1e-5):
    if training:
        m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean.data[...] = (1 - momentum) * running_mean.data + momentum * mean
        running_var.data[...] = (1 - momentum) * running_var.data + momentum * var
    else:
        mean = running_mean.data
        var = running_var.data
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    data = scale.data[None, :, None, None] * xhat + shift.data[None, :, None, None]

    def backward(g):
        if scale.requires_grad:
            scale._accumulate(np.sum(g * xhat, axis=(0, 2, 3)))
        if shift.requires_grad:
            shift._accumulate(np.sum(g, axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        gxhat = g * scale.data[None, :, None, None]
        if training:
            sum_gxhat = gxhat.sum(axis=(0, 2, 3))
            sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2, 3))
            gx = (gxhat
                  - (sum_gxhat / m)[None, :, None, None]
                  - xhat * (sum_gxhat_xhat / m)[None, :, None, None])
            gx = gx * inv_std[None, :, None, None]
        else:
            gx = gxhat * inv_std[None, :, None, None]
        x._accumulate(gx)

    return T._make(data, (x, scale, shift), backward, "batch_norm2d")


def ref_relu(a):
    mask = a.data > 0
    data = np.where(mask, a.data, 0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return T._make(data, (a,), backward, "relu")


def ref_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _rounded(rng, shape, dtype):
    """Halves in [-2, 2]: many exact ties, and zeros of both signs."""
    values = np.round(rng.normal(size=shape) * 2) / 2
    return np.where(rng.random(shape) < 0.1, -0.0, values).astype(dtype)


def _sampler(rng, dtype, rounded):
    if rounded:
        return lambda shape: _rounded(rng, shape, dtype)
    return lambda shape: rng.normal(size=shape).astype(dtype)


def _assert_same_bytes(a, b, what, strides=None):
    """Same dtype, values and signs; same strides as ``b`` unless given."""
    assert a.dtype == b.dtype, what
    assert a.strides == (b.strides if strides is None else strides), what
    assert a.tobytes() == b.tobytes(), what


def _check_against_reference(op, ref, inputs, upstream_rng, layout=None, **kwargs):
    """Run ``op`` and ``ref`` on layout-keeping copies of ``inputs`` through
    one backward pass with a shared upstream gradient, and compare the
    output and every leaf gradient byte for byte. With ``layout`` the first
    input is stored that way (``_bn_layout``), and the output's strides are
    not the reference's: the output must be channel-last instead."""
    runs = []
    upstream = None
    for fn in (ref, op):
        leaves = [Tensor(_bn_layout(a, layout) if layout and k == 0
                         else a.copy(order="K"), requires_grad=True)
                  for k, a in enumerate(inputs)]
        y = fn(*leaves, **kwargs)
        if upstream is None:
            upstream = _rounded(upstream_rng, y.shape, y.dtype)
        T.tsum(T.mul(y, Tensor(upstream))).backward()
        runs.append((y, leaves))
    (y_ref, leaves_ref), (y, leaves) = runs
    strides = _layout(y.data, True).strides if layout else None
    _assert_same_bytes(y.data, y_ref.data, "output", strides)
    for k, (t, t_ref) in enumerate(zip(leaves, leaves_ref)):
        _assert_same_bytes(t.grad, t_ref.grad, f"gradient of input {k}")


def _check_against_float64_reference(op, ref, inputs, upstream_rng, **kwargs):
    """Run ``op`` on ``inputs`` and ``ref`` on float64 copies of them through
    one backward pass with a shared upstream gradient; the output and every
    leaf gradient must keep the engine's dtypes and agree within 1e-4 when
    an input is float32 (it bounds the precision), 1e-10 in float64.
    Returns the engine's output array."""
    runs = []
    upstream = None
    for fn, cast in ((op, lambda a: a.copy(order="K")),
                     (ref, lambda a: a.astype(np.float64))):
        leaves = [Tensor(cast(a), requires_grad=True) for a in inputs]
        y = fn(*leaves, **kwargs)
        if upstream is None:
            upstream = _rounded(upstream_rng, y.shape, y.dtype)
        T.tsum(T.mul(y, Tensor(cast(upstream)))).backward()
        runs.append([y.data] + [t.grad for t in leaves])
    engine, reference = runs
    tol = 1e-4 if any(a.dtype == np.float32 for a in inputs) else 1e-10
    names = ["output"] + [f"gradient of input {k}" for k in range(len(inputs))]
    dtypes = [np.result_type(*inputs)] + [a.dtype for a in inputs]
    for name, want, a, a_ref in zip(names, dtypes, engine, reference):
        assert a.dtype == want, name
        np.testing.assert_allclose(a, a_ref, rtol=tol, atol=tol, err_msg=name)
    return engine[0]


def _check_conv2d(inputs, rounded, rng, **kwargs):
    """conv2d against ref_conv2d: byte for byte on rounded values, whose sums
    are exact in any order, and against the reference run in float64
    otherwise, since the engine's GEMM sums its K*K*C_in products in tap-major
    order and the reference in channel-major order."""
    if rounded:
        _check_against_reference(T.conv2d, ref_conv2d, inputs, rng, **kwargs)
    else:
        _check_against_float64_reference(T.conv2d, ref_conv2d, inputs, rng, **kwargs)


_WINDOWS = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in range(k)]
_ORACLE_CASES = pytest.mark.parametrize("dtype,channel_last,rounded", [
    (dtype, channel_last, rounded)
    for dtype in (np.float32, np.float64)
    for channel_last in (False, True)
    for rounded in (False, True)])


class TestWindowOpsMatchReference:
    @_ORACLE_CASES
    def test_conv2d(self, dtype, channel_last, rounded, rng):
        draw = _sampler(rng, dtype, rounded)
        for c in (1, 5):   # im2col copies one channel tap by tap
            for k, s, p in _WINDOWS:
                x = _layout(draw((2, c, 11, 11)), channel_last)
                inputs = [x, draw((4, c, k, k)), draw((4,))]
                _check_conv2d(inputs, rounded, rng, stride=s, padding=p)

    @_ORACLE_CASES
    def test_depthwise_conv2d(self, dtype, channel_last, rounded, rng):
        draw = _sampler(rng, dtype, rounded)
        for k, p in [(k, p) for k, s, p in _WINDOWS if s == 1]:
            x = _layout(draw((2, 5, 11, 11)), channel_last)
            inputs = [x, draw((5, k, k)), draw((5,))]
            out = _check_against_float64_reference(
                T.depthwise_conv2d, ref_depthwise_conv2d, inputs, rng, padding=p)
            # the output is channel-last whatever the input's layout
            assert_channel_last(out)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    @pytest.mark.parametrize("rounded", [False, True])
    def test_max_pool2d(self, dtype, layout, rounded, rng):
        draw = _sampler(rng, dtype, rounded)
        for k, s, p in _WINDOWS:
            _check_against_reference(T.max_pool2d, ref_max_pool2d,
                                     [draw((2, 5, 11, 11))], rng, layout=layout,
                                     window=k, stride=s, padding=p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    def test_max_pool2d_signed_zero_ties(self, dtype, layout, rng):
        # windows whose maximum is a 0 of either sign, or both
        values = np.array([-0.0, 0.0, -1.0, -0.5], dtype)
        for k, s, p in _WINDOWS:
            x = rng.choice(values, size=(2, 5, 11, 11))
            _check_against_reference(T.max_pool2d, ref_max_pool2d, [x], rng,
                                     layout=layout, window=k, stride=s, padding=p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    @pytest.mark.parametrize("rounded", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm2d(self, dtype, layout, rounded, training, rng):
        self._check_batch_norm2d(dtype, dtype, layout, rounded, training, rng)

    @pytest.mark.parametrize("dtype,param_dtype", [(np.float32, np.float64),
                                                   (np.float64, np.float32)])
    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm2d_mixed_dtypes(self, dtype, param_dtype, layout,
                                       training, rng):
        # results wider than a buffer must not be written into it
        self._check_batch_norm2d(dtype, param_dtype, layout, False, training, rng)

    @staticmethod
    def _check_batch_norm2d(dtype, param_dtype, layout, rounded, training, rng):
        """The output, every gradient and the running statistics against
        ref_batch_norm2d run in float64 on the same values."""
        draw = _sampler(rng, dtype, rounded)
        x = _bn_layout(draw((4, 6, 12, 12)) + 0.5, layout)
        scale = (1.0 + 0.1 * draw((6,))).astype(param_dtype)
        shift = draw((6,)).astype(param_dtype)
        upstream = _rounded(rng, x.shape, np.result_type(dtype, param_dtype))
        runs = []
        for bn, cast in ((T.batch_norm2d, lambda a: a),
                         (ref_batch_norm2d, lambda a: a.astype(np.float64))):
            leaves = [Tensor(cast(a), requires_grad=True) for a in (x, scale, shift)]
            rm = Tensor(cast((0.1 * np.arange(6)).astype(param_dtype)))
            rv = Tensor(cast((1.0 + 0.2 * np.arange(6)).astype(param_dtype)))
            y = bn(*leaves, rm, rv, training=training)
            T.tsum(T.mul(y, Tensor(cast(upstream)))).backward()
            runs.append([y.data] + [t.grad for t in leaves] + [rm.data, rv.data])
        engine, reference = runs
        assert engine[0].dtype == np.result_type(dtype, param_dtype)
        assert_channel_last(engine[0], "output")
        # float32 anywhere bounds the precision
        tol = 1e-4 if np.float32 in (dtype, param_dtype) else 1e-10
        names = ["output", "gradient of x", "gradient of scale",
                 "gradient of shift", "running mean", "running variance"]
        dtypes = [engine[0].dtype, dtype, param_dtype, param_dtype,
                  param_dtype, param_dtype]
        for name, want, a, a_ref in zip(names, dtypes, engine, reference):
            assert a.dtype == want, name
            np.testing.assert_allclose(a, a_ref, rtol=tol, atol=tol, err_msg=name)

    @_ORACLE_CASES
    def test_conv2d_wide_input_every_padding(self, dtype, channel_last, rounded, rng):
        draw = _sampler(rng, dtype, rounded)
        n, c, h = 3, 16, 40
        for k in (3, 5):
            for s in (1, 2):
                for p in range(k):
                    x = _layout(draw((n, c, h, h)), channel_last)
                    inputs = [x, draw((4, c, k, k)), draw((4,))]
                    _check_conv2d(inputs, rounded, rng, stride=s, padding=p)


class TestReluAndAccumulateMatchReference:
    @_ORACLE_CASES
    def test_relu(self, dtype, channel_last, rounded, rng):
        draw = _sampler(rng, dtype, rounded)
        x = _layout(draw((3, 5, 9, 9)), channel_last)
        _check_against_reference(T.relu, ref_relu, [x], rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_non_finite_and_subnormal(self, dtype, rng):
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                           0.0, -0.0, 1.5, -1.5], dtype)
        grid = rng.choice(values, size=(2, 4, 6, 6))
        inputs = [grid, _layout(grid, True), grid[:, ::2, 1::2, ::3],
                  np.array([-0.0], dtype), np.array([np.nan], dtype),
                  np.array(-0.0, dtype), np.array(np.nan, dtype)]
        with T.finite_checks(False):
            for x in inputs:
                y, y_ref = T.relu(Tensor(x)), ref_relu(Tensor(x))
                _assert_same_bytes(y.data, y_ref.data, f"relu of {x.shape}")

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        t = Tensor(np.ones(3, np.float32), requires_grad=True)
        t._accumulate(np.array([-0.0, 2.0, -0.0], np.float32))
        assert not np.signbit(t.grad).any()
        np.testing.assert_array_equal(t.grad, [0.0, 2.0, 0.0])

    def test_first_gradient_keeps_the_layout_of_data(self, rng):
        data = _layout(rng.normal(size=(2, 3, 4, 5)).astype(np.float32), True)
        g = rng.normal(size=data.shape).astype(np.float32)   # C order
        t, t_ref = Tensor(data), Tensor(data)
        t._accumulate(g)
        ref_accumulate(t_ref, g)
        assert t.grad.strides == data.strides
        _assert_same_bytes(t.grad, t_ref.grad, "first gradient")

    def test_first_gradient_of_wider_dtype(self, rng):
        data = np.zeros((3, 4), np.float32)
        g = np.concatenate([rng.normal(size=(2, 4)) * 1e-40,
                            [[-0.0, 1e300, np.pi, -1e-50]]])   # float64
        t, t_ref = Tensor(data), Tensor(data)
        with np.errstate(over="ignore"):
            t._accumulate(g)
            ref_accumulate(t_ref, g)
        _assert_same_bytes(t.grad, t_ref.grad, "first gradient")


def _weight_order(weight):
    """Whether a (C_out, C_in, K, K) array is stored in C order, and whether
    tap-major, as (C_out, K, K, C_in); with K = 1 it is both."""
    return weight.flags.c_contiguous, weight.transpose(0, 2, 3, 1).flags.c_contiguous


class TestConvWeightLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (1, 2, 0), (3, 1, 1),
                                                  (3, 2, 0), (5, 1, 2)])
    def test_c_order_and_tap_major_weights_give_the_same_bytes(
            self, dtype, k, stride, padding, rng):
        """The GEMMs read a C-order weight through one copy and a tap-major
        one as a view; both give one result, and the weight gradient takes
        the weight's layout."""
        x = _layout(rng.normal(size=(2, 5, 11, 11)).astype(dtype), True)
        w = rng.normal(size=(4, 5, k, k)).astype(dtype)
        b = rng.normal(size=(4,)).astype(dtype)
        tap_major = w.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
        upstream = None
        runs = []
        for weight in (w, tap_major):
            leaves = [Tensor(a.copy(order="K"), requires_grad=True)
                      for a in (x, weight, b)]
            y = T.conv2d(*leaves, stride=stride, padding=padding)
            if upstream is None:
                upstream = _layout(rng.normal(size=y.shape).astype(dtype), True)
            T.tsum(T.mul(y, Tensor(upstream))).backward()
            assert _weight_order(leaves[1].grad) == _weight_order(weight)
            runs.append([y.data] + [np.ascontiguousarray(t.grad) for t in leaves])
        for name, a, a_ref in zip(["output", "x", "weight", "bias"], *reversed(runs)):
            _assert_same_bytes(a, a_ref, name)


def _col2im(gcols, shape, k, stride, padding, ho, wo):
    """(N*Ho*Wo, K*K*C) window gradients, columns in (i, j, c) order, added
    tap by tap in row-major order onto a zeroed padded (N,Hp,Wp,C) buffer;
    returns the logical (N,C,H,W) view of its unpadded part."""
    n, c, h, w = shape
    gcols = gcols.reshape(n, ho, wo, k, k, c)
    gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), gcols.dtype)
    for i in range(k):
        for j in range(k):
            dst = gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
            dst += gcols[:, :, :, i, j]
    return gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)


def _ref_im2col(x, k, stride, padding, ho, wo):
    """(N,H,W,C) -> (N*Ho*Wo, K*K*C) windows, filled tap by tap from the
    zero-padded input."""
    n, _, _, c = x.shape
    pad = (padding, padding)
    xp = np.pad(x, ((0, 0), pad, pad, (0, 0)))
    cols = np.empty((n, ho, wo, k, k, c), x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, :, i, j, :] = xp[:, i::stride, j::stride][:, :ho, :wo]
    return cols.reshape(n * ho * wo, -1)


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 5, 16])
    def test_same_bytes_as_tap_by_tap_reference(self, dtype, c, rng):
        """Every kernel, stride and padding, on inputs with H != W, stored
        channel-last (a C-order NHWC array) and channel-major (its view)."""
        for k in (1, 2, 3, 5):
            for s in (1, 2, 3):
                for p in range(k):
                    for h in sorted({k, 7, 12}):
                        x = rng.normal(size=(2, c, h, h + 1)).astype(dtype)
                        ho = T.conv_output_size(h, k, s, p)
                        wo = T.conv_output_size(h + 1, k, s, p)
                        for channel_last in (False, True):
                            xh = T._nhwc(_layout(x, channel_last))
                            _assert_same_bytes(T._im2col(xh, k, s, p, ho, wo),
                                               _ref_im2col(xh, k, s, p, ho, wo),
                                               f"columns at {k, s, p, h, channel_last}")

    @pytest.mark.parametrize("c,k,s,p", [(16, 3, 1, 1), (16, 3, 2, 0), (1, 3, 1, 1),
                                         (1, 5, 2, 2), (16, 1, 1, 0), (16, 1, 2, 0)])
    def test_peak_is_the_columns_and_the_padded_copy(self, c, k, s, p, rng):
        """Nothing image-sized is allocated beyond the columns (none for a
        1x1 window at stride 1) and the padded input (none without padding);
        the smallest of these arrays is 16 KB, above the allowance for the
        array objects themselves."""
        import tracemalloc
        n, h, w = 8, 20, 21
        x = rng.normal(size=(n, h, w, c)).astype(np.float32)
        ho, wo = T.conv_output_size(h, k, s, p), T.conv_output_size(w, k, s, p)
        cols_bytes = 0 if k == 1 and s == 1 else n * ho * wo * k * k * c * 4
        padded_bytes = n * (h + 2 * p) * (w + 2 * p) * c * 4 if p else 0
        tracemalloc.start()
        try:
            T._im2col(x, k, s, p, ho, wo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols_bytes + padded_bytes <= peak < cols_bytes + padded_bytes + 4096


class TestConvRebuildsColumns:
    """conv2d keeps no im2col matrix from its forward: the backward builds
    the columns again from the input, with the same bytes."""

    def test_forward_holds_no_im2col_matrix(self, rng):
        import tracemalloc
        x = Tensor(rng.normal(size=(4, 16, 32, 32)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(8, 16, 5, 5)).astype(np.float32),
                   requires_grad=True)
        cols_bytes = 4 * 28 * 28 * 5 * 5 * 16 * 4      # 5.0 MB; the output is 0.1 MB
        tracemalloc.start()
        try:
            y = T.conv2d(x, w)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.requires_grad and held < cols_bytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channel_last", [False, True])
    @pytest.mark.parametrize("stem", [False, True])
    def test_gradients_equal_explicit_gemms_byte_for_byte(self, dtype, channel_last,
                                                          stem, rng):
        """The weight gradient is ``g2.T @ _im2col(x)`` and the input gradient
        the col2im of ``g2 @ W``, each as one explicit GEMM. ``stem`` is a
        bias-free conv whose input needs no gradient, as a network's first."""
        for c in (1, 5):
            for k, s, p in _WINDOWS:
                x = _layout(rng.normal(size=(2, c, 11, 11)).astype(dtype), channel_last)
                w = rng.normal(size=(4, c, k, k)).astype(dtype)
                bias = None if stem else Tensor(rng.normal(size=4).astype(dtype),
                                                requires_grad=True)
                xt = Tensor(x.copy(order="K"), requires_grad=not stem)
                wt = Tensor(w.copy(), requires_grad=True)
                y = T.conv2d(xt, wt, bias, stride=s, padding=p)
                n, c_out, ho, wo = y.shape
                upstream = _layout(rng.normal(size=y.shape).astype(dtype), True)
                T.tsum(T.mul(y, Tensor(upstream))).backward()

                g2 = T._nhwc(upstream).reshape(n * ho * wo, c_out)
                cols = T._im2col(T._nhwc(x), k, s, p, ho, wo)
                gw = (g2.T @ cols).reshape(c_out, k, k, c).transpose(0, 3, 1, 2)
                # ``_accumulate`` writes a first gradient as +0.0 + g
                _assert_same_bytes(np.ascontiguousarray(wt.grad),
                                   np.ascontiguousarray(gw + 0.0),
                                   f"weight gradient at {c, k, s, p}")
                if stem:
                    assert xt.grad is None
                    continue
                gx = _col2im(g2 @ T._tap_major(w), x.shape, k, s, p, ho, wo)
                _assert_same_bytes(np.ascontiguousarray(xt.grad),
                                   np.ascontiguousarray(gx + 0.0),
                                   f"input gradient at {c, k, s, p}")


def _conv_gradient_digests(x, w):
    """sha256 of the input and weight gradients of a 3x3, pad-1 conv of
    channel-last ``x``, whose backward runs on two threads."""
    import hashlib
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    T.tsum(T.conv2d(xt, wt, padding=1)).backward()
    return [hashlib.sha256(np.ascontiguousarray(t.grad).tobytes()).hexdigest()
            for t in (xt, wt)]


class TestConvBackwardByWindowRows:
    """A conv whose input needs a gradient runs its backward's weight half
    on a worker thread and its input half on the calling thread, one window
    row of K*C_in columns at a time."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_runs_the_threaded_backward(self, rng):
        """The parent's backward has made its worker thread, which a forked
        child does not inherit: the child must make its own rather than wait
        on the parent's forever. A child alive at the timeout is killed."""
        import multiprocessing
        x = _layout(rng.normal(size=(2, 8, 9, 9)).astype(np.float32), True)
        w = rng.normal(size=(4, 8, 3, 3)).astype(np.float32)
        expected = _conv_gradient_digests(x, w)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(_conv_gradient_digests(x, w)))
        child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's conv backward did not finish in 30 s")
        assert child.exitcode == 0
        assert recv.poll(0) and recv.recv() == expected

    def test_concurrent_callers_share_the_worker_with_the_same_bytes(self, rng):
        """More calling threads than cores queue their weight halves on the
        one worker; each gets the bytes of a backward run alone."""
        import sys
        import threading
        x = _layout(rng.normal(size=(2, 8, 9, 9)).astype(np.float32), True)
        w = rng.normal(size=(4, 8, 3, 3)).astype(np.float32)
        expected = _conv_gradient_digests(x, w)
        got = []

        def run():
            for _ in range(5):
                got.append(_conv_gradient_digests(x, w))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [expected] * 20

    def test_backward_holds_less_than_one_im2col_matrix(self, rng):
        """The whole-matrix backward held the output gradient, the padded
        input and the 6.9 MiB im2col matrix at once, then the im2col-sized
        input-gradient columns beside both input-gradient buffers (9.4 MiB
        in all here). By window rows the peak is the output gradient, the
        padded input, both padded buffers and two reused row blocks of a
        third of the matrix each (7.3 MiB); a row block not freed before
        the next GEMM adds a third."""
        import tracemalloc
        n, c, h, w = 8, 32, 28, 28
        x = Tensor(_layout(rng.normal(size=(n, c, h, w)).astype(np.float32), True),
                   requires_grad=True)
        weight = Tensor(rng.normal(size=(c, c, 3, 3)).astype(np.float32),
                        requires_grad=True)
        cols_bytes = n * h * w * 9 * c * 4
        padded_bytes = n * (h + 2) * (w + 2) * c * 4
        out_grad_bytes = n * h * w * c * 4
        loss = T.tsum(T.conv2d(x, weight, padding=1))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cols_bytes + padded_bytes + out_grad_bytes


# the batch-norm inputs of the mnist_small student (and its teacher's conv1)
_STUDENT_BN_SHAPES = [(64, 16, 26, 26), (64, 32, 12, 12), (64, 8, 12, 12),
                      (64, 64, 5, 5)]


def _bn_leaves(x, param_dtype, c):
    scale = (1.0 + 0.1 * np.arange(c) / c).astype(param_dtype)
    shift = (0.3 * np.sin(np.arange(c))).astype(param_dtype)
    return ([Tensor(a.copy(order="K"), requires_grad=True) for a in (x, scale, shift)],
            Tensor((0.1 * np.arange(c)).astype(param_dtype)),
            Tensor((1.0 + 0.2 * np.arange(c)).astype(param_dtype)))


def _bn_then_relu(x, scale, shift, rm, rv, training):
    return T.relu(T.batch_norm2d(x, scale, shift, rm, rv, training=training))


def _fused_bn_relu(x, scale, shift, rm, rv, training):
    return T.batch_norm2d(x, scale, shift, rm, rv, training=training, relu=True)


class TestFusedBatchNormRelu:
    """``batch_norm2d(..., relu=True)`` against the engine's ``batch_norm2d``
    followed by ``relu``: one graph node with the same bytes."""

    @pytest.mark.parametrize("dtype,param_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    @pytest.mark.parametrize("training", [True, False])
    def test_same_bytes_as_batch_norm_then_relu(self, dtype, param_dtype, layout,
                                                training, rng):
        for shape in _STUDENT_BN_SHAPES:
            x = _bn_layout(rng.normal(size=shape).astype(dtype), layout)
            upstream = _rounded(rng, shape, np.result_type(dtype, param_dtype))
            runs = []
            for op in (_bn_then_relu, _fused_bn_relu):
                leaves, rm, rv = _bn_leaves(x, param_dtype, shape[1])
                y = op(*leaves, rm, rv, training)
                T.tsum(T.mul(y, Tensor(upstream))).backward()
                runs.append([y.data] + [t.grad for t in leaves] + [rm.data, rv.data])
            (y_ref, *ref), (y, *fused) = runs
            assert_channel_last(y, f"output at {shape}")
            _assert_same_bytes(y, y_ref, f"output at {shape}")
            names = ["gradient of x", "gradient of scale", "gradient of shift",
                     "running mean", "running variance"]
            for name, a, a_ref in zip(names, fused, ref):
                _assert_same_bytes(a, a_ref, f"{name} at {shape}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("training", [True, False])
    def test_non_finite_input_raises(self, bad, training, rng):
        x = _layout(rng.normal(size=(4, 8, 6, 6)).astype(np.float32), True)
        x[1, 3, 2, 4] = bad
        leaves, rm, rv = _bn_leaves(x, np.float32, 8)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericalError, match="batch_norm2d"):
            _fused_bn_relu(*leaves, rm, rv, training)

    @pytest.mark.parametrize("training", [True, False])
    def test_zero_output_gets_zero_gradient(self, training, rng):
        # values in {-1, 0, 1}, the second half of the batch the negation of
        # the first: the batch mean is exactly 0, and so is the batch-norm
        # output wherever x is 0 (shift 0)
        half = rng.choice(np.array([-1.0, 0.0, 1.0], np.float32), size=(2, 4, 5, 5))
        x = _layout(np.concatenate([half, -half]), True)
        upstream = np.ones(x.shape, np.float32)
        grads = {}
        for relu in (False, True):
            leaves = [Tensor(a, requires_grad=True)
                      for a in (x.copy(order="K"), np.ones(4, np.float32),
                                np.zeros(4, np.float32))]
            rm, rv = Tensor(np.zeros(4, np.float32)), Tensor(np.ones(4, np.float32))
            y = T.batch_norm2d(*leaves, rm, rv, training=training, relu=relu)
            if relu:
                assert (y.data[x == 0] == 0).all() and not np.signbit(y.data).any()
            T.tsum(T.mul(y, Tensor(upstream))).backward()
            grads[relu] = [t.grad for t in leaves]
        # the shift gradient counts the positions that pass the mask: x > 0
        np.testing.assert_array_equal(grads[True][2], (x > 0).sum(axis=(0, 2, 3)))
        np.testing.assert_array_equal(grads[False][2], np.full(4, x[:, 0].size))
        if not training:
            # the gradient of x is the masked upstream times the gain
            assert (grads[True][0][x <= 0] == 0).all()
            assert not np.signbit(grads[True][0]).any()
            assert (grads[True][0][x > 0] > 0).all()

    def test_gradcheck(self, rng):
        x = f64(_layout(rng.normal(size=(3, 4, 5, 5)), True))
        scale = f64(1.0 + 0.1 * rng.normal(size=(4,)))
        shift = f64(rng.normal(size=(4,)))
        rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))

        def fn():
            rm.data[...] = 0.0   # keep running stats fixed across FD calls
            rv.data[...] = 1.0
            return T.tsum(T.square(_fused_bn_relu(x, scale, shift, rm, rv, True)))

        # every batch-norm output stays off the kink by more than the FD step
        bn = T.batch_norm2d(Tensor(x.data), scale, shift, Tensor(np.zeros(4)),
                            Tensor(np.ones(4)), training=True)
        assert np.abs(bn.data).min() > 1e-3
        assert gradcheck(fn, [x, scale, shift], step=1e-5) < 1e-3


class TestBatchNormReusesItsInput:
    """``batch_norm2d(..., reuse_input=True)`` writes its centred values and
    xhat into the input's buffer: the same float ops, so the same bytes."""

    @staticmethod
    def _run(x, param_dtype, upstream, training, relu, reuse_input):
        leaves, rm, rv = _bn_leaves(x, param_dtype, x.shape[1])
        y = T.batch_norm2d(*leaves, rm, rv, training=training, relu=relu,
                           reuse_input=reuse_input)
        T.tsum(T.mul(y, Tensor(upstream))).backward()
        return leaves[0], [y.data] + [t.grad for t in leaves] + [rm.data, rv.data]

    @pytest.mark.parametrize("dtype,param_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("layout", ["channel_last", "c_order"])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_same_bytes_as_a_private_buffer(self, dtype, param_dtype, layout, relu,
                                            training, rng):
        shape = (8, 16, 13, 13)
        x = _bn_layout(rng.normal(size=shape).astype(dtype), layout)
        upstream = _rounded(rng, shape, np.result_type(dtype, param_dtype))
        x_kept, ref = self._run(x, param_dtype, upstream, training, relu, False)
        x_lent, lent = self._run(x, param_dtype, upstream, training, relu, True)
        names = ["output", "gradient of x", "gradient of scale",
                 "gradient of shift", "running mean", "running variance"]
        for name, a, a_ref in zip(names, lent, ref):
            _assert_same_bytes(a, a_ref, name)
        assert x_kept.data.tobytes() == x.tobytes()
        # a channel-last input is the buffer batch norm writes xhat into,
        # unless its result would be wider than the input's dtype
        overwritten = x_lent.data.tobytes() != x.tobytes()
        assert overwritten == (layout == "channel_last"
                               and (training or param_dtype == np.float32
                                    or dtype == np.float64))

    @pytest.mark.parametrize("training", [True, False])
    def test_without_the_flag_the_input_is_untouched(self, training, rng):
        x = _layout(rng.normal(size=(4, 8, 6, 6)).astype(np.float32), True)
        upstream = _rounded(rng, x.shape, np.float32)
        x_kept, _ = self._run(x, np.float32, upstream, training, True, False)
        assert x_kept.data.tobytes() == x.tobytes()
        assert x_kept.data.strides == x.strides


class TestTiledBiasAdd:
    """conv2d and depthwise_conv2d add their bias as one tiled row over a
    channel-last output: the same bytes as broadcasting it along axis 1."""

    @pytest.mark.parametrize("dtype,bias_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("channel_last", [False, True])
    @pytest.mark.parametrize("x_shape,w_shape,padding", [
        ((64, 1, 28, 28), (16, 1, 3, 3), 0),      # the stem conv
        ((64, 32, 12, 12), (32, 32, 1, 1), 0),    # a pointwise conv
        ((8, 5, 11, 11), (4, 5, 3, 3), 1)])
    def test_conv2d(self, dtype, bias_dtype, channel_last, x_shape, w_shape,
                    padding, rng):
        x = Tensor(_layout(rng.normal(size=x_shape).astype(dtype), channel_last))
        w = Tensor(rng.normal(size=w_shape).astype(dtype))
        b = rng.normal(size=w_shape[:1]).astype(bias_dtype)
        y = T.conv2d(x, w, Tensor(b), padding=padding).data
        want = T.conv2d(x, w, padding=padding).data
        want += b[None, :, None, None]   # in place, as a bias add keeps dtype
        _assert_same_bytes(y, want, "conv2d output")

    @pytest.mark.parametrize("channel_last", [False, True])
    def test_depthwise_conv2d(self, channel_last, rng):
        x = Tensor(_layout(rng.normal(size=(64, 8, 14, 14)).astype(np.float32),
                           channel_last))
        k = Tensor(rng.normal(size=(8, 3, 3)).astype(np.float32))
        b = rng.normal(size=(8,)).astype(np.float32)
        y = T.depthwise_conv2d(x, k, Tensor(b), padding=1).data
        want = T.depthwise_conv2d(x, k, padding=1).data
        want += b[None, :, None, None]
        _assert_same_bytes(y, want, "depthwise_conv2d output")


class TestTrainingStepMatchesReference:
    """One training step of a whole model through the reference op bodies
    and through the engine's: layouts meet across ops here in ways that
    the single-op oracles do not reach. Convolution, depthwise convolution
    and batch norm run the engine's body on both sides, since their
    tap-major GEMMs, tap multiply-adds and GEMM reductions have no
    byte-equal reference. The models run each ReLU inside a batch norm
    (``relu=True``), so on the reference side such a call runs the
    engine's batch norm without it, followed by ``ref_relu``."""

    @staticmethod
    def _step(arch):
        from parcnn.arch import build_model
        from parcnn.data import make_synthetic
        from parcnn.train import train_classifier
        model = build_model(arch, seed=3)
        data = make_synthetic(10, 7, seed=5).subset(64)
        rows = train_classifier(model, data, epochs=1, batch_size=64, seed=2)
        assert len(rows) == 1
        return rows[0]["loss"], model.params() + model.buffers()

    @pytest.mark.parametrize("student", [False, True])
    def test_one_step(self, student, monkeypatch):
        from parcnn.transform import DistillPolicy, distill_architecture
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("mnist_small")
        if student:
            arch = distill_architecture(arch, DistillPolicy())
        loss, state = self._step(arch)
        engine_batch_norm2d = T.batch_norm2d

        def batch_norm2d_then_ref_relu(*args, relu=False, **kwargs):
            y = engine_batch_norm2d(*args, **kwargs)
            return ref_relu(y) if relu else y

        with monkeypatch.context() as patch:
            for name, ref in [("max_pool2d", ref_max_pool2d),
                              ("relu", ref_relu),
                              ("batch_norm2d", batch_norm2d_then_ref_relu)]:
                patch.setattr(T, name, ref)
            patch.setattr(Tensor, "_accumulate", ref_accumulate)
            loss_ref, state_ref = self._step(arch)
        assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
        assert [name for name, _ in state] == [name for name, _ in state_ref]
        for (name, t), (_, t_ref) in zip(state, state_ref):
            _assert_same_bytes(t.data, t_ref.data, name)

    @pytest.mark.parametrize("name,relu_calls,fused,unfused", [
        ("mnist_small", 0, 6, 0),
        ("student", 0, 14, 0),
        # 8 residual post_relu; the stem and 8 `_a` convs fuse, the 8 `_b`
        # convs (relu false) and 3 projections do not
        ("res18_mini", 8, 9, 11)])
    def test_relu_runs_inside_batch_norm(self, name, relu_calls, fused, unfused,
                                         monkeypatch, rng):
        """Every ReLU that follows a batch norm runs inside it, so the
        reference side above reaches it; a ReLU with no batch norm before
        it stays a ``relu`` node."""
        from parcnn.arch import build_model
        from parcnn.transform import DistillPolicy, distill_architecture
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("mnist_small" if name == "student" else name)
        if name == "student":
            arch = distill_architecture(arch, DistillPolicy())
        model = build_model(arch, seed=3)
        calls = []
        engine_relu, engine_batch_norm2d = T.relu, T.batch_norm2d

        def relu(x):
            calls.append("relu")
            return engine_relu(x)

        def batch_norm2d(*args, relu=False, **kwargs):
            calls.append(("batch_norm2d", relu))
            return engine_batch_norm2d(*args, relu=relu, **kwargs)

        monkeypatch.setattr(T, "relu", relu)
        monkeypatch.setattr(T, "batch_norm2d", batch_norm2d)
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        model.forward(x, training=True)
        assert calls.count("relu") == relu_calls
        assert calls.count(("batch_norm2d", True)) == fused
        assert calls.count(("batch_norm2d", False)) == unfused


class TestOneActivationLayout:
    """Every 4-D op writes its output and input gradient channel-last, so in
    a network each ``_nhwc`` read of an activation or a gradient is a view.
    An op that wrote another layout would make the next op copy."""

    @pytest.mark.parametrize("name", ["mnist_small", "student", "res18_mini",
                                      "parres18_mini", "dcnn_table2"])
    def test_training_step_copies_no_activation(self, name, monkeypatch, rng):
        from parcnn.arch import build_model
        from parcnn.transform import DistillPolicy, distill_architecture
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("mnist_small" if name == "student" else name)
        if name == "student":
            arch = distill_architecture(arch, DistillPolicy())
        model = build_model(arch, seed=3)
        reads, copies = [], []
        engine_nhwc = T._nhwc

        def nhwc(a):
            out = engine_nhwc(a)
            reads.append(a.shape)
            if not np.shares_memory(out, a):
                copies.append(a.shape)
            return out

        monkeypatch.setattr(T, "_nhwc", nhwc)
        x = rng.normal(size=(2, arch.in_channels, arch.in_height, arch.in_width))
        logits = model.forward(x.astype(np.float32), training=True)
        T.tsum(T.square(logits)).backward()
        assert reads
        assert copies == []


# One stem conv2d with its batch norm, a depthwise conv with its batch norm,
# a whole ParConv block (omega 0.5) at conv2_2's shape and a tap-major 3x3
# Conv2d with a bias at the teacher's conv2_2 shape, at kd-synthetic's batch
# size, through a training forward and backward; prints a digest of every
# output, gradient and running statistic.
_THREAD_PROBE = """
import hashlib, json
import numpy as np
from parcnn import tensor as T
from parcnn import blocks as B
from parcnn.blocks import Conv2d, ForwardContext, ParConvSpec
from parcnn.tensor import Tensor

rng = np.random.default_rng(0)
def leaf(*shape):
    return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
def bn(x, c):
    scale, shift = leaf(c), leaf(c)
    rm, rv = Tensor(np.zeros(c, np.float32)), Tensor(np.ones(c, np.float32))
    y = T.batch_norm2d(x, scale, shift, rm, rv, training=True)
    return y, [scale, shift], [rm, rv]
def weigh(y):
    return T.tsum(T.mul(y, Tensor(rng.normal(size=y.shape).astype(np.float32))))
image, w, b = leaf(64, 1, 28, 28), leaf(16, 1, 3, 3), leaf(16)
conv = T.conv2d(image, w, b)                       # (64, 16, 26, 26), channel-last
y1, p1, s1 = bn(conv, 16)
x2, k = leaf(64, 8, 14, 14), leaf(8, 3, 3)
dw = T.depthwise_conv2d(x2, k)                     # (64, 8, 12, 12), channel-last
y2, p2, s2 = bn(dw, 8)
block = B.ParConvBlock(B.build(B.parconv_layers(ParConvSpec(32, 32, omega=0.5))))
B.init_weights(block.params(), rng)
x3 = Tensor(rng.normal(size=(64, 12, 12, 32)).astype(np.float32).transpose(0, 3, 1, 2),
            requires_grad=True)                    # channel-last, as conv2_2 sees it
y3 = block.forward(x3, ForwardContext(training=True))
kxk = Conv2d(32, 32, 3, padding=1)
B.init_weights(kxk.params(), rng)
kxk.bias.data[...] = rng.normal(size=32)
x4 = Tensor(rng.normal(size=(64, 12, 12, 32)).astype(np.float32).transpose(0, 3, 1, 2),
            requires_grad=True)
y4 = kxk.forward(x4, ForwardContext(training=True))
# weighed channel-last, as a conv stores its output, so that the conv's
# bias gradient is summed by the GEMM against ones
w4 = rng.normal(size=(64, 12, 12, 32)).astype(np.float32).transpose(0, 3, 1, 2)
loss = T.add(T.add(T.add(weigh(y1), weigh(y2)), weigh(y3)), T.tsum(T.mul(y4, Tensor(w4))))
loss.backward()
arrays = {"conv": conv.data, "bn1": y1.data, "dw": dw.data, "bn2": y2.data,
          "parconv": y3.data, "kxk": y4.data}
for name, t in [("image", image), ("w", w), ("b", b), ("x2", x2), ("k", k), ("x3", x3),
                ("x4", x4), ("kxk_w", kxk.weight), ("kxk_b", kxk.bias)]:
    arrays["grad_" + name] = t.grad
for i, t in enumerate(p1 + p2):
    arrays[f"grad_bn_param{i}"] = t.grad
for i, t in enumerate(s1 + s2):
    arrays[f"running{i}"] = t.data
for name, t in block.params():
    arrays["grad_parconv." + name] = t.grad
print(json.dumps({name: hashlib.sha256(a.tobytes()).hexdigest()
                  for name, a in arrays.items()}))
"""


# the weight gradient of a 3x3 pad-1 64->64 conv on 48 samples of 5x5, as
# conv3_x of mnist_small sees its last, short batch: a (64 x 1200) @ (1200 x
# 576) GEMM, whose bytes OpenBLAS 0.3.31 changes at 2 threads
_WIDE_GEMM_PROBE = """
import hashlib, json
import numpy as np
from parcnn import tensor as T
from parcnn.tensor import Tensor

rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(48, 64, 5, 5)).astype(np.float32), requires_grad=True)
w = Tensor(rng.normal(size=(64, 64, 3, 3)).astype(np.float32), requires_grad=True)
y = T.conv2d(x, w, None, 1, 1)
T.tsum(T.mul(y, Tensor(rng.normal(size=y.shape).astype(np.float32)))).backward()
print(json.dumps({"grad_w": hashlib.sha256(w.grad.tobytes()).hexdigest()}))
"""


class TestBlasThreadInvariance:
    """Same-seed bytes must not depend on the BLAS thread count, which
    library and test callers may leave unpinned."""

    @staticmethod
    def _digests_at_one_and_two_threads(probe: str) -> list[dict]:
        import json
        import subprocess
        import sys
        from test_cli import child_env
        digests = []
        for threads in ("1", "2"):
            env = {**child_env(), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(json.loads(proc.stdout))
        return digests

    def test_conv_and_batch_norm_bytes_equal_at_one_and_two_threads(self):
        digests = self._digests_at_one_and_two_threads(_THREAD_PROBE)
        # 17 for the conv and depthwise pairs; the ParConv block's output,
        # its input gradient and 14 parameter gradients; the 3x3 conv's
        # output and its input, weight and bias gradients
        assert len(digests[0]) == 37
        assert digests[0] == digests[1]

    @pytest.mark.xfail(
        strict=True,
        reason="on numpy 2.4.6 with OpenBLAS 0.3.31 the conv weight-gradient "
               "GEMM g2.T @ cols of shape (64 x 1200) @ (1200 x 576) gives "
               "other bytes at 2 threads than at 1; with 400, 800, 1600 or "
               "2400 rows it does not, with 1100, 1300, 3000 or 3888 it does")
    def test_wide_weight_gradient_bytes_equal_at_one_and_two_threads(self):
        digests = self._digests_at_one_and_two_threads(_WIDE_GEMM_PROBE)
        assert digests[0] == digests[1]


class TestMaxPoolTies:
    def test_tied_window_routes_gradient_to_first_maximum(self):
        # the maximum 2 sits at (0, 2) and (1, 0): (0, 2) comes first in
        # row-major window order and takes the whole gradient
        x = Tensor(np.array([[[[0., 1., 2.],
                               [2., 1., 0.],
                               [1., 2., 1.]]]], np.float32), requires_grad=True)
        y = T.max_pool2d(x, window=3, stride=1)
        T.tsum(T.mul(y, Tensor(np.full((1, 1, 1, 1), 5.0, np.float32)))).backward()
        expected = np.zeros((1, 1, 3, 3), np.float32)
        expected[0, 0, 0, 2] = 5.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_overlapping_tied_windows_each_route_to_their_first_maximum(self):
        x = Tensor(np.ones((1, 1, 4, 4), np.float32), requires_grad=True)
        T.tsum(T.max_pool2d(x, window=3, stride=1)).backward()
        # every window is all ties, so each sends its 1 to its top-left cell
        expected = np.zeros((1, 1, 4, 4), np.float32)
        expected[0, 0, :2, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_signed_zero_tie_keeps_first_zero(self):
        x = np.full((1, 1, 2, 2), -1.0, np.float32)
        x[0, 0, 0, 1] = -0.0
        x[0, 0, 1, 0] = 0.0
        xt = Tensor(x, requires_grad=True)
        y = T.max_pool2d(xt, window=2, stride=1)
        assert np.signbit(y.data[0, 0, 0, 0])   # the first zero is -0.0
        T.tsum(y).backward()
        np.testing.assert_array_equal(xt.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor((10 * rng.normal(size=(8, 12))).astype(np.float32))
        s = T.softmax(x).data
        assert (s > 0).all()
        np.testing.assert_allclose(s.sum(axis=1), np.ones(8), atol=1e-6)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 7)).astype(np.float32))
        np.testing.assert_allclose(T.log_softmax(x).data,
                                   np.log(T.softmax(x).data), atol=1e-6)


class TestNumericGuards:
    def test_nan_input_surfaces_error(self):
        x = Tensor(np.array([[1.0, np.inf]], np.float32))
        with pytest.raises(NumericalError, match="non-finite"):
            T.square(x)

    def test_log_of_negative_surfaces_error(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            T.log(Tensor(np.array([-1.0], np.float32)))

    def test_guard_can_be_disabled(self):
        x = Tensor(np.array([np.inf], np.float32))
        with T.finite_checks(False):
            y = T.square(x)
        assert np.isinf(y.data).all()


class TestNoGrad:
    @pytest.mark.parametrize("student", [False, True])
    def test_forward_is_byte_equal_and_builds_no_graph(self, student, rng):
        from parcnn.arch import build_model
        from parcnn.transform import DistillPolicy, distill_architecture
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("mnist_small")
        if student:
            arch = distill_architecture(arch, DistillPolicy())
        model = build_model(arch, seed=3)
        x = rng.normal(size=(6, 1, 28, 28)).astype(np.float32)
        runs = []
        for graph in (True, False):
            taps: dict = {}
            with contextlib.nullcontext() if graph else T.no_grad():
                out = T.log_softmax(model.forward(x, training=False, taps=taps))
            runs.append({"logits": out, **taps})
        built, free = runs
        assert built["logits"].requires_grad
        assert list(free) == list(built)
        for name, t in free.items():
            _assert_same_bytes(t.data, built[name].data, name)
            assert not t.requires_grad, name
            assert t._parents == () and t._backward is None, name

    def test_flag_restored_after_nesting_and_exceptions(self):
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.square(x).requires_grad
            assert not T.square(x).requires_grad
        assert T.square(x).requires_grad
        with pytest.raises(RuntimeError), T.no_grad():
            raise RuntimeError("inside")
        assert T.square(x).requires_grad
        with pytest.raises(NumericalError), T.no_grad():
            T.square(Tensor(np.array([np.inf], np.float32)))
        assert T.square(x).requires_grad


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        tensors = {
            "a.weight": Tensor(rng.normal(size=(3, 4, 3, 3)).astype(np.float32)),
            "b.bias": Tensor(rng.normal(size=(7,)).astype(np.float32)),
            "scalarish": Tensor(rng.normal(size=(1,)).astype(np.float32)),
        }
        save_checkpoint(tmp_path / "ckpt", tensors)
        loaded = load_checkpoint(tmp_path / "ckpt")[1]
        assert set(loaded) == set(tensors)
        for name, t in tensors.items():
            assert loaded[name].tobytes() == t.data.tobytes()
            assert loaded[name].dtype == np.float32 and loaded[name].flags.writeable

    def test_load_holds_the_tensor_bytes_once(self, tmp_path, rng):
        import tracemalloc
        tensors = {f"t{i}": rng.normal(size=shape).astype(np.float32)
                   for i, shape in enumerate([(256, 64, 3, 3), (512, 256), (512,),
                                              (128, 128, 3, 3), (7,)])}
        state_bytes = sum(a.nbytes for a in tensors.values())
        save_checkpoint(tmp_path / "c", tensors)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(tmp_path / "c")[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * state_bytes, f"{peak} > 1.1 x {state_bytes}"
        for name, value in tensors.items():
            assert loaded[name].tobytes() == value.tobytes()
            assert loaded[name].dtype == np.float32 and loaded[name].flags.writeable
            loaded[name][...] = 0.0

    def test_blob_is_little_endian_f32(self, tmp_path):
        import json
        import zlib
        value = np.array([1.5, -2.25], np.float32)
        save_checkpoint(tmp_path / "c", {"v": Tensor(value)}, extra={"step": 3})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        line, blob = (tmp_path / "c.ckpt").read_bytes().split(b"\n", 1)
        assert blob == value.astype("<f4").tobytes()
        assert json.loads(line) == {"format": "parcnn-checkpoint-v2",
                                    "tensors": [["v", [2]]],
                                    "crc32": zlib.crc32(blob), "step": 3}

    def test_missing_files_raise(self, tmp_path):
        from parcnn.errors import DataFormatError
        with pytest.raises(DataFormatError, match="checkpoint not found"):
            load_checkpoint(tmp_path / "nope")

    def test_two_file_checkpoint_from_before_v2_is_named_not_read(self, tmp_path):
        from parcnn.errors import DataFormatError
        (tmp_path / "old.json").write_text('{"format": "parcnn-checkpoint-v1"}')
        (tmp_path / "old.bin").write_bytes(b"\0" * 4)
        with pytest.raises(DataFormatError, match="old.json is a two-file "
                           "checkpoint from before format v2, which is not read"):
            load_checkpoint(tmp_path / "old")

    def test_file_without_the_format_line_rejected(self, tmp_path):
        from parcnn.errors import DataFormatError
        (tmp_path / "c.ckpt").write_bytes(b"\x00\x01 not json\n")
        with pytest.raises(DataFormatError, match="unrecognized checkpoint"):
            load_checkpoint(tmp_path / "c")

    @staticmethod
    def _two_tensors(tmp_path):
        save_checkpoint(tmp_path / "c", {"a": Tensor(np.ones((2, 3), np.float32)),
                                         "b": Tensor(np.ones(4, np.float32))})
        path = tmp_path / "c.ckpt"
        line, blob = path.read_bytes().split(b"\n", 1)
        assert len(blob) == 40
        return path, line + b"\n", blob

    @pytest.mark.parametrize("change", ["trailing", "truncated"])
    def test_blob_of_the_wrong_length_rejected(self, tmp_path, change):
        from parcnn.errors import DataFormatError
        path, line, blob = self._two_tensors(tmp_path)
        path.write_bytes(line + (blob + b"\0" * 4 if change == "trailing" else blob[:-4]))
        with pytest.raises(DataFormatError, match="holds (44|36) tensor bytes; its "
                                                  "manifest describes 40"):
            load_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("fields", [
        {"tensors": None}, {"crc32": None}, {"tensors": [["x"]]},
        {"tensors": [["a", [2, 3]], [4, [4]]]}, {"tensors": [["a", [2, -3]], ["b", [4]]]},
        {"tensors": [["a", [2, 3.0]], ["b", [4]]]}, {"tensors": {"a": [2, 3]}},
        {"crc32": "0"}, {"crc32": True}, {"tensors": [["a", [2, 3]], ["a", [4]]]},
    ], ids=["no-tensors", "no-crc32", "short-item", "name-not-str", "negative-extent",
            "float-extent", "tensors-object", "crc32-str", "crc32-bool",
            "repeated-name"])
    def test_malformed_manifest_rejected(self, tmp_path, fields):
        import json
        from parcnn.errors import DataFormatError
        path, line, blob = self._two_tensors(tmp_path)
        manifest = {**json.loads(line), **fields}
        manifest = {key: value for key, value in manifest.items() if value is not None}
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(DataFormatError, match="malformed manifest"):
            load_checkpoint(tmp_path / "c")

    def test_flipped_tensor_byte_fails_the_crc32(self, tmp_path):
        from parcnn.errors import DataFormatError
        path, line, blob = self._two_tensors(tmp_path)
        flipped = bytearray(blob)
        flipped[29] ^= 0x10
        path.write_bytes(line + bytes(flipped))
        with pytest.raises(DataFormatError, match="does not match the CRC-32"):
            load_checkpoint(tmp_path / "c")

    def test_crash_at_the_replace_keeps_the_previous_checkpoint(
            self, tmp_path, monkeypatch, rng):
        import os
        first = {"w": rng.normal(size=(3, 4)).astype(np.float32),
                 "b": rng.normal(size=4).astype(np.float32)}
        save_checkpoint(tmp_path / "c", first, extra={"step": 1})

        def replace(src, dst):
            raise OSError("simulated crash before the replace")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace)
            with pytest.raises(OSError, match="simulated crash"):
                save_checkpoint(tmp_path / "c",
                                {"w": np.zeros((5, 4), np.float32)}, extra={"step": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
        manifest, loaded = load_checkpoint(tmp_path / "c")
        assert manifest["step"] == 1
        assert list(loaded) == ["w", "b"]
        for name, value in first.items():
            assert loaded[name].tobytes() == value.tobytes()


class TestDeterminism:
    def test_identical_seeds_bitwise_identical_forward(self, rng):
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        outs = []
        for _ in range(2):
            model = build_model(build_zoo_arch("mnist_small"), seed=11)
            outs.append(model.forward(x, training=False).data.tobytes())
        assert outs[0] == outs[1]
