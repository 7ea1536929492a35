"""Dense float tensors with reverse-mode automatic differentiation.

Feature maps are indexed batch x channels x height x width. The op set is
exactly what the networks in this toolkit need: 2-D convolution (standard,
depthwise, pointwise via K=1), linear layers, batch normalization, ReLU,
max pooling, softmax/log-softmax, elementwise arithmetic with limited
broadcasting, reductions, reshapes, and channel slicing/permutation.

Gradients accumulate into ``Tensor.grad`` (a plain ndarray of the same
shape). A graph is good for one ``backward``: the sweep frees each interior
node once its gradient has passed on, so a second sweep through it raises.
Leaves keep their gradients, so sweeps of separate graphs over the same
leaves add up until ``zero_grad``. Default dtype is float32; float64 inputs
are honored so finite-difference oracles can run at full precision.

Every 4-D activation is stored channel-last: its logical shape is
(N, C, H, W), and its memory is an (N, H, W, C) array. conv2d,
depthwise_conv2d, max_pool2d, batch_norm2d and the channel ops
(permute_channels, concat_channels, narrow_channels) read their input, and
the gradient that reaches them, through ``_nhwc``: a view of a channel-last
array, one copy of any other. Their outputs and input gradients are
``_nchw`` views of channel-last buffers, and a first gradient takes the
layout of its tensor's data, so in a network every such read is a view.
Per-channel vectors (batch norm's statistics, scale, shift and gradient
terms, and the conv biases) meet the (N*H, W*C) rows of such an array as
one tiled (W*C) row (``_tile_row``), so numpy's inner loop runs over W*C
values rather than C, and the sums over (N, H, W) run over its (N*H*W, C)
rows (``_channel_sums``). ``flatten`` keeps the logical (C, H, W) order.

max_pool2d, relu, the channel gather and the first gradient written by
``Tensor._accumulate`` keep the float operations of their reference
formulas, in the same order; only how data moves between them is tuned
(relu as ``fmax``, a first gradient without a zero fill). Their outputs and
gradients are therefore byte-identical to the reference, and a given seed
gives the same bytes before and after such tuning.

conv2d, batch_norm2d and depthwise_conv2d are held to their plain formulas
within float tolerance, not byte for byte. conv2d's im2col columns and its
GEMMs run tap-major, in (i, j, c) order, so that im2col and col2im move
whole runs of channels; its sums over K*K*C_in products therefore run in
another order than a channel-major reference's. Batch norm, and the conv
bias gradients, sum over (N, H, W) as GEMMs against ones
(``_channel_sums``), chosen over GEMVs because, on the OpenBLAS 0.3.31
build numpy 2.4.6 ships, the GEMM's bytes were measured equal at 1, 2, 3,
4 and 8 threads while the GEMV's differ between 1 and 2. Depthwise
convolution adds its K*K taps as channel-last multiply-adds and sums its
kernel gradient through the same GEMMs. Other BLAS builds may split the
summed axis across threads; a tier-1 test compares 1 against 2 threads.
``batch_norm2d(..., relu=True)`` is batch norm followed by ``relu`` as one
graph node, with the bytes of the two ops; the networks' BN+ReLU pairs run
that way. So is ``add(..., relu=True)``, add followed by ``relu``: a
residual block's tail.

``conv2d(..., bn=BatchNorm(...))`` is a conv over a one-channel input, the
batch norm after it and, with ``relu``, a ReLU, as one graph node: every
architecture's stem runs that way. The conv's output is a linear map of
its K*K im2col rows, so the batch mean and variance come from those rows'
means and K*K covariance, and the normalization folds into the conv's
GEMM; in training the weight, scale and shift gradients come from one
GEMM of the rows with the output gradient, and the conv bias's gradient
is exactly 0, since the batch norm cancels it. Its bytes are held to the
separate ops within float tolerance, not byte for byte, and with a ReLU
its backward reads its output. Any other input channel count raises
ValueError: the covariance costs (K*K*C_in)**2 multiply-adds per output
position, more than the conv itself for C_in > 1.

Forward ops verify their outputs are finite and raise NumericalError
otherwise; disable with ``finite_checks(False)`` in hot loops at your own
risk.

conv2d keeps no im2col matrix from its forward to its backward: the
backward builds the columns again from ``x.data``, as it reads
``weight.data`` again. When the input needs a gradient and its columns are
not a view of it, the backward's two halves run at once, one window row
(the K*C_in columns of taps (i, 0..K-1)) at a time: the weight gradient on
a worker thread, each row's columns copied into one reused buffer, and the
input gradient on the calling thread, each row's block of input-gradient
columns added into the gradient before the next GEMM overwrites it. So at
most two row blocks are alive rather than one whole im2col matrix, and
each GEMM is a column block of the whole-matrix one, with its bytes. The
calling thread allocates every image-sized array the worker fills (the
padded input, the row buffer and the weight-gradient blocks): glibc gives
each thread its own malloc arena, so arrays made in the worker would grow
a second heap and the process's peak resident size with it. There is one
worker thread per process, made on first use and made again in a forked
child, which does not inherit the parent's. A conv's input, like its
weight, must not be written in place between its forward and its
backward. Nothing in the toolkit does: ``load_state`` and the optimizer
step write parameters only, outside a step's graph. With one input channel
the im2col columns are one contiguous row per tap, which the GEMMs read
transposed.

The input gradients of conv2d's window rows, of depthwise_conv2d and of
max_pool2d are summed into an unpadded (N, H, W, C) zero buffer: each tap
adds only the outputs that read inside the image, in the same (i, j) order
as before, so every element gets the adds it got in a padded buffer, and a
tap that reads only padding is skipped (max pooling still compares every
tap of its padded input). The input keeps that buffer as its first
gradient without a copy (``Tensor._keep_or_accumulate``): a sum that
started at +0.0 never holds -0.0, so the +0.0 + g of ``_accumulate`` would
be g itself.

Who may write over an activation: neither conv2d's nor depthwise_conv2d's
backward reads its own output (``Tensor._accumulate`` takes only its
shape, dtype and strides), so a batch norm that alone consumes that output
may overwrite it (``batch_norm2d(..., reuse_input=True)``). Batch norm's
backward does not read its own output either unless it runs a ReLU (``out
> 0``), so a residual tail that alone consumes the output of a batch norm
without one may write its sum there (``add(..., reuse_input=True)``);
``blocks`` says which layers set either flag.

Inside ``with no_grad():`` ops wire no graph: their outputs have
``requires_grad`` False and no parents, so nothing holds the inputs and
intermediates a backward pass would need. The values are byte-identical to
a graph-building forward. Evaluation and the frozen teacher run this way.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError, NumericalError

_FLOAT_TYPES = (np.float32, np.float64)
_FINITE_CHECKS = True
_GRAD_ENABLED = True


@contextlib.contextmanager
def finite_checks(enabled: bool):
    """Temporarily toggle NaN/Inf verification of op outputs."""
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = enabled
    try:
        yield
    finally:
        _FINITE_CHECKS = prev


@contextlib.contextmanager
def no_grad():
    """Build no autograd graph inside the block (inference only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _as_float_array(data, dtype=None) -> np.ndarray:
    if dtype is None:
        # numpy scalars (e.g. sum() over all axes) must keep their precision
        if isinstance(data, (np.ndarray, np.generic)) \
                and data.dtype.type in _FLOAT_TYPES:
            dtype = data.dtype
        else:
            dtype = np.float32
    return np.asarray(data, dtype=dtype)


class Tensor:
    """An n-dimensional float array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_float_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- introspection ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # +0.0 + g, as a zero buffer plus g would give, without the fill
            self.grad = np.empty_like(self.data)
            np.add(g, 0.0, out=self.grad)
        else:
            self.grad += g

    def _keep_or_accumulate(self, g: np.ndarray) -> None:
        """``_accumulate`` of a buffer that an op filled by adding into
        +0.0 and hands to this tensor alone: as a first gradient with
        ``data``'s dtype and strides it is kept, not copied. Such a sum
        never holds -0.0, so +0.0 + g would be g itself."""
        if self.grad is None and g.dtype == self.data.dtype \
                and g.strides == self.data.strides:
            self.grad = g
        else:
            self._accumulate(g)

    # -- autodiff ----------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode sweep from a scalar. Leaf gradients accumulate into
        ``grad``, so sweeps of separate graphs without ``zero_grad`` add up.
        The sweep frees the graph as it goes: each interior node drops its
        gradient, its parents and its closure, and a later ``backward()``
        that reaches it raises RuntimeError."""
        if self.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        # pop, not iterate: each interior node, and what its closure kept,
        # is freed once it has passed its gradient on
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _swept


def _swept(g: np.ndarray) -> None:
    """The backward closure of a node an earlier sweep has freed."""
    raise RuntimeError("backward() reached a graph node an earlier backward() "
                       "already swept and freed")


def _check_finite(data: np.ndarray, op: str) -> None:
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise NumericalError(f"non-finite values produced by {op}")


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str,
          checked: bool = False) -> Tensor:
    """Build an op result, wiring the graph only when a parent needs grad
    and ``no_grad`` is not in force. ``checked`` says the op has already
    checked its values are finite."""
    if not checked:
        _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _nhwc(a: np.ndarray) -> np.ndarray:
    """The (N,H,W,C) array behind a logical (N,C,H,W) one: a view of a
    channel-last array, one copy of any other."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _nchw(a: np.ndarray) -> np.ndarray:
    """The logical (N,C,H,W) view of an (N,H,W,C) array."""
    return a.transpose(0, 3, 1, 2)


# -- elementwise arithmetic ------------------------------------------------

def add(a: Tensor, b: Tensor, relu: bool = False, reuse_input: bool = False) -> Tensor:
    """a + b, broadcast. With ``relu`` the op is ``add`` followed by
    ``relu``, as one graph node with the bytes of the two ops: the sum is
    checked for finite values, ReLU is applied to it in place, and the
    backward masks the gradient and adds +0.0 to it, as ``relu``'s backward
    and ``Tensor._accumulate`` do, before passing it to both inputs.

    With ``reuse_input`` the sum is written into ``a.data``'s own buffer
    when it has the sum's dtype (the same float ops, so the same bytes).
    Set it only when nothing reads ``a`` afterwards, neither a later
    forward nor a backward: ``blocks.ResidualBlock`` says which residual
    bodies' outputs qualify. The backward reads neither input."""
    data = _into(a.data if reuse_input else None, np.add, a.data, b.data)
    if relu:
        _check_finite(data, "add")
        # as ``relu``: fmax, then +0.0 to turn a kept -0.0 into +0.0 (in
        # place unless the sum of 0-d inputs is a numpy scalar)
        data = np.fmax(data, 0, out=data if data.ndim else None)
        data += 0.0

    def backward(g):
        if relu:
            # ``relu``'s mask (the output is > 0 exactly where the sum
            # was), then the +0.0 of its gradient's first write
            g = g * (data > 0)
            g += 0.0
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward, "add", checked=relu)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), backward, "div")


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(2.0 * a.data * g)

    return _make(data, (a,), backward, "square")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / (2.0 * data))

    return _make(data, (a,), backward, "sqrt")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * data)

    return _make(data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make(data, (a,), backward, "log")


def relu(a: Tensor) -> Tensor:
    # fmax maps NaN to 0 (np.maximum would keep it), and may keep the sign
    # of a -0.0 input, which adding +0.0 turns into +0.0
    data = np.fmax(a.data, 0)
    data += 0.0

    def backward(g):
        if a.requires_grad:
            # subgradient at 0 is defined as 0; the output is > 0 exactly
            # where the input is
            a._accumulate(g * (data > 0))

    return _make(data, (a,), backward, "relu")


# -- reductions & shape ------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))

    return _make(data, (a,), backward, "sum")


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward, "reshape")


def flatten(a: Tensor) -> Tensor:
    """Collapse all non-batch axes: (N, ...) -> (N, features)."""
    return reshape(a, (a.shape[0], -1))


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Join (N, C_i, H, W) arrays along the channel axis, into a channel-last
    array that a pointwise conv reads as a view."""
    widths = [p.shape[1] for p in parts]
    data = np.concatenate([_nhwc(p.data) for p in parts], axis=3)

    def backward(g):
        g = _nhwc(g)
        start = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(_nchw(g[..., start:start + w]))
            start += w

    return _make(_nchw(data), tuple(parts), backward, "concat_channels")


def narrow_channels(a: Tensor, start: int, length: int) -> Tensor:
    data = _nhwc(a.data)[..., start:start + length].copy()

    def backward(g):
        if a.requires_grad:
            full = np.zeros(data.shape[:3] + (a.shape[1],), dtype=a.dtype)
            full[..., start:start + length] = _nhwc(g)
            a._accumulate(_nchw(full))

    return _make(_nchw(data), (a,), backward, "narrow_channels")


class ChannelIndex:
    """A channel gather index, checked once: ``index`` lists distinct
    channels of ``channels`` in any order. ``runs`` writes the gather's
    gradient scatter as plain slice copies when the index is one run of
    consecutive channels, or its even and odd positions are one run each
    (one branch of the two-group shuffle split): (out, src) pairs of
    slices that take output channels ``out`` to input channels ``src``.
    It is None for any other index, which the scatter writes by fancy
    indexing."""

    __slots__ = ("index", "channels", "runs")

    def __init__(self, index, channels: int):
        index = np.asarray(index, dtype=np.int64)
        if index.ndim != 1 or len(np.unique(index)) != len(index) \
                or (len(index) and not 0 <= index.min() <= index.max() < channels):
            raise ValueError(f"channel index must list distinct channels of {channels}")
        self.index, self.channels, self.runs = index, channels, _unit_runs(index)


def _unit_runs(index: np.ndarray) -> tuple[tuple[slice, slice], ...] | None:
    """``index`` as runs of consecutive channels taken at every step-th
    output position, for a step of 1 or 2; None when neither fits."""
    n = len(index)
    for step in (1, 2):
        runs = []
        for start in range(min(step, n)):
            part = index[start::step]
            if np.any(np.diff(part) != 1):
                break
            runs.append((slice(start, n, step), slice(int(part[0]), int(part[0]) + len(part))))
        else:
            if runs:
                return tuple(runs)
    return None


def permute_channels(a: Tensor, index) -> Tensor:
    """Gather channels: output channel i is input channel ``index[i]``.

    ``index`` lists distinct channels of ``a`` in any order: a permutation
    of range(C), or a part of one, such as one branch of a shuffled split.
    A ``ChannelIndex`` is used as it is, once its channel count is
    ``a``'s; any other index is checked on each call. The gather takes
    along the contiguous channel axis of the channel-last input, and the
    backward scatters the gradient into a channel-last zero buffer,
    through the index's slice runs when it has them (the same copies, so
    the same bytes).
    """
    c = a.shape[1]
    if not isinstance(index, ChannelIndex):
        index = ChannelIndex(index, c)
    elif index.channels != c:
        raise ValueError(f"expected {index.channels} channels, got {c}")
    idx, runs = index.index, index.runs
    data = np.take(_nhwc(a.data), idx, axis=3)

    def backward(g):
        if a.requires_grad:
            g = _nhwc(g)
            full = np.zeros(data.shape[:3] + (c,), dtype=g.dtype)
            if runs is None:
                full[..., idx] = g
            else:
                for out, src in runs:
                    full[..., src] = g[..., out]
            a._accumulate(_nchw(full))

    return _make(_nchw(data), (a,), backward, "permute_channels")


# -- dense layers -------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T + bias, with weight shaped (out_features, in_features)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear expects (N,in) x (out,in); got {x.shape} and {weight.shape}")
    data = x.data @ weight.data.T
    if bias is not None:
        data += bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data)
        if weight.requires_grad:
            weight._accumulate(g.T @ x.data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, backward, "linear")


# -- convolution --------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"non-positive output size for input {size}, kernel {kernel}, "
            f"stride {stride}, padding {padding}")
    return out


def _tap(a: np.ndarray, i: int, j: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """View of the (N,Ho,Wo,C) elements of padded (N,Hp,Wp,C) ``a`` under
    window tap (i, j)."""
    return a[:, i:i + stride * ho:stride, j:j + stride * wo:stride]


def _tap_inside(a: np.ndarray, i: int, j: int, stride: int, padding: int,
                ho: int, wo: int):
    """Window tap (i, j) of a conv or pool with (Ho, Wo) outputs, over the
    unpadded (N,H,W,C) array ``a``: the view of ``a`` at the input positions
    the tap reads inside the image, then the slices of the output rows and
    columns that read them; None when every output of the tap reads
    padding."""
    spans = []
    for t, size, out in ((i, a.shape[1], ho), (j, a.shape[2], wo)):
        # outputs o with 0 <= o * stride + t - padding < size
        lo = max(0, -((t - padding) // stride))
        hi = min(out, (size - 1 + padding - t) // stride + 1)
        if lo >= hi:
            return None
        start = lo * stride + t - padding
        spans.append((slice(lo, hi), slice(start, start + stride * (hi - lo - 1) + 1, stride)))
    (rows, h_in), (cols, w_in) = spans
    return a[:, h_in, w_in], rows, cols


def _padded(a: np.ndarray, padding: int, fill: float) -> np.ndarray:
    """(N,H,W,C) ``a`` inside a border of ``padding`` rows and columns of
    ``fill``; ``a`` itself without padding."""
    if not padding:
        return a
    n, h, w, c = a.shape
    ap = np.full((n, h + 2 * padding, w + 2 * padding, c), fill, dtype=a.dtype)
    ap[:, padding:padding + h, padding:padding + w] = a
    return ap


def _windows(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(N, Ho, Wo, K, K, C) view of the K x K windows of padded (N,Hp,Wp,C)
    ``xp`` at ``stride``; ``[:, :, :, i]`` is window row i, the columns of
    taps (i, 0..K-1)."""
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    return windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int,
            ho: int, wo: int) -> np.ndarray:
    """(N,H,W,C) -> (N*Ho*Wo, K*K*C) matrix of zero-padded windows, rows in
    (n, oh, ow) order and columns in (i, j, c) order, copied from one
    (N, Ho, Wo, K, K, C) window view of the padded input. With one tap
    (K = 1) and stride 1 the columns are the channels, and without padding
    the matrix is a view of ``x``. With one channel it is the transpose of
    a C-order (K*K, N*Ho*Wo) array, one row per tap."""
    n, h, w, c = x.shape
    if c == 1 and not (k == 1 and stride == 1):
        # a window is only K*K values: hand the GEMMs the transpose of the
        # tap rows, which they read as such
        return _tap_rows(x, k, stride, padding, ho, wo).T
    xp = _padded(x, padding, 0.0)
    if k == 1 and stride == 1:
        return xp.reshape(n * ho * wo, c)
    cols = np.empty((n, ho, wo, k, k, c), dtype=x.dtype)
    cols[...] = _windows(xp, k, stride)
    return cols.reshape(n * ho * wo, -1)


def _tap_rows(x: np.ndarray, k: int, stride: int, padding: int, ho: int, wo: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """The (K*K, N*Ho*Wo) zero-padded window values of a one-channel
    (N,H,W,1) input, one contiguous row per tap (i, j) in row-major order,
    each filled by one copy that runs along Wo; written into ``out`` when
    given."""
    xp = _padded(x, padding, 0.0)
    if out is None:
        out = np.empty((k * k, x.shape[0] * ho * wo), dtype=x.dtype)
    taps = out.reshape(k, k, x.shape[0], ho, wo)
    for i in range(k):
        for j in range(k):
            taps[i, j] = _tap(xp, i, j, stride, ho, wo)[..., 0]
    return out


def _tile_row(v: np.ndarray, w: int) -> np.ndarray:
    """A per-channel vector repeated ``w`` times, as one (W*C) row: added to
    or multiplied with the (N*H, W*C) rows of a channel-last array, it runs
    numpy's inner loop over W*C values rather than C, with the same float
    op on each element as a broadcast along the channel axis."""
    row = np.empty((w, v.shape[0]), dtype=v.dtype)
    row[...] = v
    return row.reshape(-1)


def _tap_major(weight: np.ndarray) -> np.ndarray:
    """A (C_out, C_in, K, K) weight as the (C_out, K*K*C_in) matrix the conv
    GEMMs read, columns in (i, j, c) order: a view when the weight is stored
    tap-major, (C_out, K, K, C_in) in memory, and a copy otherwise."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


_WORKER: tuple[int, ThreadPoolExecutor] | None = None


def _worker() -> ThreadPoolExecutor:
    """This process's one worker thread, made on first use. A forked child
    inherits the parent's executor but not its thread, so a new one is made
    when the process id changes."""
    global _WORKER
    if _WORKER is None or _WORKER[0] != os.getpid():
        _WORKER = (os.getpid(), ThreadPoolExecutor(1, "conv2d-backward"))
    return _WORKER[1]


def _weight_rows(g2t: np.ndarray, windows: np.ndarray, cols: np.ndarray,
                 gw: np.ndarray) -> None:
    """For each window row i, copy its columns from ``windows`` into the
    (N, Ho, Wo, K, C_in) buffer ``cols`` and write ``g2t @ cols`` into
    ``gw[i]``. Runs on the worker thread, and allocates no image-sized
    array."""
    flat = cols.reshape(-1, gw.shape[2])
    for i in range(len(gw)):
        cols[...] = windows[:, :, :, i]
        np.matmul(g2t, flat, out=gw[i])


def _window_row_gradients(g2: np.ndarray, x: np.ndarray, weight: np.ndarray,
                          want_weight: bool, stride: int, padding: int,
                          ho: int, wo: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The weight and input gradients of a conv, from its (N*Ho*Wo, C_out)
    output gradient ``g2``, its (N,H,W,C_in) input and its weight, one
    window row of K*C_in columns at a time: the weight half on the worker
    thread, the input half on this one. Each GEMM is a column block of the
    whole-matrix GEMM, and the input half adds its taps in row-major order.
    The input gradient is summed into an unpadded zero buffer, each tap
    adding only the outputs that read inside the image. Returns the weight
    gradient as (C_out, K, K, C_in), or None without ``want_weight``, and
    the (N,H,W,C_in) input gradient."""
    n, h, w, c = x.shape
    k = weight.shape[2]
    kc = k * c
    xp = _padded(x, padding, 0.0)
    wt = _tap_major(weight)
    gw = done = None
    if want_weight:
        # the worker's GEMM operands share its result's dtype, so that
        # np.matmul casts nothing there
        dtype = np.result_type(g2, x)
        cols = np.empty((n, ho, wo, k, c), dtype=dtype)
        gw = np.empty((k, wt.shape[0], kc), dtype=dtype)
        done = _worker().submit(_weight_rows, g2.astype(dtype, copy=False).T,
                                _windows(xp, k, stride), cols, gw)
    gx = np.zeros((n, h, w, c), dtype=np.result_type(g2, wt))
    rows = np.empty((n, ho, wo, k, c), dtype=gx.dtype)
    try:
        for i in range(k):
            np.matmul(g2, wt[:, i * kc:(i + 1) * kc], out=rows.reshape(-1, kc))
            for j in range(k):
                inside = _tap_inside(gx, i, j, stride, padding, ho, wo)
                if inside is not None:
                    dst, oh, ow = inside
                    dst += rows[:, oh, ow, j]
    finally:
        if done is not None:
            done.result()
    if gw is not None:
        gw = gw.reshape(k, -1, k, c).transpose(1, 0, 2, 3)
    return gw, gx


class BatchNorm(NamedTuple):
    """The batch norm that ``conv2d(..., bn=)`` runs after a one-channel
    conv, as ``batch_norm2d`` would with these arguments, and whether a
    ReLU follows it."""

    scale: Tensor
    shift: Tensor
    running_mean: Tensor
    running_var: Tensor
    training: bool
    relu: bool = False


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, bn: BatchNorm | None = None) -> Tensor:
    """Cross-correlation of (N,C_in,H,W) with (C_out,C_in,K,K) filters.

    The GEMM reads the weight tap-major, as (C_out, K*K*C_in) in (i, j, c)
    order: a view of a weight stored that way (``blocks.Conv2d`` does), one
    copy of any other. The weight gradient comes back in the same order.

    The im2col columns are not kept for the backward, which builds them
    again from ``x.data``: neither ``x`` nor ``weight`` may be written in
    place between this call and the graph's ``backward()``. When ``x``
    needs a gradient and the conv is not a 1x1, stride-1, unpadded one
    (whose columns are ``x`` itself), the backward runs its weight half on
    a worker thread beside its input half, one window row at a time (see
    the module docstring). The backward does not read the output, so an op that alone
    consumes it may overwrite it (``batch_norm2d(..., reuse_input=True)``).

    With ``bn`` the op is the conv, that batch norm and, with ``bn.relu``,
    a ReLU, as one graph node for an input with one channel (any other
    count raises ValueError); see ``_conv_batch_norm``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects 4-D input and weight")
    n, c_in, h, w = x.shape
    c_out, wc_in, k, k2 = weight.shape
    if k != k2:
        raise ValueError("conv2d kernels must be square")
    if wc_in != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {wc_in}")
    ho = conv_output_size(h, k, stride, padding)
    wo = conv_output_size(w, k, stride, padding)
    if bn is not None:
        return _conv_batch_norm(x, weight, bias, stride, padding, ho, wo, bn)

    # im2col + GEMM: (N*Ho*Wo, K*K*C_in) @ (K*K*C_in, C_out); the columns
    # are freed with the GEMM
    out = _im2col(_nhwc(x.data), k, stride, padding, ho, wo) @ _tap_major(weight.data).T
    if bias is not None:
        # added as one tiled (Wo*C_out) row over (N*Ho, Wo*C_out) rows
        rows = out.reshape(n * ho, wo * c_out)
        rows += _tile_row(bias.data, wo)
    data = _nchw(out.reshape(n, ho, wo, c_out))

    def backward(g):
        g2 = _nhwc(g).reshape(n * ho * wo, c_out)
        gw = gx = None
        if x.requires_grad and not (k == 1 and stride == 1 and padding == 0):
            gw, gx = _window_row_gradients(g2, _nhwc(x.data), weight.data,
                                           weight.requires_grad, stride, padding, ho, wo)
        elif weight.requires_grad:
            # built again rather than kept from the forward, and freed with
            # the GEMM
            gw = g2.T @ _im2col(_nhwc(x.data), k, stride, padding, ho, wo)
            gw = gw.reshape(c_out, k, k, c_in)
        if gw is not None:
            weight._accumulate(gw.transpose(0, 3, 1, 2))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_channel_sums(g2))
        if gx is not None:
            x._keep_or_accumulate(_nchw(gx))
        elif x.requires_grad:
            # one tap covering every position: the channel-last product is
            # the gradient (``_accumulate`` adds it to +0.0, as col2im would)
            x._accumulate(_nchw((g2 @ _tap_major(weight.data)).reshape(n, h, w, c_in)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, backward, "conv2d")


def _conv_batch_norm(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int,
                     padding: int, ho: int, wo: int, bn: BatchNorm) -> Tensor:
    """A one-channel conv, the batch norm after it and its ReLU as one node.

    Each conv output y = W x + b is a linear map of the K*K values of its
    window x. So one (K*K+1, M) array of those values, M = N*Ho*Wo, with a
    last row of ones, carries the whole layer. Per output channel, with a
    = scale / sqrt(var + ``BN_EPS``), out = a W (x - c) + d is one GEMM
    of its transpose with [a W | d], and the backward's weight, scale and
    shift gradients come from one GEMM of it with the output gradient.
    Over the (N, Ho, Wo, C_out) output run only the GEMMs, the finite
    check, and the ReLU and its mask.

    In training the rows are centred on their means mu (c = mu, taken in
    float64, d = shift), so with Sigma = the rows' covariance the batch
    mean and variance of channel o are W_o mu + b_o and W_o Sigma W_o^T
    (at least 0), worked out in float64 and fed to the running statistics
    as ``batch_norm2d`` does. The batch norm cancels the bias: its
    gradient is 0. In eval the rows are not centred (c = 0), var is the
    running variance, and d = a (b - running mean) + shift.

    The bytes are held to the unfused ops within float tolerance, not byte
    for byte: the sums run in another order.
    """
    n, c_in, h, w = x.shape
    if c_in != 1:
        raise ValueError(f"conv2d with bn= needs an input with one channel, got {c_in}")
    c_out, _, k, _ = weight.shape
    scale, shift, training = bn.scale, bn.shift, bn.training
    if scale.shape != (c_out,) or shift.shape != (c_out,):
        raise ValueError("batch_norm2d scale/shift must be per-channel vectors")
    parents = (x, weight) if bias is None else (x, weight, bias)
    parents += (scale, shift)
    dtype = np.result_type(*(t.data for t in parents))
    kk, m = k * k, n * ho * wo
    rows = np.empty((kk + 1, m), dtype=dtype)
    taps = _tap_rows(_nhwc(x.data), k, stride, padding, ho, wo, out=rows[:kk])
    rows[kk] = 1
    wt = _tap_major(weight.data).astype(np.float64)          # (C_out, K*K)
    b = np.zeros(c_out) if bias is None else bias.data.astype(np.float64)
    if training:
        mu = taps.mean(axis=1, dtype=np.float64)
        taps -= mu.astype(dtype)[:, None]
        w_cov = wt @ ((taps @ taps.T).astype(np.float64) / m)
        var = np.maximum(np.einsum("ot,ot->o", w_cov, wt), 0.0)
        rm, rv = bn.running_mean.data, bn.running_var.data
        rm[...] = (1 - BN_MOMENTUM) * rm + BN_MOMENTUM * (wt @ mu + b)
        rv[...] = (1 - BN_MOMENTUM) * rv + BN_MOMENTUM * var
        offset = np.zeros(c_out)
    else:
        var = bn.running_var.data.astype(np.float64)
        offset = b - bn.running_mean.data
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    a = scale.data * inv_std
    coef = np.empty((c_out, kk + 1), dtype=dtype)
    coef[:, :kk] = a[:, None] * wt
    coef[:, kk] = a * offset + shift.data
    out = rows.T @ coef.T                                     # (M, C_out)
    _check_finite(out, "conv2d")
    if bn.relu:
        # as ``relu``: fmax, then +0.0 to turn a kept -0.0 into +0.0
        np.fmax(out, 0, out=out)
        out += 0.0

    def backward(g):
        gm = _nhwc(g).reshape(m, c_out)
        if bn.relu:
            # ``relu``'s mask, then the +0.0 of its gradient's first write
            gm = gm * (out > 0)
            gm += 0.0
        sums = (rows @ gm).astype(np.float64)                 # (K*K+1, C_out)
        sum_g = sums[kk]
        # sum of g * xhat, xhat = inv_std (W (x - c) + offset)
        sum_g_xhat = inv_std * (np.einsum("ot,to->o", wt, sums[:kk]) + offset * sum_g)
        if shift.requires_grad:
            shift._accumulate(sum_g.astype(shift.dtype))
        if scale.requires_grad:
            scale._accumulate(sum_g_xhat.astype(scale.dtype))
        if weight.requires_grad:
            gw = sums[:kk].T
            if training:
                # through the batch variance W Sigma W^T
                gw = gw - (sum_g_xhat * inv_std)[:, None] * w_cov
            weight._accumulate((a[:, None] * gw).astype(weight.dtype).reshape(c_out, 1, k, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate((a * sum_g if not training else np.zeros(c_out))
                             .astype(bias.dtype))
        if x.requires_grad:
            # the gradient at the conv's output y, then conv2d's input half
            gy = gm * a.astype(dtype)
            if training:
                # (sum(g) + xhat sum(g xhat)) / M, through the batch statistics
                d = np.empty_like(coef)
                d[:, :kk] = (a * inv_std * sum_g_xhat / m)[:, None] * wt
                d[:, kk] = a * sum_g / m
                gy -= rows.T @ d.T
            if k == 1 and stride == 1 and padding == 0:
                x._accumulate(_nchw((gy @ _tap_major(weight.data)).reshape(n, h, w, 1)))
            else:
                _, gx = _window_row_gradients(gy, _nhwc(x.data), weight.data, False,
                                              stride, padding, ho, wo)
                x._keep_or_accumulate(_nchw(gx))

    return _make(_nchw(out.reshape(n, ho, wo, c_out)), parents, backward, "conv2d",
                 checked=True)


def depthwise_conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
                     padding: int = 0) -> Tensor:
    """Channelwise convolution at stride 1: output channel c depends only on
    input channel c.

    ``kernel`` is shaped (C_in, K, K). With padding, the channel-last input
    is copied once into a zero-padded buffer. Each of the K*K taps is one
    multiply-add of a (N, Ho, Wo, C) view of it with that tap's kernel
    values, tiled to a contiguous (Wo, C) block so that the inner loop runs
    over Wo*C contiguous values. Taps are added in row-major order, then the
    bias. As in conv2d, the backward does not read the output, so an op that
    alone consumes it may overwrite it.
    """
    if x.ndim != 4 or kernel.ndim != 3:
        raise ValueError("depthwise_conv2d expects 4-D input and 3-D kernel")
    n, c, h, w = x.shape
    kc, k, k2 = kernel.shape
    if k != k2:
        raise ValueError("depthwise kernels must be square")
    if kc != c:
        raise ValueError(f"channel mismatch: input has {c}, kernel has {kc}")
    ho = conv_output_size(h, k, 1, padding)
    wo = conv_output_size(w, k, 1, padding)
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    dtype = np.result_type(*(t.data for t in parents))

    xp = _padded(_nhwc(x.data), padding, 0.0)
    taps = [(i, j) for i in range(k) for j in range(k)]
    # tiled[i, j] is kernel[:, i, j] repeated over a contiguous (Wo, C) block
    tiled = np.empty((k, k, wo, c), dtype=dtype)
    tiled[...] = kernel.data.transpose(1, 2, 0)[:, :, None, :]
    out = np.empty((n, ho, wo, c), dtype=dtype)
    np.multiply(_tap(xp, 0, 0, 1, ho, wo), tiled[0, 0], out=out)
    scratch = np.empty_like(out)
    for i, j in taps[1:]:
        out += np.multiply(_tap(xp, i, j, 1, ho, wo), tiled[i, j], out=scratch)
    if bias is not None:
        rows = out.reshape(n * ho, wo * c)
        rows += _tile_row(bias.data, wo)

    def backward(g):
        g = _nhwc(g)
        prod = np.empty_like(g, dtype=np.result_type(g, dtype))
        if kernel.requires_grad:
            gk = np.empty((c, k, k), dtype=prod.dtype)
            for i, j in taps:
                np.multiply(g, _tap(xp, i, j, 1, ho, wo), out=prod)
                gk[:, i, j] = _channel_sums(prod.reshape(-1, c))
            kernel._accumulate(gk)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_channel_sums(g.reshape(-1, c)))
        if x.requires_grad:
            gx = np.zeros((n, h, w, c), dtype=prod.dtype)
            for i, j in taps:
                inside = _tap_inside(gx, i, j, 1, padding, ho, wo)
                if inside is not None:
                    dst, oh, ow = inside
                    dst += np.multiply(g[:, oh, ow], tiled[i, j][ow], out=prod[:, oh, ow])
            x._keep_or_accumulate(_nchw(gx))

    return _make(_nchw(out), parents, backward, "depthwise_conv2d")


def max_pool2d(x: Tensor, window: int = 3, stride: int = 2, padding: int = 0) -> Tensor:
    """Max pooling; trailing rows/columns that do not fit a window are dropped.

    Ties go to the first maximum in row-major window order (+0.0 and -0.0
    tie, and the earlier one's sign is kept); backward sends each output's
    whole gradient to that one position. The windows are read from, and
    the gradient routed into, channel-last buffers.
    """
    if x.ndim != 4:
        raise ValueError("max_pool2d expects 4-D input")
    if padding >= window:
        raise ValueError("pooling padding must be smaller than the window")
    n, c, h, w = x.shape
    ho = conv_output_size(h, window, stride, padding)
    wo = conv_output_size(w, window, stride, padding)
    xp = _padded(_nhwc(x.data), padding, -np.inf)
    taps = [(i, j) for i in range(window) for j in range(window)]
    data = _tap(xp, 0, 0, stride, ho, wo).copy()
    for i, j in taps[1:]:
        # the running maximum is the second operand: np.maximum returns it
        # on ties, so the first maximum wins
        np.maximum(_tap(xp, i, j, stride, ho, wo), data, out=data)

    def backward(g):
        if not x.requires_grad:
            return
        # routed through per-tap buffers that are reused rather than
        # allocated per tap
        g = _nhwc(g)
        gx = np.zeros((n, h, w, c), dtype=g.dtype)
        free = np.ones_like(data, dtype=bool)   # outputs not yet routed
        first = np.empty_like(free)
        routed = np.empty_like(data, dtype=g.dtype)
        for i, j in taps:
            # every tap's mask reads the padded input: a -inf input may tie
            # with the padding, and the first maximum wins
            np.equal(_tap(xp, i, j, stride, ho, wo), data, out=first)
            first &= free
            free ^= first
            inside = _tap_inside(gx, i, j, stride, padding, ho, wo)
            if inside is not None:
                # g * False is +-0.0, which leaves a sum that started at
                # +0.0 unchanged: a buffer started at +0.0 never holds -0.0
                dst, oh, ow = inside
                dst += np.multiply(g[:, oh, ow], first[:, oh, ow], out=routed[:, oh, ow])
        x._keep_or_accumulate(_nchw(gx))

    return _make(_nchw(data), (x,), backward, "max_pool2d")


# -- normalization & softmax ---------------------------------------------------

def _into(buf: np.ndarray | None, ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, written into ``buf`` when the result has its dtype."""
    if buf is not None and np.result_type(a, b) == buf.dtype:
        return ufunc(a, b, out=buf)
    return ufunc(a, b)


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of an (M, C) matrix, the (N*H*W, C) view of a channel-last
    array: batch norm's statistics and gradients, and the bias gradients of
    conv2d and depthwise_conv2d.

    The sum is a GEMM against two rows of ones. On OpenBLAS 0.3.31 its bytes
    were measured equal at 1, 2, 3, 4 and 8 threads at shape (43264, 16).
    One row of ones would make it a GEMV, whose bytes there differ between
    1 and 2 threads and which is slower at 2 threads. The ones are made
    once per (M, dtype) and kept read-only (``_ones``).
    """
    return (_ones(rows.shape[0], rows.dtype) @ rows)[0]


@functools.lru_cache(maxsize=64)
def _ones(m: int, dtype: np.dtype) -> np.ndarray:
    """A read-only (2, ``m``) array of ones, shared by every caller, in its
    own anonymous memory map: made on the malloc heap in the middle of a
    step, such a long-lived array would pin the heap below it (glibc
    returns only the heap's top to the system) and raise the process's
    peak resident size."""
    ones = np.frombuffer(mmap.mmap(-1, 2 * m * dtype.itemsize), dtype=dtype).reshape(2, m)
    ones[...] = 1
    ones.flags.writeable = False
    return ones


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batch_norm2d(x: Tensor, scale: Tensor, shift: Tensor,
                 running_mean: Tensor, running_var: Tensor,
                 training: bool, relu: bool = False, reuse_input: bool = False) -> Tensor:
    """Per-channel batch normalization over (N, H, W), as (x - mean) /
    sqrt(var + ``BN_EPS``) * scale + shift.

    In training mode the batch statistics are used and the running buffers are
    updated in place as (1 - ``BN_MOMENTUM``) * old + ``BN_MOMENTUM`` * batch.

    Every per-channel vector meets the channel-last (N*H, W*C) rows of the
    input as one tiled row (``_tile_row``).

    With ``relu`` the op is batch norm followed by ``relu``, as one graph
    node with the same bytes: the finite check runs on the batch-norm values,
    ReLU is then applied in place, and the backward masks the gradient and
    adds +0.0 to it, as ``relu``'s backward and ``Tensor._accumulate`` do,
    before the batch-norm backward.

    With ``reuse_input`` the centred values, and then xhat, are written into
    ``x.data``'s own buffer (the same float ops, so the same bytes), which
    saves one activation-sized buffer per call; ``x.data`` then holds xhat.
    Set it only when nothing else reads ``x`` afterwards, neither a later
    forward nor a backward: a conv2d or depthwise_conv2d output that only
    this call consumes qualifies (``blocks`` says which layers set it); a
    tapped tensor, a skip path or a network input does not.
    """
    if x.ndim != 4:
        raise ValueError("batch_norm2d expects 4-D input")
    n, c, h, w = x.shape
    if scale.shape != (c,) or shift.shape != (c,):
        raise ValueError("batch_norm2d scale/shift must be per-channel vectors")
    m = n * h * w
    rows = _nhwc(x.data).reshape(n * h, w * c)
    lent = rows if reuse_input else None
    if training:
        mean = _channel_sums(rows.reshape(m, c)) / m
        centred = _into(lent, np.subtract, rows, _tile_row(mean, w))
        # two-pass variance: the sum of squared centred values
        sq = centred * centred
        var = _channel_sums(sq.reshape(m, c)) / m
        running_mean.data[...] = (1 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mean
        running_var.data[...] = (1 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * var
    else:
        mean = running_mean.data
        var = running_var.data
        centred = _into(lent, np.subtract, rows, _tile_row(mean, w))
        sq = None
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    # xhat overwrites centred, and scale * xhat + shift overwrites sq
    xhat = _into(centred, np.multiply, centred, _tile_row(inv_std, w))
    out = _into(sq, np.multiply, _tile_row(scale.data, w), xhat)
    out = _into(out, np.add, out, _tile_row(shift.data, w))
    _check_finite(out, "batch_norm2d")
    if relu:
        # as ``relu``: fmax, then +0.0 to turn a kept -0.0 into +0.0
        np.fmax(out, 0, out=out)
        out += 0.0

    def backward(g):
        g = _nhwc(g).reshape(n * h, w * c)
        if relu:
            # ``relu``'s mask (the output is > 0 exactly where the batch-norm
            # value was), then the +0.0 of its gradient's first write
            g = g * (out > 0)
            g += 0.0
        sum_g = _channel_sums(g.reshape(m, c))
        scratch = g * xhat
        sum_g_xhat = _channel_sums(scratch.reshape(m, c))
        if shift.requires_grad:
            shift._accumulate(sum_g)
        if scale.requires_grad:
            scale._accumulate(sum_g_xhat)
        if not x.requires_grad:
            return
        gain = _tile_row(scale.data * inv_std, w)
        if not training:
            x._accumulate(_nchw((g * gain).reshape(n, h, w, c)))
            return
        # batch statistics are functions of x: the two sums above are the
        # whole correction, (g - xhat * sum(g xhat) / m - sum(g) / m) * gain
        scratch = _into(scratch, np.multiply, xhat, _tile_row(sum_g_xhat / m, w))
        gx = _into(scratch, np.subtract, g, scratch)
        gx = _into(gx, np.subtract, gx, _tile_row(sum_g / m, w))
        gx = _into(gx, np.multiply, gx, gain)
        x._accumulate(_nchw(gx.reshape(n, h, w, c)))

    return _make(_nchw(out.reshape(n, h, w, c)), (x, scale, shift), backward,
                 "batch_norm2d", checked=True)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the classes of (N, classes) logits."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=1, keepdims=True)
            x._accumulate(data * (g - dot))

    return _make(data, (x,), backward, "softmax")


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the classes of (N, classes) logits."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    data = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g - np.exp(data) * g.sum(axis=1, keepdims=True))

    return _make(data, (x,), backward, "log_softmax")


# -- checkpoint I/O -------------------------------------------------------------

_CKPT_MAGIC = "parcnn-checkpoint-v2"


def save_checkpoint(prefix: str | Path, tensors: dict[str, Tensor | np.ndarray],
                    extra: dict | None = None) -> None:
    """Write ``prefix``.ckpt: a line of compact JSON manifest (the format,
    each tensor's ``[name, shape]`` in blob order, the blob's CRC-32, then
    the ``extra`` entries such as the architecture), then the blob of
    little-endian float32 tensors. Round trips of float32 are bit-exact.
    One ``_write_then_replace`` writes the manifest and each tensor's bytes
    in turn, never holding the blob whole, and moves the file over any
    previous checkpoint in one replace, so a crash leaves one of the two
    complete."""
    arrays = {name: np.asarray(t.data if isinstance(t, Tensor) else t,
                               dtype="<f4", order="C")
              for name, t in tensors.items()}
    crc = 0
    for arr in arrays.values():
        crc = zlib.crc32(arr, crc)
    manifest = {"format": _CKPT_MAGIC,
                "tensors": [[name, list(arr.shape)] for name, arr in arrays.items()],
                "crc32": crc, **(extra or {})}
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    _write_then_replace(prefix.with_name(prefix.name + ".ckpt"),
                        json.dumps(manifest, separators=(",", ":")).encode() + b"\n",
                        *arrays.values())


def _write_then_replace(path: Path, *chunks) -> None:
    """Write the bytes-like ``chunks`` one after another to a temporary file
    beside ``path``, move it over ``path`` and sync the directory so the
    move itself is durable; the temporary file is removed if writing or
    moving fails."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_checkpoint(prefix: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest of ``prefix``.ckpt and its tensors as writable float32
    arrays, from one open and read of the file, once the manifest names each
    tensor once and the blob holds exactly the bytes of the listed shapes
    and matches the manifest's CRC-32. The arrays are views of the one
    buffer, sized from the file, that the blob was read into, so loading
    holds the tensor bytes once."""
    stem = Path(prefix)
    path = stem.with_name(stem.name + ".ckpt")
    if not path.exists():
        old = stem.with_name(stem.name + ".json")
        if old.exists():
            raise DataFormatError(f"{old} is a two-file checkpoint from before "
                                  f"format v2, which is not read")
        raise DataFormatError(f"checkpoint not found: {path}")
    with open(path, "rb") as f:
        try:
            manifest = json.loads(f.readline())
        except ValueError:
            manifest = None
        if not isinstance(manifest, dict) or manifest.get("format") != _CKPT_MAGIC:
            raise DataFormatError(f"unrecognized checkpoint: {path}")
        blob = bytearray(os.fstat(f.fileno()).st_size - f.tell())
        # a file cut short after the size was taken reads short
        del blob[f.readinto(blob):]
    listed = manifest.get("tensors")
    if not (isinstance(listed, list) and all(map(_is_listed_tensor, listed))
            and type(manifest.get("crc32")) is int):
        raise DataFormatError(f"checkpoint {prefix} has a malformed manifest: it needs "
                              f"'tensors' as [name, shape] pairs and an integer 'crc32'")
    names = [name for name, _ in listed]
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise DataFormatError(f"checkpoint {prefix} has a malformed manifest: it lists "
                              f"the tensor names {repeated} more than once")
    sizes = [math.prod(shape) for _, shape in listed]
    if len(blob) != 4 * sum(sizes):
        raise DataFormatError(f"checkpoint {prefix} holds {len(blob)} tensor bytes; "
                              f"its manifest describes {4 * sum(sizes)}")
    if zlib.crc32(blob) != manifest["crc32"]:
        raise DataFormatError(f"checkpoint {prefix} does not match the CRC-32 "
                              f"of its manifest")
    # a view on little-endian hosts, a native copy elsewhere
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float32, copy=False)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return manifest, {name: part.reshape(shape)
                      for (name, shape), part in zip(listed, parts)}


def _is_listed_tensor(item) -> bool:
    """Whether a manifest's ``tensors`` item is [name, list of extents >= 0]."""
    return (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
            and isinstance(item[1], list)
            and all(type(n) is int and n >= 0 for n in item[1]))


# -- gradient checking ----------------------------------------------------------

def numeric_gradient(fn, tensors: list[Tensor], step: float = 1e-3) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued ``fn`` w.r.t. each tensor.

    Runs entirely on the tensors' own dtype; use float64 tensors for tight
    tolerances. Each element is perturbed in place by index, so tensors in
    any memory layout (channel-last, tap-major) are perturbed, not copies.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for i in np.ndindex(t.shape):
            orig = t.data[i]
            t.data[i] = orig + step
            fp = fn().item()
            t.data[i] = orig - step
            fm = fn().item()
            t.data[i] = orig
            g[i] = (fp - fm) / (2 * step)
        grads.append(g)
    return grads
