"""Network building blocks: plain layers plus the compact-convolution blocks.

Every layer exposes ``forward(x, ctx)``, ``params()`` and ``buffers()``.
A composite layer lists its children once, in ``sublayers()``, and its
state is theirs. ``ctx`` carries the training flag and an optional tap
dictionary that ``Tap`` layers write intermediate activations into.

Compact blocks:

* ``dsconv_block``  - a ``Sequential``: depthwise K x K over all channels,
  then pointwise, each followed by a fused BN+ReLU layer.
* ``ParConvBlock``  - channel shuffle, split into two branches; branch A
  optionally expands by a pointwise conv (channel multiplier omega),
  applies a depthwise conv, each followed by a fused BN+ReLU layer, then
  projects pointwise to the output width; branch B is a single pointwise
  conv; the branch outputs are summed channelwise, then a fused BN+ReLU
  layer (``post_bn``). With ``omega=None``
  there is no expanding conv: that is the simplified SParConv form, in
  which by default a quarter of the input channels feed the depthwise
  branch. The shuffle and split run as one channel gather per branch, and
  branch A's projection and branch B run as one pointwise conv over both
  branches' inputs, their weights joined at call time; the parameters are
  still those of the two convs.

Each fused BN+ReLU layer is one ``BatchNorm2d(relu=True)`` under the
``bn*`` name, and runs as one op. All compact blocks preserve spatial size
(stride 1, padding (K-1)/2).

Who may reuse a buffer: a ``BatchNorm2d(reuse_input=True)`` normalises in
place of its input (``tensor.batch_norm2d``), so it is built that way only
where its input is the private output of the conv or depthwise conv just
before it: every ``_bn_relu`` layer, ParConv's ``post_bn``, the residual
projection's batch norm, and the batch norm of an architecture's ``conv``
entry. A standalone ``batchnorm`` entry never sets it, since its input
may be a tapped activation or a skip path that is read again.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class ForwardContext:
    training: bool = False
    taps: dict[str, Tensor] | None = None


def _init_conv(rng: np.random.Generator, c_out: int, c_in: int, k: int) -> np.ndarray:
    """A (C_out, C_in, K, K) weight stored tap-major, as (C_out, K, K, C_in)
    in memory: the order ``tensor.conv2d``'s GEMMs read it in, so that they
    copy no weight. The float32 cast writes that layout in the same pass."""
    std = 1.0 / np.sqrt(c_in * k * k)
    w = rng.normal(0.0, std, size=(c_out, c_in, k, k))
    out = np.empty((c_out, k, k, c_in), np.float32)
    np.copyto(out, w.transpose(0, 2, 3, 1), casting="same_kind")
    return out.transpose(0, 3, 1, 2)


def _init_depthwise(rng: np.random.Generator, c: int, k: int) -> np.ndarray:
    std = 1.0 / np.sqrt(k * k)
    return rng.normal(0.0, std, size=(c, k, k)).astype(np.float32)


def _init_linear(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    std = 1.0 / np.sqrt(n_in)
    return rng.normal(0.0, std, size=(n_out, n_in)).astype(np.float32)


class Layer:
    """Base class. A layer's state is its sublayers' state, in order, each
    name prefixed by the sublayer's name; leaves override ``params`` and
    ``buffers`` with their own tensors."""

    def forward(self, x: Tensor, ctx: ForwardContext) -> Tensor:
        raise NotImplementedError

    def sublayers(self) -> list[tuple[str, Layer]]:
        return []

    def params(self) -> list[tuple[str, Tensor]]:
        return [(f"{name}.{p}", t)
                for name, child in self.sublayers() for p, t in child.params()]

    def buffers(self) -> list[tuple[str, Tensor]]:
        return [(f"{name}.{p}", t)
                for name, child in self.sublayers() for p, t in child.buffers()]


class _WeightBias(Layer):
    """A leaf holding a ``weight`` and an optional ``bias``."""

    def params(self):
        out = [("weight", self.weight)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out


class Conv2d(_WeightBias):
    """A standard convolution. Its weight has the logical shape (C_out, C_in,
    K, K) in state names, checkpoints and ``load_state``, and is stored
    tap-major (``_init_conv``); the SGD update and ``load_state`` write it
    in place, so it stays so."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, *,
                 rng: np.random.Generator):
        if min(in_channels, out_channels, kernel, stride) < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(_init_conv(rng, out_channels, in_channels, kernel),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, np.float32), requires_grad=True) \
            if bias else None

    def forward(self, x, ctx):
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class DepthwiseConv2d(_WeightBias):
    def __init__(self, channels: int, kernel: int, stride: int = 1,
                 padding: int = 0, bias: bool = True, *, rng: np.random.Generator):
        if min(channels, kernel, stride) < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(_init_depthwise(rng, channels, kernel), requires_grad=True)
        self.bias = Tensor(np.zeros(channels, np.float32), requires_grad=True) \
            if bias else None

    def forward(self, x, ctx):
        return T.depthwise_conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Layer):
    """Four per-channel values: scale, shift, running mean, running variance.
    With ``relu`` the layer is batch norm followed by ReLU, run as one op
    (``tensor.batch_norm2d(..., relu=True)``); a ReLU holds no state, so the
    state names are the same. With ``reuse_input`` it writes over its input's
    buffer, which only a layer whose input nothing else reads may do (see
    the module docstring)."""

    def __init__(self, channels: int, relu: bool = False, reuse_input: bool = False):
        self.relu = relu
        self.reuse_input = reuse_input
        self.scale = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self.running_mean = Tensor(np.zeros(channels, np.float32))
        self.running_var = Tensor(np.ones(channels, np.float32))

    def forward(self, x, ctx):
        return T.batch_norm2d(x, self.scale, self.shift,
                              self.running_mean, self.running_var,
                              training=ctx.training, relu=self.relu,
                              reuse_input=self.reuse_input)

    def params(self):
        return [("scale", self.scale), ("shift", self.shift)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class ReLU(Layer):
    def forward(self, x, ctx):
        return T.relu(x)


class MaxPool2d(Layer):
    def __init__(self, window: int = 3, stride: int = 2, padding: int = 0):
        self.window = window
        self.stride = stride
        self.padding = padding

    def forward(self, x, ctx):
        return T.max_pool2d(x, self.window, self.stride, self.padding)


class Flatten(Layer):
    def forward(self, x, ctx):
        return T.flatten(x)


class Linear(_WeightBias):
    def __init__(self, in_features: int, out_features: int, bias: bool = True, *,
                 rng: np.random.Generator):
        self.weight = Tensor(_init_linear(rng, out_features, in_features),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, np.float32), requires_grad=True) \
            if bias else None

    def forward(self, x, ctx):
        return T.linear(x, self.weight, self.bias)


class Tap(Layer):
    """Records the current activation under ``name`` when taps are collected."""

    def __init__(self, name: str):
        self.name = name

    def forward(self, x, ctx):
        if ctx.taps is not None:
            ctx.taps[self.name] = x
        return x


class Sequential(Layer):
    def __init__(self, children: list[tuple[str, Layer]]):
        self.children = children

    def forward(self, x, ctx):
        for _, child in self.children:
            x = child.forward(x, ctx)
        return x

    def sublayers(self):
        return self.children


# -- channel shuffle -------------------------------------------------------

def shuffle_permutation(channels: int, groups: int = 2) -> np.ndarray:
    """The reshape-(groups, C/groups), transpose, flatten channel permutation."""
    if channels % groups:
        raise ValueError(f"{channels} channels not divisible into {groups} groups")
    return np.arange(channels).reshape(groups, channels // groups).T.reshape(-1)


# -- compact-block width arithmetic -----------------------------------------

def parconv_widths(in_channels: int, alpha: float,
                   omega: float | None) -> tuple[int, int, int]:
    """Realized integer widths (branch_a, expanded, branch_b).

    branch_a = floor(alpha * C_in); expanded = round-half-up(omega * alpha *
    C_in), minimum 1, or branch_a when omega is None (no expanding conv);
    branch_b gets the remaining channels.
    """
    a = int(np.floor(alpha * in_channels))
    b = in_channels - a
    if omega is None:
        return a, a, b
    e = max(1, int(np.floor(omega * alpha * in_channels + 0.5)))
    return a, e, b


@dataclass
class ParConvSpec:
    """Declarative description of one ParConv block."""

    in_channels: int
    out_channels: int
    # channel multiplier of the expanding pointwise conv; None drops that conv
    omega: float | None
    alpha: float = 0.5
    kernel: int = 3
    include_shuffle: bool = True

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.omega is not None and self.omega <= 0:
            raise ValueError("omega must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("kernel must be odd and >= 1")
        a, _, b = self.widths()
        if a < 1 or b < 1:
            raise ValueError(f"degenerate branch split {a}/{b} for alpha={self.alpha}")

    def widths(self) -> tuple[int, int, int]:
        return parconv_widths(self.in_channels, self.alpha, self.omega)


@dataclass
class BottleneckHeadSpec:
    """Two linear layers feature_dim -> bottleneck_dim -> output_dim."""

    feature_dim: int
    bottleneck_dim: int
    output_dim: int

    def __post_init__(self):
        if self.bottleneck_dim < 1:
            raise ValueError("bottleneck dimension must be >= 1")
        if self.feature_dim < 1 or self.output_dim < 1:
            raise ValueError("head dimensions must be positive")


def _bn_relu(channels: int, suffix: str = "") -> tuple[str, Layer]:
    return f"bn{suffix}", BatchNorm2d(channels, relu=True, reuse_input=True)


class ParConvBlock(Layer):
    """Two-branch compact replacement for a stride-1 standard convolution.

    ``branch_a`` ends in ``pw_project`` and ``branch_b`` is one pointwise
    conv; their sum is computed as a single conv over [branch A before its
    projection | branch B's input] with weights [W_project | W_b] and the
    two biases added, so the state names and tensors are those of the two
    convs while the forward makes one GEMM and no add of activations.
    """

    def __init__(self, spec: ParConvSpec, *, rng: np.random.Generator):
        self.spec = spec
        a, e, b = spec.widths()
        # the shuffle and split, as the channels each branch gathers
        order = shuffle_permutation(spec.in_channels) if spec.include_shuffle \
            else np.arange(spec.in_channels)
        self.gathers = (order[:a], order[a:])
        pad = (spec.kernel - 1) // 2
        stack: list[tuple[str, Layer]] = []
        if spec.omega is not None:
            stack.append(("pw_expand", Conv2d(a, e, 1, bias=True, rng=rng)))
            stack.append(_bn_relu(e, "_expand"))
        stack.append(
            ("dw", DepthwiseConv2d(e, spec.kernel, padding=pad, bias=True, rng=rng)))
        stack.append(_bn_relu(e))
        stack.append(
            ("pw_project", Conv2d(e, spec.out_channels, 1, bias=True, rng=rng)))
        self.branch_a = Sequential(stack)
        self.branch_b = Conv2d(b, spec.out_channels, 1, bias=True, rng=rng)
        self.post_bn = BatchNorm2d(spec.out_channels, relu=True, reuse_input=True)

    def sublayers(self):
        return [("branch_a", self.branch_a), ("branch_b", self.branch_b),
                ("post_bn", self.post_bn)]

    def forward(self, x, ctx):
        if x.shape[1] != self.spec.in_channels:
            raise ValueError(
                f"expected {self.spec.in_channels} channels, got {x.shape[1]}")
        xa, xb = (T.permute_channels(x, index) for index in self.gathers)
        *inner, (_, project) = self.branch_a.children
        for _, layer in inner:
            xa = layer.forward(xa, ctx)
        # pw_project and branch_b feed one sum: compute it as one pointwise
        # conv over both inputs, with their weights and biases joined here
        out = T.conv2d(T.concat_channels([xa, xb]),
                       T.concat_channels([project.weight, self.branch_b.weight]),
                       T.add(project.bias, self.branch_b.bias))
        return self.post_bn.forward(out, ctx)


def dsconv_block(in_channels: int, out_channels: int, kernel: int = 3, *,
                 rng: np.random.Generator) -> Sequential:
    """Depthwise K x K over all input channels followed by a pointwise conv,
    each followed by BN+ReLU."""
    pad = (kernel - 1) // 2
    return Sequential(
        [("dw", DepthwiseConv2d(in_channels, kernel, padding=pad, bias=True, rng=rng)),
         _bn_relu(in_channels, "_dw"),
         ("pw", Conv2d(in_channels, out_channels, 1, bias=True, rng=rng)),
         _bn_relu(out_channels)])


class ResidualBlock(Layer):
    """Adds a skip path around ``body``.

    With matching channel counts and spatial size the skip is the identity;
    otherwise a pointwise projection (with BN) adapts channels, striding when
    the body downsamples.
    """

    def __init__(self, body: Layer, in_channels: int, out_channels: int,
                 skip_stride: int = 1, post_relu: bool = False, *,
                 rng: np.random.Generator):
        self.body = body
        self.post_relu = post_relu
        if in_channels == out_channels and skip_stride == 1:
            self.projection = None
        else:
            self.projection = Sequential([
                ("pw", Conv2d(in_channels, out_channels, 1, stride=skip_stride,
                              bias=True, rng=rng)),
                ("bn", BatchNorm2d(out_channels, reuse_input=True)),
            ])

    def sublayers(self):
        if self.projection is None:
            return [("body", self.body)]
        return [("body", self.body), ("projection", self.projection)]

    def forward(self, x, ctx):
        y = self.body.forward(x, ctx)
        skip = x if self.projection is None else self.projection.forward(x, ctx)
        if y.shape[2:] != skip.shape[2:]:
            raise ValueError(
                f"residual spatial mismatch: body {y.shape[2:]} vs skip {skip.shape[2:]}")
        out = T.add(y, skip)
        return T.relu(out) if self.post_relu else out


def bottleneck_head(spec: BottleneckHeadSpec, *, rng: np.random.Generator) -> Sequential:
    """Two linear layers M -> B -> O, no nonlinearity in between."""
    return Sequential([
        ("fc1", Linear(spec.feature_dim, spec.bottleneck_dim, rng=rng)),
        ("fc2", Linear(spec.bottleneck_dim, spec.output_dim, rng=rng)),
    ])
