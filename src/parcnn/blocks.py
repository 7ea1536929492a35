"""Network building blocks: plain layers plus the compact-convolution blocks.

Every layer exposes ``forward(x, ctx)``, ``params()`` and ``buffers()``.
A composite layer lists its children once, in ``sublayers()``, and its
state is theirs. ``ctx`` carries the training flag and an optional tap
dictionary that ``Tap`` layers write intermediate activations into.

Compact blocks are written once each, as the layer lists below, which the
model builder makes (``build``) and the cost rules count: ``dsconv_layers``,
``parconv_layers`` (ParConv, and SParConv when omega is None) and, for a
residual skip path, ``projection_layers``. Every conv inside a compact block
is followed by a fused BN+ReLU layer, one ``BatchNorm2d(relu=True)`` run as
one op; a ParConv block's branch sum is followed by one (``post_bn``). All
compact blocks preserve spatial size (stride 1, padding (K-1)/2).

An architecture's ``conv`` entry with a batch norm over a one-channel
input, its stem, is built as one ``ConvBatchNorm`` layer, which runs the
conv, the batch norm and its ReLU as one op (``tensor.conv2d(..., bn=)``)
and holds the ``conv`` and ``bn`` layers the entry lists, so its state is
theirs.

Who sets the weights: a layer is made with zero weights and biases;
``arch.build_model`` draws every weight of a new model with ``init_weights``,
and ``arch.load_model`` draws none and writes the checkpoint's values.

Who may reuse a buffer: a ``BatchNorm2d(reuse_input=True)`` normalises in
place of its input (``tensor.batch_norm2d``), so it is built that way only
where its input is the private output of the conv or depthwise conv just
before it: every ``bn`` in a compact block's or projection's layer list,
and the batch norm of an architecture's ``conv`` entry, unless it is a
stem's, which runs inside its conv's op. A standalone
``batchnorm`` entry never sets it, since its input may be a tapped
activation or a skip path that is read again. A ``ResidualBlock`` runs its
sum and ReLU as one op (``tensor.add(..., relu=True)``) and writes the sum
into its body's output only when the body ends in a batch norm without
ReLU (res18's ``_b`` convs): that output is fresh, only the tail reads it,
and its backward does not. A body that ends in BN+ReLU (every ParConv
block, so ``parres18_mini`` and the ``residual=True`` transforms), whose
backward reads ``out > 0``, or in a max pool, a tap or nothing, gets a
fresh sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class ForwardContext:
    training: bool = False
    taps: dict[str, Tensor] | None = None


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
    """A leaf holding a zero ``weight`` and an optional zero ``bias``. With
    ``tap_major`` a (C_out, C_in, K, K) weight is stored as (C_out, K, K,
    C_in): the order ``tensor.conv2d``'s GEMMs read it in, so they copy none."""

    def __init__(self, shape: tuple[int, ...], bias: bool, tap_major: bool = False):
        if tap_major:
            c_out, c_in, k, _ = shape
            weight = np.zeros((c_out, k, k, c_in), np.float32).transpose(0, 3, 1, 2)
        else:
            weight = np.zeros(shape, np.float32)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(shape[0], np.float32), requires_grad=True) \
            if bias else None

    def params(self):
        out = [("weight", self.weight)]
        if self.bias is not None:
            out.append(("bias", self.bias))
        return out


class Conv2d(_WeightBias):
    """A standard convolution. Its weight has the logical shape (C_out, C_in,
    K, K) in state names, checkpoints and ``load_state``, and is stored
    tap-major (``_WeightBias``); ``init_weights``, the SGD update and
    ``load_state`` write it in place, so it stays so."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True):
        if min(in_channels, out_channels, kernel, stride) < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        super().__init__((out_channels, in_channels, kernel, kernel), bias,
                         tap_major=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x, ctx):
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class DepthwiseConv2d(_WeightBias):
    """A depthwise convolution with a bias that keeps its input's spatial
    size: stride 1, padding (K-1)/2, as every compact block uses it."""

    def __init__(self, channels: int, kernel: int):
        if min(channels, kernel) < 1:
            raise ValueError("invalid convolution geometry")
        super().__init__((channels, kernel, kernel), bias=True)
        self.padding = (kernel - 1) // 2

    def forward(self, x, ctx):
        return T.depthwise_conv2d(x, self.weight, self.bias, self.padding)


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


class ConvBatchNorm(Layer):
    """A conv over a one-channel input, the batch norm after it and that
    batch norm's ReLU, run as one op (``tensor.conv2d(..., bn=)``): an
    architecture's stem. Its children are the ``conv`` and ``bn`` layers
    the entry lists, so its state names are theirs."""

    def __init__(self, children: list[tuple[str, Layer]]):
        self.children = children
        (_, self.conv), (_, self.bn) = children

    def sublayers(self):
        return self.children

    def forward(self, x, ctx):
        conv, bn = self.conv, self.bn
        return T.conv2d(x, conv.weight, conv.bias, conv.stride, conv.padding,
                        bn=T.BatchNorm(bn.scale, bn.shift, bn.running_mean,
                                       bn.running_var, ctx.training, bn.relu))


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
    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__((out_features, in_features), bias)

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

def shuffle_permutation(channels: int) -> np.ndarray:
    """The two-group channel shuffle: the reshape-(2, C/2), transpose,
    flatten channel permutation."""
    if channels % 2:
        raise ValueError(f"{channels} channels not divisible into 2 groups")
    return np.arange(channels).reshape(2, channels // 2).T.reshape(-1)


# -- compact-block width arithmetic -----------------------------------------

def parconv_widths(in_channels: int, alpha: float,
                   omega: float | None) -> tuple[int, int, int]:
    """Realized integer widths (branch_a, expanded, branch_b).

    branch_a = floor(alpha * C_in); expanded = round-half-up(omega * alpha *
    C_in), minimum 1, or branch_a when omega is None (no expanding conv);
    branch_b gets the remaining channels. Raises ValueError when the
    expanded width is not finite (a huge omega).
    """
    a = math.floor(alpha * in_channels)
    b = in_channels - a
    if omega is None:
        return a, a, b
    expanded = omega * alpha * in_channels
    if not math.isfinite(expanded):
        raise ValueError(f"omega {omega!r} is too large: the expanded width "
                         f"omega * alpha * C_in is not finite")
    return a, max(1, math.floor(expanded + 0.5)), b


@dataclass(frozen=True)
class ParConvSpec:
    """Declarative description of one ParConv block; frozen, so that trace
    entries and models may share one."""

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


# -- layer lists -------------------------------------------------------------
# An architecture entry's layers, in the order they are built, as plain
# tuples of a kind, a name and the geometry. A name is the layer's path in
# the entry's state: ``branch_a.dw`` holds ``branch_a.dw.weight``.
#   ("conv", name, c_in, c_out, k, stride, padding, bias)
#   ("depthwise", name, c, k), at stride 1, padding (K-1)/2 and with a bias
#   ("bn", name, c, relu, reuse_input), ("linear", name, n_in, n_out, bias)
#   ("maxpool", name, window, stride, padding)
#   ("gather", name, c, shuffle, start, stop), see ``ChannelGather``
#   ("relu", name), ("flatten", name), ("tap", name)

def parconv_layers(spec: ParConvSpec) -> list[tuple]:
    """A ParConv block's layers: the channel shuffle and split into two
    branches, as one gather each; branch A's expanding pointwise conv
    (channel multiplier omega; none when omega is None) and its depthwise
    conv, each with a BN+ReLU, then its projection to the output width;
    branch B, one pointwise conv; the BN+ReLU after the branches' sum."""
    a, e, b = spec.widths()
    c, c_out, k = spec.in_channels, spec.out_channels, spec.kernel
    layers = [("gather", "gather_a", c, spec.include_shuffle, 0, a),
              ("gather", "gather_b", c, spec.include_shuffle, a, c)]
    if spec.omega is not None:
        layers += [("conv", "branch_a.pw_expand", a, e, 1, 1, 0, True),
                   ("bn", "branch_a.bn_expand", e, True, True)]
    return layers + [("depthwise", "branch_a.dw", e, k),
                     ("bn", "branch_a.bn", e, True, True),
                     ("conv", "branch_a.pw_project", e, c_out, 1, 1, 0, True),
                     ("conv", "branch_b", b, c_out, 1, 1, 0, True),
                     ("bn", "post_bn", c_out, True, True)]


def dsconv_layers(in_channels: int, out_channels: int, kernel: int) -> list[tuple]:
    """A DSConv block's layers: depthwise K x K over all input channels, then
    a pointwise conv, each followed by BN+ReLU."""
    return [("depthwise", "dw", in_channels, kernel),
            ("bn", "bn_dw", in_channels, True, True),
            ("conv", "pw", in_channels, out_channels, 1, 1, 0, True),
            ("bn", "bn", out_channels, True, True)]


def projection_layers(in_channels: int, out_channels: int, stride: int) -> list[tuple]:
    """A residual skip path's layers: none for the identity (equal channel
    counts, stride 1), else a pointwise conv and its batch norm."""
    if in_channels == out_channels and stride == 1:
        return []
    return [("conv", "projection.pw", in_channels, out_channels, 1, stride, 0, True),
            ("bn", "projection.bn", out_channels, False, True)]


def build(layers: list[tuple]) -> list[tuple[str, Layer]]:
    """The named layers of a layer list, made in its order, with zero
    weights."""
    return [(layer[1], _layer(layer)) for layer in layers]


def _layer(layer: tuple) -> Layer:
    kind, name, *geometry = layer
    if kind == "tap":
        return Tap(name)
    return _LAYER_CLASSES[kind](*geometry)


def init_weights(params: list[tuple[str, Tensor]], rng: np.random.Generator) -> None:
    """Draw each ``weight`` of ``params``, in order, from N(0, 1/fan_in) into
    its own storage; fan_in is its size over its first axis: C_in*K*K for a
    conv, K*K for a depthwise conv, in_features for a linear layer."""
    for name, t in params:
        if name.rpartition(".")[2] == "weight":
            std = 1.0 / np.sqrt(t.size // t.shape[0])
            np.copyto(t.data, rng.normal(0.0, std, size=t.shape), casting="same_kind")


class ChannelGather(Layer):
    """Channels ``start:stop`` of the input, in channel-shuffle order when
    ``shuffle``: one branch of ParConv's shuffle and split, as one gather."""

    def __init__(self, channels: int, shuffle: bool, start: int, stop: int):
        order = shuffle_permutation(channels) if shuffle else np.arange(channels)
        # checked, and its scatter runs found, once
        self.index = T.ChannelIndex(order[start:stop], channels)

    def forward(self, x, ctx):
        return T.permute_channels(x, self.index)


# the class of each kind of layer, made from the geometry its tuple lists
_LAYER_CLASSES = {"conv": Conv2d, "depthwise": DepthwiseConv2d, "linear": Linear,
                  "bn": BatchNorm2d, "maxpool": MaxPool2d, "gather": ChannelGather,
                  "relu": ReLU, "flatten": Flatten}


class ParConvBlock(Layer):
    """Two-branch compact replacement for a stride-1 standard convolution,
    made of the layers ``parconv_layers`` lists, in that order.

    Branch A ends in ``pw_project`` and branch B is one pointwise conv;
    their sum is computed as a single conv over [branch A before its
    projection | branch B's input] with weights [W_project | W_b] and the
    two biases added, so the state names and tensors are those of the two
    convs while the forward makes one GEMM and no add of activations.
    """

    def __init__(self, children: list[tuple[str, Layer]]):
        self.children = children
        (_, gather_a), (_, gather_b), *inner, (_, self.project), \
            (_, self.branch_b), (_, self.post_bn) = children
        self.gathers = (gather_a, gather_b)
        self.inner = [layer for _, layer in inner]

    def sublayers(self):
        return self.children

    def forward(self, x, ctx):
        xa, xb = (gather.forward(x, ctx) for gather in self.gathers)
        for layer in self.inner:
            xa = layer.forward(xa, ctx)
        # pw_project and branch_b feed one sum: compute it as one pointwise
        # conv over both inputs, with their weights and biases joined here
        out = T.conv2d(T.concat_channels([xa, xb]),
                       T.concat_channels([self.project.weight, self.branch_b.weight]),
                       T.add(self.project.bias, self.branch_b.bias))
        return self.post_bn.forward(out, ctx)


class ResidualBlock(Layer):
    """Adds a skip path around ``body``: the identity, or the ``projection``
    layers that ``projection_layers`` lists. The sum and the ReLU after it
    (``post_relu``) run as one op, ``tensor.add(..., relu=True)``, which
    writes into the body's output when ``_body_output_is_private`` says it
    may."""

    def __init__(self, body: Layer, projection: list[tuple[str, Layer]] = (),
                 post_relu: bool = False):
        self.body = body
        self.projection = list(projection)
        self.post_relu = post_relu
        self.reuse_body_output = _body_output_is_private(body)

    def sublayers(self):
        return [("body", self.body)] + self.projection

    def forward(self, x, ctx):
        y = self.body.forward(x, ctx)
        skip = x
        for _, layer in self.projection:
            skip = layer.forward(skip, ctx)
        if y.shape[2:] != skip.shape[2:]:
            raise ValueError(
                f"residual spatial mismatch: body {y.shape[2:]} vs skip {skip.shape[2:]}")
        return T.add(y, skip, relu=self.post_relu, reuse_input=self.reuse_body_output)


def _body_output_is_private(body: Layer) -> bool:
    """Whether a residual body's output is a buffer that only the block's
    sum reads, and whose maker's backward does not: true only when the
    body's last layer is a batch norm without ReLU, whose output is always
    a fresh array. A ReLU inside the batch norm reads its output in the
    backward (``out > 0``), as does a max pool; a tap hands the output to a
    loss, and an empty body passes on its input, which the skip reads."""
    while isinstance(body, Sequential) and body.children:
        body = body.children[-1][1]
    return isinstance(body, BatchNorm2d) and not body.relu
