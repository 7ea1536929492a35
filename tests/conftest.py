"""Shared helpers: finite-difference gradient checking in float64, feature
maps stored in given memory layouts, and a ParConv block built alone."""
from __future__ import annotations

import numpy as np
import pytest

from parcnn import blocks as B
from parcnn.tensor import Tensor, numeric_gradient


def f64(array, requires_grad=True) -> Tensor:
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad)


def gradcheck(fn, tensors: list[Tensor], step: float = 1e-3) -> float:
    """Max relative error between backprop and central finite differences.

    ``fn`` rebuilds the scalar loss from the given leaf tensors; both sides
    run at the tensors' own precision (use float64 leaves for tight bounds).
    """
    for t in tensors:
        t.zero_grad()
    fn().backward()
    numeric = numeric_gradient(fn, tensors, step=step)
    worst = 0.0
    for t, num in zip(tensors, numeric):
        assert t.grad is not None, "no gradient reached a checked tensor"
        # the 1e-6 floor keeps exactly-zero gradients (e.g. biases cancelled
        # by batch-norm mean subtraction) from amplifying FD rounding noise
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-6)
        worst = max(worst, float(np.abs(t.grad - num).max() / denom))
    return worst


def _layout(array, channel_last):
    """Same values; channel_last stores them as a conv2d output is stored."""
    if channel_last:
        return array.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
    return array.copy()


_BN_LAYOUTS = ("c_order", "channel_last", "channels_first", "strided")


def _bn_layout(array, layout):
    """Same values, stored as a conv2d output is (channel_last), with the
    channel axis outermost (channels_first), in C order, or as a strided
    view that is contiguous in no axis order."""
    if layout == "channel_last":
        return _layout(array, True)
    if layout == "channels_first":
        return array.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)
    if layout == "strided":
        wide = np.zeros(array.shape[:3] + (2 * array.shape[3],), array.dtype)
        wide[..., ::2] = array
        return wide[..., ::2]
    return array.copy()


def assert_channel_last(array, what=""):
    """``array`` is stored as a conv2d output is: channel-last."""
    assert array.strides == _layout(array, True).strides, what


def parconv_block(spec: B.ParConvSpec, rng: np.random.Generator) -> B.ParConvBlock:
    """The block of ``spec``, made from its layer list as the model builder
    makes it, with its weights drawn from ``rng``."""
    block = B.ParConvBlock(B.build(B.parconv_layers(spec)))
    B.init_weights(block.params(), rng)
    return block


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
