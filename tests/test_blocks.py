"""Building blocks: shuffle, ParConv (with and without expansion), DSConv,
residual, head."""
import numpy as np
import pytest

from parcnn import blocks as B
from parcnn import cost
from parcnn import tensor as T
from parcnn.blocks import ForwardContext, ParConvSpec, shuffle_permutation
from parcnn.errors import ArchError
from parcnn.tensor import Tensor

from conftest import (_BN_LAYOUTS, _bn_layout, _layout, assert_channel_last, gradcheck,
                      parconv_block)


def _channel_tagged(channels: int) -> Tensor:
    """(1, C, 1, 1) tensor whose channel c holds the value c."""
    return Tensor(np.arange(channels, dtype=np.float32).reshape(1, channels, 1, 1))


def channel_shuffle(x: Tensor) -> Tensor:
    """The channel shuffle as ParConvBlock applies it: one gather through
    ``shuffle_permutation``."""
    return T.permute_channels(x, shuffle_permutation(x.shape[1]))


def _realized_values(block) -> int:
    """Total stored values: trainable parameters plus BN running buffers."""
    return sum(t.size for _, t in block.params()) + \
        sum(t.size for _, t in block.buffers())


def _listed_params(layers) -> int:
    """The parameter count ``cost`` sums over a layer list."""
    return cost._layer_sums(layers)[1]


class TestChannelShuffle:
    def test_four_channels_interleave(self):
        out = channel_shuffle(_channel_tagged(4))
        assert out.data.reshape(-1).tolist() == [0.0, 2.0, 1.0, 3.0]

    def test_two_channels_unchanged(self):
        out = channel_shuffle(_channel_tagged(2))
        assert out.data.reshape(-1).tolist() == [0.0, 1.0]

    def test_twice_is_identity_on_four_channels(self):
        once = channel_shuffle(_channel_tagged(4))
        twice = channel_shuffle(once)
        assert twice.data.reshape(-1).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_indivisible_channel_count_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            channel_shuffle(_channel_tagged(5))

    @pytest.mark.parametrize("channels", [4, 6, 8, 10, 16, 30])
    def test_is_permutation_and_has_finite_order(self, channels):
        perm = shuffle_permutation(channels)
        assert sorted(perm.tolist()) == list(range(channels))
        # applying the shuffle order(perm) times returns the identity
        current = perm.copy()
        order = 1
        while not np.array_equal(current, np.arange(channels)):
            current = current[perm]
            order += 1
            assert order <= channels, "permutation order exceeded the group size"
        x = _channel_tagged(channels)
        for _ in range(order):
            x = channel_shuffle(x)
        assert x.data.reshape(-1).tolist() == list(range(channels))

    def test_values_untouched(self, rng):
        x = Tensor(rng.normal(size=(2, 6, 3, 3)).astype(np.float32))
        out = channel_shuffle(x)
        perm = shuffle_permutation(6)
        for i, src in enumerate(perm):
            np.testing.assert_array_equal(out.data[:, i], x.data[:, src])


class TestShuffleSplitGather:
    """ParConvBlock shuffles and splits its input as one gather per branch;
    that must give the bytes of the whole permutation followed by two
    narrowing copies, in the outputs and in the input gradient."""

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("alpha,omega", [(0.5, 0.5), (0.25, None)])
    @pytest.mark.parametrize("channel_last", [False, True])
    def test_gathers_equal_permute_then_narrow(self, shuffle, alpha, omega,
                                               channel_last, rng):
        c = 12
        a, _, b = ParConvSpec(c, 8, omega=omega, alpha=alpha).widths()
        order = shuffle_permutation(c) if shuffle else np.arange(c)
        # halves with zeros of both signs, stored as given or as a conv's output
        values = np.round(rng.normal(size=(3, c, 5, 4)) * 2) / 2
        values = np.where(rng.random(values.shape) < 0.1, -0.0, values)
        x = _layout(values.astype(np.float32), channel_last)
        upstream = [rng.normal(size=(3, w, 5, 4)).astype(np.float32) for w in (a, b)]
        runs = []
        for gathered in (True, False):
            leaf = Tensor(x.copy(order="K"), requires_grad=True)
            if gathered:
                parts = [T.permute_channels(leaf, order[:a]),
                         T.permute_channels(leaf, order[a:])]
            else:
                whole = T.permute_channels(leaf, order)
                parts = [T.narrow_channels(whole, 0, a), T.narrow_channels(whole, a, b)]
            T.add(T.tsum(T.mul(parts[0], Tensor(upstream[0]))),
                  T.tsum(T.mul(parts[1], Tensor(upstream[1])))).backward()
            runs.append(([p.data for p in parts], leaf.grad))
        (parts, grad), (parts_ref, grad_ref) = runs
        for p, p_ref in zip(parts, parts_ref):
            assert p.shape == p_ref.shape
            assert p.tobytes() == p_ref.tobytes()
        assert grad.strides == grad_ref.strides == x.strides
        assert grad.tobytes() == grad_ref.tobytes()

    @pytest.mark.parametrize("layout", _BN_LAYOUTS)
    def test_channel_ops_write_channel_last(self, layout, rng):
        """The gather, the join and the narrowing take any input layout and
        give a channel-last output; each input gradient is the upstream
        gradient scattered back to the channels it came from."""
        x = rng.normal(size=(2, 5, 3, 4)).astype(np.float32)
        y = rng.normal(size=(2, 2, 3, 4)).astype(np.float32)
        cases = [("gather", lambda a, b: T.permute_channels(a, [4, 0, 2]),
                  [4, 0, 2]),
                 ("join", lambda a, b: T.concat_channels([a, b]), list(range(7))),
                 ("narrow", lambda a, b: T.narrow_channels(a, 1, 3), [1, 2, 3])]
        for name, op, channels in cases:
            a, b = (Tensor(_bn_layout(v, layout), requires_grad=True) for v in (x, y))
            out = op(a, b)
            assert_channel_last(out.data, name)
            joined = np.concatenate([x, y], axis=1)
            np.testing.assert_array_equal(out.data, joined[:, channels], name)
            upstream = rng.normal(size=out.shape).astype(np.float32)
            T.tsum(T.mul(out, Tensor(upstream))).backward()
            want = np.zeros_like(joined)
            want[:, channels] = upstream
            np.testing.assert_array_equal(a.grad, want[:, :5], name)
            if name == "join":
                np.testing.assert_array_equal(b.grad, want[:, 5:], name)

    @pytest.mark.parametrize("index", [[0, 0], [5], [-1], [[0, 1]]])
    def test_gather_rejects_repeated_or_missing_channels(self, index):
        with pytest.raises(ValueError, match="distinct channels"):
            T.permute_channels(_channel_tagged(4), index)

    def test_gather_rejects_an_index_for_another_channel_count(self):
        with pytest.raises(ValueError, match="expected 6 channels, got 4"):
            T.permute_channels(_channel_tagged(4), T.ChannelIndex([0, 1], 6))


class TestGatherScatterRuns:
    """A ParConv branch's gather scatters its gradient through slice runs:
    the bytes of the fancy-index scatter, for odd and even splits."""

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("channels,split", [(12, 6), (10, 5), (12, 3), (6, 1)])
    def test_runs_give_the_fancy_scatter_bytes(self, shuffle, channels, split, rng):
        from test_tensor import _rounded
        x = _layout(_rounded(rng, (3, channels, 4, 5), np.float32), True)
        for start, stop in ((0, split), (split, channels)):
            index = B.ChannelGather(channels, shuffle, start, stop).index
            want_runs = 2 if shuffle and stop - start > 1 else 1
            assert index.runs is not None and len(index.runs) == want_runs
            fancy = T.ChannelIndex(index.index, channels)
            fancy.runs = None
            upstream = _rounded(rng, (3, stop - start, 4, 5), np.float32)
            runs = []
            for idx in (index, fancy):
                leaf = Tensor(x.copy(order="K"), requires_grad=True)
                out = T.permute_channels(leaf, idx)
                T.tsum(T.mul(out, Tensor(upstream))).backward()
                runs.append((out.data, leaf.grad))
            (out, grad), (out_ref, grad_ref) = runs
            assert out.tobytes() == out_ref.tobytes()
            assert grad.strides == grad_ref.strides
            assert grad.tobytes() == grad_ref.tobytes()

    @pytest.mark.parametrize("index", [[4, 0, 2], [0, 2, 4], [3, 1, 0, 2]])
    def test_other_indices_have_no_runs(self, index):
        assert T.ChannelIndex(index, 5).runs is None


def _is_tap_major(weight: np.ndarray) -> bool:
    """Stored as (C_out, K, K, C_in) in memory."""
    return weight.transpose(0, 2, 3, 1).flags.c_contiguous


class TestConvWeightLayout:
    def test_weight_is_tap_major_with_the_seeded_values(self):
        conv = B.Conv2d(3, 5, 3)
        B.init_weights(conv.params(), np.random.default_rng(0))
        std = 1.0 / np.sqrt(3 * 3 * 3)
        expected = np.random.default_rng(0).normal(0.0, std, size=(5, 3, 3, 3))
        assert conv.weight.dtype == np.float32
        assert _is_tap_major(conv.weight.data) and not conv.weight.data.flags.c_contiguous
        assert conv.weight.data.tobytes() == expected.astype(np.float32).tobytes()

    def test_layers_are_made_zero_and_drawn_by_init_weights(self):
        layers = [B.Conv2d(3, 5, 3), B.DepthwiseConv2d(4, 3), B.Linear(6, 2)]
        params = [(f"{i}.{name}", t) for i, layer in enumerate(layers)
                  for name, t in layer.params()]
        assert [name for name, _ in params] == [
            "0.weight", "0.bias", "1.weight", "1.bias", "2.weight", "2.bias"]
        for name, t in params:
            assert t.dtype == np.float32 and not t.data.any(), name
        assert _is_tap_major(layers[0].weight.data)
        B.init_weights(params, np.random.default_rng(0))
        # one stream, drawn weight by weight in params order, each from
        # N(0, 1/fan_in); the conv's are the bytes the test above pins
        rng = np.random.default_rng(0)
        for layer, fan_in in zip(layers, [3 * 3 * 3, 3 * 3, 6]):
            expected = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=layer.weight.shape)
            assert layer.weight.data.tobytes() == expected.astype(np.float32).tobytes()
            assert not layer.bias.data.any()

    @staticmethod
    def _conv_weights(model):
        weights = [(name, t) for name, t in model.params() if t.ndim == 4]
        assert any(t.shape[2] > 1 for _, t in weights)
        return weights

    def test_stays_tap_major_after_sgd_step_load_state_and_checkpoint(self, tmp_path):
        from parcnn.arch import build_model, load_model
        from parcnn.data import make_synthetic
        from parcnn.train import train_classifier
        from parcnn.zoo import build_zoo_arch
        model = build_model(build_zoo_arch("mnist_small"), seed=1)
        before = {name: t.data.copy() for name, t in self._conv_weights(model)}
        train_classifier(model, make_synthetic(10, 2, seed=0), epochs=1, batch_size=20)
        for name, t in self._conv_weights(model):
            assert _is_tap_major(t.data), name
            assert not np.array_equal(t.data, before[name]), name
        # C-order arrays are written into the tap-major weights
        model.load_state({name: np.ascontiguousarray(t.data)
                          for name, t in model.state().items()})
        model.save(tmp_path / "m")
        for loaded in (model, load_model(tmp_path / "m")):
            for name, t in self._conv_weights(loaded):
                assert _is_tap_major(t.data), name

    def test_load_holds_the_state_once(self, tmp_path):
        """Loading a checkpoint into a model writes each array straight into
        its tensor, with the bytes and strides of a write through a cast
        copy."""
        import tracemalloc
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("res18_mini")
        build_model(arch, seed=1).save(tmp_path / "m")
        model, reference = build_model(arch, seed=2), build_model(arch, seed=2)
        state_bytes = sum(t.data.nbytes for t in model.state().values())
        tracemalloc.start()
        try:
            model.load_state(T.load_checkpoint(tmp_path / "m")[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * state_bytes, f"{peak} > 1.05 x {state_bytes}"
        saved, want = T.load_checkpoint(tmp_path / "m")[1], reference.state()
        for name, t in want.items():
            t.data[...] = saved[name].astype(t.dtype)
        for name, t in model.state().items():
            assert t.data.strides == want[name].data.strides, name
            assert t.data.tobytes() == want[name].data.tobytes(), name
        for name, t in self._conv_weights(model):
            assert _is_tap_major(t.data), name

    def test_checkpoint_bytes_equal_those_of_c_order_weights(self, tmp_path):
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        model = build_model(build_zoo_arch("mnist_small"), seed=1)
        model.save(tmp_path / "tap_major")
        T.save_checkpoint(tmp_path / "c_order",
                          {name: np.ascontiguousarray(t.data)
                           for name, t in model.state().items()},
                          extra={"arch": model.arch.to_obj()})
        assert (tmp_path / "tap_major.ckpt").read_bytes() == \
            (tmp_path / "c_order.ckpt").read_bytes()


class TestConvGeometry:
    @pytest.mark.parametrize("channels,kernel,stride,padding", [
        (0, 3, 1, 1), (4, 0, 1, 0), (4, 3, 0, 1), (4, 3, 1, -1), (-2, 3, 1, 1)])
    def test_invalid_conv_geometry_rejected(self, channels, kernel, stride, padding):
        with pytest.raises(ValueError, match="invalid convolution geometry"):
            B.Conv2d(channels, 4, kernel, stride, padding)

    @pytest.mark.parametrize("channels,kernel", [(0, 3), (4, 0), (-2, 3)])
    def test_invalid_depthwise_geometry_rejected(self, channels, kernel):
        with pytest.raises(ValueError, match="invalid convolution geometry"):
            B.DepthwiseConv2d(channels, kernel)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_depthwise_keeps_spatial_size(self, kernel, rng):
        # stride 1 and padding (K-1)/2 are fixed, and the bias is always held
        layer = B.DepthwiseConv2d(4, kernel)
        assert [name for name, _ in layer.params()] == ["weight", "bias"]
        x = Tensor(rng.normal(size=(2, 4, 7, 6)).astype(np.float32))
        assert layer.forward(x, ForwardContext(training=True)).shape == (2, 4, 7, 6)


class TestParConvWidths:
    def test_even_split(self):
        assert B.parconv_widths(200, 0.5, 0.5) == (100, 50, 100)

    def test_odd_split_uses_floor(self):
        a, e, b = B.parconv_widths(101, 0.5, 0.5)
        assert (a, b) == (50, 51)

    def test_expanded_width_minimum_one(self):
        assert B.parconv_widths(4, 0.5, 0.1)[1] == 1


class TestParConvBlock:
    def test_shape_preservation(self, rng):
        spec = ParConvSpec(in_channels=100, out_channels=100, omega=0.5)
        block = parconv_block(spec, rng)
        x = Tensor(rng.normal(size=(2, 100, 7, 7)).astype(np.float32))
        out = block.forward(x, ForwardContext(training=True))
        assert out.shape == (2, 100, 7, 7)

    def test_output_channels_change(self, rng):
        spec = ParConvSpec(in_channels=16, out_channels=24, omega=1.0)
        block = parconv_block(spec, rng)
        x = Tensor(rng.normal(size=(1, 16, 5, 5)).astype(np.float32))
        out = block.forward(x, ForwardContext(training=True))
        assert out.shape == (1, 24, 5, 5)

    def test_realized_parameter_count_matches_cost_model(self, rng):
        for c_in, c_out, omega in [(16, 24, 0.5), (32, 32, 1.0), (100, 300, 2.0)]:
            spec = ParConvSpec(in_channels=c_in, out_channels=c_out, omega=omega)
            block = parconv_block(spec, rng)
            expected = _listed_params(B.parconv_layers(spec))
            assert _realized_values(block) == expected

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ParConvSpec(in_channels=100, out_channels=100, omega=0.0)
        with pytest.raises(ValueError):
            ParConvSpec(in_channels=100, out_channels=100, omega=0.5, alpha=1.0)
        with pytest.raises(ValueError):
            ParConvSpec(in_channels=1, out_channels=4, omega=0.5)
        # omega * alpha * C_in overflows to inf: a ValueError, not an
        # OverflowError from flooring it
        with pytest.raises(ValueError, match="expanded width .* is not finite"):
            ParConvSpec(in_channels=16, out_channels=16, omega=1e308)

    def test_gradient_matches_finite_differences(self):
        # 1x8x6x6 input, loss = sum of outputs, central differences step 1e-3.
        # Seed picked so no pre-activation sits within the FD step of a ReLU
        # kink (finite differences are meaningless across a kink).
        rng = np.random.default_rng(3)
        spec = ParConvSpec(in_channels=8, out_channels=8, omega=0.5)
        block = parconv_block(spec, rng)
        leaves = []
        for _, p in block.params():
            p.data = p.data.astype(np.float64)
            leaves.append(p)
        for _, buf in block.buffers():
            buf.data = buf.data.astype(np.float64)
        x = Tensor(rng.normal(size=(1, 8, 6, 6)), requires_grad=True,
                   dtype=np.float64)
        leaves.append(x)
        fn = lambda: T.tsum(block.forward(x, ForwardContext(training=True)))
        assert gradcheck(fn, leaves, step=1e-3) < 1e-4


class TestSParConv:
    def test_quarter_split(self):
        assert B.parconv_widths(100, 0.25, None) == (25, 25, 75)

    def test_shape_preserved(self, rng):
        block = parconv_block(ParConvSpec(16, 16, omega=None, alpha=0.25), rng)
        x = Tensor(rng.normal(size=(2, 16, 5, 5)).astype(np.float32))
        out = block.forward(x, ForwardContext(training=True))
        assert out.shape == (2, 16, 5, 5)

    def test_flops_relation_to_parconv_at_same_geometry(self):
        # closed-form oracle: for C_in = C_out = 300, K = 3 the simplified
        # block spends more than ParConv(omega=0.5) because its pointwise
        # branch carries 3/4 of the channels
        d = 22
        spar = cost.parconv_flops_realized(d, d, 300, 300, 3, omega=None, alpha=0.25)
        par = cost.parconv_flops_realized(d, d, 300, 300, 3, omega=0.5)
        assert spar == d * d * (9 * 75 + 300 * 300)
        assert par == d * d * (150 * 75 + 75 * 9 + 75 * 300 + 150 * 300)
        assert spar > par

    def test_realized_parameter_count_matches_cost_model(self, rng):
        spec = ParConvSpec(32, 48, omega=None, alpha=0.25)
        block = parconv_block(spec, rng)
        assert _realized_values(block) == _listed_params(B.parconv_layers(spec))


class TestDSConv:
    def test_flops_closed_form(self):
        assert cost.dsconv_flops(22, 22, 200, 300, 3) == 29_911_200

    def test_table_ratio(self):
        assert cost.ratio_to_standard("dsconv", 3, 300, 300) == \
            pytest.approx(1 / 300 + 1 / 9, rel=1e-12)

    def test_identity_weights_reproduce_input(self, rng):
        block = B.Sequential(B.build(B.dsconv_layers(3, 3, 3)))
        # identity depthwise kernels and identity pointwise weights
        dw = dict(block.params())["dw.weight"]
        dw.data[...] = 0.0
        dw.data[:, 1, 1] = 1.0
        pw = dict(block.params())["pw.weight"]
        pw.data[...] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        for name, p in block.params():
            if name.endswith("bias") or name.endswith("shift"):
                p.data[...] = 0.0
            if name.endswith("scale"):
                p.data[...] = 1.0
        x = Tensor(np.abs(rng.normal(size=(1, 3, 4, 4))).astype(np.float32) + 0.1)
        out = block.forward(x, ForwardContext(training=False))  # BN uses (0, 1)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-4)

    def test_realized_parameter_count_matches_cost_model(self):
        layers = B.dsconv_layers(20, 30, 3)
        block = B.Sequential(B.build(layers))
        assert _realized_values(block) == _listed_params(layers)


class TestResidual:
    def test_zero_body_is_identity_when_channels_match(self, rng):
        class Zero(B.Layer):
            def forward(self, x, ctx):
                return T.mul(x, Tensor(np.asarray(0.0, np.float32)))

        assert B.projection_layers(8, 8, 1) == []
        block = B.ResidualBlock(Zero())
        x = Tensor(rng.normal(size=(2, 8, 5, 5)).astype(np.float32))
        out = block.forward(x, ForwardContext())
        np.testing.assert_array_equal(out.data, x.data)

    def test_projection_flops(self):
        # pointwise projection for a 200 -> 300 block at 22x22
        assert cost.conv_flops(22, 22, 200, 300, 1) == 29_040_000

    def test_spatial_mismatch_raises(self, rng):
        class Shrink(B.Layer):
            def forward(self, x, ctx):
                return T.max_pool2d(x, 2, 2)

        block = B.ResidualBlock(Shrink())
        x = Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32))
        with pytest.raises(ValueError, match="spatial mismatch"):
            block.forward(x, ForwardContext())

    def test_projection_used_when_channels_differ(self, rng):
        inner = parconv_block(ParConvSpec(8, 12, omega=0.5), rng)
        block = B.ResidualBlock(inner, B.build(B.projection_layers(8, 12, 1)))
        x = Tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        out = block.forward(x, ForwardContext(training=True))
        assert out.shape == (1, 12, 5, 5)
        assert block.projection


def _residual_blocks(layer):
    """Every ResidualBlock under ``layer``, depth first."""
    own = [layer] if isinstance(layer, B.ResidualBlock) else []
    return own + [r for _, child in layer.sublayers() for r in _residual_blocks(child)]


class TestResidualTailReusesOnlyPrivateOutputs:
    """A residual tail writes its sum into the body's output only when that
    output is a batch norm's without ReLU: fresh, read by the tail alone,
    and not read by its maker's backward."""

    @pytest.mark.parametrize("name,reused", [("res18_mini", True),
                                             ("parres18_mini", False)])
    def test_zoo_backbones(self, name, reused):
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        blocks = _residual_blocks(build_model(build_zoo_arch(name), seed=0).root)
        assert len(blocks) == 8
        assert all(block.reuse_body_output == reused for block in blocks)

    @pytest.mark.parametrize("last,reused", [
        (B.BatchNorm2d(4), True), (B.BatchNorm2d(4, reuse_input=True), True),
        (B.BatchNorm2d(4, relu=True), False), (B.MaxPool2d(3, 1, 1), False),
        (B.Tap("t"), False), (B.ReLU(), False), (None, False)])
    def test_body_whose_last_layer_is(self, last, reused):
        """``None``: the body ends in its conv. The body may nest its last
        layer in a sequence, as a ``conv`` entry does; an empty body passes
        on the input that the skip reads."""
        children = [("conv", B.Conv2d(4, 4, 3, padding=1))]
        if last is not None:
            children.append(("last", last))
        for body in (B.Sequential(children),
                     B.Sequential([("inner", B.Sequential(children))])):
            assert B.ResidualBlock(body).reuse_body_output == reused
        assert B.ResidualBlock(B.Sequential([])).reuse_body_output is False

    def test_res18_step_same_bytes_and_holds_no_tail_buffer(self):
        """Written in place, the 8 tails of a res18_mini step at batch 8
        hold none of their own buffers (5.9 MiB) after the forward."""
        import tracemalloc
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        x = np.random.default_rng(5).normal(size=(8, 1, 28, 28)).astype(np.float32)
        runs = []
        for reuse in (True, False):
            model = build_model(build_zoo_arch("res18_mini"), seed=3)
            for block in _residual_blocks(model.root):
                block.reuse_body_output = reuse
            tracemalloc.start()
            try:
                loss = T.tsum(T.square(model.forward(x, training=True)))
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            loss.backward()
            runs.append((held, [loss.data] + [t.grad for _, t in model.params()]
                         + [t.data for _, t in model.buffers()]))
        (held, values), (held_off, values_off) = runs
        for a, b in zip(values, values_off):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        tail_bytes = sum(2 * 8 * c * h * h * 4
                         for c, h in [(64, 28), (128, 14), (256, 7), (512, 4)])
        assert held_off - held >= 0.99 * tail_bytes


def _batch_norms(layer):
    """Every BatchNorm2d under ``layer``, depth first."""
    if isinstance(layer, B.BatchNorm2d):
        return [layer]
    return [bn for _, child in layer.sublayers() for bn in _batch_norms(child)]


class TestBatchNormReusesOnlyPrivateInputs:
    """A batch norm that directly follows its own conv or depthwise conv
    normalises in that conv's output buffer; a standalone ``batchnorm``
    entry, whose input another layer may still read, does not."""

    def test_tapped_input_of_a_standalone_batchnorm_is_kept(self, rng):
        from parcnn.arch import ArchSpec, build_model
        arch = ArchSpec(1, 8, 8, [
            {"type": "conv", "name": "conv", "out_channels": 4, "kernel": 3,
             "bn": False, "relu": False},
            {"type": "tap", "name": "t"},
            {"type": "batchnorm", "name": "bn"},
            {"type": "flatten"},
            {"type": "linear", "name": "fc", "out_features": 3}])
        model = build_model(arch, seed=0)
        conv = model.root.children[0][1]
        x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        for training in (True, False):
            taps = {}
            model.forward(x, training=training, taps=taps)
            expected = conv.forward(Tensor(x), ForwardContext(training=training))
            assert taps["t"].data.tobytes() == expected.data.tobytes()
        assert [bn.reuse_input for bn in _batch_norms(model.root)] == [False]

    @pytest.mark.parametrize("name", ["res18_mini", "parres18_mini", "student"])
    def test_every_block_batch_norm_reuses_its_conv_output(self, name):
        from parcnn.arch import build_model
        from parcnn.transform import DistillPolicy, distill_architecture
        from parcnn.zoo import build_zoo_arch
        arch = build_zoo_arch("mnist_small" if name == "student" else name)
        if name == "student":
            arch = distill_architecture(arch, DistillPolicy())
        norms = _batch_norms(build_model(arch, seed=0).root)
        assert norms and all(bn.reuse_input for bn in norms)

    @staticmethod
    def _step_peak(reuse_input):
        """One res18_mini training step at batch 8: its tracemalloc peak,
        the loss and every gradient and running statistic."""
        import tracemalloc
        from parcnn.arch import build_model
        from parcnn.zoo import build_zoo_arch
        model = build_model(build_zoo_arch("res18_mini"), seed=3)
        for bn in _batch_norms(model.root):
            bn.reuse_input = reuse_input
        x = np.random.default_rng(5).normal(size=(8, 1, 28, 28)).astype(np.float32)
        tracemalloc.start()
        try:
            loss = T.tsum(T.square(model.forward(x, training=True)))
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, [loss.data] + [t.grad for _, t in model.params()] + \
            [t.data for _, t in model.buffers()]

    def test_training_step_same_bytes_and_lower_peak(self):
        peak, values = self._step_peak(True)
        peak_off, values_off = self._step_peak(False)
        assert len(values) == len(values_off)
        for a, b in zip(values, values_off):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert peak <= 0.9 * peak_off, f"{peak / 2**20:.1f} vs {peak_off / 2**20:.1f} MiB"


class TestBottleneckHead:
    @staticmethod
    def _head(feature_dim, bottleneck_dim, output_dim):
        from parcnn.arch import ArchSpec
        return ArchSpec(feature_dim, 1, 1, [
            {"type": "flatten"},
            {"type": "bottleneck_head", "name": "head", "bottleneck_dim": bottleneck_dim,
             "out_features": output_dim}])

    def test_zero_bottleneck_rejected(self):
        with pytest.raises(ArchError, match="bottleneck dimension must be >= 1"):
            self._head(700, 0, 22080).validate()

    def test_forward_shape(self, rng):
        from parcnn.arch import build_model
        head = dict(build_model(self._head(12, 4, 7), seed=0).root.children)["head"]
        x = Tensor(rng.normal(size=(3, 12)).astype(np.float32))
        assert head.forward(x, ForwardContext()).shape == (3, 7)


class TestCompactVsStandardFlops:
    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("channels", [8, 64, 300, 512])
    def test_parconv_cheaper_than_standard_for_small_omega(self, omega, channels):
        d, k = 10, 3
        par = cost.parconv_flops_realized(d, d, channels, channels, k, omega)
        std = cost.conv_flops(d, d, channels, channels, k)
        assert par < std

    def test_parconv_flops_monotonic_in_omega(self):
        values = [cost.parconv_flops_realized(22, 22, 200, 300, 3, w)
                  for w in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values) and len(set(values)) == len(values)
