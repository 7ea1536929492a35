"""Architecture transformation: bottleneck step, conv replacement, selectors."""
import dataclasses
import itertools

import numpy as np
import pytest

from parcnn import cost, transform, zoo
from parcnn.arch import ArchSpec, build_model
from parcnn.blocks import ParConvSpec
from parcnn.errors import ArchError
from parcnn.transform import DistillPolicy, apply_bottleneck, distill_architecture

from test_arch import count_walks


def _layer_types(arch: ArchSpec) -> list[str]:
    return [e["type"] for e in arch.layers]


class TestApplyBottleneck:
    def test_resizes_two_linear_head(self):
        arch = apply_bottleneck(zoo.build_zoo_arch("dcnn_table2"), 50)
        fc1 = [e for e in arch.layers if e.get("name") == "fc1"][0]
        assert fc1["out_features"] == 50

    def test_same_dimension_is_identity(self):
        base = zoo.build_zoo_arch("dcnn_table2")
        arch = apply_bottleneck(base, 500)
        assert arch.to_obj() == base.to_obj()

    def test_single_linear_gets_bottleneck_head(self):
        arch = apply_bottleneck(zoo.build_zoo_arch("res18_mini"), 32)
        head = arch.layers[-1]
        assert head["type"] == "bottleneck_head"
        assert head["bottleneck_dim"] == 32 and head["out_features"] == 10

    def test_no_linear_head_rejected(self):
        arch = ArchSpec(1, 8, 8, [
            {"type": "conv", "out_channels": 4, "kernel": 3, "padding": 1}])
        with pytest.raises(ArchError, match="no linear head"):
            apply_bottleneck(arch, 10)

    def test_resizes_existing_bottleneck_head(self):
        arch = apply_bottleneck(zoo.build_zoo_arch("res18_mini"), 32)
        again = apply_bottleneck(arch, 16)
        assert again.layers[-1]["bottleneck_dim"] == 16


class TestDistillArchitecture:
    def test_default_policy_replaces_twelve_dcnn_layers(self):
        result = transform.transform_with_report(
            zoo.build_zoo_arch("dcnn_table2"), DistillPolicy())
        assert result.replaced == 12
        kinds = _layer_types(result.arch)
        assert kinds.count("parconv") == 12
        assert kinds.count("conv") == 2          # first and last stay standard

    def test_first_and_one_by_one_convs_kept(self):
        compact = distill_architecture(zoo.build_zoo_arch("dcnn_table2"),
                                       DistillPolicy())
        names = {e.get("name"): e["type"] for e in compact.layers}
        assert names["conv1"] == "conv"
        assert names["conv5"] == "conv"
        assert names["conv2_1"] == "parconv"

    def test_low_gamma_leaves_head_unchanged(self):
        # res18_mini head is tiny: gamma ~0.05%, far below the threshold
        base = zoo.build_zoo_arch("res18_mini")
        result = transform.transform_with_report(
            base, DistillPolicy(replace_selector="residual_body"))
        assert not result.head_changed
        assert result.arch.layers[-1] == base.layers[-1]

    def test_logit_and_tap_shapes_preserved(self, rng):
        teacher_arch = zoo.build_zoo_arch("mnist_small")
        student_arch = distill_architecture(teacher_arch, DistillPolicy())
        assert teacher_arch.tap_shapes().keys() == student_arch.tap_shapes().keys()
        for name, shape in teacher_arch.tap_shapes().items():
            assert student_arch.tap_shapes()[name][1:] == shape[1:], name
        teacher = build_model(teacher_arch, seed=0)
        student = build_model(student_arch, seed=1)
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        assert teacher.forward(x).shape == student.forward(x).shape

    def test_idempotent_on_already_compact_arch(self):
        policy = DistillPolicy()
        once = distill_architecture(zoo.build_zoo_arch("dcnn_table2"), policy)
        twice = distill_architecture(once, policy)
        assert twice.to_obj() == once.to_obj()

    def test_zero_match_selector_on_plain_arch_rejected(self):
        arch = ArchSpec(1, 12, 12, [
            {"type": "conv", "name": "first", "out_channels": 4, "kernel": 3,
             "padding": 1},
            {"type": "conv", "name": "last", "out_channels": 4, "kernel": 1},
            {"type": "flatten"},
            {"type": "linear", "out_features": 10},
        ])
        with pytest.raises(ArchError, match="matched no replaceable"):
            distill_architecture(arch, DistillPolicy(threshold=0.99))

    def test_even_kernel_conv_not_replaceable(self):
        # a 4x4 pad-1 conv shrinks 12x12 to 11x11: not shape-preserving
        arch = ArchSpec(2, 12, 12, [
            {"type": "conv", "name": "odd", "out_channels": 4, "kernel": 3,
             "padding": 1},
            {"type": "conv", "name": "even", "out_channels": 4, "kernel": 4,
             "padding": 1},
            {"type": "flatten"},
            {"type": "linear", "out_features": 10},
        ])
        compact = distill_architecture(
            arch, DistillPolicy(threshold=0.99, replace_selector="all"))
        assert _layer_types(compact)[:2] == ["parconv", "conv"]
        with pytest.raises(ArchError, match="'even' cannot be replaced"):
            distill_architecture(arch, DistillPolicy(threshold=0.99,
                                                     replace_selector="even"))

    @pytest.mark.parametrize("variant,replaced,stem", [
        ("parconv", 16, "conv"), ("sparconv", 16, "conv"), ("dsconv", 17, "dsconv")])
    def test_all_selector_skips_a_stem_its_block_cannot_take(self, variant, replaced,
                                                             stem):
        # the stem sees the 1-channel input, which no two-branch split fits;
        # a depthwise-separable block takes any channel count
        result = transform.transform_with_report(
            zoo.build_zoo_arch("res18_mini"),
            DistillPolicy(variant=variant, replace_selector="all"))
        assert result.replaced == replaced
        assert result.arch.layers[0]["name"] == "stem"
        assert result.arch.layers[0]["type"] == stem

    @pytest.mark.parametrize("channels,reason", [
        (1, "degenerate branch split 0/1 for alpha=0.5"),
        (3, "channel shuffle needs an even channel count, have 3"),
    ])
    def test_named_conv_its_block_cannot_take_rejected(self, channels, reason):
        arch = ArchSpec(channels, 8, 8, [
            {"type": "conv", "name": "first", "out_channels": 4, "kernel": 3,
             "padding": 1},
            {"type": "flatten"},
            {"type": "linear", "out_features": 10},
        ])
        with pytest.raises(ArchError) as info:
            distill_architecture(arch, DistillPolicy(threshold=0.99,
                                                     replace_selector="first"))
        assert str(info.value) == \
            f"layer 'first' cannot be replaced by a parconv block: {reason}"

    def test_unnamed_layers_keep_their_derived_names(self):
        arch = ArchSpec(2, 8, 8, [
            {"type": "conv", "out_channels": 4, "kernel": 3, "padding": 1},
            {"type": "flatten"},
            {"type": "linear", "out_features": 10},
        ])
        compact = distill_architecture(arch, DistillPolicy(replace_selector="all"))
        assert compact.layers[0] == {"type": "parconv", "out_channels": 4, "kernel": 3,
                                     "omega": 0.5, "name": "conv0"}
        assert compact.layers[2]["type"] == "bottleneck_head"
        assert compact.layers[2]["name"] == "linear2"

    def test_unknown_selector_names_rejected(self):
        with pytest.raises(ArchError, match="not found"):
            distill_architecture(zoo.build_zoo_arch("dcnn_table2"),
                                 DistillPolicy(replace_selector="no_such_layer"))

    def test_explicit_name_selector(self):
        compact = distill_architecture(
            zoo.build_zoo_arch("dcnn_table2"),
            DistillPolicy(replace_selector="conv2_1,conv2_2"))
        names = {e.get("name"): e["type"] for e in compact.layers}
        assert names["conv2_1"] == "parconv"
        assert names["conv2_3"] == "conv"

    def test_variant_selection(self):
        for variant in ("dsconv", "sparconv"):
            compact = distill_architecture(zoo.build_zoo_arch("dcnn_table2"),
                                           DistillPolicy(variant=variant))
            assert _layer_types(compact).count(variant) == 12

    def test_residual_wrapping(self):
        compact = distill_architecture(zoo.build_zoo_arch("dcnn_table2"),
                                       DistillPolicy(residual=True))
        residuals = [e for e in compact.layers if e["type"] == "residual"]
        assert len(residuals) == 12
        assert all(e["body"][0]["type"] == "parconv" for e in residuals)

    def test_stride_two_conv_becomes_pool_plus_block(self):
        compact = distill_architecture(
            zoo.build_zoo_arch("res18_mini"),
            DistillPolicy(replace_selector="residual_body"))
        # every residual body that used a strided conv now opens with a pool
        for entry in compact.layers:
            if entry.get("type") != "residual":
                continue
            kinds = [e["type"] for e in entry["body"]]
            assert "conv" not in kinds
            assert kinds.count("parconv") == 2
        report = cost.analyze(compact)
        base = cost.analyze(zoo.build_zoo_arch("res18_mini"))
        assert base.total_flops / report.total_flops > 8

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DistillPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            DistillPolicy(omega=0.0)
        with pytest.raises(ValueError):
            DistillPolicy(variant="octave")

    @pytest.mark.parametrize("omega", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match=f"^omega must be finite, got {omega}$"):
            DistillPolicy(omega=omega)

    @pytest.mark.parametrize("threshold", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("dim", [1, 25, 50, 100, 500])
    @pytest.mark.parametrize("name", ["dcnn_table2", "mnist_small", "res18_mini"])
    def test_gamma_report(self, name, dim, threshold):
        # exact: the golden digest prints gamma_after_head to 2 decimals only,
        # and test_cost pins both gammas of dcnn_table2 at dim 50
        source = zoo.build_zoo_arch(name)
        result = transform.transform_with_report(
            source, DistillPolicy(threshold=threshold, bottleneck_dim=dim,
                                  replace_selector="all"))
        assert result.gamma_before == cost.gamma(source)
        assert result.head_changed == (result.gamma_before > threshold)
        after = apply_bottleneck(source, dim) if result.head_changed else source
        assert result.gamma_after_head == cost.gamma(after)


class TestValidateCount:
    """A validated spec keeps its trace: a transform of one walks only the
    spec it makes, and a static cost analysis of one walks none."""

    @pytest.mark.parametrize("name,selector,head_changed,walks", [
        ("dcnn_table2", "interior", True, 1), ("res18_mini", "residual_body", False, 1)])
    def test_transform_walks_only_the_specs_it_makes(self, monkeypatch, name, selector,
                                                     head_changed, walks):
        arch = zoo.build_zoo_arch(name)
        arch.validate()
        walked = count_walks(monkeypatch)
        result = transform.transform_with_report(
            arch, DistillPolicy(replace_selector=selector))
        assert result.head_changed == head_changed and result.replaced > 0
        # the result alone, whether or not the head changes
        assert len(walked) == walks and walked[-1] is result.arch
        assert all(spec is not arch for spec in walked)

    def test_analyze_after_validate_walks_nothing(self, monkeypatch):
        arch = zoo.build_zoo_arch("dcnn_table2")
        walked = count_walks(monkeypatch)
        arch.validate()
        cost.analyze(arch)
        assert walked == [arch]


# the selectors the static-cost benchmark grid runs on each architecture
STATIC_COST_SELECTORS = {"dcnn_table2": ("interior", "all"),
                         "mnist_small": ("interior", "all"),
                         "res18_mini": ("interior", "residual_body")}


class TestComputedOnce:
    """A sealed spec's trace entries keep their cost sums, and blocks of one
    geometry share one frozen ParConvSpec."""

    @pytest.mark.parametrize("name,variant,residual,selector", [
        (name, variant, residual, selector)
        for name, selectors in STATIC_COST_SELECTORS.items()
        for variant, residual, selector in itertools.product(
            transform.VARIANTS, (False, True), selectors)])
    def test_kept_sums_equal_fresh_ones(self, name, variant, residual, selector):
        result = transform.transform_with_report(
            zoo.build_zoo_arch(name),
            DistillPolicy(variant=variant, residual=residual, replace_selector=selector))
        kept = cost.analyze(result.arch)
        # the same entries read into a new spec, whose trace keeps no sums yet
        fresh_arch = ArchSpec.from_obj(result.arch.to_obj())
        fresh = cost.analyze(fresh_arch)
        assert kept.layers == fresh.layers
        assert cost.render_text(kept) == cost.render_text(fresh)
        assert cost.render_csv(kept) == cost.render_csv(fresh)
        assert cost.gamma(result.arch) == cost.gamma(fresh_arch)

    def test_second_analyze_and_gamma_sum_no_layers(self, monkeypatch):
        # residual bodies of ParConv blocks: sums kept for nested entries too
        arch = transform.transform_with_report(
            zoo.build_zoo_arch("res18_mini"),
            DistillPolicy(residual=True, replace_selector="residual_body")).arch
        cost._param_split(arch.validate())
        calls = []
        layer_sums = cost._layer_sums
        monkeypatch.setattr(cost, "_layer_sums",
                            lambda layers: calls.append(None) or layer_sums(layers))
        for _ in range(2):
            cost.analyze(arch)
            cost.gamma(arch)
        assert calls == []

    def test_second_identical_transform_constructs_no_spec(self, monkeypatch):
        transform.transform_with_report(zoo.build_zoo_arch("dcnn_table2"),
                                        DistillPolicy())
        made = []
        init = ParConvSpec.__init__

        def counted(spec, *args, **kwargs):
            made.append(None)
            init(spec, *args, **kwargs)
        monkeypatch.setattr(ParConvSpec, "__init__", counted)
        result = transform.transform_with_report(zoo.build_zoo_arch("dcnn_table2"),
                                                 DistillPolicy())
        assert result.replaced == 12 and made == []

    def test_spec_fields_cannot_be_assigned(self):
        spec = ParConvSpec(8, 8, omega=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.omega = 1.0
