"""Built models: pinned seed-0 state, checkpoint round trips, parameter
counts against the cost analyzer, repeated state names, and entry
validation."""
import hashlib
import json

import numpy as np
import pytest

from parcnn import arch as A
from parcnn import blocks as B
from parcnn import cost, transform, zoo
from parcnn import tensor as T
from parcnn.arch import ArchSpec, Model, build_model, layers_of, load_model
from parcnn.errors import ArchError

# every zoo arch, then each variant x residual transform of mnist_small
ARCHS = [(name, None, False) for name in zoo.ZOO_NAMES] + [
    ("mnist_small", variant, residual)
    for variant in transform.VARIANTS for residual in (False, True)]
ARCH_IDS = [name if variant is None else
            f"{name}-{variant}-{'residual' if residual else 'plain'}"
            for name, variant, residual in ARCHS]

# seed-0 state of each arch: (tensor count, sha256 of the newline-joined
# ordered state names, sha256 of the concatenated tensor bytes in that order)
SEED0_STATE = {
    "dcnn_table2": (
        88, "cfef21d4dd89a34037ab45330e44ce785c20bbf6665347d08d48255e73ecc805",
        "156526c69575e965258fc9234d2d7ca74da09fd9ac204d9ce7067dedeaa4236e"),
    "mnist_small": (
        40, "2f9b3186b9950189edfeaa1803009b745de817001c14379a9dc93abc6b014d25",
        "a1f06c0ed40dc40be42ec96eb180a7972b76090ba2e0f3d5175e3540b7d523a6"),
    "res18_mini": (
        122, "e5af49a6cdf497513201748daab029311abdd72b8685f62db2d6329deb976669",
        "ad2d6c43183f77341558fd4e1b979cc940c7fc5a1f06bcf7111a5812d57435e6"),
    "parres18_mini": (
        346, "466967f3ef7e4575d01c252791c6c503ef9a496731624b379cf2a3a64407763f",
        "aea3fb25c84a7ed0e1f868b66acbe7fbdddebb05ecf2d5a4e90eb45355dd7200"),
    "mnist_small-parconv-plain": (
        96, "ce632c0b86dd77cbfa944f15638f59585956b9c31ad49a7a1de8a3051c6adc49",
        "de597eadaaade0694dce608a0b76103a8d3d69537bcd1edd5a729a27dc272d0a"),
    "mnist_small-parconv-residual": (
        108, "e40b7f8695a532f00cf796efd6bac55fc2a884b5f0934640950668b951fbeaa9",
        "c7587e2db90fc14a1d0d223283733d9645ab7ad938ec13ede6f4b902c927ee09"),
    "mnist_small-sparconv-plain": (
        72, "a7f2e6048854fe5440408e0c4c959067d9587da2ece7131c5d1f7ccefaca6786",
        "ca84081d917d69df7c314802f258bdbb968900038e60dabf6d504381e186453a"),
    "mnist_small-sparconv-residual": (
        84, "c02a14a799e97aa3d6137629fd523defe73db085c9ad12284b9bffaaa657f60e",
        "8e4f1a46cc26d57760d2b2c2269124c09137c4477248cba36c4d6c8e35b69203"),
    "mnist_small-dsconv-plain": (
        64, "71c5067ef3a262bcc3e695785d29f4a16e7f9362f63c082b5458f5dea8b0079f",
        "48ca80432b27719546212b26e156f1a9bcbcc6317eb9fd9457f7f98271ebceae"),
    "mnist_small-dsconv-residual": (
        76, "f18aad17ce79a397ccfd09db42436309e1c4b9b9648a473c11328ef70843dfd4",
        "b17c85a38292c5189b88dfd915d5b21da3faa4df42a310be126ec156b02a966b"),
}


def _arch(name, variant, residual) -> ArchSpec:
    arch = zoo.build_zoo_arch(name)
    if variant is None:
        return arch
    return transform.distill_architecture(
        arch, transform.DistillPolicy(variant=variant, residual=residual))


@pytest.mark.parametrize("arch_id", ARCH_IDS)
def test_seed0_state_is_pinned(arch_id):
    # catches a renamed, reordered or re-drawn tensor, which a round trip
    # of a model against itself cannot see
    model = build_model(_arch(*ARCHS[ARCH_IDS.index(arch_id)]), seed=0)
    items = model.params() + model.buffers()
    names = hashlib.sha256("\n".join(n for n, _ in items).encode()).hexdigest()
    data = hashlib.sha256()
    for _, t in items:
        data.update(t.data.tobytes())
    assert (len(items), names, data.hexdigest()) == SEED0_STATE[arch_id]


@pytest.mark.parametrize("name,variant,residual", ARCHS, ids=ARCH_IDS)
def test_checkpoint_round_trip_is_byte_exact(name, variant, residual, tmp_path):
    arch = _arch(name, variant, residual)
    model = build_model(arch, seed=0)
    rng = np.random.default_rng(7)
    # distinct values away from the seed-0 initialization; scales and
    # running variances stay positive
    for _, t in model.params() + model.buffers():
        u = rng.random(t.shape, dtype=np.float32)
        t.data[...] = t.data * (0.5 + u) + 0.01 * (u - 0.5)
    shape = (2, arch.in_channels, arch.in_height, arch.in_width)
    x = np.random.default_rng(1).normal(size=shape).astype(np.float32)
    logits = model.forward(x).data
    model.save(tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    want = model.params() + model.buffers()
    got = loaded.params() + loaded.buffers()
    assert [n for n, _ in got] == [n for n, _ in want]
    for (n, g), (_, w) in zip(got, want):
        assert g.data.tobytes() == w.data.tobytes(), n
    assert loaded.forward(x).data.tobytes() == logits.tobytes()


@pytest.mark.parametrize("arch_id", ["res18_mini", "mnist_small-parconv-plain"])
def test_load_model_draws_no_weight(arch_id, tmp_path, monkeypatch):
    model = build_model(_arch(*ARCHS[ARCH_IDS.index(arch_id)]), seed=1)
    model.save(tmp_path / "model")

    def no_draw(*args, **kwargs):
        raise AssertionError("load_model drew initial weights")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_model(tmp_path / "model")
    want = model.params() + model.buffers()
    got = loaded.params() + loaded.buffers()
    assert [n for n, _ in got] == [n for n, _ in want]
    for (n, g), (_, w) in zip(got, want):
        assert g.data.tobytes() == w.data.tobytes(), n


def test_load_model_opens_the_checkpoint_once(tmp_path, monkeypatch):
    import builtins
    build_model(zoo.build_zoo_arch("mnist_small"), seed=1).save(tmp_path / "model")
    real, opened = builtins.open, []

    def counting(file, *args, **kwargs):
        if str(file).endswith(".ckpt"):
            opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    load_model(tmp_path / "model")
    assert opened == [tmp_path / "model.ckpt"]


def test_load_model_rejects_a_checkpoint_without_an_architecture(tmp_path):
    model = build_model(zoo.build_zoo_arch("mnist_small"), seed=1)
    T.save_checkpoint(tmp_path / "bare", model.state())
    with pytest.raises(ArchError, match="carries no architecture description"):
        load_model(tmp_path / "bare")


@pytest.mark.parametrize("name,variant,residual", ARCHS, ids=ARCH_IDS)
def test_analyzed_params_equal_built_layer_sizes(name, variant, residual):
    arch = _arch(name, variant, residual)
    layers = dict(build_model(arch, seed=0).root.children)
    rows = [row for row in cost.analyze(arch).layers if row.kind != "input"]
    for row in rows:
        built = layers[row.name].params() + layers[row.name].buffers()
        assert row.params == sum(t.size for _, t in built), row.name
    # the layers the report leaves out hold no state
    reported = {row.name for row in rows}
    for layer_name, layer in layers.items():
        if layer_name not in reported:
            assert not layer.params() + layer.buffers(), layer_name


@pytest.mark.parametrize("name,variant,residual", ARCHS, ids=ARCH_IDS)
def test_analyzed_params_equal_state_sizes_by_name(name, variant, residual):
    arch = _arch(name, variant, residual)
    state = build_model(arch, seed=0).state()
    report = cost.analyze(arch)
    for row in report.layers[1:]:
        size = sum(t.size for n, t in state.items() if n.startswith(row.name + "."))
        assert row.params == size, row.name
    assert report.total_params == sum(t.size for t in state.values())


# one entry of each type, last, after the entries that give it its input
ENTRY_EXAMPLES = {
    "conv": [{"type": "conv", "out_channels": 4, "kernel": 3}],
    "dsconv": [{"type": "dsconv", "out_channels": 4}],
    "parconv": [{"type": "parconv", "out_channels": 4, "omega": 0.5}],
    "sparconv": [{"type": "sparconv", "out_channels": 4}],
    "maxpool": [{"type": "maxpool"}],
    "relu": [{"type": "relu"}],
    "batchnorm": [{"type": "batchnorm"}],
    "flatten": [{"type": "flatten"}],
    "linear": [{"type": "flatten"}, {"type": "linear", "out_features": 3}],
    "bottleneck_head": [{"type": "flatten"},
                        {"type": "bottleneck_head", "bottleneck_dim": 2,
                         "out_features": 3}],
    "residual": [{"type": "residual",
                  "body": [{"type": "conv", "out_channels": 6, "kernel": 1}]}],
    "tap": [{"type": "tap", "name": "t"}],
}


@pytest.mark.parametrize("kind", list(A._SCHEMA))
def test_every_entry_type_has_a_layer_list(kind):
    # a type added to the schema needs an example here, and a layer list
    # that the builder and the cost rules read
    arch = ArchSpec(4, 6, 6, ENTRY_EXAMPLES[kind])
    te = arch.validate()[-1]
    assert te.kind == kind
    layers = layers_of(te)
    assert layers and all(type(layer) is tuple for layer in layers)
    build_model(arch, seed=0)
    cost.analyze(arch)


def test_unknown_entry_type_has_no_layer_list():
    te = ArchSpec(4, 6, 6, [{"type": "relu"}]).validate()[0]
    te.kind = "no_such_layer"
    for read in (layers_of, cost._entry_cost, A._build_one):
        with pytest.raises(ArchError, match=r"^no layer list for layer type "
                                            r"'no_such_layer'$"):
            read(te)


def test_repeated_state_names_rejected():
    root = B.Sequential([("norm", B.BatchNorm2d(2)), ("norm", B.BatchNorm2d(2))])
    model = Model(ArchSpec(2, 4, 4, []), root)
    with pytest.raises(ValueError, match=r"repeated state names: \['norm\.running_mean', "
                                         r"'norm\.running_var', 'norm\.scale', "
                                         r"'norm\.shift'\]"):
        model.state()


@pytest.mark.parametrize("kind", ["dsconv", "parconv", "sparconv"])
@pytest.mark.parametrize("kernel", [2, 0, -1])
def test_unrunnable_compact_kernel_rejected(kind, kernel):
    entry = {"type": kind, "out_channels": 4, "kernel": kernel}
    if kind == "parconv":
        entry["omega"] = 0.5
    arch = ArchSpec(4, 6, 6, [entry])
    with pytest.raises(ArchError, match=r"^layers\[0\]: kernel must be odd and >= 1$"):
        arch.validate()
    with pytest.raises(ArchError, match=r"^layers\[0\]"):
        cost.analyze(arch)


@pytest.mark.parametrize("entry,message", [
    ({"type": "conv", "out_channels": 0, "kernel": 3},
     "out_channels must be positive"),
    ({"type": "conv", "out_channels": -4, "kernel": 3},
     "out_channels must be positive"),
    ({"type": "maxpool", "stride": 0}, "window/stride must be >= 1"),
    ({"type": "maxpool", "window": 0}, "window/stride must be >= 1"),
    ({"type": "maxpool", "window": 2, "padding": 2},
     "padding must be >= 0 and smaller than the window"),
    ({"type": "maxpool", "padding": 3},
     "padding must be >= 0 and smaller than the window"),
    ({"type": "maxpool", "padding": -1},
     "padding must be >= 0 and smaller than the window"),
], ids=["zero-conv-channels", "negative-conv-channels", "zero-pool-stride",
        "zero-pool-window", "pool-padding-equals-window", "pool-padding-over-window",
        "negative-pool-padding"])
def test_out_of_range_field_rejected(entry, message):
    # each of these once passed validate() and failed later, in analyze, the
    # builder or the forward pass
    arch = ArchSpec(4, 6, 6, [entry])
    for check in (arch.validate, lambda: cost.analyze(arch)):
        with pytest.raises(ArchError) as info:
            check()
        assert str(info.value) == f"layers[0]: {message}"


@pytest.mark.parametrize("entry,message", [
    ({"type": "parconv", "out_channels": 4, "omega": None},
     "omega: expected a number, got None"),
    ({"type": "parconv", "out_channels": None, "omega": 0.5},
     "out_channels: expected an integer, got None"),
    ({"type": "dsconv", "out_channels": 4, "kernel": [3]},
     "kernel: expected an integer, got [3]"),
    ({"type": "conv", "out_channels": 4, "kernel": [3]},
     "kernel: expected an integer, got [3]"),
    ({"type": "conv", "out_channels": 4.7, "kernel": 3},
     "out_channels: expected an integer, got 4.7"),
    ({"type": "conv", "out_channels": 4, "kernel": 3.9},
     "kernel: expected an integer, got 3.9"),
    ({"type": "conv", "out_channels": 4, "kernel": "3"},
     "kernel: expected an integer, got '3'"),
    ({"type": "maxpool", "window": True},
     "window: expected an integer, got True"),
    ({"type": "parconv", "out_channels": 4, "omega": "0.5"},
     "omega: expected a number, got '0.5'"),
    ({"type": "sparconv", "out_channels": 4, "split": True},
     "split: expected a number, got True"),
    ({"type": "conv", "out_channels": 4},
     "kernel: missing required field"),
    ({"type": "parconv", "out_channels": 4, "omega": 10 ** 400},
     f"omega: expected a number, got {10 ** 400!r}"),
    ({"type": "parconv", "out_channels": 4, "omega": 0.5, "alpha": float("nan")},
     "alpha: expected a number, got nan"),
    ({"type": "conv", "out_channels": 4, "kernel": 3, "bias": "false"},
     "bias: expected true or false, got 'false'"),
    ({"type": "conv", "out_channels": 4, "kernel": 3, "relu": 0},
     "relu: expected true or false, got 0"),
    ({"type": "parconv", "out_channels": 4, "omega": 0.5, "shuffle": "no"},
     "shuffle: expected true or false, got 'no'"),
    ({"type": "conv", "out_channels": np.int64(4), "kernel": 3},
     f"out_channels: expected an integer, got {np.int64(4)!r}"),
    ({"type": "residual", "post_relu": 1,
      "body": [{"type": "conv", "out_channels": 4, "kernel": 1}]},
     "post_relu: expected true or false, got 1"),
    ({"type": "relu", "name": [1]}, "name: expected a string, got [1]"),
    ({"type": "tap", "name": None}, "name: expected a string, got None"),
    ({"type": "tap"}, "name: missing required field"),
    ({"type": "residual"}, "body: missing required field"),
    ({"type": "residual", "body": []},
     "body: expected a non-empty list of entries, got []"),
], ids=["null-omega", "null-out-channels", "list-kernel-dsconv", "list-kernel-conv",
        "fractional-out-channels", "fractional-kernel", "string-kernel",
        "bool-window", "string-omega", "bool-split", "missing-kernel",
        "huge-int-omega", "nan-alpha", "string-bias", "int-relu", "string-shuffle",
        "numpy-out-channels", "int-post-relu", "list-name",
        "null-tap-name", "missing-tap-name", "missing-body", "empty-body"])
def test_wrongly_typed_field_rejected(entry, message):
    with pytest.raises(ArchError) as info:
        ArchSpec(4, 6, 6, [entry]).validate()
    assert str(info.value) == f"layers[0].{message}"


NESTED_BODY_ERRORS = [
    ([{"type": "residual",
       "body": [{"type": "conv", "out_channels": 4, "kernel": 3, "padding": 1.5}]}],
     "layers[0].body[0].padding: expected an integer, got 1.5"),
    ([{"type": "relu", "name": "first"},
      {"type": "residual", "body": [
          {"type": "residual", "body": [
              {"type": "conv", "out_channels": 4, "kernel": "3"}]}]}],
     "layers[1].body[0].body[0].kernel: expected an integer, got '3'"),
    ([{"type": "relu", "name": "first"},
      {"type": "residual", "name": "outer", "body": [
          {"type": "relu", "name": "inner"},
          {"type": "residual", "body": [{"type": "maxpool", "stride": 0}]}]}],
     "layers[1].body[1].body[0]: window/stride must be >= 1"),
]


@pytest.mark.parametrize("layers,message", NESTED_BODY_ERRORS,
                         ids=["one-deep", "two-deep-field", "two-deep-range"])
def test_error_in_a_residual_body_names_its_path(layers, message):
    with pytest.raises(ArchError) as info:
        ArchSpec(4, 6, 6, layers).validate()
    assert str(info.value) == message


MALFORMED_LAYER_LISTS = [
    (["ab"], "layers[0]: each layer entry needs a 'type' field"),
    ([3], "layers[0]: each layer entry needs a 'type' field"),
    ({"a": 1}, "layers: expected a list of layer entries, got {'a': 1}"),
    ("ab", "layers: expected a list of layer entries, got 'ab'"),
]


@pytest.mark.parametrize("layers,message", MALFORMED_LAYER_LISTS,
                         ids=["string-entry", "number-entry", "object-layers",
                              "string-layers"])
def test_malformed_layer_list_rejected(layers, message):
    obj = {"input": {"channels": 4, "height": 6, "width": 6}, "layers": layers}
    for check in (ArchSpec(4, 6, 6, layers).validate, lambda: ArchSpec.from_obj(obj)):
        with pytest.raises(ArchError) as info:
            check()
        assert str(info.value) == message


UNKNOWN_FIELDS = [
    ([{"type": "conv", "out_channels": 4, "kernel": 3, "strid": 2}],
     "layers[0].strid: unknown field"),
    ([{"type": "relu", "name": "first"},
      {"type": "residual", "name": "outer", "body": [
          {"type": "relu"},
          {"type": "residual", "body": [
              {"type": "maxpool", "windw": 2, "paddin": 1}]}]}],
     "layers[1].body[1].body[0].paddin: unknown field"),
    ([{"type": "tap", "name": "t", "out_channels": 4}],
     "layers[0].out_channels: unknown field"),
    # compact blocks have one form: BN+ReLU after every inner conv
    ([{"type": "dsconv", "out_channels": 4, "inner_bn": True}],
     "layers[0].inner_bn: unknown field"),
    ([{"type": "residual", "body": [
        {"type": "parconv", "out_channels": 4, "omega": 0.5, "inner_bn": False}]}],
     "layers[0].body[0].inner_bn: unknown field"),
]


@pytest.mark.parametrize("layers,message", UNKNOWN_FIELDS,
                         ids=["top-level", "nested-body", "other-kinds-field",
                              "inner-bn", "inner-bn-nested-body"])
def test_unknown_field_rejected_when_read_from_json(layers, message):
    obj = {"input": {"channels": 4, "height": 6, "width": 6}, "layers": layers}
    for read in (lambda: ArchSpec.from_obj(obj),
                 lambda: ArchSpec.from_json(json.dumps(obj))):
        with pytest.raises(ArchError) as info:
            read()
        assert str(info.value) == message
    # a spec built in code is not read from JSON; validate() and to_obj() pass
    spec = ArchSpec(4, 6, 6, layers)
    spec.validate()
    assert spec.to_obj()["layers"] == layers


@pytest.mark.parametrize("channels,message", [
    (1.5, "input.channels: expected an integer, got 1.5"),
    (None, "input.channels: expected an integer, got None"),
    ("1", "input.channels: expected an integer, got '1'"),
    (True, "input.channels: expected an integer, got True"),
])
def test_wrongly_typed_input_field_rejected(channels, message):
    obj = {"input": {"channels": channels, "height": 6, "width": 6},
           "layers": [{"type": "flatten"}]}
    with pytest.raises(ArchError) as info:
        ArchSpec.from_obj(obj)
    assert str(info.value) == message


def test_integral_float_fields_are_accepted_as_integers():
    obj = {"input": {"channels": 1.0, "height": 6, "width": 6},
           "layers": [{"type": "conv", "out_channels": 4.0, "kernel": 3.0}]}
    spec = ArchSpec.from_obj(obj)
    assert spec.in_channels == 1 and type(spec.in_channels) is int
    assert spec.validate()[0].out_state == ("map", 4, 4, 4)


def count_walks(monkeypatch) -> list:
    """The specs ``ArchSpec._walk`` walks from now on, in call order."""
    walked = []
    walk = ArchSpec._walk

    def counted(spec):
        walked.append(spec)
        return walk(spec)
    monkeypatch.setattr(ArchSpec, "_walk", counted)
    return walked


class TestSealing:
    """The first validate() that passes walks the spec once, keeps the
    trace and makes the spec read-only; one that fails changes nothing."""

    def test_validate_walks_once_and_returns_the_kept_trace(self, monkeypatch):
        spec = zoo.build_zoo_arch("res18_mini")
        walked = count_walks(monkeypatch)
        first = spec.validate()
        assert spec.validate() is first
        assert walked == [spec]

    def test_sealed_entries_cannot_be_written(self):
        spec = zoo.build_zoo_arch("res18_mini")
        spec.validate()
        residual = next(e for e in spec.layers if e["type"] == "residual")
        with pytest.raises(TypeError):
            spec.layers[0]["out_channels"] = 8
        with pytest.raises(TypeError):
            residual["body"][0]["kernel"] = 5
        with pytest.raises(AttributeError):
            residual["body"].append({"type": "relu"})
        with pytest.raises(AttributeError):
            spec.layers.append({"type": "relu"})
        # to_obj() hands out plain dicts and lists that the caller may edit
        obj = spec.to_obj()
        obj["layers"][0]["out_channels"] = 8
        assert spec.layers[0]["out_channels"] == 64

    def test_unvalidated_spec_stays_editable(self):
        spec = zoo.build_zoo_arch("mnist_small")
        spec.layers[0]["out_channels"] = 8
        spec.layers.append({"type": "relu"})
        spec.in_height = 30
        assert spec.layers[0]["out_channels"] == 8 and spec.in_height == 30

    def test_failing_validate_raises_again_and_leaves_spec_editable(self, monkeypatch):
        layers = [{"type": "conv", "out_channels": 4, "kernel": 3},
                  {"type": "linear", "out_features": 2}]
        spec = ArchSpec(1, 8, 8, layers)
        walked = count_walks(monkeypatch)
        messages = []
        for _ in range(2):
            with pytest.raises(ArchError) as info:
                spec.validate()
            messages.append(str(info.value))
        assert messages == ["layers[1]: linear requires flat features "
                            "(insert a flatten)"] * 2
        assert walked == [spec, spec]
        assert spec.layers is layers
        spec.layers.insert(1, {"type": "flatten"})
        assert spec.validate()[-1].out_state == ("flat", 2)

    def test_from_obj_keeps_its_own_copies(self):
        obj = json.loads(zoo.build_zoo_arch("res18_mini").to_json())
        spec = ArchSpec.from_obj(obj)
        text, flops = spec.to_json(), cost.analyze(spec).total_flops
        residual = next(e for e in obj["layers"] if e["type"] == "residual")
        obj["layers"][0]["out_channels"] = 8
        residual["body"][0]["kernel"] = 5
        residual["body"].append({"type": "relu"})
        assert spec.to_json() == text
        assert cost.analyze(spec).total_flops == flops
