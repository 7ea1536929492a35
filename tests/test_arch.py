"""Built models: checkpoint round trips, parameter counts against the cost
analyzer, repeated state names, and compact-block kernel validation."""
import numpy as np
import pytest

from parcnn import blocks as B
from parcnn import cost, transform, zoo
from parcnn.arch import ArchSpec, Model, build_model, load_model
from parcnn.errors import ArchError

# every zoo arch, then each variant x residual transform of mnist_small
ARCHS = [(name, None, False) for name in zoo.ZOO_NAMES] + [
    ("mnist_small", variant, residual)
    for variant in transform.VARIANTS for residual in (False, True)]
ARCH_IDS = [name if variant is None else
            f"{name}-{variant}-{'residual' if residual else 'plain'}"
            for name, variant, residual in ARCHS]


def _arch(name, variant, residual) -> ArchSpec:
    arch = zoo.build_zoo_arch(name)
    if variant is None:
        return arch
    return transform.distill_architecture(
        arch, transform.DistillPolicy(variant=variant, residual=residual))


@pytest.mark.parametrize("name,variant,residual", ARCHS, ids=ARCH_IDS)
def test_checkpoint_round_trip_is_byte_exact(name, variant, residual, tmp_path):
    arch = _arch(name, variant, residual)
    model = build_model(arch, seed=0)
    rng = np.random.default_rng(7)
    # distinct values away from the seed-0 initialization that load_model
    # starts from; scales and running variances stay positive
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
