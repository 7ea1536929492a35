"""The benchmark's span tracer: it finds every op and loss it wraps by name,
puts each original back when uninstalled, and files each training and
distillation step under its own loop."""
import importlib.util
from collections import Counter
from pathlib import Path

from parcnn import distill, train
from parcnn import tensor as T
from parcnn.arch import build_model
from parcnn.data import make_synthetic
from parcnn.distill import DistillConfig

from test_distill import _toy_arch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_wrapped_name():
    tracer = _load_tracer()
    ops = {name: getattr(T, name, None) for name in tracer.OP_CATEGORY}
    losses = {name: getattr(distill, name, None) for name in tracer.LOSS_FUNCTIONS}
    conv2d = T.conv2d
    t = tracer.Tracer()
    try:
        # install looks each name up with getattr; a deleted op fails here
        t.install()
        assert T.conv2d is not conv2d
    finally:
        t.uninstall()
    assert T.conv2d is conv2d
    assert all(getattr(T, name) is fn for name, fn in ops.items())
    assert all(getattr(distill, name) is fn for name, fn in losses.items())


def test_each_loop_files_its_steps_and_direct_losses_under_its_own_span():
    # distill_train must run its steps itself, not through train_classifier:
    # the tracer files every span under the innermost loop it was called in
    tracer = _load_tracer()
    teacher = build_model(_toy_arch(), seed=1)
    student = build_model(_toy_arch(), seed=2)
    data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
    t = tracer.Tracer()
    with t:
        train.train_classifier(teacher, data, epochs=2, batch_size=16)
        distill.distill_train(teacher, student, data,
                              DistillConfig(epochs=1, batch_size=8,
                                            tap_pairs=[("t_in", "t_out")]))
    steps = Counter(ctx for _, _, name, _, _, ctx, _, _ in t.spans
                    if name == "optimizer.step")
    assert steps == {"train": 6, "distill": 5}     # 40 samples at batch 16, 8
    direct = {"train": ("loss.cross_entropy",),
              "distill": ("loss.soft_cross_entropy", "loss.cross_entropy",
                          "loss.sp_loss", "loss.kd_loss", "loss.total_loss")}
    for context, losses in direct.items():
        (loop,) = [sid for sid, _, name, *_ in t.spans if name == f"{context}.call"]
        for loss in losses:
            parents = [parent for _, parent, name, _, _, ctx, _, _ in t.spans
                       if name == loss and ctx == context]
            assert parents == [loop] * steps[context], (context, loss)
