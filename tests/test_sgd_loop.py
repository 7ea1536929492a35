"""The one SGD loop behind ``train_classifier`` and ``distill_train``: byte
oracles against the two loops it replaced, its checkpoint policy and its
abort message."""
import math

import pytest

from parcnn import distill, zoo
from parcnn import tensor as T
from parcnn.arch import build_model
from parcnn.data import batch_indices, batches, make_synthetic
from parcnn.distill import (DistillConfig, cross_entropy, distill_train, kd_loss,
                            soft_cross_entropy, sp_loss, spms_from_taps, total_loss)
from parcnn.errors import NumericalError
from parcnn.tensor import Tensor
from parcnn.train import SGDMomentum, constant_schedule, evaluate, train_classifier
from parcnn.transform import DistillPolicy, distill_architecture

from test_cli import diverge_from_call
from test_distill import _toy_arch


def ref_train_classifier(model, train_data, epochs, batch_size=64, schedule=None,
                         momentum=0.9, weight_decay=1e-4, seed=0, eval_data=None,
                         on_row=None):
    """The training loop as it was before it shared one body with
    distillation (checkpointing left out)."""
    schedule = schedule or constant_schedule(0.01)
    opt = SGDMomentum(model.params(), momentum=momentum, weight_decay=weight_decay)
    metrics = []

    def record(row):
        metrics.append(row)
        if on_row is not None:
            on_row(row)

    iteration = 0
    for epoch in range(epochs):
        for images, labels in batches(train_data, batch_size,
                                      shuffle_seed=seed + epoch):
            logits = model.forward(images, training=True)
            loss = cross_entropy(T.log_softmax(logits), labels)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"training diverged at iteration {iteration}")
            model.zero_grad()
            loss.backward()
            lr = schedule(iteration)
            opt.step(lr)
            record({"epoch": epoch, "iteration": iteration,
                    "loss": value, "lr": lr, "test_error": ""})
            iteration += 1
        if eval_data is not None:
            err = evaluate(model, eval_data, batch_size).cer
            record({"epoch": epoch, "iteration": iteration,
                    "loss": "", "lr": "", "test_error": err})
    return metrics


def ref_distill_train(teacher, student, train_data, config, on_row=None):
    """The distillation loop as it was before it shared one body with
    training (checkpointing left out)."""
    pairs = distill.resolve_tap_pairs(teacher, student, config)
    n = len(train_data)
    if config.epochs >= 1 and n:
        t_probs, t_spms = distill._teacher_targets(teacher, train_data, pairs,
                                                   config.batch_size)
    opt = SGDMomentum(student.params(), momentum=config.momentum,
                      weight_decay=config.weight_decay)
    schedule = constant_schedule(config.lr)
    metrics = []
    iteration = 0
    for epoch in range(config.epochs):
        for idx in batch_indices(n, config.batch_size, shuffle_seed=config.seed + epoch):
            labels = train_data.labels[idx]
            s_taps = {}
            s_logits = student.forward(train_data.images[idx], training=True,
                                       taps=s_taps)
            log_probs = T.log_softmax(s_logits)

            kl = soft_cross_entropy(log_probs, t_probs[idx])
            ce = cross_entropy(log_probs, labels)
            sp = sp_loss([Tensor(s[idx]) for s in t_spms],
                         spms_from_taps(s_taps, pairs))
            loss = total_loss(kd_loss(kl, ce, config.mu, config.beta), sp, config.lam)

            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"distillation diverged at iteration {iteration}")
            student.zero_grad()
            loss.backward()
            lr = schedule(iteration)
            opt.step(lr)
            row = {"iteration": iteration, "kl": kl.item(), "ce": ce.item(),
                   "sp": sp.item(), "total": value, "lr": lr}
            metrics.append(row)
            if on_row is not None:
                on_row(row)
            iteration += 1
    return metrics


def _train_case(arch, loop):
    if arch == "toy":
        model = build_model(_toy_arch(), seed=2)
        data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
        eval_data = make_synthetic(classes=5, per_class=3, seed=12, image_size=6)
    else:
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=2)
        data = make_synthetic(10, 9, seed=100, separation=3.0, noise=0.03)
        eval_data = make_synthetic(10, 3, seed=101, separation=3.0, noise=0.03)
    seen = []
    rows = loop(model, data, epochs=2, batch_size=16, seed=3,
                schedule=constant_schedule(0.05), eval_data=eval_data,
                on_row=seen.append)
    return rows, seen, model


def _distill_case(arch, loop):
    if arch == "toy":
        teacher = build_model(_toy_arch(), seed=1)
        student = build_model(_toy_arch(), seed=2)
        data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
        config = DistillConfig(epochs=2, batch_size=16, lr=0.05, seed=3,
                               tap_pairs=[("t_in", "t_out")])
    else:
        arch_spec = zoo.build_zoo_arch("mnist_small")
        teacher = build_model(arch_spec, seed=0)
        student = build_model(distill_architecture(arch_spec, DistillPolicy()), seed=1)
        data = make_synthetic(10, 9, seed=100, separation=3.0, noise=0.03)
        config = DistillConfig(epochs=2, batch_size=32, lr=0.01, seed=1)
    seen = []
    rows = loop(teacher, student, data, config, on_row=seen.append)
    return rows, seen, student


@pytest.mark.parametrize("arch", ["toy", "mnist_small"])
@pytest.mark.parametrize("case,loop,ref", [
    (_train_case, train_classifier, ref_train_classifier),
    (_distill_case, distill_train, ref_distill_train),
], ids=["train", "distill"])
def test_one_loop_is_byte_equal_to_the_loop_it_replaced(case, loop, ref, arch):
    rows, seen, model = case(arch, loop)
    ref_rows, ref_seen, ref_model = case(arch, ref)
    # repr shows key order, value types and every float's exact value
    assert repr(rows) == repr(ref_rows)
    assert repr(seen) == repr(ref_seen)
    assert [id(r) for r in seen] == [id(r) for r in rows]
    assert len(rows) >= 6
    state, ref_state = model.state(), ref_model.state()
    assert list(state) == list(ref_state)
    assert any(name.endswith("running_mean") for name in state) == (arch != "toy")
    for name, tensor in state.items():
        assert tensor.data.tobytes() == ref_state[name].data.tobytes(), name


def _distill_setup():
    teacher = build_model(_toy_arch(), seed=1)
    student = build_model(_toy_arch(), seed=2)
    data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
    config = DistillConfig(epochs=2, batch_size=16, lr=0.05,
                           tap_pairs=[("t_in", "t_out")])
    return teacher, student, data, config


def test_distill_leaves_one_checkpoint_file_of_the_last_epoch(tmp_path):
    teacher, student, data, config = _distill_setup()
    distill_train(teacher, student, data, config,
                  checkpoint_prefix=tmp_path / "student")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["student.ckpt"]
    _, saved = T.load_checkpoint(tmp_path / "student")
    for name, tensor in student.state().items():
        assert saved[name].tobytes() == tensor.data.tobytes(), name


def _abort(run, patch, module, name, call):
    diverge_from_call(patch, module, name, call)
    with pytest.raises(NumericalError) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("loop", ["train", "distill"])
def test_an_epoch_zero_abort_claims_no_checkpoint(tmp_path, monkeypatch, loop):
    prefix = tmp_path / "model"
    if loop == "train":
        model = build_model(_toy_arch(), seed=2)
        data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
        message = _abort(lambda: train_classifier(model, data, epochs=2, batch_size=8,
                                                  checkpoint_prefix=prefix),
                         monkeypatch, distill, "cross_entropy", 3)
    else:
        teacher, student, data, config = _distill_setup()
        config.batch_size = 8
        message = _abort(lambda: distill_train(teacher, student, data, config,
                                               checkpoint_prefix=prefix),
                         monkeypatch, distill, "total_loss", 3)
    assert message == "training diverged at iteration 3 (loss=nan)"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("loop", ["train", "distill"])
def test_a_later_abort_names_the_checkpoint_it_left(tmp_path, monkeypatch, loop):
    # 40 samples at batch 16 make 3 steps an epoch; step 4 is in epoch 1
    prefix = tmp_path / "model"
    if loop == "train":
        model = build_model(_toy_arch(), seed=2)
        data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6)
        message = _abort(lambda: train_classifier(model, data, epochs=2, batch_size=16,
                                                  checkpoint_prefix=prefix),
                         monkeypatch, distill, "cross_entropy", 4)
    else:
        teacher, student, data, config = _distill_setup()
        message = _abort(lambda: distill_train(teacher, student, data, config,
                                               checkpoint_prefix=prefix),
                         monkeypatch, distill, "total_loss", 4)
    assert message == (f"training diverged at iteration 4 (loss=nan); "
                       f"checkpoint {prefix} of epoch 0 retained")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
