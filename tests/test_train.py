"""Optimizer, schedules, evaluation, zoo models, weight statistics."""
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from parcnn import cost, train, zoo
from parcnn.arch import build_model
from parcnn.cli import build_parser
from parcnn.data import Dataset, make_synthetic
from parcnn.distill import DistillConfig
from parcnn.tensor import Tensor
from parcnn.train import (BATCH_SIZE, EvalResult, SGDMomentum, constant_schedule,
                          evaluate, step_decay_schedule, weight_histogram)
from parcnn.transform import DistillPolicy, distill_architecture


def sgd_step(theta, grad, lr, momentum=0.9, weight_decay=0.0):
    """One SGDMomentum step on a single-tensor model from zero velocity;
    returns (new parameter, velocity)."""
    p = Tensor(np.array(theta), requires_grad=True)
    p.grad = np.array(grad)
    opt = SGDMomentum([("p", p)], momentum=momentum, weight_decay=weight_decay)
    opt.step(lr)
    return p.data, opt.velocity[0]


class TestSgdStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        theta = np.array([1.0, -2.0], np.float32)
        new, v = sgd_step(theta, np.zeros(2, np.float32), lr=0.1,
                          momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(new, theta)
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_hand_arithmetic(self):
        # theta=1, g=0.5, lr=0.1, m=0.9, v=0, wd=0 -> v=0.5, theta=0.95
        new, v = sgd_step(np.array([1.0]), np.array([0.5]), lr=0.1, momentum=0.9)
        assert v[0] == pytest.approx(0.5)
        assert new[0] == pytest.approx(0.95)

    def test_weight_decay_couples_into_gradient(self):
        new, v = sgd_step(np.array([2.0]), np.array([0.0]), lr=1.0, momentum=0.0,
                          weight_decay=0.0001)
        assert v[0] == pytest.approx(0.0002)
        assert new[0] == pytest.approx(2.0 - 0.0002)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), lr=0.1)

    def test_optimizer_zero_lr_is_identity(self, rng):
        p = Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
        p.grad = rng.normal(size=(3, 3)).astype(np.float32)
        before = p.data.copy()
        SGDMomentum([("p", p)], momentum=0.9, weight_decay=1e-4).step(0.0)
        np.testing.assert_array_equal(p.data, before)

    @pytest.mark.parametrize("settings", [
        {"momentum": math.nan}, {"momentum": math.inf},
        {"weight_decay": math.nan}, {"weight_decay": math.inf}],
        ids=["momentum-nan", "momentum-inf", "weight-decay-nan", "weight-decay-inf"])
    def test_non_finite_settings_rejected(self, settings):
        with pytest.raises(ValueError, match="^momentum and weight decay must be finite and non-negative$"):
            SGDMomentum([], **settings)

    def test_nan_rate_from_a_schedule_writes_nothing(self, tmp_path):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        before = [p.data.copy() for _, p in model.params()]
        rows = []
        with pytest.raises(ValueError, match="^learning rate must be finite and "
                                             "non-negative, got nan$"):
            train.train_classifier(model, make_synthetic(10, 4, seed=1), epochs=1,
                                   schedule=lambda step: math.nan, on_row=rows.append,
                                   checkpoint_prefix=tmp_path / "model")
        assert rows == [] and list(tmp_path.iterdir()) == []
        for (name, p), data in zip(model.params(), before):
            np.testing.assert_array_equal(p.data, data, err_msg=name)


class TestSchedules:
    def test_step_decay_examples(self):
        schedule = step_decay_schedule(0.1)
        assert schedule(0) == pytest.approx(0.1)
        assert schedule(3999) == pytest.approx(0.1)
        assert schedule(8000) == pytest.approx(0.1 * 0.92 ** 2)

    def test_floor_clamps(self):
        schedule = step_decay_schedule(0.1, floor=0.0002)
        assert schedule(10_000_000) == pytest.approx(0.0002)

    def test_constant_schedule(self):
        schedule = constant_schedule(0.01)
        assert schedule(0) == schedule(123456) == 0.01

    def test_negative_step_rejected(self):
        for schedule in (constant_schedule(0.1), step_decay_schedule(0.1)):
            with pytest.raises(ValueError):
                schedule(-1)

    @pytest.mark.parametrize("lr", [math.nan, math.inf], ids=["nan", "inf"])
    def test_constant_schedule_rejects_non_finite_rate(self, lr):
        with pytest.raises(ValueError, match=f"^learning rate must be finite, got {lr}$"):
            constant_schedule(lr)

    @pytest.mark.parametrize("settings", [
        {"lr0": math.nan}, {"lr0": math.inf}, {"lr0": 0.1, "floor": math.nan},
        {"lr0": 0.1, "floor": math.inf}],
        ids=["lr0-nan", "lr0-inf", "floor-nan", "floor-inf"])
    def test_step_decay_schedule_rejects_non_finite_values(self, settings):
        with pytest.raises(ValueError, match="^invalid schedule parameters$"):
            step_decay_schedule(**settings)


class TestEvaluate:
    def _fixed_logit_model(self, logits: np.ndarray):
        class Stub:
            def forward(self, x, training=False, taps=None):
                start = self._cursor
                self._cursor += len(x)
                return Tensor(logits[start:self._cursor])
            _cursor = 0
        return Stub()

    def test_all_correct_is_zero_error(self):
        logits = np.eye(4, dtype=np.float32) * 5
        ds = Dataset(np.zeros((4, 1, 2, 2), np.float32), np.arange(4))
        result = evaluate(self._fixed_logit_model(logits), ds)
        assert result.cer == 0.0 and result.substitutions == 0

    def test_one_wrong_of_ten(self):
        labels = np.zeros(10, np.int64)
        logits = np.zeros((10, 3), np.float32)
        logits[:, 0] = 1.0
        logits[4] = [0.0, 2.0, 0.0]          # one substitution
        ds = Dataset(np.zeros((10, 1, 2, 2), np.float32), labels, classes=3)
        result = evaluate(self._fixed_logit_model(logits), ds)
        assert result.substitutions == 1
        assert result.cer == pytest.approx(0.1)

    def test_matches_scalar_loop_oracle(self, rng):
        logits = rng.normal(size=(23, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=23)
        ds = Dataset(np.zeros((23, 1, 2, 2), np.float32), labels, classes=5)
        result = evaluate(self._fixed_logit_model(logits), ds)
        wrong = 0
        for i in range(23):                  # independent counting oracle
            best, best_v = 0, logits[i, 0]
            for c in range(1, 5):
                if logits[i, c] > best_v:    # strict: ties keep lowest index
                    best, best_v = c, logits[i, c]
            if best != labels[i]:
                wrong += 1
        assert result.substitutions == wrong

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((1, 4), np.float32)
        ds = Dataset(np.zeros((1, 1, 2, 2), np.float32), np.array([0]), classes=4)
        assert evaluate(self._fixed_logit_model(logits), ds).cer == 0.0

    def test_permutation_invariant(self, rng):
        arch = zoo.build_zoo_arch("mnist_small")
        model = build_model(arch, seed=0)
        ds = make_synthetic(classes=10, per_class=4, seed=5)
        base = evaluate(model, ds)
        perm = rng.permutation(len(ds))
        shuffled = Dataset(ds.images[perm], ds.labels[perm], classes=ds.classes)
        assert evaluate(model, shuffled).cer == base.cer

    def test_independent_of_batch_sharding(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        ds = make_synthetic(classes=10, per_class=4, seed=5)
        results = {evaluate(model, ds, batch_size=b).substitutions
                   for b in (1, 7, 64, 512)}
        assert len(results) == 1

    def test_builds_no_graph(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        forward, outputs = model.forward, []

        def spy(x, training=False, taps=None):
            outputs.append(forward(x, training=training, taps=taps))
            return outputs[-1]

        model.forward = spy
        evaluate(model, make_synthetic(classes=10, per_class=2, seed=5), batch_size=8)
        assert len(outputs) == 3
        assert all(not out.requires_grad and out._parents == () for out in outputs)

    @staticmethod
    def _traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_peak_no_larger_than_a_training_step(self, role):
        """At the default batch, evaluating 500 images holds no more memory
        than one training step of the same model at that batch."""
        arch = zoo.build_zoo_arch("mnist_small")
        if role == "student":
            arch = distill_architecture(arch, DistillPolicy())
        model = build_model(arch, seed=0)
        test = make_synthetic(10, 50, seed=900, separation=3.0, noise=0.03)
        one_batch = test.subset(BATCH_SIZE)
        eval_peak = self._traced_peak(lambda: evaluate(model, test))
        step_peak = self._traced_peak(
            lambda: train.train_classifier(model, one_batch, epochs=1))
        assert eval_peak <= step_peak

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.zeros((0, 1, 2, 2), np.float32), np.zeros(0, np.int64),
                     classes=1)
        with pytest.raises(ValueError, match="empty"):
            evaluate(self._fixed_logit_model(np.zeros((0, 1))), ds)

    def test_eval_result_invariants(self):
        with pytest.raises(ValueError):
            EvalResult(total=10, substitutions=-1)
        r = EvalResult(total=10, substitutions=4)
        assert r.cer == pytest.approx(0.4)


def test_one_default_batch():
    """Training, evaluation, distillation and the CLI's --batch share one
    default batch."""
    parser = build_parser()
    assert [inspect.signature(evaluate).parameters["batch_size"].default,
            inspect.signature(train.train_classifier).parameters["batch_size"].default,
            DistillConfig().batch_size,
            parser.parse_args(["train", "--model", "m"]).batch,
            parser.parse_args(["distill", "--teacher", "t"]).batch] == [BATCH_SIZE] * 5


class TestZooModels:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown zoo model"):
            zoo.build_zoo_arch("resnet152")

    def test_mnist_small_forward_shape(self, rng):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        x = rng.normal(size=(3, 1, 28, 28)).astype(np.float32)
        assert model.forward(x).shape == (3, 10)

    def test_res18_pair_forward_shapes(self, rng):
        x = rng.normal(size=(2, 1, 28, 28)).astype(np.float32)
        for name in ("res18_mini", "parres18_mini"):
            model = build_model(zoo.build_zoo_arch(name), seed=0)
            assert model.forward(x, training=True).shape == (2, 10)

    def test_dcnn_table2_analyzed_totals(self):
        report = cost.analyze(zoo.build_zoo_arch("dcnn_table2"))
        assert cost.round_half_away(report.total_flops / 1e8, 2) == 16.02
        assert cost.round_half_away(report.total_storage_mb, 1) == 124.5

    def test_compression_ratio_consistent_with_reference(self):
        r = cost.analyze(zoo.build_zoo_arch("res18_mini"))
        p = cost.analyze(zoo.build_zoo_arch("parres18_mini"))
        assert r.total_flops / p.total_flops == pytest.approx(45.58 / 4.86, rel=0.15)


class TestTrainingSanity:
    def test_loss_decreases_over_first_fifty_iterations(self):
        # sanity-of-training: ~512 blob samples, lr 0.01. Per-iteration
        # minibatch losses are noisy, so "decreases" is asserted on epoch
        # means (strictly) plus the early-vs-late trend.
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=2)
        ds = make_synthetic(classes=10, per_class=52, seed=6, separation=5.0)
        metrics = train.train_classifier(
            model, ds, epochs=7, batch_size=64,
            schedule=constant_schedule(0.01), seed=0)
        losses = [m["loss"] for m in metrics if m["loss"] != ""][:50]
        assert len(losses) == 50
        epoch_means = [np.mean(losses[i * 8:(i + 1) * 8]) for i in range(6)]
        assert all(b < a for a, b in zip(epoch_means, epoch_means[1:]))
        assert np.mean(losses[:5]) > 3 * np.mean(losses[45:50])

    def test_metrics_columns(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=2)
        ds = make_synthetic(classes=10, per_class=13, seed=6)
        metrics = train.train_classifier(model, ds, epochs=1, batch_size=64,
                                         eval_data=ds.subset(20))
        assert {"epoch", "iteration", "loss", "lr", "test_error"} == set(metrics[0])
        assert metrics[-1]["test_error"] != ""


class TestWeightHistogram:
    def test_all_zero_weights_single_central_bin(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        for name, p in model.params():
            if name.endswith("weight"):
                p.data[...] = 0.0
        edges, counts = weight_histogram(model, bins=7)
        assert counts.sum() == counts[3]      # everything in the middle bin

    def test_symmetric_init_low_skew(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=1)
        weights = np.concatenate([p.data.reshape(-1) for n, p in model.params()
                                  if n.endswith("weight") and p.ndim >= 2])
        assert len(weights) >= 10_000
        skew = float(((weights - weights.mean()) ** 3).mean() / weights.std() ** 3)
        assert abs(skew) < 0.1
        edges, counts = weight_histogram(model, bins=51)
        assert counts.sum() == len(weights)

    def test_zero_bins_rejected(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        with pytest.raises(ValueError, match="bins"):
            weight_histogram(model, bins=0)

    def test_histogram_csv_shape(self):
        model = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
        edges, counts = weight_histogram(model, bins=11)
        text = train.histogram_csv(edges, counts)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 12
