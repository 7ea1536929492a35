"""Distillation losses and the teacher-student training loop."""
import numpy as np
import pytest

from parcnn import distill, tensor as T, zoo
from parcnn.arch import ArchSpec, build_model
from parcnn.data import batches, make_synthetic
from parcnn.distill import (DistillConfig, attention_map, cross_entropy,
                            distill_train, kd_loss, soft_cross_entropy, sp_loss,
                            spm, total_loss)
from parcnn.errors import NumericalError
from parcnn.tensor import Tensor
from parcnn.train import SGDMomentum, train_classifier
from parcnn.transform import DistillPolicy, distill_architecture

from conftest import f64, gradcheck


class TestAttentionMap:
    def test_single_channel_passthrough(self, rng):
        f = rng.normal(size=(2, 1, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(attention_map(Tensor(f)).data, f[:, 0])

    def test_two_constant_channels(self):
        f = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)])[None]
        out = attention_map(Tensor(f.astype(np.float32)))
        np.testing.assert_allclose(out.data, np.full((1, 2, 2), 3.0))

    def test_matches_scalar_loop_oracle(self, rng):
        f = rng.normal(size=(1, 3, 2, 2)).astype(np.float32)
        out = attention_map(Tensor(f)).data
        expected = np.zeros((1, 2, 2), np.float32)
        for c in range(3):              # naive summation oracle
            for i in range(2):
                for j in range(2):
                    expected[0, i, j] += f[0, c, i, j]
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="4-D"):
            attention_map(Tensor(np.zeros((3, 3), np.float32)))

    def test_linearity(self, rng):
        x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        y = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        a, b = 2.0, -3.0
        lhs = attention_map(Tensor(a * x + b * y)).data
        rhs = a * attention_map(Tensor(x)).data + b * attention_map(Tensor(y)).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5, atol=1e-5)


class TestSpm:
    def test_equal_maps_give_zero(self, rng):
        a = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
        np.testing.assert_array_equal(spm(a, a).data, np.zeros((1, 4, 4)))

    def test_hand_example(self):
        a_i = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32))
        a_j = Tensor(np.array([[[2.0, 2.0], [3.0, 3.0]]], np.float32))
        np.testing.assert_array_equal(
            spm(a_i, a_j).data, np.array([[[1.0, 0.0], [0.0, -1.0]]], np.float32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            spm(Tensor(np.zeros((1, 4, 4), np.float32)),
                Tensor(np.zeros((1, 5, 5), np.float32)))


class TestSpLoss:
    def test_identical_spms_give_exact_zero(self, rng):
        maps = [Tensor(rng.normal(size=(3, 4, 4)).astype(np.float32))
                for _ in range(2)]
        assert sp_loss(maps, maps).item() == 0.0

    def test_hand_example_equals_two(self):
        s_teacher = Tensor(np.array([[[1.0, 0.0], [0.0, 0.0]]], np.float32))
        s_student = Tensor(np.array([[[0.0, 1.0], [0.0, 0.0]]], np.float32))
        assert sp_loss([s_teacher], [s_student]).item() == pytest.approx(2.0, rel=1e-6)

    def test_positive_rescaling_invariance(self, rng):
        teacher = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        student = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        base = sp_loss([teacher], [student]).item()
        for k in (1e-3, 0.5, 7.0, 1e3):
            scaled = sp_loss([Tensor(k * teacher.data)],
                             [Tensor((2.0 * k) * student.data)]).item()
            assert scaled == pytest.approx(base, abs=1e-6)

    def test_bounded_by_four_per_pair_sample(self, rng):
        for _ in range(10):
            teacher = [Tensor(rng.normal(size=(3, 4, 4)).astype(np.float32))
                       for _ in range(2)]
            student = [Tensor(rng.normal(size=(3, 4, 4)).astype(np.float32))
                       for _ in range(2)]
            value = sp_loss(teacher, student).item()
            assert 0.0 <= value <= 4.0 * 2 * 3   # 4 * n_pairs * batch upper bound

    def test_zero_norm_side_contributes_nothing(self, rng):
        zero = Tensor(np.zeros((1, 4, 4), np.float32))
        live = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
        assert sp_loss([zero], [live]).item() == 0.0
        assert sp_loss([live], [zero]).item() == 0.0

    def test_list_length_mismatch_rejected(self, rng):
        a = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="lengths differ"):
            sp_loss([a, a], [a])
        with pytest.raises(ValueError, match="at least one"):
            sp_loss([], [])

    def test_gradient_matches_finite_differences(self, rng):
        teacher = [Tensor(rng.normal(size=(2, 4, 4))) for _ in range(2)]
        student = [f64(rng.normal(size=(2, 4, 4))) for _ in range(2)]
        fn = lambda: sp_loss(teacher, student)
        assert gradcheck(fn, student, step=1e-5) < 1e-4


def _kd(logp, teacher_probs, labels, mu, beta):
    return kd_loss(soft_cross_entropy(logp, teacher_probs), cross_entropy(logp, labels),
                   mu, beta)


class TestKdLoss:
    def _log_probs(self, rng, batch=5, classes=7):
        logits = f64(rng.normal(size=(batch, classes)))
        return T.log_softmax(logits), logits

    def test_one_hot_teacher_reduces_to_weighted_ce(self, rng):
        logp, _ = self._log_probs(rng)
        labels = np.array([0, 2, 4, 6, 1])
        onehot = np.zeros((5, 7))
        onehot[np.arange(5), labels] = 1.0
        mu, beta = 0.8, 0.2
        combined = _kd(logp, onehot, labels, mu, beta).item()
        ce = cross_entropy(logp, labels).item()
        assert combined == pytest.approx((mu + beta) * ce, rel=1e-6)

    def test_mu_zero_is_pure_hard_ce(self, rng):
        logp, _ = self._log_probs(rng)
        labels = np.array([1, 1, 2, 3, 0])
        teacher = np.full((5, 7), 1 / 7)
        assert _kd(logp, teacher, labels, 0.0, 1.0).item() == \
            pytest.approx(cross_entropy(logp, labels).item(), rel=1e-6)

    def test_uniform_teacher_soft_term(self, rng):
        logp, _ = self._log_probs(rng)
        s = 7
        soft = soft_cross_entropy(logp, np.full((5, s), 1 / s)).item()
        expected = -(logp.data.sum(axis=1) / s).mean()
        assert soft == pytest.approx(expected, rel=1e-6)

    def test_unnormalized_teacher_rejected(self, rng):
        logp, _ = self._log_probs(rng)
        bad = np.full((5, 7), 0.2)
        with pytest.raises(ValueError, match="sum to 1"):
            soft_cross_entropy(logp, bad)

    def test_invalid_labels_rejected(self, rng):
        logp, _ = self._log_probs(rng)
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(logp, np.array([0, 1, 2, 3, 7]))

    def test_negative_weights_rejected(self, rng):
        logp, _ = self._log_probs(rng)
        teacher = np.full((5, 7), 1 / 7)
        labels = np.zeros(5, np.int64)
        with pytest.raises(ValueError):
            _kd(logp, teacher, labels, -0.1, 0.2)
        with pytest.raises(ValueError):
            _kd(logp, teacher, labels, 0.0, 0.0)

    def test_term_by_term_equals_merged_form(self, rng):
        # weighted sum of the two terms == the merged per-sample expression
        logp, _ = self._log_probs(rng)
        teacher = rng.dirichlet(np.ones(7), size=5)
        labels = np.array([3, 0, 6, 2, 5])
        mu, beta = 0.8, 0.2
        two_way = _kd(logp, teacher, labels, mu, beta).item()
        lp = logp.data
        merged = 0.0
        for t in range(5):
            merged -= (beta + mu * teacher[t, labels[t]]) * lp[t, labels[t]]
            for s in range(7):
                if s != labels[t]:
                    merged -= mu * teacher[t, s] * lp[t, s]
        assert two_way == pytest.approx(merged / 5, rel=1e-6)


class TestTotalLoss:
    def test_lambda_zero_reduces_to_kd(self, rng):
        kd = Tensor(np.asarray(1.25, np.float64))
        sp = Tensor(np.asarray(0.5, np.float64))
        assert total_loss(kd, sp, 0.0).item() == 1.25

    def test_reference_weights(self):
        kd = Tensor(np.asarray(2.0, np.float64))
        sp = Tensor(np.asarray(3.0, np.float64))
        assert total_loss(kd, sp, 0.1).item() == pytest.approx(2.3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            total_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0)), -0.5)


def _toy_arch(channels=4, classes=5):
    # two plain convs with taps, no BN/ReLU: smooth everywhere, FD-friendly
    return ArchSpec(1, 6, 6, [
        {"type": "conv", "name": "c1", "out_channels": channels, "kernel": 3,
         "padding": 1, "bn": False, "relu": False},
        {"type": "tap", "name": "t_in"},
        {"type": "conv", "name": "c2", "out_channels": channels + 2, "kernel": 3,
         "padding": 1, "bn": False, "relu": False},
        {"type": "tap", "name": "t_out"},
        {"type": "flatten"},
        {"type": "linear", "name": "fc", "out_features": classes},
    ])


class TestEndToEndLoss:
    def test_total_loss_gradient_on_two_layer_pair(self, rng):
        teacher = build_model(_toy_arch(), seed=5)
        student = build_model(_toy_arch(), seed=9)
        for model in (teacher, student):
            for _, p in model.params():
                p.data = p.data.astype(np.float64)
        x = rng.normal(size=(3, 1, 6, 6))
        labels = np.array([0, 2, 4])
        pairs = [("t_in", "t_out")]

        t_taps: dict = {}
        with T.no_grad():
            t_logits = teacher.forward(Tensor(x), taps=t_taps)
            t_probs = T.softmax(t_logits).data
            t_spms = distill.spms_from_taps(t_taps, pairs)

        def fn():
            s_taps: dict = {}
            logits = student.forward(Tensor(x), taps=s_taps)
            logp = T.log_softmax(logits)
            kd = _kd(logp, t_probs, labels, 0.8, 0.2)
            sp = sp_loss(t_spms, distill.spms_from_taps(s_taps, pairs))
            return total_loss(kd, sp, 0.1)

        leaves = [p for _, p in student.params()]
        assert gradcheck(fn, leaves, step=1e-5) < 1e-3

    def test_teacher_receives_zero_gradient(self, rng):
        teacher = build_model(_toy_arch(), seed=5)
        student = build_model(_toy_arch(), seed=9)
        x = rng.normal(size=(2, 1, 6, 6)).astype(np.float32)
        t_taps: dict = {}
        with T.no_grad():
            t_probs = T.softmax(teacher.forward(Tensor(x), taps=t_taps)).data
        s_taps: dict = {}
        logp = T.log_softmax(student.forward(Tensor(x), taps=s_taps))
        pairs = [("t_in", "t_out")]
        loss = total_loss(
            _kd(logp, t_probs, np.array([0, 1]), 0.8, 0.2),
            sp_loss(distill.spms_from_taps(t_taps, pairs),
                    distill.spms_from_taps(s_taps, pairs)), 0.1)
        loss.backward()
        assert all(p.grad is None for _, p in teacher.params())
        assert all(p.grad is not None for _, p in student.params())


class TestSelfDistillationDegenerate:
    def test_kl_at_teacher_entropy_and_sp_exactly_zero(self, rng):
        arch = zoo.build_zoo_arch("mnist_small")
        teacher = build_model(arch, seed=3)
        student = build_model(arch, seed=3)      # identical weights
        x = rng.normal(size=(4, 1, 28, 28)).astype(np.float32)
        t_taps: dict = {}
        s_taps: dict = {}
        t_logits = teacher.forward(Tensor(x), training=False, taps=t_taps)
        s_logits = student.forward(Tensor(x), training=False, taps=s_taps)
        t_probs = T.softmax(t_logits).data
        kl = soft_cross_entropy(T.log_softmax(s_logits), t_probs).item()
        entropy = float(-(t_probs * np.log(t_probs)).sum(axis=1).mean())
        assert kl == pytest.approx(entropy, rel=1e-5)
        pairs = arch.default_tap_pairs()
        sp = sp_loss(distill.spms_from_taps(t_taps, pairs),
                     distill.spms_from_taps(s_taps, pairs))
        assert sp.item() == 0.0


class TestDistillConfig:
    @pytest.mark.parametrize("name,value", [
        ("mu", np.nan), ("mu", np.inf), ("beta", np.nan), ("lam", np.inf),
        ("lr", np.nan), ("lr", np.inf), ("momentum", np.nan),
        ("weight_decay", np.nan), ("weight_decay", np.inf)])
    def test_non_finite_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            DistillConfig(**{name: value})


class TestDistillTrain:
    def _setup(self, seed=0):
        teacher_arch = _toy_arch()
        teacher = build_model(teacher_arch, seed=1)
        student = build_model(teacher_arch, seed=2)
        data = make_synthetic(classes=5, per_class=8, seed=11, image_size=6,
                              separation=3.0)
        config = DistillConfig(epochs=1, batch_size=8, lr=0.05, seed=seed,
                               tap_pairs=[("t_in", "t_out")])
        return teacher, student, data, config

    def test_metrics_rows_and_determinism(self):
        runs = []
        for _ in range(2):
            teacher, student, data, config = self._setup(seed=7)
            metrics = distill_train(teacher, student, data, config)
            runs.append(metrics)
        assert runs[0] == runs[1]                     # bitwise-identical logs
        assert len(runs[0]) == 5                      # 40 samples / batch 8
        assert set(runs[0][0]) == {"iteration", "kl", "ce", "sp", "total", "lr"}

    def test_loss_composition_logged(self):
        teacher, student, data, config = self._setup()
        metrics = distill_train(teacher, student, data, config)
        for row in metrics:
            expected = 0.8 * row["kl"] + 0.2 * row["ce"] + 0.1 * row["sp"]
            assert row["total"] == pytest.approx(expected, rel=1e-5)

    def test_tap_mismatch_rejected(self):
        teacher, student, data, config = self._setup()
        config.tap_pairs = [("t_in", "missing")]
        with pytest.raises(ValueError, match="no tap named"):
            distill_train(teacher, student, data, config)

    def test_nan_aborts_with_checkpoint_retained(self, tmp_path):
        teacher, student, data, config = self._setup()
        prefix = tmp_path / "student"
        metrics = distill_train(teacher, student, data, config,
                                checkpoint_prefix=prefix)
        before = (tmp_path / "student.ckpt").read_bytes()
        # poison the student; the next run must abort without clobbering it
        dict(student.params())["c1.weight"].data[...] = 1e30
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            distill_train(teacher, student, data, config, checkpoint_prefix=prefix)
        assert (tmp_path / "student.ckpt").read_bytes() == before
        assert len(metrics) > 0


def _distill_per_step_teacher(teacher, student, data, config):
    """Reference loop that runs the teacher forward at every step, on that
    step's batch, and builds the total from freshly computed terms."""
    pairs = distill.resolve_tap_pairs(teacher, student, config)
    opt = SGDMomentum(student.params(), momentum=config.momentum,
                      weight_decay=config.weight_decay)
    rows = []
    for epoch in range(config.epochs):
        for images, labels in batches(data, config.batch_size,
                                      shuffle_seed=config.seed + epoch):
            t_taps: dict = {}
            with T.no_grad():
                t_probs = T.softmax(teacher.forward(images, taps=t_taps)).data
            s_taps: dict = {}
            log_probs = T.log_softmax(student.forward(images, training=True,
                                                      taps=s_taps))
            sp = sp_loss(distill.spms_from_taps(t_taps, pairs),
                         distill.spms_from_taps(s_taps, pairs))
            loss = total_loss(_kd(log_probs, t_probs, labels, config.mu, config.beta),
                              sp, config.lam)
            student.zero_grad()
            loss.backward()
            opt.step(config.lr)
            rows.append({"iteration": len(rows),
                         "kl": soft_cross_entropy(log_probs, t_probs).item(),
                         "ce": cross_entropy(log_probs, labels).item(),
                         "sp": sp.item(), "total": loss.item(), "lr": config.lr})
    return rows


def _mnist_small_pair(seed):
    arch = zoo.build_zoo_arch("mnist_small")
    return (build_model(arch, seed=0),
            build_model(distill_architecture(arch, DistillPolicy()), seed=seed))


class TestTeacherComputedOnce:
    def _count_teacher_forwards(self, teacher):
        calls = []
        forward = teacher.forward

        def counted(x, training=False, taps=None):
            calls.append(len(x))
            return forward(x, training=training, taps=taps)

        teacher.forward = counted
        return calls

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_teacher_pass_per_call(self, epochs):
        teacher, student, data, config = TestDistillTrain()._setup()
        config.epochs, config.batch_size = epochs, 16
        calls = self._count_teacher_forwards(teacher)
        rows = distill_train(teacher, student, data, config)
        assert len(rows) == 3 * epochs                # ceil(40 / 16) steps an epoch
        assert calls == ([16, 16, 8] if epochs else [])

    @pytest.mark.parametrize("arch,seed", [("toy", 3), ("toy", 4),
                                           ("mnist_small", 1), ("mnist_small", 2)])
    def test_rows_match_a_per_step_teacher(self, arch, seed):
        # within float32 tolerance, not byte for byte: the head's GEMM gives a
        # sample's logits different low bits depending on its row in the
        # batch (here in a 26-row or 8-row final batch), and the teacher pass
        # batches samples in dataset order, the reference in shuffled order
        runs = []
        for loop in (distill_train, _distill_per_step_teacher):
            if arch == "toy":
                teacher, student, data, config = TestDistillTrain()._setup(seed=seed)
                config.epochs, config.batch_size = 2, 16
            else:
                teacher, student = _mnist_small_pair(seed)
                data = make_synthetic(10, 9, seed=100, separation=3.0, noise=0.03)
                config = DistillConfig(epochs=2, batch_size=32, lr=0.01, seed=seed)
            runs.append((loop(teacher, student, data, config), student))
        (rows, student), (ref_rows, ref_student) = runs
        assert len(rows) == len(ref_rows) == 6
        for row, ref in zip(rows, ref_rows):
            assert row.keys() == ref.keys()
            for key in row:
                assert row[key] == pytest.approx(ref[key], rel=1e-5, abs=1e-6), key
        for (name, p), (_, q) in zip(student.params(), ref_student.params()):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-5, atol=1e-6,
                                       err_msg=name)

    def test_teacher_stays_trainable(self):
        teacher, student = _mnist_small_pair(1)
        data = make_synthetic(10, 4, seed=100, separation=3.0, noise=0.03)
        distill_train(teacher, student, data, DistillConfig(epochs=1, batch_size=20))
        assert all(p.requires_grad for _, p in teacher.params())
        before = [p.data.copy() for _, p in teacher.params()]
        train_classifier(teacher, data, epochs=1, batch_size=20)
        moved = {name: not np.array_equal(b, p.data)
                 for b, (name, p) in zip(before, teacher.params())}
        # the stem's batch norm cancels its conv's bias: the bias's gradient
        # is exactly 0, so from its initial 0 it stays 0 under weight decay
        assert moved.pop("conv1.conv.bias") is False
        bias = dict(teacher.params())["conv1.conv.bias"]
        assert bias.grad is not None and not bias.grad.any()
        assert all(moved.values())
