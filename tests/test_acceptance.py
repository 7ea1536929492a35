"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.

Criterion 6's real-data leg needs the four MNIST IDX files (point
``$MNIST_DIR`` or ``--data-dir`` at them); without data it skips and the
synthetic companion exercises the identical pipeline end-to-end. The one
known-unattainable printed value (criterion 2, 100-dim bottleneck FLOPs)
is encoded as a strict xfail; see the decisions ledger.
"""
import csv
import time

import numpy as np
import pytest

from parcnn import cost, distill, tensor as T, train, transform, zoo
from parcnn.arch import build_model
from parcnn.cli import main as cli_main
from parcnn.cost import round_half_away
from parcnn.data import find_mnist, load_mnist_idx, make_synthetic
from parcnn.distill import (DistillConfig, cross_entropy, distill_train, kd_loss,
                            soft_cross_entropy, sp_loss)
from parcnn.tensor import Tensor
from parcnn.train import constant_schedule, evaluate, train_classifier

from conftest import f64, gradcheck, parconv_block
from test_cost import (DCNN_LAYERS, DCNN_PRINTED_FLOPS_E8, BOTTLENECK_TABLE,
                       PARCNN_TABLE, _compact_dcnn, count_conv_multiplies,
                       count_depthwise_multiplies)


def verdict(criterion: str, status: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {status}: {detail}")


class TestCriterion1GoldenTable:
    def test_table_reproduction_under_one_second(self):
        start = time.monotonic()
        report = cost.analyze(zoo.build_zoo_arch("dcnn_table2"))
        elapsed = time.monotonic() - start
        by_name = {l.name: l for l in report.layers}
        bad = []
        for name, (flops, mb) in DCNN_LAYERS.items():
            if by_name[name].flops != flops:
                bad.append(f"{name} flops")
            if round_half_away(by_name[name].storage_mb, 4) != mb:
                bad.append(f"{name} storage")
        for name, printed in DCNN_PRINTED_FLOPS_E8.items():
            if round_half_away(by_name[name].flops / 1e8, 4) != printed:
                bad.append(f"{name} printed flops")
        if round_half_away(report.total_flops / 1e8, 2) != 16.02:
            bad.append("total flops")
        if round_half_away(report.total_storage_mb, 1) != 124.5:
            bad.append("total storage")
        ok = not bad and elapsed < 1.0
        verdict("1", "PASS" if ok else "FAIL",
                f"17/17 FLOPs values and all printed storage values exact "
                f"(fc2 42.1985 MB, conv2_3 2.0657 MB) in {elapsed * 1e3:.0f} ms"
                if ok else f"mismatches: {bad}, elapsed {elapsed:.2f}s")
        assert ok


class TestCriterion2BottleneckTable:
    def test_cost_columns(self):
        bad = []
        for dim, (flops, mb, g) in BOTTLENECK_TABLE.items():
            arch = transform.apply_bottleneck(zoo.build_zoo_arch("dcnn_table2"),
                                              dim)
            report = cost.analyze(arch)
            if report.total_flops != flops:
                bad.append(f"dim {dim} flops")
            if abs(report.total_storage_mb - mb) / mb > 0.005:
                bad.append(f"dim {dim} storage")
            if round_half_away(100 * report.gamma, 2) != g:
                bad.append(f"dim {dim} gamma")
        ok = not bad
        verdict("2", "PASS" if ok else "FAIL",
                "dims {500,100,50,25,20}: closed-form FLOPs exact, storage "
                "within 0.5%, gamma {34.97,9.78,5.19,2.71,2.20}% exact to "
                "printed precision -- except the separately-reported printed "
                "FLOPs value for dim 100 (see 2b)"
                if ok else f"mismatches: {bad}")
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="printed 15.96e8 for the 100-dim bottleneck contradicts the "
               "closed-form rules that reproduce every other row exactly; "
               "arithmetic gives 15.93e8. See decisions ledger.")
    def test_dim100_printed_flops_as_stated(self):
        arch = transform.apply_bottleneck(zoo.build_zoo_arch("dcnn_table2"), 100)
        total = cost.analyze(arch).total_flops
        verdict("2b", "FAIL",
                f"dim-100 printed FLOPs 15.96e8 unattainable: closed-form "
                f"arithmetic gives {total / 1e8:.4f}e8 "
                f"(= 1,590,714,400 conv + 700*100 + 100*22080); "
                f"neighbouring rows match those same rules exactly")
        assert round_half_away(total / 1e8, 2) == 15.96


class TestCriterion3CompactTables:
    def test_transformed_network_costs(self):
        bad = []
        for omega, (flops, printed, mb) in PARCNN_TABLE.items():
            report = cost.analyze(_compact_dcnn(omega))
            if report.total_flops != flops or \
                    round_half_away(report.total_flops / 1e8, 2) != printed:
                bad.append(f"omega {omega} flops")
            if abs(report.total_storage_mb - mb) / mb > 0.02:
                bad.append(f"omega {omega} storage")
        ds = cost.analyze(_compact_dcnn(variant="dsconv"))
        if abs(ds.total_flops / 1e8 - 1.84) / 1.84 > 0.02:
            bad.append("dsconv flops")
        base = cost.analyze(_compact_dcnn(0.5))
        res = cost.analyze(_compact_dcnn(0.5, residual=True))
        extra_flops = (res.total_flops - base.total_flops) / 1e8
        extra_mb = res.total_storage_mb - base.total_storage_mb
        if abs(extra_flops - 0.82) / 0.82 > 0.05:
            bad.append("residual extra flops")
        if abs(extra_mb - 4.33) / 4.33 > 0.05:
            bad.append("residual extra storage")
        ok = not bad
        verdict("3", "PASS" if ok else "FAIL",
                f"omega {{0.5,1,2,4}} -> {{1.56,2.21,3.50,6.07}}e8 exact, "
                f"storage within 2%; dsconv 1.84e8 within 2%; residual adds "
                f"{extra_flops:.4f}e8 / {extra_mb:.2f} MB (within 5% of "
                f"0.82e8 / 4.33 MB)" if ok else f"mismatches: {bad}")
        assert ok


class TestCriterion4NaiveOracle:
    def test_flops_equal_naive_multiply_counts(self, rng):
        from parcnn.blocks import parconv_widths
        checked = 0
        for kind in ("conv", "dsconv", "parconv", "sparconv"):
            for _ in range(20):
                d = int(rng.integers(2, 7))
                c_in = int(rng.integers(2, 11))
                c_out = int(rng.integers(1, 11))
                if kind == "conv":
                    k = int(rng.choice([1, 3]))
                    naive = count_conv_multiplies(d, d, c_in, c_out, k)
                    got = cost.conv_flops(d, d, c_in, c_out, k)
                elif kind == "dsconv":
                    naive = count_depthwise_multiplies(d, d, c_in, 3) \
                        + count_conv_multiplies(d, d, c_in, c_out, 1)
                    got = cost.dsconv_flops(d, d, c_in, c_out, 3)
                elif kind == "parconv":
                    omega = float(rng.choice([0.5, 1.0, 2.0]))
                    a, e, b = parconv_widths(c_in, 0.5, omega)
                    naive = (count_conv_multiplies(d, d, a, e, 1)
                             + count_depthwise_multiplies(d, d, e, 3)
                             + count_conv_multiplies(d, d, e, c_out, 1)
                             + count_conv_multiplies(d, d, b, c_out, 1))
                    got = cost.parconv_flops_realized(d, d, c_in, c_out, 3, omega)
                else:
                    c_in = max(c_in, 4)
                    a, _, b = parconv_widths(c_in, 0.25, None)
                    naive = (count_depthwise_multiplies(d, d, a, 3)
                             + count_conv_multiplies(d, d, a, c_out, 1)
                             + count_conv_multiplies(d, d, b, c_out, 1))
                    got = cost.parconv_flops_realized(d, d, c_in, c_out, 3, None, 0.25)
                assert got == naive, (kind, d, c_in, c_out)
                checked += 1
        verdict("4", "PASS",
                f"{checked} random geometries (20 per block kind): analyzer "
                f"FLOPs equal brute-force multiply counts exactly")


class TestCriterion5NumericalProperties:
    def test_property_suite_under_two_minutes(self, rng):
        start = time.monotonic()
        failures = []

        def grad_ok(name, fn, leaves, tol=1e-3, step=1e-5):
            err = gradcheck(fn, leaves, step=step)
            if err >= tol:
                failures.append(f"{name} gradcheck {err:.2e}")

        # gradient checks for every layer kind plus both loss families
        x = f64(rng.normal(size=(2, 4, 6, 6)))
        w = f64(rng.normal(size=(5, 4, 3, 3)))
        grad_ok("conv", lambda: T.tsum(T.square(T.conv2d(x, w, padding=1))), [x, w])
        k = f64(rng.normal(size=(4, 3, 3)))
        grad_ok("depthwise",
                lambda: T.tsum(T.square(T.depthwise_conv2d(x, k, padding=1))),
                [x, k])
        pw = f64(rng.normal(size=(6, 4, 1, 1)))
        grad_ok("pointwise", lambda: T.tsum(T.square(T.conv2d(x, pw))), [x, pw])
        xl = f64(rng.normal(size=(4, 7)))
        wl = f64(rng.normal(size=(3, 7)))
        grad_ok("linear", lambda: T.tsum(T.square(T.linear(xl, wl))), [xl, wl])
        scale = f64(1.0 + 0.1 * rng.normal(size=(4,)))
        shift = f64(rng.normal(size=(4,)))
        rm, rv = Tensor(np.zeros(4)), Tensor(np.ones(4))
        grad_ok("batchnorm",
                lambda: T.tsum(T.square(T.batch_norm2d(
                    x, scale, shift, rm, rv, training=True))),
                [x, scale, shift])

        from parcnn.blocks import ForwardContext, ParConvSpec
        # single rng stream for weights and input: this configuration is
        # verified to keep every pre-activation away from the ReLU kinks
        block_rng = np.random.default_rng(3)
        block = parconv_block(ParConvSpec(8, 8, omega=0.5), block_rng)
        leaves = []
        for _, p in block.params():
            p.data = p.data.astype(np.float64)
            leaves.append(p)
        for _, buf in block.buffers():
            buf.data = buf.data.astype(np.float64)
        xp = Tensor(block_rng.normal(size=(1, 8, 6, 6)),
                    requires_grad=True, dtype=np.float64)
        grad_ok("parconv",
                lambda: T.tsum(block.forward(xp, ForwardContext(training=True))),
                leaves + [xp], step=1e-3)

        teacher_spms = [Tensor(rng.normal(size=(2, 4, 4))) for _ in range(2)]
        student_spms = [f64(rng.normal(size=(2, 4, 4))) for _ in range(2)]
        grad_ok("sp_loss", lambda: sp_loss(teacher_spms, student_spms),
                student_spms)
        logits = f64(rng.normal(size=(5, 7)))
        teacher_probs = rng.dirichlet(np.ones(7), size=5)
        labels = np.array([0, 2, 4, 6, 1])
        def kd():
            log_probs = T.log_softmax(logits)
            return kd_loss(soft_cross_entropy(log_probs, teacher_probs),
                           cross_entropy(log_probs, labels), 0.8, 0.2)
        grad_ok("kd_loss", kd, [logits])

        # softmax normalization to 1e-6
        s = T.softmax(Tensor((10 * rng.normal(size=(16, 11))).astype(np.float32)))
        if np.abs(s.data.sum(axis=1) - 1.0).max() > 1e-6 or not (s.data > 0).all():
            failures.append("softmax normalization")

        # channel-shuffle permutation identities
        from parcnn.blocks import shuffle_permutation
        for channels in (4, 6, 10, 16):
            perm = shuffle_permutation(channels)
            if sorted(perm.tolist()) != list(range(channels)):
                failures.append(f"shuffle permutation {channels}")
            current, order = perm.copy(), 1
            while not np.array_equal(current, np.arange(channels)):
                current, order = current[perm], order + 1
                if order > channels:
                    failures.append(f"shuffle order {channels}")
                    break

        # sp_loss positive-scale invariance to 1e-6
        a = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        base = sp_loss([a], [b]).item()
        for scale_k in (1e-3, 0.7, 40.0):
            scaled = sp_loss([Tensor(scale_k * a.data)],
                             [Tensor((3 * scale_k) * b.data)]).item()
            if abs(scaled - base) > 1e-6:
                failures.append("sp_loss scale invariance")

        # combining the weighted terms equals the merged per-sample form
        logp = T.log_softmax(f64(rng.normal(size=(6, 5)))).data
        teacher_probs = rng.dirichlet(np.ones(5), size=6)
        labels = rng.integers(0, 5, size=6)
        mu, beta = 0.8, 0.2
        two_way = mu * float(-(teacher_probs * logp).sum() / 6) \
            + beta * float(-logp[np.arange(6), labels].sum() / 6)
        merged = 0.0
        for t in range(6):
            merged -= (beta + mu * teacher_probs[t, labels[t]]) * logp[t, labels[t]]
            merged -= mu * sum(teacher_probs[t, s] * logp[t, s]
                               for s in range(5) if s != labels[t])
        if abs(two_way - merged / 6) > 1e-6 * max(1.0, abs(two_way)):
            failures.append("merged-form identity")

        elapsed = time.monotonic() - start
        ok = not failures and elapsed < 120
        verdict("5", "PASS" if ok else "FAIL",
                f"gradient checks (rel err < 1e-3), softmax/shuffle/sp-loss/"
                f"merged-form identities all hold in {elapsed:.1f}s"
                if ok else f"failures: {failures}, elapsed {elapsed:.1f}s")
        assert ok


def _distillation_comparison(train_set, test_set, teacher_epochs,
                             student_epochs, seeds):
    """Train a teacher, then CE-only and distilled students per seed."""
    teacher = build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
    train_classifier(teacher, train_set, epochs=teacher_epochs, batch_size=64,
                     schedule=constant_schedule(0.01), seed=0)
    teacher_err = evaluate(teacher, test_set).cer
    student_arch = transform.distill_architecture(teacher.arch,
                                                  transform.DistillPolicy())
    ce_errs, kd_errs = [], []
    for seed in seeds:
        ce_student = build_model(student_arch, seed=seed)
        train_classifier(ce_student, train_set, epochs=student_epochs,
                         batch_size=64, schedule=constant_schedule(0.01),
                         seed=seed)
        ce_errs.append(evaluate(ce_student, test_set).cer)
        kd_student = build_model(student_arch, seed=seed)
        distill_train(teacher, kd_student, train_set,
                      DistillConfig(mu=0.8, beta=0.2, lam=0.1,
                                    epochs=student_epochs, batch_size=64,
                                    lr=0.01, seed=seed))
        kd_errs.append(evaluate(kd_student, test_set).cer)
    return teacher_err, float(np.mean(ce_errs)), float(np.mean(kd_errs))


class TestCriterion6DeskScaleDistillation:
    def test_compression_ratio_band(self):
        base = cost.analyze(zoo.build_zoo_arch("res18_mini"))
        compact = cost.analyze(zoo.build_zoo_arch("parres18_mini"))
        flops_ratio = base.total_flops / compact.total_flops
        storage_ratio = base.total_params / compact.total_params
        ok = 8.0 <= flops_ratio <= 11.0 and 8.0 <= storage_ratio <= 11.0
        verdict("6-ratio", "PASS" if ok else "FAIL",
                f"res18_mini/parres18_mini FLOPs ratio {flops_ratio:.2f}x, "
                f"storage ratio {storage_ratio:.2f}x (band [8, 11]; reference "
                f"ratios 9.4x / 9.5x)")
        assert ok

    def test_mnist_distillation(self):
        found = find_mnist()
        if found is None:
            verdict("6-mnist", "SKIP",
                    "MNIST IDX files not found (set MNIST_DIR or pass "
                    "--data-dir); the synthetic companion 6-synthetic runs "
                    "the identical pipeline")
            pytest.skip("MNIST data not available in this environment")
        start = time.monotonic()
        train_set = load_mnist_idx(*found["train"]).subset(10_000)
        test_set = load_mnist_idx(*found["test"])
        teacher_err, ce_mean, kd_mean = _distillation_comparison(
            train_set, test_set, teacher_epochs=5, student_epochs=5,
            seeds=(1, 2, 3))
        elapsed = time.monotonic() - start
        ok = (teacher_err <= 0.01
              and kd_mean <= ce_mean + 0.001
              and kd_mean <= teacher_err + 0.005)
        verdict("6-mnist", "PASS" if ok else "FAIL",
                f"teacher err {100 * teacher_err:.2f}% (<= 1%), CE-only mean "
                f"{100 * ce_mean:.2f}%, distilled mean {100 * kd_mean:.2f}% "
                f"(<= CE + 0.1 and <= teacher + 0.5), {elapsed / 60:.1f} min")
        assert ok

    def test_synthetic_companion(self):
        # same pipeline and comparison on the always-available blob data;
        # thresholds calibrated on this dataset (CE-only students land near
        # 19% error, distilled students near 16%, teacher near 14%)
        train_set = make_synthetic(classes=10, per_class=120, seed=100,
                                   separation=3.0, noise=0.03)
        test_set = make_synthetic(classes=10, per_class=50, seed=900,
                                  separation=3.0, noise=0.03)
        teacher_err, ce_mean, kd_mean = _distillation_comparison(
            train_set, test_set, teacher_epochs=4, student_epochs=4,
            seeds=(1, 2, 3))
        ok = (teacher_err <= 0.20
              and kd_mean <= ce_mean + 0.001
              and kd_mean <= teacher_err + 0.025)
        verdict("6-synthetic", "PASS" if ok else "FAIL",
                f"teacher err {100 * teacher_err:.2f}%, CE-only student mean "
                f"{100 * ce_mean:.2f}%, distilled student mean "
                f"{100 * kd_mean:.2f}% over 3 seeds (distillation direction "
                f"holds: KD <= CE + 0.1 points)")
        assert ok


def _metrics_but_seconds(path) -> list[str]:
    """The lines of a metrics.csv without their last column, ``seconds``,
    each row's wall time, which no two runs share."""
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",seconds")
    return [line.rsplit(",", 1)[0] for line in lines]


class TestCriterion7Determinism:
    def test_repeated_runs_identical_metrics(self, tmp_path):
        for sub in ("t1", "t2"):
            rc = cli_main(["train", "--model", "zoo:mnist_small", "--synthetic",
                           "--per-class", "20", "--epochs", "1", "--seed", "5",
                           "--run-dir", str(tmp_path / sub)])
            assert rc == 0
        train_same = _metrics_but_seconds(tmp_path / "t1" / "metrics.csv") == \
            _metrics_but_seconds(tmp_path / "t2" / "metrics.csv")

        teacher = build_model(zoo.build_zoo_arch("mnist_small"), seed=1)
        teacher.save(tmp_path / "teacher")
        for sub in ("d1", "d2"):
            rc = cli_main(["distill", "--teacher", str(tmp_path / "teacher"),
                           "--synthetic", "--per-class", "16", "--epochs", "1",
                           "--seed", "9", "--run-dir", str(tmp_path / sub)])
            assert rc == 0
        distill_same = _metrics_but_seconds(tmp_path / "d1" / "metrics.csv") == \
            _metrics_but_seconds(tmp_path / "d2" / "metrics.csv")
        ok = train_same and distill_same
        verdict("7", "PASS" if ok else "FAIL",
                "train and distill runs repeated with the same seed produce "
                "metrics CSVs byte-identical apart from their seconds" if ok else
                f"train identical: {train_same}, distill identical: {distill_same}")
        assert ok
