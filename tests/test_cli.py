"""Command-line interface: subcommands, exit codes, reproducibility."""
import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parcnn
from parcnn import data, distill, train, transform
from parcnn.arch import build_model, load_model
from parcnn.cli import build_parser, main
from parcnn.data import (MNIST_TEST_FILES, MNIST_TRAIN_FILES, make_synthetic,
                         save_mnist_idx)
from parcnn.tensor import Tensor
from parcnn.zoo import build_zoo_arch

from test_arch import MALFORMED_LAYER_LISTS, NESTED_BODY_ERRORS, UNKNOWN_FIELDS


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(*argv) -> int:
    return main(list(argv))


def child_env() -> dict:
    """Environment in which a child interpreter imports this parcnn, installed
    or not."""
    path = [str(Path(parcnn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def diverge_from_call(monkeypatch, module, name: str, call: int) -> None:
    """Make the loss function ``module.name`` return NaN from its ``call``-th
    call (counting from 0) on, as a training run that diverges there."""
    real = getattr(module, name)
    calls = []

    def poisoned(*args, **kwargs):
        loss = real(*args, **kwargs)
        calls.append(None)
        if len(calls) > call:
            return Tensor(np.full(loss.shape, np.nan, loss.dtype))
        return loss

    monkeypatch.setattr(module, name, poisoned)


def metrics_rows(run_dir) -> list[list[str]]:
    """metrics.csv of ``run_dir`` without its last column, ``seconds``, the
    wall time of each row, which alone differs between same-seed runs; each
    row's seconds are checked to be a non-negative number."""
    rows = list(csv.reader((run_dir / "metrics.csv").open()))
    assert rows[0][-1] == "seconds"
    assert all(float(row[-1]) >= 0 for row in rows[1:])
    return [row[:-1] for row in rows]


def assert_rows_kept_before(run_dir, complete_run_dir, iteration: int) -> None:
    """metrics.csv of an aborted run holds the header and exactly the rows
    of the complete run before ``iteration``."""
    kept = metrics_rows(run_dir)
    complete = metrics_rows(complete_run_dir)
    assert len(complete) > iteration + 1
    assert kept == complete[:iteration + 1]
    column = complete[0].index("iteration")
    assert [row[column] for row in kept[1:]] == [str(i) for i in range(iteration)]


class TestAnalyze:
    def test_zoo_dcnn_report(self, tmp_path, capsys):
        rc = run_cli("analyze", "zoo:dcnn_table2", "--run-dir", str(tmp_path / "r"))
        assert rc == 0
        text = (tmp_path / "r" / "report.txt").read_text()
        assert "16.0210" in text
        assert "124.4849" in text
        assert "42.1985" in text
        assert "34.97%" in text

    def test_missing_file_exits_3(self, tmp_path, capsys):
        rc = run_cli("analyze", str(tmp_path / "missing.json"))
        assert rc == 3
        assert "file not found" in capsys.readouterr().err

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"input": {"channels": 1, "height": 8,\n  "width": }')
        rc = run_cli("analyze", str(bad))
        assert rc == 3
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_csv_has_one_row_per_layer(self, tmp_path):
        run_cli("analyze", "zoo:dcnn_table2", "--run-dir", str(tmp_path / "r"))
        rows = list(csv.reader((tmp_path / "r" / "report.csv").open()))
        # header + input + 16 parameterized layers + 4 pools + total
        assert rows[0] == ["layer", "config", "spatial", "flops",
                           "flops_fraction", "storage_mb", "storage_fraction"]
        assert len(rows) == 1 + 21 + 1
        assert rows[-1][0] == "total"
        assert rows[-1][3] == "1602104400"

    def test_rerun_byte_identical(self, tmp_path):
        run_cli("analyze", "zoo:dcnn_table2", "--run-dir", str(tmp_path / "a"))
        run_cli("analyze", "zoo:dcnn_table2", "--run-dir", str(tmp_path / "b"))
        for name in ("report.txt", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_unknown_zoo_name_exits_3(self, tmp_path, capsys):
        assert run_cli("analyze", "zoo:lenet") == 3

    def test_explicit_csv_path(self, tmp_path):
        target = tmp_path / "out.csv"
        rc = run_cli("analyze", "zoo:dcnn_table2", "--csv", str(target),
                     "--run-dir", str(tmp_path / "r"))
        assert rc == 0
        assert target.exists() and "fc2" in target.read_text()

    def test_field_level_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "arch.json"
        bad.write_text('{"input": {"channels": 1, "height": 8, "width": 8},'
                       ' "layers": [{"type": "conv", "kernel": 3}]}')
        rc = run_cli("analyze", str(bad))
        assert rc == 3
        err = capsys.readouterr().err
        assert "layers[0]" in err and "out_channels" in err

    def test_null_field_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "arch.json"
        bad.write_text('{"input": {"channels": 4, "height": 6, "width": 6}, "layers":'
                       ' [{"type": "parconv", "out_channels": 4, "omega": null}]}')
        assert run_cli("analyze", str(bad)) == 3
        assert capsys.readouterr().err == \
            "error: layers[0].omega: expected a number, got None\n"

    @pytest.mark.parametrize("layers,message", [
        ([{"type": "relu", "name": [1]}], "layers[0].name: expected a string, got [1]"),
        *NESTED_BODY_ERRORS[1:], *MALFORMED_LAYER_LISTS, *UNKNOWN_FIELDS])
    def test_entry_path_diagnostics_exit_3(self, layers, message, tmp_path, capsys):
        bad = tmp_path / "arch.json"
        bad.write_text(json.dumps({"input": {"channels": 4, "height": 6, "width": 6},
                                   "layers": layers}))
        assert run_cli("analyze", str(bad)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_stride_pool_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "arch.json"
        bad.write_text('{"input": {"channels": 4, "height": 6, "width": 6}, "layers":'
                       ' [{"type": "maxpool", "stride": 0}]}')
        assert run_cli("analyze", str(bad)) == 3
        assert capsys.readouterr().err == \
            "error: layers[0]: window/stride must be >= 1\n"

    def test_huge_omega_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "arch.json"
        bad.write_text('{"input": {"channels": 4, "height": 6, "width": 6}, "layers":'
                       ' [{"type": "parconv", "out_channels": 16, "omega": 1e308}]}')
        assert run_cli("analyze", str(bad), "--run-dir", str(tmp_path / "r")) == 3
        assert capsys.readouterr().err == (
            "error: layers[0]: omega 1e+308 is too large: the expanded width "
            "omega * alpha * C_in is not finite\n")


class TestTransform:
    def test_default_transform_shows_flops_drop(self, tmp_path, capsys):
        rc = run_cli("transform", "zoo:dcnn_table2", "--bottleneck", "50",
                     "--omega", "0.5", "--run-dir", str(tmp_path / "r"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "1602104400" in out and "156226000" in out
        compact = build_zoo_arch("dcnn_table2").from_json(
            (tmp_path / "r" / "compact.json").read_text())
        assert sum(1 for e in compact.layers if e["type"] == "parconv") == 12

    def test_omega_two(self, tmp_path, capsys):
        run_cli("transform", "zoo:dcnn_table2", "--omega", "2",
                "--run-dir", str(tmp_path / "r"))
        assert "349583800" in capsys.readouterr().out

    def test_dsconv_variant(self, tmp_path, capsys):
        run_cli("transform", "zoo:dcnn_table2", "--variant", "dsconv",
                "--run-dir", str(tmp_path / "r"))
        out = capsys.readouterr().out
        flops = int(out.split("FLOPs")[1].split()[1])
        assert flops == pytest.approx(1.84e8, rel=0.02)

    def test_huge_omega_exits_3(self, tmp_path, capsys):
        # no conv can take the block, so the selector finds nothing and
        # says why the first conv it considered was skipped
        assert run_cli("transform", "zoo:mnist_small", "--omega", "1e308",
                       "--run-dir", str(tmp_path / "r")) == 3
        assert capsys.readouterr().err == (
            "error: selector 'interior' matched no replaceable convolutions; "
            "conv2_1 cannot be replaced by a parconv block: omega 1e+308 is too "
            "large: the expanded width omega * alpha * C_in is not finite\n")

    def test_bad_variant_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("transform", "zoo:dcnn_table2", "--variant", "octave")
        assert exc.value.code == 2


class TestTrainCommand:
    def _train(self, run_dir, seed="7"):
        return run_cli("train", "--model", "zoo:mnist_small", "--synthetic",
                       "--per-class", "40", "--epochs", "1", "--seed", seed,
                       "--run-dir", str(run_dir))

    def test_metrics_reproducible_across_runs(self, tmp_path):
        assert self._train(tmp_path / "a") == 0
        assert self._train(tmp_path / "b") == 0
        rows = metrics_rows(tmp_path / "a")
        assert rows[0] == ["epoch", "iteration", "loss", "lr", "test_error"]
        # 7 iterations, then the epoch's test-error row
        assert len(rows) == 1 + 7 + 1
        assert rows == metrics_rows(tmp_path / "b")
        # each row's seconds run from the previous row, the first row's from
        # the start of the loop, so they add up to the loop's time less the
        # checkpoint saved after the last row
        seconds = [float(row["seconds"]) for row in
                   csv.DictReader((tmp_path / "a" / "metrics.csv").open())]
        train_s = json.loads((tmp_path / "a" / "run.json").read_text())["summary"][
            "train_s"]
        assert 0.5 * train_s < sum(seconds) <= train_s + 1e-3
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
            (tmp_path / "b" / "model.ckpt").read_bytes()

    def test_divergence_mid_epoch_keeps_earlier_metrics(self, tmp_path, capsys,
                                                        monkeypatch):
        assert self._train(tmp_path / "a") == 0
        # the epoch has 7 iterations; the loss is NaN from iteration 3 on
        with monkeypatch.context() as patch:
            diverge_from_call(patch, distill, "cross_entropy", 3)
            assert self._train(tmp_path / "b") == 4
        err = capsys.readouterr().err
        assert "diverged at iteration 3" in err
        # the abort came before the first epoch's checkpoint, so none is claimed
        assert "checkpoint" not in err
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == \
            ["metrics.csv", "run.json"]
        assert_rows_kept_before(tmp_path / "b", tmp_path / "a", 3)
        # an aborted run keeps its configuration only
        assert "summary" not in json.loads((tmp_path / "b" / "run.json").read_text())

    def test_evaluates_at_the_training_batch(self, tmp_path, monkeypatch):
        real, batch_sizes = train.evaluate, []

        def recording(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            batch_sizes.append(bound.arguments["batch_size"])
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "evaluate", recording)
        assert run_cli("train", "--model", "zoo:mnist_small", "--synthetic",
                       "--per-class", "4", "--batch", "20", "--epochs", "2",
                       "--run-dir", str(tmp_path / "r")) == 0
        # one test-error row per epoch, the last of which is printed
        assert batch_sizes == [20, 20]

    def test_evaluates_once_per_epoch_and_prints_the_last(self, tmp_path, monkeypatch,
                                                          capsys):
        real, results = train.evaluate, []

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(train, "evaluate", recording)
        assert run_cli("train", "--model", "zoo:mnist_small", "--synthetic",
                       "--per-class", "20", "--epochs", "2",
                       "--run-dir", str(tmp_path / "r")) == 0
        assert len(results) == 2
        last = results[-1]
        assert last.total == 40
        assert f"[train] test error {100 * last.cer:.2f}% " \
               f"({last.substitutions}/{last.total}); " in capsys.readouterr().out

    def test_different_seed_changes_metrics(self, tmp_path):
        self._train(tmp_path / "a", seed="7")
        self._train(tmp_path / "c", seed="8")
        assert metrics_rows(tmp_path / "a") != metrics_rows(tmp_path / "c")

    def test_missing_data_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MNIST_DIR", raising=False)
        rc = run_cli("train", "--model", "zoo:mnist_small",
                     "--data-dir", str(tmp_path / "empty"),
                     "--run-dir", str(tmp_path / "r"))
        assert rc == 3
        assert "no dataset" in capsys.readouterr().err

    def test_run_config_written(self, tmp_path):
        self._train(tmp_path / "a")
        run_json = (tmp_path / "a" / "run.json").read_text()
        assert '"command": "train"' in run_json
        assert '"seed": 7' in run_json

    def test_run_json_summary_written_when_the_run_finishes(self, tmp_path):
        assert self._train(tmp_path / "a") == 0
        assert_run_summary(tmp_path / "a", "train", samples=400)   # 10 x 40, 1 epoch

    def test_run_json_records_environment(self, tmp_path):
        self._train(tmp_path / "a")
        env = json.loads((tmp_path / "a" / "run.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert set(env["threads"]) == set(THREAD_VARS)
        # this process imported numpy before parcnn.cli, so a variable is
        # recorded as BLAS read it, unset (None) where the CLI set its default
        for var, value in env["threads"].items():
            assert os.environ[var] == ("1" if value is None else value)
        if np.lib.NumpyVersion(np.__version__) >= "1.25.0":
            assert set(env["blas"]) == {"name", "version"}

    @pytest.mark.parametrize("numpy_first", [False, True])
    def test_run_json_records_the_threads_blas_loaded_with(self, tmp_path, numpy_first):
        """With the thread variables unset, the CLI's default of one thread
        reaches BLAS only if the CLI is imported before numpy; imported after
        it, run.json records the variables unset, as BLAS read them."""
        probe = ("import sys\n" + ("import numpy\n" if numpy_first else "")
                 + "from parcnn.cli import main\n"
                 "sys.exit(main(['analyze', 'zoo:mnist_small', '--run-dir', sys.argv[1]]))")
        env = {k: v for k, v in child_env().items() if k not in THREAD_VARS}
        proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "r")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((tmp_path / "r" / "run.json").read_text())
        assert record["environment"]["threads"] == \
            dict.fromkeys(THREAD_VARS, None if numpy_first else "1")


def assert_run_summary(run_dir, command: str, samples: int) -> None:
    """run.json holds the run's configuration and, once it has finished, a
    summary of its wall time, training throughput and peak memory."""
    record = json.loads((run_dir / "run.json").read_text())
    assert record["command"] == command and "environment" in record
    summary = record["summary"]
    assert set(summary) == {"wall_s", "train_samples", "train_s", "train_samples_per_s",
                            "peak_rss_mb"}
    assert summary["peak_rss_mb"] > 0
    assert summary["train_samples"] == samples
    assert 0 < summary["train_s"] <= summary["wall_s"]
    assert summary["train_samples_per_s"] == samples / summary["train_s"]
    assert not (run_dir / "run.json.tmp").exists()


@pytest.fixture
def teacher_ckpt(tmp_path):
    model = build_model(build_zoo_arch("mnist_small"), seed=1)
    prefix = tmp_path / "teacher"
    model.save(prefix)
    return prefix


class TestDistillCommand:
    def test_metrics_csv_columns_and_determinism(self, tmp_path, teacher_ckpt):
        def once(name):
            rc = run_cli("distill", "--teacher", str(teacher_ckpt),
                         "--mu", "0.8", "--beta", "0.2", "--lambda", "0.1",
                         "--synthetic", "--per-class", "16", "--epochs", "1",
                         "--seed", "3", "--run-dir", str(tmp_path / name))
            assert rc == 0
        once("a")
        once("b")
        rows = metrics_rows(tmp_path / "a")
        assert rows[0] == ["iteration", "kl", "ce", "sp", "total", "lr"]
        assert len(rows) > 1
        assert rows == metrics_rows(tmp_path / "b")
        assert (tmp_path / "a" / "student.ckpt").exists()

    def test_one_student_checkpoint_file_saved_each_epoch(self, tmp_path, teacher_ckpt):
        run_dir = tmp_path / "r"
        assert run_cli("distill", "--teacher", str(teacher_ckpt), "--synthetic",
                       "--per-class", "4", "--batch", "20", "--epochs", "2",
                       "--run-dir", str(run_dir)) == 0
        assert_run_summary(run_dir, "distill", samples=80)   # 10 x 4, 2 epochs
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "metrics.csv", "run.json", "student.ckpt", "student_arch.json"]
        student = load_model(run_dir / "student")
        assert student.arch.to_obj() == \
            json.loads((run_dir / "student_arch.json").read_text())

    def test_divergence_mid_epoch_keeps_earlier_metrics(self, tmp_path, teacher_ckpt,
                                                        capsys, monkeypatch):
        def once(name):
            return run_cli("distill", "--teacher", str(teacher_ckpt), "--synthetic",
                           "--per-class", "16", "--batch", "32", "--epochs", "1",
                           "--seed", "3", "--run-dir", str(tmp_path / name))
        assert once("a") == 0
        # the epoch has 5 iterations; the loss is NaN from iteration 3 on
        with monkeypatch.context() as patch:
            diverge_from_call(patch, distill, "total_loss", 3)
            assert once("b") == 4
        assert "diverged at iteration 3" in capsys.readouterr().err
        assert_rows_kept_before(tmp_path / "b", tmp_path / "a", 3)
        assert "summary" not in json.loads((tmp_path / "b" / "run.json").read_text())

    def test_negative_lambda_exits_2(self, teacher_ckpt):
        with pytest.raises(SystemExit) as exc:
            run_cli("distill", "--teacher", str(teacher_ckpt), "--lambda", "-1",
                    "--synthetic")
        assert exc.value.code == 2

    def test_poisoned_teacher_exits_4(self, tmp_path, capsys):
        model = build_model(build_zoo_arch("mnist_small"), seed=1)
        dict(model.params())["conv1.conv.weight"].data[...] = 3e38
        prefix = tmp_path / "hot"
        model.save(prefix)
        with np.errstate(over="ignore"):
            rc = run_cli("distill", "--teacher", str(prefix), "--synthetic",
                         "--per-class", "8", "--run-dir", str(tmp_path / "r"))
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_explicit_student_arch(self, tmp_path, teacher_ckpt):
        rc = run_cli("distill", "--teacher", str(teacher_ckpt),
                     "--student", "zoo:mnist_small",
                     "--synthetic", "--per-class", "8", "--epochs", "1",
                     "--run-dir", str(tmp_path / "r"))
        assert rc == 0

    def test_explicit_taps_flag(self, tmp_path, teacher_ckpt):
        rc = run_cli("distill", "--teacher", str(teacher_ckpt),
                     "--taps", "s1_in:s1_out", "--synthetic", "--per-class",
                     "8", "--epochs", "1", "--run-dir", str(tmp_path / "r"))
        assert rc == 0

    def test_malformed_taps_exits_3(self, tmp_path, teacher_ckpt, capsys):
        rc = run_cli("distill", "--teacher", str(teacher_ckpt),
                     "--taps", "s1_in", "--synthetic", "--per-class", "8",
                     "--run-dir", str(tmp_path / "r"))
        assert rc == 3

    def test_builds_the_training_split_only(self, tmp_path, teacher_ckpt, monkeypatch):
        real, calls = data.make_synthetic, []

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(data, "make_synthetic", counting)
        assert run_cli("distill", "--teacher", str(teacher_ckpt), "--synthetic",
                       "--per-class", "4", "--batch", "20", "--seed", "3",
                       "--run-dir", str(tmp_path / "r")) == 0
        assert calls == [3]


@pytest.mark.parametrize("argv", [["distill", "--teacher"], ["report", "--ckpt"]],
                         ids=["distill", "report"])
def test_two_file_checkpoint_from_before_v2_exits_3(argv, tmp_path, capsys):
    (tmp_path / "old.json").write_text('{"format": "parcnn-checkpoint-v1"}')
    (tmp_path / "old.bin").write_bytes(b"")
    run_dir = tmp_path / "r"
    assert run_cli(*argv, str(tmp_path / "old"), "--run-dir", str(run_dir)) == 3
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'old.json'} is a two-file checkpoint from before "
        f"format v2, which is not read\n")
    assert not run_dir.exists()


class TestParserDefaults:
    """The flags take the library's defaults rather than restating them."""

    @pytest.mark.parametrize("dest,field", [
        ("mu", "mu"), ("beta", "beta"), ("lam", "lam"), ("epochs", "epochs"),
        ("batch", "batch_size"), ("lr", "lr"), ("momentum", "momentum"),
        ("weight_decay", "weight_decay"), ("seed", "seed")])
    def test_distill_config_fields(self, dest, field):
        args = build_parser().parse_args(["distill", "--teacher", "t"])
        assert getattr(args, dest) == getattr(distill.DistillConfig(), field)

    @pytest.mark.parametrize("argv", [["transform", "a"], ["distill", "--teacher", "t"]],
                             ids=["transform", "distill"])
    @pytest.mark.parametrize("dest,field", [
        ("omega", "omega"), ("bottleneck", "bottleneck_dim"),
        ("threshold", "threshold"), ("variant", "variant")])
    def test_distill_policy_fields(self, argv, dest, field):
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == getattr(transform.DistillPolicy(), field)

    def test_transform_selector(self):
        args = build_parser().parse_args(["transform", "a"])
        assert args.selector == transform.DistillPolicy().replace_selector

    def test_train_optimizer_defaults_are_train_classifiers(self):
        args = build_parser().parse_args(["train", "--model", "m"])
        params = inspect.signature(train.train_classifier).parameters
        assert (args.momentum, args.weight_decay) == \
            (params["momentum"].default, params["weight_decay"].default)


# flag values argparse accepts but the library rejects: (argv, exit code,
# error line); "{teacher}" stands for a saved mnist_small checkpoint and
# "{student}" for mnist_small on 32x32 input
REJECTED_FLAG_VALUES = [
    (["transform", "zoo:mnist_small", "--threshold", "0"], 2,
     "threshold must lie in (0, 1)"),
    (["transform", "zoo:mnist_small", "--omega", "0"], 2, "omega must be positive"),
    (["train", "--model", "zoo:mnist_small", "--synthetic", "--lr", "0"], 2,
     "learning rate must be positive"),
    (["train", "--model", "zoo:mnist_small", "--synthetic", "--separation", "0"], 2,
     "separation must be positive"),
    (["train", "--model", "zoo:mnist_small", "--synthetic", "--image-size", "3"], 2,
     "image_size must be >= 4, got 3"),
    (["train", "--model", "zoo:mnist_small", "--synthetic", "--per-class", "2",
      "--image-size", "8"], 3,
     "dataset images are (1, 8, 8) (C, H, W); the model expects (1, 28, 28)"),
    (["distill", "--teacher", "{teacher}", "--synthetic", "--per-class", "2",
      "--image-size", "8"], 3,
     "dataset images are (1, 8, 8) (C, H, W); the teacher expects (1, 28, 28)"),
    (["distill", "--teacher", "{teacher}", "--student", "{student}", "--synthetic",
      "--per-class", "2"], 3,
     "dataset images are (1, 28, 28) (C, H, W); the student expects (1, 32, 32)"),
    (["distill", "--teacher", "{teacher}", "--synthetic", "--per-class", "4",
      "--mu", "0", "--beta", "0"], 2, "mu + beta must be positive"),
    (["distill", "--teacher", "{teacher}", "--synthetic", "--per-class", "4",
      "--taps", "s1_in:nosuch"], 3, "teacher has no tap named 'nosuch'"),
]


class TestRejectedFlagValues:
    @pytest.mark.parametrize("argv,code,message", REJECTED_FLAG_VALUES,
                             ids=["threshold-0", "omega-0", "lr-0", "separation-0",
                                  "image-size-3", "train-image-size-8",
                                  "distill-image-size-8", "student-input-32",
                                  "mu-beta-0", "unknown-tap"])
    def test_exit_code_and_error_line(self, argv, code, message, tmp_path,
                                      teacher_ckpt, capsys):
        student = tmp_path / "student.json"
        student.write_text(json.dumps({**build_zoo_arch("mnist_small").to_obj(),
                                       "input": {"channels": 1, "height": 32,
                                                 "width": 32}}))
        argv = [a.format(teacher=teacher_ckpt, student=student) for a in argv]
        run_dir = tmp_path / "r"
        # at the default level, distill's transform of the teacher warns that
        # its head only reaches gamma 0.2044; hide it, so the error line is
        # the whole of stderr
        assert run_cli("--log-level", "error", *argv,
                       "--run-dir", str(run_dir)) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        # rejected before any output was written
        assert not run_dir.exists()

    def test_negative_limit_exits_2(self, tmp_path, capsys):
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        digits = make_synthetic(classes=2, per_class=4, seed=0, image_size=6)
        for images, labels in (MNIST_TRAIN_FILES, MNIST_TEST_FILES):
            save_mnist_idx(digits, mnist / images, mnist / labels)
        run_dir = tmp_path / "r"
        assert run_cli("train", "--model", "zoo:mnist_small", "--data-dir", str(mnist),
                       "--limit", "-5", "--run-dir", str(run_dir)) == 2
        assert capsys.readouterr().err == \
            "error: subset count must be non-negative, got -5\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "zoo:mnist_small", "--synthetic", "--per-class", "2",
         "--lr", "nan"],
        ["train", "--model", "zoo:mnist_small", "--synthetic", "--per-class", "2",
         "--lr", "inf"],
        ["transform", "zoo:mnist_small", "--omega", "inf"],
        ["distill", "--teacher", "t", "--synthetic", "--mu", "nan"],
    ], ids=["lr-nan", "lr-inf", "omega-inf", "mu-nan"])
    def test_non_finite_float_exits_2(self, argv, tmp_path, capsys):
        run_dir = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--run-dir", str(run_dir))
        assert exc.value.code == 2
        assert f"must be finite and non-negative, got {argv[-1]}" in \
            capsys.readouterr().err
        assert not run_dir.exists()


class TestLogLevel:
    def _transform(self, run_dir, *before):
        # mnist_small's head reaches gamma 0.2044 at bottleneck 50, above the
        # default threshold of 0.1, so the transform warns
        return run_cli(*before, "transform", "zoo:mnist_small",
                       "--run-dir", str(run_dir))

    def test_warning_printed_at_the_default_level(self, tmp_path, capsys):
        assert self._transform(tmp_path / "r") == 0
        assert "WARNING parcnn.transform: bottleneck dim 50 only reaches " \
            "gamma=0.2044 (> threshold 0.1000)" in capsys.readouterr().err

    def test_error_level_hides_the_warning(self, tmp_path, capsys):
        assert self._transform(tmp_path / "r", "--log-level", "error") == 0
        assert "only reaches gamma" not in capsys.readouterr().err

    def test_unknown_level_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--log-level", "loud", "analyze", "zoo:mnist_small")
        assert exc.value.code == 2


class TestReportCommand:
    def test_histogram_written(self, tmp_path, teacher_ckpt):
        rc = run_cli("report", "--ckpt", str(teacher_ckpt), "--bins", "21",
                     "--run-dir", str(tmp_path / "r"))
        assert rc == 0
        lines = (tmp_path / "r" / "weights_histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 22

    def test_manifest_without_tensors_exits_3(self, tmp_path, capsys):
        arch = json.dumps(build_zoo_arch("mnist_small").to_obj(), separators=(",", ":"))
        (tmp_path / "bad.ckpt").write_text(
            '{"format":"parcnn-checkpoint-v2","arch":' + arch + '}\n')
        run_dir = tmp_path / "r"
        assert run_cli("report", "--ckpt", str(tmp_path / "bad"),
                       "--run-dir", str(run_dir)) == 3
        assert capsys.readouterr().err == (
            f"error: checkpoint {tmp_path / 'bad'} has a malformed manifest: it needs "
            f"'tensors' as [name, shape] pairs and an integer 'crc32'\n")
        assert not run_dir.exists()


    def test_manifest_repeating_a_tensor_name_exits_3(self, tmp_path, capsys):
        build_model(build_zoo_arch("mnist_small")).save(tmp_path / "m")
        path = tmp_path / "m.ckpt"
        line, blob = path.read_bytes().split(b"\n", 1)
        # the two tensors have one shape, so the blob still matches
        line = line.replace(b'"conv1.bn.scale"', b'"conv1.conv.bias"')
        path.write_bytes(line + b"\n" + blob)
        run_dir = tmp_path / "r"
        assert run_cli("report", "--ckpt", str(tmp_path / "m"),
                       "--run-dir", str(run_dir)) == 3
        assert capsys.readouterr().err == (
            f"error: checkpoint {tmp_path / 'm'} has a malformed manifest: it lists "
            f"the tensor names ['conv1.conv.bias'] more than once\n")
        assert not run_dir.exists()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "parcnn.cli", "analyze", "zoo:mnist_small",
             "--run-dir", str(tmp_path / "r")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "gamma" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "parcnn.cli", "frobnicate"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2
