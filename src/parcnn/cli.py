"""Command-line front end.

Subcommands: ``analyze``, ``transform``, ``train``, ``distill``, ``report``.
Exit codes: 0 success, 2 usage error (a malformed flag, or a flag value
the library rejects), 3 data/architecture error, 4 numerical failure.

Every run writes its outputs under a fresh directory (default
``runs/<command>-<timestamp>``, override with ``--run-dir``) including a
``run.json`` with the resolved configuration and the numpy, BLAS and
thread environment. When ``train`` or ``distill`` finishes, ``run.json`` is
rewritten with a ``summary`` of what the run cost: its wall seconds, its
training samples per second and the process's peak resident memory (where
the ``resource`` module exists); an aborted run keeps the configuration
only.
Architectures are given either as a JSON file path or as ``zoo:<name>``.

``--log-level`` (before the subcommand) sets which messages of the
``parcnn`` loggers are printed to stderr; the default shows warnings.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # Windows
    resource = None

# keep BLAS deterministic and single-threaded unless the user overrides.
# BLAS reads these once, when numpy is first imported: if numpy came before
# this module, the defaults do not reach it, and run.json records the values
# it did load with
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREADS = {v: os.environ.get(v) for v in _THREAD_VARS}
for _var in _THREAD_VARS:
    os.environ.setdefault(_var, "1")
if "numpy" not in sys.modules:
    _BLAS_THREADS = {v: os.environ[v] for v in _THREAD_VARS}

import numpy as np  # noqa: E402

from . import cost, data, distill, train, transform, zoo  # noqa: E402
from .arch import ArchSpec, build_model, load_model  # noqa: E402
from .errors import ArchError, DataFormatError, NumericalError  # noqa: E402
from .tensor import _write_then_replace  # noqa: E402


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def resolve_arch(spec: str) -> ArchSpec:
    if spec.startswith("zoo:"):
        name = spec[len("zoo:"):]
        try:
            return zoo.build_zoo_arch(name)
        except ValueError as exc:
            raise ArchError(str(exc)) from exc
    return ArchSpec.load(spec)


def _make_run_dir(args, command: str) -> Path:
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        run_dir = Path(args.output_root) / f"{command}-{stamp}"
        suffix = 0
        while run_dir.exists():
            suffix += 1
            run_dir = Path(args.output_root) / f"{command}-{stamp}-{suffix}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _environment() -> dict:
    """What decides speed and, through BLAS summation order, the exact
    float results of a run."""
    env = {"numpy": np.__version__,
           "threads": dict(_BLAS_THREADS)}
    try:  # show_config(mode=...) needs numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    return env


def _write_run_json(run_dir: Path, record: dict) -> None:
    _write_then_replace(run_dir / "run.json", json.dumps(
        record, indent=1, sort_keys=True, default=str).encode())


def _write_run_config(run_dir: Path, args, command: str) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "output_root", "run_dir", "log_level")}
    config["command"] = command
    config["environment"] = _environment()
    _write_run_json(run_dir, config)
    return config


def _write_run_summary(run_dir: Path, config: dict, started: float,
                       samples: int, train_s: float) -> None:
    """Rewrite ``run.json`` with what the finished run cost: wall seconds
    since the command started, and the samples its training loop stepped
    through (epochs x training set) per second of that loop, and the
    process's peak resident memory so far."""
    summary = {"wall_s": time.perf_counter() - started, "train_samples": samples,
               "train_s": train_s, "train_samples_per_s": samples / train_s}
    if resource is not None:
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary["peak_rss_mb"] = peak / (1024 * 1024 if sys.platform == "darwin"
                                         else 1024)
    _write_run_json(run_dir, {**config, "summary": summary})


@contextlib.contextmanager
def _csv_rows(path: Path, columns: list[str]):
    """Yield a function that appends one row to the CSV file at ``path`` and
    flushes it, so the rows written before an abort stay in the file. The
    row's ``columns`` are followed by ``seconds``: the wall time since the
    previous row, or for the first row since the function was yielded, just
    before the loop that records the rows starts."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns + ["seconds"], lineterminator="\n")
        writer.writeheader()
        last = time.perf_counter()

        def write(row: dict) -> None:
            nonlocal last
            now = time.perf_counter()
            writer.writerow({**{c: row.get(c, "") for c in columns},
                             "seconds": f"{now - last:.6f}"})
            last = now
            f.flush()

        yield write


def _load_split(args, split: str) -> data.Dataset:
    """The "train" or "test" split: --synthetic (the test split a fifth the
    size, from its own seed), else MNIST via --data-dir/$MNIST_DIR."""
    train = split == "train"
    if args.synthetic:
        return data.make_synthetic(
            args.classes, args.per_class if train else max(args.per_class // 5, 1),
            seed=args.seed if train else args.seed + 10_000,
            image_size=args.image_size, separation=args.separation)
    found = data.find_mnist(args.data_dir)
    if found is None:
        raise DataFormatError(
            "no dataset: pass --synthetic, or point --data-dir/$MNIST_DIR at "
            "the four MNIST IDX files")
    dataset = data.load_mnist_idx(*found[split])
    return dataset.subset(args.limit) if train and args.limit else dataset


def _check_images(dataset: data.Dataset, arch: ArchSpec, role: str) -> None:
    """Reject images that do not fit ``arch``'s input, before any output is
    written."""
    expected = (arch.in_channels, arch.in_height, arch.in_width)
    if dataset.images.shape[1:] != expected:
        raise DataFormatError(f"dataset images are {dataset.images.shape[1:]} "
                              f"(C, H, W); the {role} expects {expected}")


# -- subcommands ---------------------------------------------------------------

def cmd_analyze(args) -> int:
    arch = resolve_arch(args.arch)
    report = cost.analyze(arch)
    text = cost.render_text(report, title=f"cost report: {args.arch}")
    run_dir = _make_run_dir(args, "analyze")
    _write_run_config(run_dir, args, "analyze")
    text_path = Path(args.text) if args.text else run_dir / "report.txt"
    csv_path = Path(args.csv) if args.csv else run_dir / "report.csv"
    text_path.write_text(text)
    csv_path.write_text(cost.render_csv(report))
    sys.stdout.write(text)
    print(f"[analyze] wrote {text_path} and {csv_path}")
    return 0


def cmd_transform(args) -> int:
    arch = resolve_arch(args.arch)
    result = transform.transform_with_report(
        arch, _policy(args, replace_selector=args.selector))
    diff = transform.render_diff(arch, result.arch, result)
    run_dir = _make_run_dir(args, "transform")
    _write_run_config(run_dir, args, "transform")
    result.arch.save(run_dir / "compact.json")
    (run_dir / "diff.txt").write_text(diff)
    sys.stdout.write(diff)
    print(f"[transform] wrote {run_dir}/compact.json and diff.txt")
    return 0


_TRAIN_COLUMNS = ["epoch", "iteration", "loss", "lr", "test_error"]
_DISTILL_COLUMNS = ["iteration", "kl", "ce", "sp", "total", "lr"]


def cmd_train(args) -> int:
    started = time.perf_counter()
    arch = resolve_arch(args.model)
    model = build_model(arch, seed=args.seed)
    train_set = _load_split(args, "train")
    _check_images(train_set, arch, "model")
    test_set = _load_split(args, "test")
    schedule = train.constant_schedule(args.lr) if args.schedule == "constant" \
        else train.step_decay_schedule(args.lr, floor=args.lr_floor)
    run_dir = _make_run_dir(args, "train")
    run_config = _write_run_config(run_dir, args, "train")
    with _csv_rows(run_dir / "metrics.csv", _TRAIN_COLUMNS) as write_row:
        loop_start = time.perf_counter()
        metrics = train.train_classifier(
            model, train_set, epochs=args.epochs, batch_size=args.batch,
            schedule=schedule, momentum=args.momentum,
            weight_decay=args.weight_decay, seed=args.seed, eval_data=test_set,
            checkpoint_prefix=run_dir / "model", on_row=write_row)
        train_s = time.perf_counter() - loop_start
    _write_run_summary(run_dir, run_config, started, args.epochs * len(train_set),
                       train_s)
    test_error = metrics[-1]["test_error"]
    print(f"[train] test error {100 * test_error:.2f}% "
          f"({round(test_error * len(test_set))}/{len(test_set)}); "
          f"checkpoint {run_dir}/model, metrics {run_dir}/metrics.csv")
    return 0


def cmd_distill(args) -> int:
    started = time.perf_counter()
    teacher = load_model(args.teacher)
    if args.student:
        student_arch = resolve_arch(args.student)
    else:
        student_arch = transform.distill_architecture(teacher.arch, _policy(args))
    student = build_model(student_arch, seed=args.seed)
    train_set = _load_split(args, "train")
    _check_images(train_set, teacher.arch, "teacher")
    _check_images(train_set, student_arch, "student")
    pairs = None
    if args.taps:
        pairs = [tuple(p.split(":")) for p in args.taps.split(",")]
        if any(len(p) != 2 for p in pairs):
            raise ArchError("--taps must look like tapA:tapB,tapC:tapD")
    config = distill.DistillConfig(
        mu=args.mu, beta=args.beta, lam=args.lam, tap_pairs=pairs,
        epochs=args.epochs, batch_size=args.batch, lr=args.lr,
        momentum=args.momentum, weight_decay=args.weight_decay, seed=args.seed)
    distill.resolve_tap_pairs(teacher, student, config)   # before any output
    run_dir = _make_run_dir(args, "distill")
    run_config = _write_run_config(run_dir, args, "distill")
    student_arch.save(run_dir / "student_arch.json")
    with _csv_rows(run_dir / "metrics.csv", _DISTILL_COLUMNS) as write_row:
        loop_start = time.perf_counter()
        metrics = distill.distill_train(teacher, student, train_set, config,
                                        checkpoint_prefix=run_dir / "student",
                                        on_row=write_row)
        train_s = time.perf_counter() - loop_start
    _write_run_summary(run_dir, run_config, started, args.epochs * len(train_set),
                       train_s)
    print(f"[distill] {len(metrics)} iterations; student checkpoint "
          f"{run_dir}/student, metrics {run_dir}/metrics.csv")
    return 0


def cmd_report(args) -> int:
    model = load_model(args.ckpt)
    edges, counts = train.weight_histogram(model, bins=args.bins)
    run_dir = _make_run_dir(args, "report")
    _write_run_config(run_dir, args, "report")
    (run_dir / "weights_histogram.csv").write_text(train.histogram_csv(edges, counts))
    report = cost.analyze(model.arch)
    (run_dir / "report.txt").write_text(cost.render_text(report, title="cost report"))
    print(f"[report] wrote {run_dir}/weights_histogram.csv and report.txt")
    return 0


# -- argument parsing ------------------------------------------------------------

def _add_common_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-root", default="runs",
                   help="parent directory for per-run output directories")
    p.add_argument("--run-dir", default=None,
                   help="exact output directory (overrides --output-root)")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=None,
                   help="directory with MNIST IDX files (default: $MNIST_DIR)")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the number of training samples (0 = all)")
    p.add_argument("--synthetic", action="store_true",
                   help="use the deterministic synthetic blob dataset")
    p.add_argument("--classes", type=_positive_int, default=10)
    p.add_argument("--per-class", type=_positive_int, default=200)
    p.add_argument("--image-size", type=_positive_int, default=28)
    p.add_argument("--separation", type=_nonneg_float, default=3.0)


# the library's defaults, which the flags below take as theirs
_CONFIG = distill.DistillConfig()
_POLICY = transform.DistillPolicy()


def _add_opt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_positive_int, default=_CONFIG.epochs)
    p.add_argument("--batch", type=_positive_int, default=_CONFIG.batch_size)
    p.add_argument("--lr", type=_nonneg_float, default=_CONFIG.lr)
    p.add_argument("--momentum", type=_nonneg_float, default=_CONFIG.momentum)
    p.add_argument("--weight-decay", type=_nonneg_float, default=_CONFIG.weight_decay)
    p.add_argument("--seed", type=int, default=_CONFIG.seed)


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=_nonneg_float, default=_POLICY.omega)
    p.add_argument("--bottleneck", type=_positive_int, default=_POLICY.bottleneck_dim)
    p.add_argument("--threshold", type=_nonneg_float, default=_POLICY.threshold)
    p.add_argument("--variant", choices=transform.VARIANTS, default=_POLICY.variant)
    p.add_argument("--residual", action="store_true")


def _policy(args, **extra) -> transform.DistillPolicy:
    return transform.DistillPolicy(
        threshold=args.threshold, bottleneck_dim=args.bottleneck, omega=args.omega,
        variant=args.variant, residual=args.residual, **extra)


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcnn",
        description="compact-CNN cost analysis, transformation and distillation")
    parser.add_argument("--log-level", default="warning", choices=_LOG_LEVELS,
                        help="lowest level of parcnn log messages printed to "
                             "stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="FLOPs/storage report for an architecture")
    p.add_argument("arch", help="architecture JSON path or zoo:<name>")
    p.add_argument("--csv", default=None, help="explicit CSV output path")
    p.add_argument("--text", default=None, help="explicit text output path")
    _add_common_run_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="turn a baseline into a compact network")
    p.add_argument("arch")
    _add_policy_args(p)
    p.add_argument("--selector", default=_POLICY.replace_selector,
                   help="interior | residual_body | all | comma-separated names")
    _add_common_run_args(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="baseline cross-entropy training")
    p.add_argument("--model", required=True, help="architecture JSON or zoo:<name>")
    p.add_argument("--schedule", choices=("constant", "step"), default="constant",
                   help=f"constant: --lr throughout; step: x{train.DECAY_FACTOR:g} "
                        f"every {train.DECAY_EVERY} steps, floored at --lr-floor")
    p.add_argument("--lr-floor", type=_nonneg_float, default=0.0002)
    _add_opt_args(p)
    _add_data_args(p)
    _add_common_run_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distill", help="teacher-student distillation")
    p.add_argument("--teacher", required=True, help="teacher checkpoint prefix")
    p.add_argument("--student", default=None,
                   help="student architecture (default: transform the teacher)")
    p.add_argument("--mu", type=_nonneg_float, default=_CONFIG.mu)
    p.add_argument("--beta", type=_nonneg_float, default=_CONFIG.beta)
    p.add_argument("--lambda", dest="lam", type=_nonneg_float, default=_CONFIG.lam)
    p.add_argument("--taps", default=None, help="tap pairs, e.g. s1_in:s1_out,...")
    _add_policy_args(p)
    _add_opt_args(p)
    _add_data_args(p)
    _add_common_run_args(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("report", help="weight histogram + cost report for a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint prefix")
    p.add_argument("--bins", type=_positive_int, default=101)
    _add_common_run_args(p)
    p.set_defaults(func=cmd_report)

    return parser


@contextlib.contextmanager
def _log_to_stderr(level: str):
    """Print the ``parcnn`` loggers' messages at ``level`` and above to
    stderr while the block runs."""
    logger = logging.getLogger("parcnn")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.func(args)
        except (ArchError, DataFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 4
        except ValueError as exc:   # a flag value the library rejects
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
