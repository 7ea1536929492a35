#!/usr/bin/env python3
"""parcnn benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload kd-synthetic --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in this one process on one
BLAS thread, as a closed loop of whole rounds (set-up, then fixed work)
until ``--seconds`` is spent. With ``--trace 0`` the last line of output is
a JSON object whose metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the run first repeats the untraced loop for half the
budget, then runs it traced for the other half, and the metrics are the
per-layer ones. Every metric, check verdict and the environment are
printed above that line and written to ``perfbench/runs/``. See
perfbench/README.md.
"""
import os

# one BLAS thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import Pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# gated in BENCHMARK.json, for every workload: wall_s is the mean time of
# one round's fixed work, setup_s the mean time of one set-up (both scaled
# to reference-machine speed; see pace.py), peak_rss_mb the process's peak
# memory
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# phase throughputs: printed for the workloads that have the phase; the
# traced run reports them as per-layer metrics (0 where a phase is absent)
PHASES = {
    "teacher_train": "teacher_train_samples_per_s",
    "student_train": "student_train_samples_per_s",
    "distill": "distill_samples_per_s",
    "eval": "eval_samples_per_s",
    "analyze": "analyses_per_s",
    "transform": "transforms_per_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(np) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def summarize(setups, rounds, pace=None) -> dict:
    """End-to-end and phase metrics of one closed loop of rounds. The gated
    times are the means of the round and set-up times, each scaled by
    ``pace`` to reference-machine speed (raw without one); the raw means
    stay beside them. Phase throughputs are raw medians over rounds."""
    walls = [r.wall_s for r in rounds]
    wall_raw = statistics.fmean(walls)
    setup_raw = statistics.fmean(setups.seconds)
    wall = pace.scaled_mean([r.start for r in rounds], walls) if pace else wall_raw
    m = {
        "wall_s": wall,
        "setup_s": pace.scaled_mean(setups.start, setups.seconds) if pace else setup_raw,
        "wall_raw_s": wall_raw,
        "setup_raw_s": setup_raw,
        "pace_scale": wall / wall_raw,
        "rounds": len(rounds),
        "setups": len(setups.seconds),
    }
    for phase, metric in PHASES.items():
        rates = [r.phases[phase][0] / r.phases[phase][1] for r in rounds
                 if phase in r.phases]
        if rates:
            m[metric] = statistics.median(rates)
    return m


def merge_checks(rounds) -> list[tuple[str, bool, str]]:
    """One verdict per check name: it passes when it passed in every round."""
    merged: dict[str, tuple[bool, str]] = {}
    for r in rounds:
        for name, ok, detail in r.checks:
            prev = merged.get(name)
            if prev is None or (prev[0] and not ok):
                merged[name] = (ok, detail)
    return [(n, ok, d) for n, (ok, d) in merged.items()]


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "parcnn" / "__init__.py").is_file():
        print(f"parcnn sources not found under {SRC}; run from a parcnn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import parcnn
    if SRC not in Path(parcnn.__file__).resolve().parents:
        print(f"imported parcnn from {parcnn.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    # the transform warns for every under-sized bottleneck in the policy grid
    logging.getLogger("parcnn").setLevel(logging.ERROR)
    env = environment(np)
    budget = args.seconds / 2 if args.trace else args.seconds

    for _ in range(workload.warmup_rounds):
        workload.work(workload.setup(args.seed), wl.Round())
    with Pace(workload.pace) as pace:
        setups, rounds = wl.run_rounds(args.workload, args.seed, budget, pace.now)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = summarize(setups, rounds, pace)
    result["peak_rss_mb"] = peak_rss_mb
    checks = merge_checks(rounds)
    digests = [r.digest() for r in rounds]
    checks.append(("same result digest in every round", len(set(digests)) == 1,
                   f"{len(rounds)} rounds, digest {digests[0]}"))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    out = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "environment": env, "untraced": result,
           "digest": digests[0],
           "rounds": {"start": [r.start for r in rounds],
                      "seconds": [r.wall_s for r in rounds]},
           "setups": {"start": list(setups.start), "seconds": list(setups.seconds)},
           "pace_kernel": workload.pace, "pace_ticks": pace.ticks}

    if args.trace:
        tracer = tr.Tracer()

        def name_models(state):
            for role, model in workload.roles(state):
                tracer.set_role(model, role)

        # no reference kernel here: it would land inside the spans
        with tracer:
            t_setup, t_rounds = wl.run_rounds(args.workload, args.seed, budget,
                                              on_state=name_models)
        traced = summarize(t_setup, t_rounds)
        layer = tr.per_layer_metrics(tracer, len(t_rounds))
        layer["trace.overhead_share"] = traced["wall_raw_s"] / result["wall_raw_s"] - 1
        for metric in PHASES.values():
            layer[metric] = result.get(metric, 0.0)
        t_digests = {r.digest() for r in t_rounds}
        checks.append(("traced rounds give the untraced digest",
                       t_digests == {digests[0]}, f"{len(t_rounds)} traced rounds"))
        archs = {name: wl.zoo.build_zoo_arch(name) for name in wl.zoo.ZOO_NAMES}
        for role, model in workload.roles(workload.setup(args.seed)):
            if all(model.arch.to_obj() != a.to_obj() for a in archs.values()):
                archs[f"{args.workload} {role}"] = model.arch
        for name, ok, detail in tr.check_macs(archs):
            checks.append((f"traced MACs equal cost.analyze per layer: {name}",
                           ok, detail))
        tables = tr.layer_rows(tracer)
        out.update(traced=traced, per_layer=layer, layer_tables=tables,
                   wall_vs_macs=wall_vs_macs(result, tables))
        attempted += sum(r.attempted for r in t_rounds)
        failed += sum(r.failed for r in t_rounds)

    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted += len(checks)
    failed += failed_checks
    result["failed_share"] = failed / attempted
    out.update(checks=[{"name": n, "pass": ok, "detail": d} for n, ok, d in checks],
               info=dict(i for r in rounds for i in r.info),
               attempted=attempted, failed=failed)

    print(f"parcnn benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas'].get('name')} {env['blas'].get('version')}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"rounds {result['rounds']}, digest {digests[0]}")
    for key, value in result.items():
        print(f"  {key:32s} {fmt(value):>14s} {_unit(key)}")
    print(f"  {'attempted':32s} {attempted:>14d} operations and checks")
    for name, ok, detail in checks:
        print(f"CHECK {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    for name, detail in out["info"].items():
        print(f"INFO  {name}: {detail}")
    if args.trace:
        for role, rows in tables.items():
            print(f"\nlayer table, {role} (traced; ms per call, backward per "
                  f"graph-building call):")
            print(tr.render_table(rows))
        for role, v in out["wall_vs_macs"].items():
            if "mac_ratio" in v:
                print(f"wall vs MACs, {role}: {v['mac_ratio']:.2f}x the MACs, "
                      f"{v['time_ratio']:.2f}x the training time per sample")
            else:
                print(f"wall vs MACs, {role}: {v['train_us_per_sample']:.1f} us and "
                      f"{v['macs_per_sample']:,} MACs per training sample, "
                      f"{v['ns_per_mac']:.3f} ns per MAC")
        print()
        for key, value in layer.items():
            print(f"  {key:40s} {fmt(value):>14s}")

    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"))
    stem.with_suffix(".json").write_text(json.dumps(out, indent=1, default=str) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def wall_vs_macs(untraced: dict, tables: dict) -> dict:
    """Measured training time per sample against static MACs per sample, for
    each role; information only, not gated."""
    out = {}
    for role, phase in (("teacher", "teacher_train_samples_per_s"),
                        ("student", "student_train_samples_per_s")):
        if role in tables and phase in untraced:
            macs = sum(r["static_macs"] for r in tables[role])
            us = 1e6 / untraced[phase]
            out[role] = {"train_us_per_sample": us, "macs_per_sample": macs,
                         "ns_per_mac": 1e3 * us / macs}
    if len(out) == 2:
        t, s = out["teacher"], out["student"]
        out["teacher/student"] = {
            "mac_ratio": t["macs_per_sample"] / s["macs_per_sample"],
            "time_ratio": t["train_us_per_sample"] / s["train_us_per_sample"]}
    return out


def _unit(key: str) -> str:
    if key.endswith("samples_per_s"):
        return "samples/s"
    if key.endswith("gmacs_per_s"):
        return "GMAC/s"
    if key.endswith("_per_s"):
        return "calls/s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith(("share", "scale")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
