"""The three benchmark workloads.

Each workload is a ``setup(seed)`` that makes inputs and models, and a
``work(state, rec)`` that runs one round of fixed work through parcnn's
public functions and records phase times, operation counts, the loss (or
result) sequence and correctness checks into ``rec``. ``run_rounds``
repeats set-up plus work in a closed loop until the time budget is spent,
always finishing at least one whole round.

Every call goes through a module attribute (``train.train_classifier``,
``cost.analyze``, ...), so the tracer in ``tracer.py`` sees it when
installed.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
from array import array
from dataclasses import dataclass, field

from parcnn import arch as A
from parcnn import cost, data, distill, train, transform, zoo
from parcnn.errors import ArchError, NumericalError

# set-up repeats for at least SETUP_MIN_S in all, so its median is steady;
# see run_rounds for SETUP_SHARE
SETUP_MIN_S = 3.0
SETUP_SHARE = 0.2
# failures a workload step can raise; anything else is a harness bug and
# ends the run
STEP_ERRORS = (NumericalError, ArchError, ValueError)


@dataclass
class Round:
    """What one round of a workload measured and checked."""

    phases: dict[str, list[float]] = field(default_factory=dict)  # name -> [items, seconds]
    sequence: list[float] = field(default_factory=list)   # losses or result totals
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    info: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    start: float = 0.0      # on the run's clock
    wall_s: float = 0.0
    clock: object = time.perf_counter

    def timed(self, phase: str, items: int, fn, *args, **kwargs):
        """Call ``fn``, adding ``items`` and its duration to ``phase``."""
        t0 = self.clock()
        out = fn(*args, **kwargs)
        acc = self.phases.setdefault(phase, [0, 0.0])
        acc[0] += items
        acc[1] += self.clock() - t0
        return out

    def call(self, phase: str, fn, *args):
        """One static call: counted as an operation and timed."""
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn(*args)
        except STEP_ERRORS as exc:
            self.failed += 1
            self.check(f"{phase} call", False, f"{type(exc).__name__}: {exc}")
            return None
        acc = self.phases.setdefault(phase, [0, 0.0])
        acc[0] += 1
        acc[1] += self.clock() - t0
        return out

    def steps(self, phase: str, planned: int, items: int, fn, *args, **kwargs):
        """Run a training or distillation loop of ``planned`` steps; a loop
        that raises counts every planned step as failed."""
        self.attempted += planned
        try:
            rows = self.timed(phase, items, fn, *args, **kwargs)
        except STEP_ERRORS as exc:
            self.failed += planned
            self.check(f"{phase} finished", False, f"{type(exc).__name__}: {exc}")
            return
        losses = [r["total"] if "total" in r else r["loss"] for r in rows]
        bad = sum(not math.isfinite(v) for v in losses)
        self.failed += bad
        self.sequence.extend(losses)
        if rows and "total" in rows[0]:
            self.sequence.extend(v for r in rows for v in (r["kl"], r["ce"], r["sp"]))
        self.check(f"{phase} losses finite", bad == 0,
                   f"{len(losses) - bad}/{len(losses)} finite")

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def digest(self) -> str:
        text = ",".join(repr(float(v)) for v in self.sequence)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _steps(n: int, batch: int, epochs: int) -> int:
    return epochs * math.ceil(n / batch)


# -- kd-synthetic ---------------------------------------------------------
# The acceptance 6-synthetic pipeline at its test data sizes: the data and
# the mnist_small teacher are the acceptance fixture's (seeds 100, 900, 0),
# so the teacher bound is the acceptance test's own; the workload seed picks
# the student seed, which sets student initialisation and batch order.
KD_EPOCHS = 4
KD_BATCH = 64


def kd_setup(seed: int) -> dict:
    train_set = data.make_synthetic(10, 120, seed=100, separation=3.0, noise=0.03)
    test_set = data.make_synthetic(10, 50, seed=900, separation=3.0, noise=0.03)
    teacher = A.build_model(zoo.build_zoo_arch("mnist_small"), seed=0)
    student_arch = transform.transform_with_report(
        teacher.arch, transform.DistillPolicy()).arch
    return {"train": train_set, "test": test_set, "teacher": teacher,
            "ce": A.build_model(student_arch, seed=seed),
            "kd": A.build_model(student_arch, seed=seed), "seed": seed}


def kd_roles(s: dict) -> list[tuple[str, A.Model]]:
    return [("teacher", s["teacher"]), ("student", s["ce"]), ("student", s["kd"])]


def kd_work(s: dict, rec: Round) -> None:
    n = len(s["train"])
    planned = _steps(n, KD_BATCH, KD_EPOCHS)
    items = n * KD_EPOCHS
    schedule = train.constant_schedule(0.01)
    n_test = len(s["test"])

    rec.steps("teacher_train", planned, items, train.train_classifier, s["teacher"],
              s["train"], epochs=KD_EPOCHS, batch_size=KD_BATCH, schedule=schedule,
              seed=0)
    teacher_err = rec.timed("eval", n_test, train.evaluate, s["teacher"], s["test"]).cer
    rec.steps("student_train", planned, items, train.train_classifier, s["ce"],
              s["train"], epochs=KD_EPOCHS, batch_size=KD_BATCH, schedule=schedule,
              seed=s["seed"])
    ce_err = rec.timed("eval", n_test, train.evaluate, s["ce"], s["test"]).cer
    rec.steps("distill", planned, items, distill.distill_train, s["teacher"], s["kd"],
              s["train"], distill.DistillConfig(mu=0.8, beta=0.2, lam=0.1,
                                                epochs=KD_EPOCHS, batch_size=KD_BATCH,
                                                lr=0.01, seed=s["seed"]))
    kd_err = rec.timed("eval", n_test, train.evaluate, s["kd"], s["test"]).cer
    rec.sequence += [teacher_err, ce_err, kd_err]

    rec.check("teacher error <= 0.20 (acceptance 6-synthetic)", teacher_err <= 0.20,
              f"{100 * teacher_err:.2f}%")
    # sanity bound, far from chance (90%): CE-only students land near 19%
    # and distilled ones near 16% on this data
    for name, err in (("CE-only student", ce_err), ("distilled student", kd_err)):
        rec.check(f"{name} error <= 0.30", err <= 0.30, f"{100 * err:.2f}%")
    # the acceptance direction bounds hold for the mean of three student
    # seeds; one seed per run can miss them without any defect, so they are
    # reported, not counted
    rec.info.append(("KD <= CE + 0.001 (acceptance bound on a 3-seed mean)",
                     f"{'holds' if kd_err <= ce_err + 0.001 else 'misses'} for "
                     f"seed {s['seed']}: KD {100 * kd_err:.2f}% vs CE {100 * ce_err:.2f}%"))
    rec.info.append(("KD <= teacher + 0.025 (acceptance bound on a 3-seed mean)",
                     f"{'holds' if kd_err <= teacher_err + 0.025 else 'misses'} for "
                     f"seed {s['seed']}: KD {100 * kd_err:.2f}% vs teacher "
                     f"{100 * teacher_err:.2f}%"))


# -- train-res18 ----------------------------------------------------------
# K x K convolution dominates; no compact op and no distillation code runs.
RES18_BATCH = 32
RES18_TRAIN = 32     # one step per round
RES18_TEST = 32


def res18_setup(seed: int) -> dict:
    train_set = data.make_synthetic(10, 4, seed=seed).subset(RES18_TRAIN)
    test_set = data.make_synthetic(10, 4, seed=seed + 1).subset(RES18_TEST)
    model = A.build_model(zoo.build_zoo_arch("res18_mini"), seed=seed)
    return {"train": train_set, "test": test_set, "model": model, "seed": seed}


def res18_work(s: dict, rec: Round) -> None:
    planned = _steps(RES18_TRAIN, RES18_BATCH, 1)
    rec.steps("teacher_train", planned, RES18_TRAIN, train.train_classifier, s["model"],
              s["train"], epochs=1, batch_size=RES18_BATCH,
              schedule=train.constant_schedule(0.01), seed=s["seed"])
    err = rec.timed("eval", RES18_TEST, train.evaluate, s["model"], s["test"],
                    batch_size=RES18_BATCH).cer
    rec.sequence.append(err)
    rec.check("evaluation error rate in [0, 1]", 0.0 <= err <= 1.0, f"{err:.4f}")


# -- static-cost ----------------------------------------------------------
# Tensor-free calls only: JSON round trip and validate, transform and
# analyze. ``arch`` is used for validation, never for builds.
PINNED_MACS = {"dcnn_table2": 1_602_104_400, "res18_mini": 455_800_832,
               "parres18_mini": 49_999_264}
# selectors that find replaceable convolutions in each architecture;
# parres18_mini is already compact and is only round-tripped and analyzed
SELECTORS = {"dcnn_table2": ("interior", "all"),
             "mnist_small": ("interior", "all"),
             "res18_mini": ("interior", "residual_body")}
OMEGAS = (0.25, 0.5, 0.75, 1.0)
BOTTLENECK_DIMS = (25, 50, 100)


def static_setup(seed: int) -> dict:
    """The zoo plus, per transformable architecture, one policy for each
    variant x residual x selector; the seed draws omega and bottleneck_dim.
    The seed so changes the inputs but not the kinds of work in a round."""
    archs = {name: zoo.build_zoo_arch(name) for name in zoo.ZOO_NAMES}
    # the standard library's generator: numpy's per-call overhead would be
    # most of the set-up time
    rng = random.Random(seed)
    grid = []
    for name, selectors in SELECTORS.items():
        for variant, residual, selector in itertools.product(
                transform.VARIANTS, (False, True), selectors):
            grid.append((name, transform.DistillPolicy(
                bottleneck_dim=rng.choice(BOTTLENECK_DIMS),
                omega=rng.choice(OMEGAS), variant=variant,
                residual=residual, replace_selector=selector)))
    return {"archs": archs, "grid": grid}


def static_work(s: dict, rec: Round) -> None:
    source_macs = {}
    pinned = roundtrips = reduced = True
    for name, spec in s["archs"].items():
        rt = rec.call("roundtrip", lambda: A.ArchSpec.from_json(spec.to_json()))
        roundtrips &= rt is not None and rt.to_obj() == spec.to_obj()
        rec.call("validate", spec.validate)
        report = rec.call("analyze", cost.analyze, spec)
        if report is None:
            continue
        source_macs[name] = report.total_flops
        rec.sequence += [report.total_flops, report.total_params]
        pinned &= report.total_flops == PINNED_MACS.get(name, report.total_flops)
    for name, policy in s["grid"]:
        result = rec.call("transform", transform.transform_with_report,
                          s["archs"][name], policy)
        valid = result is not None and rec.call("validate", result.arch.validate)
        report = rec.call("analyze", cost.analyze, result.arch) if valid else None
        if report is None:
            reduced = False
            continue
        rec.sequence += [report.total_flops, report.total_params, result.replaced]
        reduced &= report.total_flops < source_macs.get(name, 0)
    rec.check("pinned MAC totals (dcnn_table2, res18_mini, parres18_mini)", pinned,
              ", ".join(f"{n} {m:,}" for n, m in PINNED_MACS.items()))
    rec.check("ArchSpec JSON round trips are equal", roundtrips,
              f"{len(s['archs'])} architectures")
    rec.check("every transform validates and has fewer MACs than its source",
              reduced, f"{len(s['grid'])} policies")


@dataclass
class Workload:
    setup: object       # seed -> state
    work: object        # (state, Round) -> None
    roles: object       # state -> [(role, model)] for the layer table
    pace: str           # kernel kind that scales its times (pace.py)
    # untimed rounds run once per process first: train-res18's first round
    # pays the first touch of its large im2col buffers
    warmup_rounds: int = 0


WORKLOADS = {
    "kd-synthetic": Workload(kd_setup, kd_work, kd_roles, "interpreter"),
    "train-res18": Workload(res18_setup, res18_work,
                            lambda s: [("teacher", s["model"])], "array", 1),
    "static-cost": Workload(static_setup, static_work, lambda s: [], "interpreter"),
}


@dataclass
class Setups:
    """Start (on the run's clock) and duration of each set-up, kept in
    arrays: static-cost makes tens of thousands, and their records should
    not move the process's peak memory."""

    start: array = field(default_factory=lambda: array("d"))
    seconds: array = field(default_factory=lambda: array("d"))


def run_rounds(workload: str, seed: int, seconds: float, clock=time.perf_counter,
               on_state=None) -> tuple[Setups, list[Round]]:
    """Closed loop: set up, run one round, repeat while the budget lasts.

    Further set-ups run between rounds, until set-up has taken
    ``SETUP_SHARE`` of the time so far, so that set-up and rounds are timed
    under the same host load; set-up runs for at least ``SETUP_MIN_S`` in
    all. Returns the set-ups' start and duration, and the rounds. Every
    time is read from ``clock`` (``Pace.now`` in measured runs).
    ``on_state`` sees each fresh state before its round (the tracer uses
    it to name the models it traces).
    """
    setup, work = WORKLOADS[workload].setup, WORKLOADS[workload].work
    setups = Setups()
    rounds: list[Round] = []
    setup_total = 0.0

    def set_up():
        nonlocal setup_total
        t0 = clock()
        state = setup(seed)
        setups.start.append(t0)
        setups.seconds.append(clock() - t0)
        setup_total += setups.seconds[-1]
        return state

    start = clock()
    while not rounds or clock() - start < seconds:
        state = set_up()
        if on_state is not None:
            on_state(state)
        rec = Round(clock=clock)
        rec.start = clock()
        try:
            work(state, rec)
        except STEP_ERRORS as exc:
            rec.check("round finished", False, f"{type(exc).__name__}: {exc}")
        rec.wall_s = clock() - rec.start
        rounds.append(rec)
        del state
        while setup_total < min(SETUP_MIN_S, SETUP_SHARE * (clock() - start)):
            set_up()
    while setup_total < SETUP_MIN_S:
        set_up()
    return setups, rounds
