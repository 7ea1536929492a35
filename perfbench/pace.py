"""Machine-speed reference for the benchmark's gated times.

The reference machine shares its cores with other tenants, and their load
is invisible to the process: its CPU time equals its wall time and no
steal time is reported, yet the host moves between faster and slower
states, and in the slowest the same fixed work took up to 1.8 times as
long. So, while a run measures, a timer signal interrupts it every
``INTERVAL_S`` and runs two small fixed reference kernels, timed apart:
interpreter work (JSON round trips, small objects, string formatting) and
array work (a GEMM, a transposing copy and an elementwise pass). Each
measured interval (one round, or one set-up) is scaled by the kernel
times of the ticks that fell within ``WINDOW_S`` of it:

    scaled time = measured time * NOMINAL_KERNEL_S[kind]
                  / mean kernel time of that kind near the interval

so a long round is scaled by the host's mean state over the whole round,
and a short set-up by its state in the second or so around it. The
host's slow state slows interpreter-bound work more than large-array
work, so each workload is scaled by the kernel that follows it best: the
array kernel for train-res18's large GEMMs, the interpreter kernel for
the others (perfbench/README.md shows the spreads each kind gives each
workload). The kernels use only Python and numpy, never parcnn, so no
change to parcnn can move them. The cyclic garbage collector is off
while they run, so their time does not depend on how many objects the
workload holds. Time spent in them is excluded from every measurement
through ``now()``.

``NOMINAL_KERNEL_S`` only fixes the unit: it is close to each kernel's
mean time on the reference machine (2 cores of an Intel Xeon, Python
3.11, numpy 2.4) when the host is quiet, so scaled times read roughly as
seconds on that machine.
"""
from __future__ import annotations

import bisect
import gc
import itertools
import json
import signal
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_KERNEL_S = {"interpreter": 0.001, "array": 0.003}
KINDS = tuple(NOMINAL_KERNEL_S)
INTERVAL_S = 0.05
WINDOW_S = 0.5


@dataclass
class _Row:
    name: str
    kind: str
    config: str
    flops: int


class Pace:
    """Samples the reference kernels on a timer while entered; ``kind``
    names the one that scales this run's times."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"kernel kind must be one of {KINDS}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(1024, 576)).astype(np.float32)
        self._w = rng.normal(size=(576, 64)).astype(np.float32)
        self._m = rng.normal(size=(16, 32, 26, 26)).astype(np.float32)
        self._doc = {"layers": [{"type": "conv", "name": f"conv{i}", "kernel": 3,
                                 "out_channels": 16 * (i + 1), "bn": True}
                                for i in range(40)]}
        # one per tick: (now() when it fired, {kind: kernel seconds})
        self.ticks: list[tuple[float, dict[str, float]]] = []
        self.spent = 0.0                   # seconds spent in the kernels
        self._previous = None

    def _interpreter(self) -> None:
        for _ in range(3):
            doc = json.loads(json.dumps(self._doc, indent=1))
            rows = [_Row(e["name"], e["type"],
                         f"F:{e['out_channels']}, K:{e['kernel']}x{e['kernel']}",
                         e.get("stride", 1) * e["out_channels"] * e["kernel"] ** 2)
                    for e in doc["layers"]]
            sum(r.flops for r in rows if r.kind == "conv")

    def _array(self) -> None:
        (self._x @ self._w).sum()
        cols = np.ascontiguousarray(self._m.transpose(0, 2, 3, 1))
        (np.maximum(cols, 0.0) * 0.5 + cols.mean(axis=(0, 1, 2))).sum()

    def _on_alarm(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        at = self.now()
        t0 = time.perf_counter()
        self._interpreter()
        t1 = time.perf_counter()
        self._array()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ticks.append((at, {"interpreter": t1 - t0, "array": t2 - t1}))
        self.spent += t2 - t0

    def now(self) -> float:
        """A clock that stops while the kernels run."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_mean(self, starts, seconds) -> float:
        """Mean reference-machine duration of the intervals that start at
        ``starts`` (on the ``now()`` clock) and last ``seconds``, each
        scaled by the run's kernel times near it. An interval with no tick
        near it takes the whole run's kernel mean; without any tick,
        durations stay raw."""
        at = [t for t, _ in self.ticks]
        total = list(itertools.accumulate((k[self.kind] for _, k in self.ticks),
                                          initial=0.0))
        scaled = 0.0
        for start, d in zip(starts, seconds):
            lo = bisect.bisect_left(at, start - WINDOW_S)
            hi = bisect.bisect_right(at, start + d + WINDOW_S)
            if hi == lo:
                lo, hi = 0, len(at)
            if hi == lo:
                scaled += d
            else:
                scaled += (d * NOMINAL_KERNEL_S[self.kind] * (hi - lo)
                           / (total[hi] - total[lo]))
        return scaled / len(seconds)
