"""A clock that runs at the speed of a reference machine.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts by tens of percent over minutes, for the same code on the same
core (the process keeps its CPU; it just gets less done).  That drift
would swamp any change in the program.  So every time the benchmark
reports comes from this clock instead of the wall clock.

The drift does not slow all code alike: per-step work (an env step, one
cloud through the encoder: short arrays, many numpy calls, much
interpreter work) and batched work (an update's encoder pass over 64
clouds at once: megabyte arrays, few calls) moved apart.  So the clock
has one calibration slice per kind of work, and a rate per kind:

* About every ``PERIOD_S`` of program time, at a call the tracer
  intercepts, ``tick`` runs both slices.  They use no ``deskrl`` code,
  so a change in the program cannot move them.
* While the program does work of kind ``k``, the clock advances by wall
  time multiplied by ``REF_S[k] / s``, where ``s`` is the median of the
  last three times of the ``k`` slice.  The tracer switches the kind to
  ``"batch"`` inside the update spans and back on exit (``use``).  On a
  machine running at the reference speed both factors are 1 and the
  clock reads wall seconds.
* The slices' own time is left out: the clock stands still while they
  run.

``samples`` keeps every slice time, so a run can report how fast the
machine was.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

# wall seconds of each calibration slice on the reference machine (2 vCPUs
# of an Intel Xeon, Python 3.11, numpy 2.4 with one OpenBLAS thread)
REF_S = {"step": 0.004, "batch": 0.0056}
PERIOD_S = 0.25  # program time between calibrations
RECENT = 3  # slices in each running median

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((64, 64))
_W = _rng.standard_normal((64, 16))
_V = _rng.standard_normal(32)
_X = _rng.standard_normal((4096, 8))  # 64 clouds of 64 points
_W1 = _rng.standard_normal((8, 32))
_W2 = _rng.standard_normal((32, 64))


def _step_work() -> float:
    """Short arrays and interpreter work, like one env step and encode."""
    acc = 0.0
    for i in range(200):
        h = np.maximum(_A @ _W, 0.0).max(axis=0)
        y = np.tanh(_V * 1.5 + 0.1).sum()
        d = {"i": i, "y": float(y)}
        for j in range(20):
            acc += d["y"] * j
        acc += float(h[0])
    return acc


def _batch_work() -> float:
    """A two-layer point encoder over 64 clouds, forward and a backward-like
    product, twice, like a minibatch of an update."""
    acc = 0.0
    for _ in range(2):
        h1 = np.maximum(_X @ _W1, 0.0)
        h2 = np.maximum(h1 @ _W2, 0.0)
        pooled = h2.reshape(64, 64, 64).max(axis=1)
        grad = h1.T @ (h2 > 0.0)
        acc += float(pooled[0, 0] + grad[0, 0])
    return acc


KINDS = {"step": _step_work, "batch": _batch_work}


def calibration_slice(kind: str = "step") -> float:
    """Run one calibration slice of the given kind; return its wall seconds."""
    start = time.perf_counter()
    value = KINDS[kind]()
    elapsed = time.perf_counter() - start
    if not np.isfinite(value):
        raise RuntimeError(f"{kind} calibration slice produced a non-finite value")
    return elapsed


def reference_factor(samples, kind: str = "step") -> float:
    """Reference seconds per wall second, from times of ``kind`` slices."""
    return REF_S[kind] / statistics.median(samples)


class RefClock:
    """Monotonic reference-speed clock.  ``now()`` reads it, ``tick()``
    recalibrates it when a period has passed, ``use(kind)`` says what kind
    of work follows and returns the kind it replaces."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period = period_s
        self.samples = {kind: [] for kind in KINDS}
        self._recent = {kind: deque(maxlen=RECENT) for kind in KINDS}
        self._factors = {}
        self._kind = "step"
        self._measure()
        self._ref = 0.0  # clock reading at _mark
        self._mark = time.perf_counter()
        self._next = self._mark + period_s

    def _measure(self) -> None:
        for kind in KINDS:
            s = calibration_slice(kind)
            self.samples[kind].append(s)
            self._recent[kind].append(s)
            self._factors[kind] = reference_factor(self._recent[kind], kind)
        self._factor = self._factors[self._kind]

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._mark) * self._factor

    def use(self, kind: str) -> str:
        previous = self._kind
        if kind != previous:
            t = time.perf_counter()
            self._ref += (t - self._mark) * self._factor
            self._mark = t
            self._kind = kind
            self._factor = self._factors[kind]
        return previous

    def tick(self) -> None:
        t = time.perf_counter()
        if t < self._next:
            return
        self._ref += (t - self._mark) * self._factor
        self._measure()
        self._mark = time.perf_counter()
        self._next = self._mark + self.period
