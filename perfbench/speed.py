"""A meter of the host's speed, sampled where and while a workload runs.

A shared host runs the same Python code up to half again as slow from one
second to the next, and CPU time drifts with it; two CPUs of the host drift
apart, too.  The meter times a small fixed kernel of pure-Python work, in
the process and on the CPU that does the workload's work, and records how
long each run of it took; NOMINAL_S over that time is the host's speed
at that moment.  A measured time is then scaled to the reference speed:
multiplied by the mean speed sampled around it.  Samples are evenly spaced
in time, so over a long operation that mean is the operation's work at the
reference speed divided by its time, even while the speed drifts.  The kernel shares no code with intrep, so a change to intrep moves the
scaled times exactly as it moves the raw ones, while the host's drift
cancels.

Samples come from one of three places:

- `ticking()`: a SIGALRM handler in this process, every INTERVAL_S, for
  work done in this process (a signal, not a thread);
- `sample()`: explicit calls between operations, for work done by a child
  process on the same pinned CPU (see `pinned`);
- `children()`: a SIGALRM handler in every process forked from this one,
  for a process pool; each child appends its samples to a file.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import statistics
import struct
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.1
# Seconds one kernel takes at the reference speed, near its median on a
# 2-vCPU x86-64 virtual machine under CPython 3.11.  It only fixes the unit of the
# scaled times; any constant would do, as long as it never changes.
NOMINAL_S = 0.001
# Samples this far either side of an operation also count for it, so an
# operation shorter than INTERVAL_S still has a few.
MARGIN_S = 3 * INTERVAL_S
KERNEL_STEPS = 4000
SAMPLE = struct.Struct("dd")

_child_dir: str | None = None


def kernel() -> int:
    """Integer arithmetic, shifts and a dict, as intrep's decoders use them."""
    acc, table = 1, {}
    for i in range(KERNEL_STEPS):
        acc = (acc * 2654435761 + i) & 0xFFFFFFFFFFFF
        table[i & 63] = acc >> (i & 15)
    return acc + len(table)


def timed_kernel() -> tuple[float, float]:
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter() - start


def _start_ticking(handler) -> None:
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def _stop_ticking(previous) -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def _after_fork_in_child() -> None:
    if _child_dir is None:
        return
    path = os.path.join(_child_dir, f"{os.getpid()}.bin")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def tick(signum, frame):
        os.write(fd, SAMPLE.pack(*timed_kernel()))

    _start_ticking(tick)


os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def pinned():
    """Run this process, and the children it starts, on one CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Meter:
    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.stolen = 0.0  # seconds this process spent in the handler

    def _add(self, start: float, took: float) -> None:
        self.at.append(start)
        self.took.append(took)

    def sample(self) -> None:
        """Three samples now, between two operations."""
        for _ in range(3):
            self._add(*timed_kernel())

    def _tick(self, signum, frame) -> None:
        start, took = timed_kernel()
        self._add(start, took)
        self.stolen += took

    def clock(self) -> float:
        """perf_counter that stands still while the handler runs."""
        return time.perf_counter() - self.stolen

    @contextlib.contextmanager
    def ticking(self):
        kernel()  # warm up before the first sample
        previous = signal.getsignal(signal.SIGALRM)
        _start_ticking(self._tick)
        try:
            yield self
        finally:
            _stop_ticking(previous)

    @contextlib.contextmanager
    def children(self, directory: str):
        """Sample in every child forked while active; collect at the end."""
        global _child_dir
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        _child_dir = directory
        try:
            yield self
        finally:
            _child_dir = None
            rows = list(zip(self.at, self.took))
            for name in os.listdir(directory):
                with open(os.path.join(directory, name), "rb") as f:
                    data = f.read()
                usable = len(data) - len(data) % SAMPLE.size
                rows.extend(SAMPLE.iter_unpack(data[:usable]))
            shutil.rmtree(directory, ignore_errors=True)
            rows.sort()
            self.at = array("d", (r[0] for r in rows))
            self.took = array("d", (r[1] for r in rows))

    def scaler(self):
        """A function (start, end) -> factor that takes a time measured over
        [start, end] to the reference speed."""
        at, took = self.at, self.took
        if not took:
            raise RuntimeError("the speed meter took no samples")
        cache: dict[tuple[int, int], float] = {}

        def factor(start: float, end: float) -> float:
            lo = bisect_left(at, start - MARGIN_S)
            hi = bisect_right(at, end + MARGIN_S)
            if lo == hi:  # no sample near: take the nearest one
                lo = min(lo, len(at) - 1)
                hi = lo + 1
            key = (lo, hi)
            if key not in cache:
                cache[key] = statistics.fmean(NOMINAL_S / t for t in took[lo:hi])
            return cache[key]

        return factor
