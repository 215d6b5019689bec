"""Host-speed correction: a fixed reference loop, timed while the ops run.

On a shared host the speed of identical work drifts by up to 2x over a few
seconds, and a slow spell can outlast a whole run, so medians over a run
do not remove it.  While a measured step runs, a CPU-time timer
(``ITIMER_PROF``) interrupts the process every ``INTERVAL_S`` of its CPU
time and times one short run of a reference loop; a few more runs are
timed just before and just after the step.  The step's time, less the
time spent in the loop, is rescaled to a host that runs the loop in
``NOMINAL_S``::

    corrected = (measured - loop time) * NOMINAL_S / mean(loop samples)

Processes forked during the step (the grid's pool workers) start the same
timer in the child and send their samples back through a pipe, so the
correction also sees the speed the workers got while both cores were busy,
which differs from the speed of one busy core.  The timer counts each
process's own CPU time, so samples fall where the work is, in proportion
to its CPU time.  The loop mixes the two kinds of work flowfit's kernel
does, small NumPy array arithmetic and a scalar Python recurrence over 49
years, so a neighbour that slows one slows the other alike.  It never
calls flowfit, so a change in flowfit's own speed passes through the
correction in full.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import struct
import time
from typing import Optional

import numpy as np

# One run of the loop on a quiet 2-vCPU host of the kind the baseline was
# measured on (Python 3.11, NumPy 2.4).  A fixed constant, so corrected
# times stay in seconds and compare across runs and commits.
NOMINAL_S = 0.0014
REPS = 100
INTERVAL_S = 0.05     # process CPU time between two in-step samples
EDGE_SAMPLES = 3      # samples taken just before and just after a step
_T = np.linspace(-1.0, 1.0, 49)
_RECORD = struct.Struct("id")   # (pid, seconds) of one sample from a forked child


def _loop() -> float:
    acc = 0.0
    for k in range(REPS):
        z = (0.1 * (k % 7) - 0.3) + 0.8 * _T - 0.2 * _T * _T
        p = (1.0 / (1.0 + np.exp(-z))).tolist()
        s = 1000.0
        for x in p:
            s = s + 50.0 * x - 0.1 * s
        acc += s + float(np.log(np.asarray(p)).sum())
    return acc


def _timed_loop() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def cpu_s() -> float:
    """CPU seconds of this process and all its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


_active: Optional["Measured"] = None   # the step being measured, if any


def _start_in_child() -> None:
    """After a fork inside a measured step: sample in the child as well."""
    step = _active
    if step is None:
        return
    fd = step.pipe_w

    def on_tick(signum, frame):
        try:
            os.write(fd, _RECORD.pack(os.getpid(), _timed_loop()))
        except OSError:   # pipe full or closed: drop the sample
            pass

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


os.register_at_fork(after_in_child=_start_in_child)


class Measured:
    """Times one step; use as ``with Measured() as m: ...``.

    After the block: ``raw_wall`` and ``raw_cpu`` exclude the samplers' own
    time; ``factor`` rescales them to the nominal host; ``wall`` and ``cpu``
    are the rescaled values; ``samples`` are the loop times taken, in this
    process and in children forked during the step.
    """

    def _sample(self) -> float:
        dt = _timed_loop()
        self.samples.append(dt)
        return dt

    def _on_tick(self, signum, frame) -> None:
        self.overhead += self._sample()

    def _child_samples(self) -> tuple[float, int]:
        """Collect the children's samples: their total time and process count."""
        data = bytearray()
        while True:
            try:
                chunk = os.read(self._pipe_r, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        whole = len(data) - len(data) % _RECORD.size
        records = list(_RECORD.iter_unpack(bytes(data[:whole])))
        self.samples.extend(dt for _, dt in records)
        return sum(dt for _, dt in records), len({pid for pid, _ in records})

    def __enter__(self) -> "Measured":
        global _active
        self.samples: list[float] = []
        self.overhead = 0.0   # time spent sampling inside the step, this process
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._pipe_r, self.pipe_w = os.pipe()
        os.set_blocking(self._pipe_r, False)
        os.set_blocking(self.pipe_w, False)
        _active = self
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        self._c0 = cpu_s()
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        wall = time.perf_counter() - self._t0
        cpu = cpu_s() - self._c0
        signal.signal(signal.SIGPROF, self._previous)
        _active = None
        os.close(self.pipe_w)
        try:
            child_overhead, children = self._child_samples()
        finally:
            os.close(self._pipe_r)
        # Children sample in parallel, so their sampling stretched the wall
        # time by about their total over their number.
        self.raw_wall = wall - self.overhead - child_overhead / max(children, 1)
        self.raw_cpu = max(cpu - self.overhead - child_overhead, 0.0)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.factor = NOMINAL_S / statistics.fmean(self.samples)
        self.wall = self.raw_wall * self.factor
        self.cpu = self.raw_cpu * self.factor
