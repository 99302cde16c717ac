"""Per-CPU speed probe: scales a repetition's times to a reference speed.

On a shared host each vCPU changes speed on its own, by up to ~1.8x from
one second to the next, as other tenants load the physical core under
it.  Timing a reference loop between repetitions does not follow that:
the speed has changed again by the time the loop runs.  So the probe
samples while a repetition runs, on the CPUs the repetition runs on.

One thread per CPU, pinned to it, times a fixed pure-Python loop of
:data:`PROBE_ITERATIONS` in its own CPU time every
:data:`PROBE_INTERVAL_S` (about 1% of a CPU).  A repetition's loop time is
the mean sample on each CPU during it, weighted by how busy each CPU was
in that window (``/proc/stat``).  :meth:`SpeedProbe.factor` turns it into
the factor that scales the repetition's times to the speed at which the
loop runs :data:`REFERENCE_RATE` iterations per CPU-second.  The loop
fits in the first-level cache and slows less than the program does, so
the factor is the loop's slowdown raised to :data:`SENSITIVITY`.

Only the benchmark runs the loop, never the program, so a change to the
program cannot move the reference.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_ITERATIONS = 2000
PROBE_INTERVAL_S = 0.02

#: Probe-loop iterations per CPU-second of the reference speed, about what
#: an unloaded vCPU of the 2-vCPU Xeon VM the benchmark was written on
#: gives.  A scaled time is what the repetition would have taken there.
REFERENCE_RATE = 10_000_000.0

#: How much more a workload slows than the probe loop: the slope of
#: log(repetition time) against log(loop time), 1.4-1.65 on each of the
#: three workloads (wall and CPU time, ~150 repetitions on the VM above).
SENSITIVITY = 1.5


def _loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def cpu_busy_ticks() -> dict[int, int]:
    """Busy clock ticks of each CPU so far: user, nice, system, irq, softirq."""
    ticks = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit():
                user, nice, system, _idle, _iowait, irq, softirq = map(
                    int, fields[:7]
                )
                ticks[int(name[3:])] = user + nice + system + irq + softirq
    return ticks


class SpeedProbe:
    """Samples the speed of every CPU this process may run on.

    Use as a context manager around the repetitions; take a :meth:`mark`
    before and after each one and pass both to :meth:`factor`.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._samples: dict[int, list[tuple[float, float]]] = {
            cpu: [] for cpu in self.cpus
        }
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]

    def __enter__(self) -> SpeedProbe:
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        # On Linux this pins the calling thread only; repetitions are
        # started from the main thread and keep every CPU.
        os.sched_setaffinity(0, {cpu})
        samples = self._samples[cpu]
        while not self._stop.wait(PROBE_INTERVAL_S):
            started = time.thread_time()
            _loop(PROBE_ITERATIONS)
            samples.append((time.monotonic(), time.thread_time() - started))

    @staticmethod
    def mark() -> tuple[float, dict[int, int]]:
        return time.monotonic(), cpu_busy_ticks()

    def factor(self, start: tuple, end: tuple) -> float:
        """(Reference loop time / busy-weighted loop time) ** SENSITIVITY.

        The loop times are those sampled between two marks.

        Raises :class:`ValueError` if no busy CPU was sampled in between.
        """
        (t0, busy0), (t1, busy1) = start, end
        weighted = weights = 0.0
        for cpu in self.cpus:
            loop_s = [s for t, s in list(self._samples[cpu]) if t0 <= t <= t1]
            weight = busy1.get(cpu, 0) - busy0.get(cpu, 0)
            if loop_s and weight > 0:
                weighted += weight * statistics.fmean(loop_s)
                weights += weight
        if not weights:
            raise ValueError("no speed probe sample on a busy CPU")
        reference_s = PROBE_ITERATIONS / REFERENCE_RATE
        return (reference_s / (weighted / weights)) ** SENSITIVITY
