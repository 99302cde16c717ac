"""Out-of-program span tracing for the benchmark's traced pass.

The benchmark never edits the program to trace it.  :func:`install`
replaces a fixed list of the program's public functions and methods
(:data:`TARGETS`) with wrappers that record one span per call: a name,
a start and an end on the monotonic clock, and the index of the
enclosing span.  Spans stay in flat in-memory arrays while the run
goes and are written out once, when it ends (:meth:`SpanRecorder.save`).

A span's *self time* is its duration minus the time its child spans
cover.  The run is single-threaded (inline backend), so child spans
never overlap and the covered time is simply the sum of the children's
durations.

Event callbacks the kernel dispatches from inside its own loop (the
firmware main-loop tick, the hand's pose update, button polls) have no
public entry point.  ``Simulator.run_until`` is left unwrapped: the
scalar device reaches it only through ``DistScroll.run_for``, so that
span owns the kernel loop and the callbacks it dispatches (firmware +
kernel dispatch, not separable from outside).  The ``sim`` layer gets
event scheduling and the batch drive loop (``run_while``/``run``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

#: ``(span name, layer, "module:Qualified.name")``.  The layer is the
#: ``src/repro/`` subpackage a per-layer ``*.self_s`` metric sums over;
#: ``core`` is split into the scalar device and the batch engine.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiments.fast_model", "experiments",
     "repro.experiments.user_study:simulate_user_fast"),
    ("experiments.block", "experiments",
     "repro.experiments.user_study:run_user_block"),
    ("experiments.block", "experiments",
     "repro.experiments.arena:run_arena_block"),
    ("experiments.block", "experiments",
     "repro.experiments.fleet:run_device_block"),
    ("experiments.finalize", "experiments",
     "repro.experiments.user_study:finalize_scaled_study"),
    ("experiments.finalize", "experiments",
     "repro.experiments.arena:finalize_arena"),
    ("experiments.finalize", "experiments",
     "repro.experiments.fleet:finalize_fleet"),
    ("interaction.persona", "interaction",
     "repro.interaction.personas:persona_for_user"),
    ("interaction.select_entry", "interaction",
     "repro.interaction.user:SimulatedUser.select_entry"),
    ("interaction.hand", "interaction", "repro.interaction.hand:Hand.move_to"),
    ("interaction.hand", "interaction", "repro.interaction.hand:Hand.position"),
    ("analysis.add", "analysis", "repro.analysis.stats:StreamingMoments.add"),
    ("analysis.add", "analysis", "repro.analysis.stats:QuantileSketch.add"),
    ("analysis.merge", "analysis",
     "repro.analysis.stats:StreamingMoments.merge"),
    ("analysis.merge", "analysis", "repro.analysis.stats:QuantileSketch.merge"),
    ("core.device.build", "core.device", "repro.core.device:DistScroll.__init__"),
    ("core.device.run_for", "core.device",
     "repro.core.device:DistScroll.run_for"),
    ("core.device.island_map", "core.device",
     "repro.core.islands:build_island_map"),
    ("core.batch.step", "core.batch", "repro.core.batch:DeviceBatch.step"),
    ("core.batch.build", "core.batch", "repro.core.batch:DeviceBatch.__init__"),
    ("core.batch.build", "core.batch", "repro.core.batch:derive_device_spec"),
    ("sim.schedule", "sim", "repro.sim.kernel:Simulator.schedule"),
    ("sim.schedule", "sim", "repro.sim.kernel:Simulator.schedule_at"),
    ("sim.run", "sim", "repro.sim.kernel:Simulator.run_while"),
    ("sim.run", "sim", "repro.sim.kernel:Simulator.run"),
    ("hardware.adc.sample", "hardware", "repro.hardware.adc:ADC.sample"),
    ("hardware.adc.convert", "hardware",
     "repro.hardware.adc:ADC.code_for_voltage"),
    ("hardware.adc.convert", "hardware",
     "repro.hardware.adc:ADC.codes_for_voltages"),
    ("hardware.battery", "hardware", "repro.hardware.battery:Battery.draw"),
    ("sensors.scalar", "sensors",
     "repro.sensors.gp2d120:GP2D120.output_voltage"),
    ("sensors.scalar", "sensors", "repro.sensors.gp2d120:GP2D120.ideal_voltage"),
    ("sensors.vector", "sensors",
     "repro.sensors.gp2d120:GP2D120.output_voltage_array"),
    ("sensors.vector", "sensors",
     "repro.sensors.gp2d120:GP2D120.ideal_voltage_array"),
    ("sensors.vector", "sensors", "repro.sensors.gp2d120:GP2D120.measure_array"),
    ("signal.filter", "signal", "repro.signal.filters:MedianFilter.update"),
    ("signal.filter", "signal",
     "repro.signal.filters:ExponentialMovingAverage.update"),
    ("signal.filter", "signal", "repro.signal.filters:MovingAverage.update"),
    ("signal.filter", "signal",
     "repro.signal.filters:HysteresisQuantizer.update"),
    ("signal.filter", "signal", "repro.signal.filters:RateLimiter.update"),
)

#: Every technique's ``select`` is wrapped too; DistScroll's gets its own
#: span name because it is the one that drives the full device stack.
TECHNIQUE_BASE = "repro.baselines.base:ScrollingTechnique"
DISTSCROLL_TECHNIQUE = "repro.baselines.distscroll:DistScrollTechnique"

#: The root span the workload opens around ``run_experiments``.
ROOT = ("runner.run", "runner")


class SpanRecorder:
    """Flat, append-only span storage for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        """``fn`` with one span recorded around every call."""
        nid = self._intern(name, layer)
        name_id, parent, start, end = (
            self.name_id, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.name_id)

    def save(self, path: Path) -> None:
        """Write every span (and the name table) to one ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            layers=np.array(self.layers),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: its ``layer``, ``entries`` and summed ``self_s``.

        ``entries`` counts calls made from outside that name's own spans,
        so a wrapped function that calls another function wrapped under
        the same name (``output_voltage`` → ``ideal_voltage``) counts once.
        """
        import numpy as np

        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        n = len(names)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        self_time = duration - covered
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        entry = parent_name != names
        k = len(self.names)
        entries = np.bincount(names[entry], minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {
                "layer": self.layers[i],
                "entries": int(entries[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(self.names)
        }


def _resolve(target: str) -> tuple[object, str, Callable]:
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _techniques() -> list[tuple[str, type]]:
    importlib.import_module("repro.baselines")  # every technique subclass
    base = _resolve(TECHNIQUE_BASE)[2]
    distscroll = _resolve(DISTSCROLL_TECHNIQUE)[2]
    found: list[tuple[str, type]] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            name = (
                "baselines.distscroll.select"
                if cls is distscroll
                else "baselines.others.select"
            )
            found.append((name, cls))
    return sorted(found, key=lambda item: item[1].__qualname__)


def install(recorder: SpanRecorder) -> None:
    """Wrap every target in place.

    A module-level function is also replaced in every ``repro`` module
    that imported it by name, so ``from x import f`` call sites are
    traced too.
    """
    plan: list[tuple[str, str, object, str, Callable]] = []
    for name, layer, target in TARGETS:
        owner, attr, fn = _resolve(target)
        plan.append((name, layer, owner, attr, fn))
    for name, cls in _techniques():
        plan.append((name, "baselines", cls, "select", cls.__dict__["select"]))
    modules = [
        module
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("repro") and module is not None
    ]
    for name, layer, owner, attr, fn in plan:
        traced = recorder.wrap(name, layer, fn)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
