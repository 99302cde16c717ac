"""Exact work and byte pins for the full-stack reference path.

The scalar DistScroll stack (kernel → firmware tick → ADC → GP2D120 →
median filter → island lookup, with the hand model closing the loop) is
the reference every fast model is checked against, so speed work on it
must change neither what it computes nor how much work it does.  These
pins were recorded before the hot loop was optimised: the kernel event
count and ADC conversions are machine-independent work counts, and the
digests cover the emitted bytes.
"""

from __future__ import annotations

import hashlib

from repro.core.device import DistScroll
from repro.core.menu import build_menu
from repro.experiments.arena import run_arena
from repro.sim.kernel import global_events_processed

#: Held at 15 cm for 2 s, seed 1, ten entries.
DEVICE_EVENTS = 139
DEVICE_ADC_CONVERSIONS = 99
DEVICE_EVENT_DIGEST = (
    "b3e11f36b8ad921d35ea203318e16053b9756348d886b6bd92fb422198c10cbe"
)
DEVICE_FINAL_CODES = (156, 157)

#: ``run_arena(seed=0, n_users=2)``: every technique, ScrollTest battery.
ARENA_EVENTS = 17_703
ARENA_CSV_SHA256 = (
    "1c673c3a85e83d55284a1f2c946a8a0143cbb3bffd53f3a04b2a7aafda2ff632"
)


def _event_digest(device: DistScroll) -> str:
    digest = hashlib.sha256()
    for time, event in device.events():
        digest.update(repr(time).encode())
        digest.update(event.to_bytes())
    return digest.hexdigest()


def test_held_device_work_and_events_are_pinned():
    device = DistScroll(build_menu([f"Item {i}" for i in range(10)]), seed=1)
    device.hold_at(15.0)
    device.run_for(2.0)
    assert device.sim.events_processed == DEVICE_EVENTS
    assert device.board.adc.conversions == DEVICE_ADC_CONVERSIONS
    assert _event_digest(device) == DEVICE_EVENT_DIGEST
    firmware = device.firmware
    assert (firmware.raw_code, firmware.filtered_code) == DEVICE_FINAL_CODES


def test_two_user_arena_work_and_bytes_are_pinned():
    before = global_events_processed()
    result = run_arena(seed=0, n_users=2)
    assert global_events_processed() - before == ARENA_EVENTS
    assert hashlib.sha256(result.csv_bytes()).hexdigest() == ARENA_CSV_SHA256
