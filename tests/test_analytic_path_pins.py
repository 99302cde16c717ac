"""Exact byte pins and draw oracles for the analytic STUDY1 path.

The population study (persona derivation → motor-profile draw →
``simulate_user_fast`` → streaming aggregation) is guarded elsewhere
only by self-relative tests — ``--jobs 1 == --jobs N``, partition
invariance, streaming vs list — none of which notices a changed
realization.  The values here were recorded before the path was
optimised, so speed work on it must reproduce every draw exactly:

* ``tests/data/analytic_path_pins.json`` holds participants 0–7 at
  population seeds 0 and 7919: persona, motor profile (drawn from a
  fresh trial stream) and the full outcome, floats compared exactly;
* the digests cover a 2,048-user STUDY1 CSV and two block aggregates'
  canonical snapshots (the bytes the shard merge compares).

The second half checks the rewritten draws against the formulas they
replaced: numpy's ``lognormal``/``normal`` against the ``standard_normal``
forms, ``clamp`` against ``np.clip``, and ``MotorProfile.sample`` /
``persona_for_user`` / ``Persona.motor_profile`` against in-test copies
of their original numpy code, values and stream state alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.user_study import (
    run_scaled_user_study,
    run_user_block,
    simulate_user_fast,
)
from repro.interaction.personas import (
    PERSONA_DIMENSIONS,
    Persona,
    PersonaSpec,
    parse_spec,
    persona_for_user,
    user_rng,
)
from repro.interaction.tasks import battery
from repro.interaction.user import MotorProfile, clamp
from repro.sim.streams import PERSONA_STREAM

PINS = json.loads(
    (Path(__file__).parent / "data" / "analytic_path_pins.json").read_text()
)

#: ``run_scaled_user_study(seed=0, n_users=2048)``.
STUDY_CSV_SHA256 = (
    "478835b862bb7b83725b102a827a3ced2eea0feaa4bc99eafac6df2c1cc3198d"
)
#: ``run_user_block(0, 0, 512)`` (full personas, scrolltest battery).
BLOCK_SNAPSHOT_SHA256 = (
    "7dfa5b0fe731374c3941d283471f106e955d0175e37a60820299853a22e723a1"
)
#: ``run_user_block(7919, 100, 300, personas="bare", battery="smoke")``.
BARE_SMOKE_SNAPSHOT_SHA256 = (
    "f15c63ca7cbecf41c9f8fdb549fbad15b1709e6c45c949e16f722a4ef1d1ec7d"
)

_PINNED_USERS = [
    (int(seed), index)
    for seed, rows in sorted(PINS["users"].items())
    for index in range(len(rows))
]


def _snapshot_digest(aggregate) -> str:
    payload = json.dumps(aggregate.snapshot(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_pins_cover_users_zero_to_seven_at_both_seeds():
    assert _PINNED_USERS == [(0, i) for i in range(8)] + [
        (7919, i) for i in range(8)
    ]


@pytest.mark.parametrize("seed,index", _PINNED_USERS)
def test_persona_and_motor_profile_are_pinned(seed, index):
    pinned = PINS["users"][str(seed)][index]
    persona = persona_for_user(seed, index, parse_spec("full"))
    assert persona.to_json() == pinned["persona"]
    profile = persona.motor_profile(user_rng(seed, index))
    assert dataclasses.asdict(profile) == pinned["motor_profile"]


@pytest.mark.parametrize("seed,index", _PINNED_USERS)
def test_fast_outcome_is_pinned(seed, index):
    pinned = PINS["users"][str(seed)][index]
    persona = persona_for_user(seed, index, parse_spec("full"))
    outcome = simulate_user_fast(
        user_rng(seed, index), persona, battery("scrolltest")
    )
    assert dataclasses.asdict(outcome) == pinned["outcome"]


def test_block_snapshots_are_pinned():
    assert _snapshot_digest(run_user_block(0, 0, 512)) == BLOCK_SNAPSHOT_SHA256
    bare = run_user_block(7919, 100, 300, personas="bare", battery="smoke")
    assert _snapshot_digest(bare) == BARE_SMOKE_SNAPSHOT_SHA256


def test_population_study_csv_is_pinned():
    result = run_scaled_user_study(seed=0, n_users=2048)
    assert hashlib.sha256(result.csv_bytes()).hexdigest() == STUDY_CSV_SHA256


# ---------------------------------------------------------------------------
# draw identities and old-formula oracles
# ---------------------------------------------------------------------------

_SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
_SPREADS = st.floats(
    min_value=0.0, max_value=2.0, exclude_min=True, allow_subnormal=False
)


class TestDrawIdentities:
    """``lognormal(0, s)`` and ``normal(m, s)`` are numpy's formulas on
    one standard normal: same bits, same stream consumption."""

    @given(seed=_SEEDS, s=_SPREADS, n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_lognormal_is_exp_of_scaled_standard_normal(self, seed, s, n):
        reference = np.random.default_rng(seed)
        rewritten = np.random.default_rng(seed)
        for _ in range(n):
            expected = float(reference.lognormal(0.0, s))
            assert repr(math.exp(s * rewritten.standard_normal())) == repr(
                expected
            )
        assert (
            rewritten.bit_generator.state == reference.bit_generator.state
        )

    @given(
        seed=_SEEDS,
        m=st.floats(min_value=-1e3, max_value=1e3),
        s=_SPREADS,
        n=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_normal_is_shifted_scaled_standard_normal(self, seed, m, s, n):
        reference = np.random.default_rng(seed)
        rewritten = np.random.default_rng(seed)
        for _ in range(n):
            expected = float(reference.normal(m, s))
            assert repr(m + s * rewritten.standard_normal()) == repr(expected)
        assert (
            rewritten.bit_generator.state == reference.bit_generator.state
        )


_BOUNDS = st.sampled_from(
    [(0.0, 0.15), (0.15, 0.6), (0.10, 0.70), (0.6, 1.6), (-0.0, 0.0),
     (-1.0, -0.0), (-math.inf, math.inf)]
)
_CLAMP_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.15, 0.6, 1.6, 0.10, 0.70, -1.0]),
)


class TestClamp:
    @given(value=_CLAMP_VALUES, bounds=_BOUNDS)
    @settings(max_examples=300, deadline=None)
    def test_matches_np_clip_bit_for_bit(self, value, bounds):
        low, high = bounds
        expected = float(np.clip(value, low, high))
        result = clamp(value, low, high)
        assert type(result) is float
        assert repr(result) == repr(expected)
        assert math.copysign(1.0, result) == math.copysign(1.0, expected)

    @pytest.mark.parametrize(
        "value,low,high",
        [(math.nan, 0.0, 0.15), (-0.0, 0.0, 0.15), (0.0, -0.0, 1.0),
         (0.15, 0.0, 0.15), (0.0, 0.0, 0.15), (-1.0, 0.0, 0.15),
         (2.0, 0.0, 0.15)],
    )
    def test_edge_cases(self, value, low, high):
        expected = float(np.clip(value, low, high))
        assert repr(clamp(value, low, high)) == repr(expected)
        assert math.copysign(1.0, clamp(value, low, high)) == math.copysign(
            1.0, expected
        )


def _old_sample(rng: np.random.Generator) -> MotorProfile:
    """``MotorProfile.sample`` as first written (numpy scalar calls)."""
    jitter = lambda mean, rel: float(mean * rng.lognormal(0.0, rel))  # noqa: E731
    return MotorProfile(
        reaction_time_s=jitter(0.26, 0.15),
        fitts_a=jitter(0.10, 0.2),
        fitts_b=jitter(0.145, 0.15),
        perception_latency_s=jitter(0.20, 0.1),
        verify_dwell_s=jitter(0.22, 0.2),
        button_press_s=jitter(0.16, 0.15),
        endpoint_sigma_frac=jitter(0.27, 0.15),
        impulsivity=float(np.clip(rng.normal(0.03, 0.02), 0.0, 0.15)),
        learning_rate=float(np.clip(rng.normal(0.35, 0.08), 0.15, 0.6)),
    )


def _old_motor_profile(
    persona: Persona, rng: np.random.Generator
) -> MotorProfile:
    """``Persona.motor_profile`` as first written."""
    base = _old_sample(rng)
    factors: dict[str, float] = {}
    for dimension, value in (
        ("age_band", persona.age_band),
        ("motor", persona.motor),
        ("handedness", persona.handedness),
        ("vision", persona.vision),
    ):
        _weight, modifiers = PERSONA_DIMENSIONS[dimension][value]
        for field_name, factor in modifiers.items():
            factors[field_name] = factors.get(field_name, 1.0) * factor
    factors["learning_rate"] = (
        factors.get("learning_rate", 1.0) * persona.learning_scale
    )
    updates = {
        name: getattr(base, name) * factor for name, factor in factors.items()
    }
    if "learning_rate" in updates:
        updates["learning_rate"] = float(
            np.clip(updates["learning_rate"], 0.10, 0.70)
        )
    if "impulsivity" in updates:
        updates["impulsivity"] = float(
            np.clip(updates["impulsivity"], 0.0, 0.15)
        )
    return dataclasses.replace(base, **updates)


def _old_persona_for_user(
    population_seed: int, user_index: int, spec: PersonaSpec
) -> Persona:
    """``persona_for_user`` as first written."""
    sequence = np.random.SeedSequence(
        entropy=population_seed, spawn_key=(PERSONA_STREAM, user_index)
    )
    rng = np.random.Generator(np.random.PCG64(sequence))

    def weighted(choices):
        point = float(rng.random())
        cumulative = 0.0
        for value, weight in choices:
            cumulative += weight
            if point < cumulative:
                return value
        return choices[-1][0]

    age_band = weighted(spec.age_band)
    motor = weighted(spec.motor)
    handedness = weighted(spec.handedness)
    vision = weighted(spec.vision)
    glove = weighted(spec.gloves)
    learning_scale = float(np.clip(rng.lognormal(0.0, 0.25), 0.6, 1.6))
    return Persona(age_band, motor, handedness, vision, glove, learning_scale)


def _reprs(profile: MotorProfile) -> dict[str, str]:
    return {k: repr(v) for k, v in dataclasses.asdict(profile).items()}


_SPECS = st.sampled_from(
    ["full", "bare", "age=senior;motor=tremor", "gloves=arctic;vision=low"]
)


class TestOldFormulaOracles:
    @given(seed=_SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_sample_matches_old_formulas(self, seed):
        rng = np.random.default_rng(seed)
        oracle = np.random.default_rng(seed)
        assert _reprs(MotorProfile.sample(rng)) == _reprs(_old_sample(oracle))
        assert rng.bit_generator.state == oracle.bit_generator.state

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        index=st.integers(min_value=0, max_value=10**7),
        spec_text=_SPECS,
    )
    @settings(max_examples=200, deadline=None)
    def test_persona_and_profile_match_old_formulas(
        self, seed, index, spec_text
    ):
        spec = parse_spec(spec_text)
        persona = persona_for_user(seed, index, spec)
        oracle = _old_persona_for_user(seed, index, spec)
        assert persona == oracle
        assert repr(persona.learning_scale) == repr(oracle.learning_scale)
        rng = user_rng(seed, index)
        oracle_rng = user_rng(seed, index)
        assert _reprs(persona.motor_profile(rng)) == _reprs(
            _old_motor_profile(oracle, oracle_rng)
        )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
