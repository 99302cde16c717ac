"""Seeded persona engine for population-scale user studies.

The paper's study (§6) observed "several people, students, colleagues
and people without direct technical background".  Scaling that protocol
to millions of simulated participants is only meaningful if those
participants *differ*: an arctic worker in mittens, a senior with a
hand tremor, a left-hander fighting the right-handed button layout.  A
:class:`Persona` captures one such participant cell — age band, motor
ability, handedness, worn glove, vision — plus a continuous per-persona
learning-rate scale, and knows how to parameterize the
:class:`~repro.interaction.user.MotorProfile` /
:class:`~repro.interaction.gloves.Glove` seams of the simulated user.

Determinism contract: :func:`persona_for_user` derives participant
``i``'s persona from ``SeedSequence(population_seed, spawn_key=(…, i))``
alone — O(1) per user, no global pass, and independent of how the
population is sharded across worker processes.  The same holds for
:func:`user_rng`, the participant's private trial-noise stream.  The
golden 16-persona pin in ``tests/data/personas_16.json`` freezes the
derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.interaction.gloves import DEFAULT_GLOVE_WEIGHTS, Glove, resolve_glove
from repro.interaction.user import MotorProfile, clamp

# Stream-domain tags keeping the persona draw and the trial noise of
# one participant on decorrelated SeedSequence branches; declared in the
# project-wide spawn-key registry (values pinned by golden persona JSON).
from repro.sim.streams import PERSONA_STREAM, TRIAL_STREAM

__all__ = [
    "Persona",
    "PersonaSpec",
    "parse_spec",
    "persona_for_user",
    "user_rng",
    "sample_personas",
    "PERSONA_DIMENSIONS",
]

#: ``dimension -> (value -> (weight, MotorProfile field multipliers))``.
#: Declaration order is the draw order, so adding a value at the end of
#: a dimension never perturbs existing draws of other dimensions.
PERSONA_DIMENSIONS: dict[str, dict[str, tuple[float, dict[str, float]]]] = {
    "age_band": {
        "young": (0.25, {"reaction_time_s": 0.92, "fitts_b": 0.95}),
        "adult": (0.55, {}),
        "senior": (
            0.20,
            {
                "reaction_time_s": 1.25,
                "fitts_a": 1.10,
                "fitts_b": 1.30,
                "verify_dwell_s": 1.30,
                "endpoint_sigma_frac": 1.20,
                "learning_rate": 0.85,
            },
        ),
    },
    "motor": {
        "steady": (0.80, {}),
        "tremor": (0.12, {"endpoint_sigma_frac": 1.35}),
        "low-dexterity": (
            0.08,
            {"button_press_s": 1.50, "endpoint_sigma_frac": 1.15},
        ),
    },
    "handedness": {
        "right": (0.89, {}),
        "left": (0.11, {}),
    },
    "vision": {
        "normal": (0.85, {}),
        "low": (
            0.15,
            {"perception_latency_s": 1.60, "verify_dwell_s": 1.40},
        ),
    },
}

#: Extra hand-tremor RMS multiplier per motor ability (applied on top
#: of the glove's ``tremor_factor`` by :class:`SimulatedUser`).
_TREMOR_SCALE = {"steady": 1.0, "tremor": 2.5, "low-dexterity": 1.2}


@cache
def _cell_factors(
    age_band: str, motor: str, handedness: str, vision: str
) -> tuple[tuple[tuple[str, float], ...], float]:
    """Per-field product of one cell's dimension modifiers.

    Returns the ``(field, factor)`` pairs other than ``learning_rate``
    and, separately, the ``learning_rate`` factor (1.0 when no dimension
    scales it), which :meth:`Persona.motor_profile` multiplies by the
    persona's continuous ``learning_scale``.  Products are taken in
    dimension declaration order, once per discrete cell.
    """
    factors: dict[str, float] = {}
    for dimension, value in (
        ("age_band", age_band),
        ("motor", motor),
        ("handedness", handedness),
        ("vision", vision),
    ):
        _weight, modifiers = PERSONA_DIMENSIONS[dimension][value]
        for field_name, factor in modifiers.items():
            factors[field_name] = factors.get(field_name, 1.0) * factor
    learning_factor = factors.pop("learning_rate", 1.0)
    return tuple(factors.items()), learning_factor


@dataclass(frozen=True)
class Persona:
    """One participant cell of the simulated population."""

    age_band: str
    motor: str
    handedness: str
    vision: str
    glove: str
    learning_scale: float

    def cell(self) -> str:
        """Discrete cell label used by per-persona-cell counters.

        Excludes the continuous ``learning_scale`` so the number of
        cells is bounded regardless of population size.
        """
        return "/".join(
            (self.age_band, self.motor, self.handedness, self.vision,
             self.glove)
        )

    @property
    def tremor_scale(self) -> float:
        """Hand-tremor RMS multiplier of this persona's motor ability."""
        return _TREMOR_SCALE[self.motor]

    def glove_model(self) -> Glove:
        """The worn :class:`Glove` preset."""
        return resolve_glove(self.glove)

    def motor_profile(self, rng: np.random.Generator) -> MotorProfile:
        """Draw an individual motor profile and apply the persona scales.

        Samples the population :meth:`MotorProfile.sample` distribution
        with the participant's own stream, then multiplies each field
        by the product of this persona's dimension modifiers (clipping
        the bounded fields back into their valid ranges).
        """
        fields = MotorProfile.sample_fields(rng)
        factors, learning_factor = _cell_factors(
            self.age_band, self.motor, self.handedness, self.vision
        )
        for name, factor in factors:
            fields[name] *= factor
        fields["learning_rate"] = clamp(
            fields["learning_rate"] * (learning_factor * self.learning_scale),
            0.10,
            0.70,
        )
        # A no-op unless a modifier scaled it: the draw is already clipped.
        fields["impulsivity"] = clamp(fields["impulsivity"], 0.0, 0.15)
        return MotorProfile(**fields)

    def to_json(self) -> dict[str, Any]:
        """JSON-safe representation (golden-pin friendly)."""
        return {
            "age_band": self.age_band,
            "motor": self.motor,
            "handedness": self.handedness,
            "vision": self.vision,
            "glove": self.glove,
            "learning_scale": self.learning_scale,
            "cell": self.cell(),
        }


@dataclass(frozen=True)
class PersonaSpec:
    """A parsed ``--personas`` population specification.

    Holds, per dimension, the allowed values in declaration order with
    their renormalized weights.  Hashable and canonically printable, so
    it participates in the runner's content-addressed cache keys.
    """

    name: str
    age_band: tuple[tuple[str, float], ...]
    motor: tuple[tuple[str, float], ...]
    handedness: tuple[tuple[str, float], ...]
    vision: tuple[tuple[str, float], ...]
    gloves: tuple[tuple[str, float], ...]

    def canonical(self) -> str:
        """Stable one-line rendering (cache-token material)."""
        parts = []
        for dimension in ("age_band", "motor", "handedness", "vision",
                          "gloves"):
            choices = getattr(self, dimension)
            rendered = ",".join(f"{v}:{w:.6f}" for v, w in choices)
            parts.append(f"{dimension}={rendered}")
        return ";".join(parts)


def _normalized(
    choices: Sequence[tuple[str, float]]
) -> tuple[tuple[str, float], ...]:
    total = sum(weight for _value, weight in choices)
    if total <= 0:
        raise ValueError("persona dimension weights must sum > 0")
    return tuple((value, weight / total) for value, weight in choices)


def _dimension_choices(
    dimension: str, restrict: Optional[Sequence[str]]
) -> tuple[tuple[str, float], ...]:
    if dimension == "gloves":
        table: Mapping[str, float] = DEFAULT_GLOVE_WEIGHTS
        known = list(table)
    else:
        known = list(PERSONA_DIMENSIONS[dimension])
        table = {
            value: weight
            for value, (weight, _mods) in PERSONA_DIMENSIONS[dimension].items()
        }
    if restrict is None:
        selected = known
    else:
        unknown = [value for value in restrict if value not in known]
        if unknown:
            raise ValueError(
                f"unknown {dimension} value(s) {', '.join(unknown)}; "
                f"available: {', '.join(known)}"
            )
        # Keep declaration order, not user order: the draw must not
        # depend on how the spec string happened to list the values.
        selected = [value for value in known if value in set(restrict)]
    return _normalized([(value, table[value]) for value in selected])


def parse_spec(text: str = "full") -> PersonaSpec:
    """Parse a ``--personas`` specification string.

    Accepted forms:

    ``full``
        Every dimension at its realistic population weights (default).
    ``bare``
        The paper's population of convenience: bare hands, steady
        motor ability, normal vision (age/handedness still vary).
    ``dim=v1,v2;dim=v1``
        Restrict dimensions to subsets, e.g.
        ``gloves=winter,arctic;age_band=senior;motor=tremor``.
        Unmentioned dimensions keep their full value set; weights are
        renormalized over the kept values.
    """
    text = (text or "full").strip()
    restricts: dict[str, list[str]] = {}
    if text == "full":
        name = "full"
    elif text == "bare":
        name = "bare"
        restricts = {
            "gloves": ["none"],
            "motor": ["steady"],
            "vision": ["normal"],
        }
    else:
        name = text
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            key, separator, values = clause.partition("=")
            key = key.strip()
            if key == "age":
                key = "age_band"
            if key == "glove":
                key = "gloves"
            if not separator or key not in (
                "age_band", "motor", "handedness", "vision", "gloves"
            ):
                raise ValueError(
                    f"bad persona clause {clause!r}; expected "
                    "dim=value[,value] with dim in age_band/motor/"
                    "handedness/vision/gloves (or the presets "
                    "'full'/'bare')"
                )
            restricts[key] = [
                value.strip() for value in values.split(",") if value.strip()
            ]
    return PersonaSpec(
        name=name,
        age_band=_dimension_choices("age_band", restricts.get("age_band")),
        motor=_dimension_choices("motor", restricts.get("motor")),
        handedness=_dimension_choices(
            "handedness", restricts.get("handedness")
        ),
        vision=_dimension_choices("vision", restricts.get("vision")),
        gloves=_dimension_choices("gloves", restricts.get("gloves")),
    )


def _weighted_draw(
    rng: np.random.Generator, choices: tuple[tuple[str, float], ...]
) -> str:
    point = float(rng.random())
    cumulative = 0.0
    for value, weight in choices:
        cumulative += weight
        if point < cumulative:
            return value
    return choices[-1][0]


def persona_for_user(
    population_seed: int, user_index: int, spec: PersonaSpec
) -> Persona:
    """Participant ``user_index``'s persona, O(1) and shard-independent.

    The persona stream is spawned from ``(population_seed,
    (PERSONA_STREAM, user_index))`` so any worker can derive any
    participant without coordination, and the population is byte-
    identical for every ``--jobs`` value.
    """
    sequence = np.random.SeedSequence(
        entropy=population_seed, spawn_key=(PERSONA_STREAM, user_index)
    )
    rng = np.random.Generator(np.random.PCG64(sequence))
    age_band = _weighted_draw(rng, spec.age_band)
    motor = _weighted_draw(rng, spec.motor)
    handedness = _weighted_draw(rng, spec.handedness)
    vision = _weighted_draw(rng, spec.vision)
    glove = _weighted_draw(rng, spec.gloves)
    # lognormal(0, 0.25) as numpy computes it (see MotorProfile.sample_fields).
    learning_scale = clamp(math.exp(0.25 * rng.standard_normal()), 0.6, 1.6)
    return Persona(
        age_band=age_band,
        motor=motor,
        handedness=handedness,
        vision=vision,
        glove=glove,
        learning_scale=learning_scale,
    )


def user_rng(population_seed: int, user_index: int) -> np.random.Generator:
    """Participant ``user_index``'s private trial-noise stream."""
    sequence = np.random.SeedSequence(
        entropy=population_seed, spawn_key=(TRIAL_STREAM, user_index)
    )
    return np.random.Generator(np.random.PCG64(sequence))


def sample_personas(
    population_seed: int, n: int, spec: Optional[PersonaSpec] = None
) -> list[Persona]:
    """The first ``n`` personas of a population (tests, reports)."""
    spec = spec or parse_spec("full")
    return [
        persona_for_user(population_seed, index, spec) for index in range(n)
    ]
