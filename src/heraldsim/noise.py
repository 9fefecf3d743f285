"""Stochastic pulse-area errors shared by all tones of a pulse.

The models cover the drifts that defeat composite-pulse compensation:
a constant offset, independent Gaussian draws, a linear drift across the
steps of one gate, and a random walk. Values are in radians of pulse area
and are clamped to the open interval (-pi, pi); clamps are counted so
diagnostics can report them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# The JSON form of each kind: key -> (model field, default). REQUIRED marks
# a key without a default. Numbers keep their JSON type, so a config echoes
# an integer as written.
REQUIRED = None
FORMAT = {
    "constant": {"delta_pi": ("value", 0.0)},
    "gaussian_iid": {"sigma": ("sigma", REQUIRED)},
    "linear_drift": {"start": ("value", 0.0), "slope": ("slope", 0.0)},
    "random_walk": {"start": ("value", 0.0), "sigma_step": ("sigma", REQUIRED)},
}

_CLAMP_MAX = float(np.nextafter(np.pi, 0.0))


@dataclass(frozen=True)
class AmplitudeErrorModel:
    """Per-step pulse-area error process.

    ``FORMAT`` maps each kind's JSON keys to the fields it uses: ``value``
    (the constant offset, or the start of a drift or walk), ``sigma`` (the
    Gaussian or per-step std) and ``slope`` (the increment per step).
    """

    kind: str
    value: float = 0.0
    sigma: float = 0.0
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FORMAT:
            raise ValueError(f"unknown error model kind {self.kind!r}")
        for name in ("value", "sigma", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def draws_random(self) -> bool:
        """Whether the sequence is drawn from the generator at all."""
        return self.kind in ("gaussian_iid", "random_walk")

    @classmethod
    def from_dict(cls, doc: dict) -> "AmplitudeErrorModel":
        """The model of a JSON object ``{"kind": ..., <keys of FORMAT>}``."""
        kind = doc["kind"]
        fields = {}
        for key, (name, default) in FORMAT.get(kind, {}).items():
            if key not in doc and default is REQUIRED:
                raise ValueError(f"missing required key {key!r}")
            fields[name] = doc.get(key, default)
        return cls(kind, **fields)

    def to_dict(self) -> dict:
        return {"kind": self.kind} | {
            key: getattr(self, name) for key, (name, _) in FORMAT[self.kind].items()
        }

    @classmethod
    def constant(cls, delta_pi: float) -> "AmplitudeErrorModel":
        return cls.from_dict({"kind": "constant", "delta_pi": delta_pi})

    @classmethod
    def gaussian_iid(cls, sigma: float) -> "AmplitudeErrorModel":
        return cls.from_dict({"kind": "gaussian_iid", "sigma": sigma})

    @classmethod
    def linear_drift(cls, start: float, slope: float) -> "AmplitudeErrorModel":
        return cls.from_dict({"kind": "linear_drift", "start": start, "slope": slope})

    @classmethod
    def random_walk(cls, sigma_step: float, start: float = 0.0) -> "AmplitudeErrorModel":
        return cls.from_dict({"kind": "random_walk", "sigma_step": sigma_step, "start": start})


def _raw_sequence(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    if model.kind == "constant":
        return np.full(n_steps, model.value)
    if model.kind == "gaussian_iid":
        return rng.normal(0.0, model.sigma, size=n_steps)
    if model.kind == "linear_drift":
        return model.value + model.slope * np.arange(n_steps)
    # random_walk: the first value already includes one increment.
    return model.value + np.cumsum(rng.normal(0.0, model.sigma, size=n_steps))


def sample_errors_block(
    model: AmplitudeErrorModel, n_steps: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """One error sequence per generator, as rows of a ``(block, n_steps)``
    array, and each row's clamp count. Models that draw nothing at random
    ignore the generators, which may then be None."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if model.draws_random:
        raw = np.array([_raw_sequence(model, n_steps, rng) for rng in rngs])
    else:
        raw = np.tile(_raw_sequence(model, n_steps, None), (len(rngs), 1))
    clamps = np.sum(np.abs(raw) > _CLAMP_MAX, axis=1)
    return np.clip(raw, -_CLAMP_MAX, _CLAMP_MAX), clamps


def sample_errors_counted(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> tuple[list[float], int]:
    """Draw a length-n_steps error sequence; returns (values, clamp count)."""
    errors, clamps = sample_errors_block(model, n_steps, [rng])
    return errors[0].tolist(), int(clamps[0])


def sample_errors(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> list[float]:
    """Draw one per-step error sequence, deterministic for a given generator."""
    return sample_errors_counted(model, n_steps, rng)[0]


def rms(errors: list[float]) -> float:
    """Root-mean-square of an error sequence (the averaged-error diagnostic)."""
    if not errors:
        return 0.0
    return math.sqrt(sum(v * v for v in errors) / len(errors))


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory generator from (master seed, index).

    Counter-based split: the same pair always yields the same stream, no
    matter how trajectories are distributed over workers.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))
