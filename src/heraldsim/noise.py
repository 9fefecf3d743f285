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

import numpy as np

KINDS = ("constant", "gaussian_iid", "linear_drift", "random_walk")

_CLAMP_MAX = float(np.nextafter(np.pi, 0.0))


@dataclass(frozen=True)
class AmplitudeErrorModel:
    """Per-step pulse-area error process.

    Field use by kind:
      constant      value
      gaussian_iid  sigma
      linear_drift  value (start), slope (increment per step)
      random_walk   value (start), sigma (per-step std)
    """

    kind: str
    value: float = 0.0
    sigma: float = 0.0
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown error model kind {self.kind!r}")
        for name in ("value", "sigma", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @classmethod
    def constant(cls, delta_pi: float) -> "AmplitudeErrorModel":
        return cls("constant", value=delta_pi)

    @classmethod
    def gaussian_iid(cls, sigma: float) -> "AmplitudeErrorModel":
        return cls("gaussian_iid", sigma=sigma)

    @classmethod
    def linear_drift(cls, start: float, slope: float) -> "AmplitudeErrorModel":
        return cls("linear_drift", value=start, slope=slope)

    @classmethod
    def random_walk(cls, sigma_step: float, start: float = 0.0) -> "AmplitudeErrorModel":
        return cls("random_walk", value=start, sigma=sigma_step)


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


def sample_errors_counted(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> tuple[list[float], int]:
    """Draw a length-n_steps error sequence; returns (values, clamp count)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    raw = _raw_sequence(model, n_steps, rng)
    clamped = np.clip(raw, -_CLAMP_MAX, _CLAMP_MAX)
    n_clamped = int(np.sum(np.abs(raw) > _CLAMP_MAX))
    return [float(v) for v in clamped], n_clamped


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
