"""Stochastic pulse-area errors shared by all tones of a pulse.

The models cover the drifts that defeat composite-pulse compensation:
a constant offset, independent Gaussian draws, a linear drift across the
steps of one gate, and a random walk. Values are in radians of pulse area
and are clamped to the open interval (-pi, pi); clamps are counted so
diagnostics can report them.

Trajectory i of a run draws from its own stream, ``trajectory_rng(seed,
i)``: a Philox generator keyed by the seed, with i in the upper half of
its 256-bit counter. :func:`draw_block` gives a block of trajectories the
same values from one generator: it sets the counter to each row's stream
and fills that row of one preallocated array per block, then scales the
whole block's normals at once. The generator is set up once per thread
and seed, and kept while the thread's blocks draw with that seed.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import _check_real

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
# Each thread's Philox of the seed it last drew with; see _stream.
_streams = threading.local()


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
        values = {name: getattr(self, name) for name in ("value", "sigma", "slope")}
        _check_real(**values)
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    model: AmplitudeErrorModel, n_steps: int, normals: np.ndarray | None
) -> np.ndarray:
    """The model's values over ``n_steps`` steps, from standard normals of
    shape ``(..., n_steps)`` for a model that draws at random, or from none
    for one that does not. Gaussian values are numpy's ``normal`` bit for
    bit: ``0.0 + sigma * z``, where the ``+ 0.0`` turns the -0.0 of a zero
    sigma and a negative z into +0.0."""
    if model.kind == "constant":
        return np.full(n_steps, model.value)
    if model.kind == "linear_drift":
        return model.value + model.slope * np.arange(n_steps)
    steps = 0.0 + model.sigma * normals
    if model.kind == "gaussian_iid":
        return steps
    # random_walk: the first value already includes one increment.
    return model.value + np.cumsum(steps, axis=-1)


def _clamped(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values clamped into (-pi, pi), and the clamp count along the last
    axis."""
    clamps = np.sum(np.abs(raw) > _CLAMP_MAX, axis=-1)
    return np.clip(raw, -_CLAMP_MAX, _CLAMP_MAX), clamps


def _check_steps(n_steps: int) -> None:
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")


def sample_errors_counted(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> tuple[list[float], int]:
    """Draw a length-n_steps error sequence; returns (values, clamp count)."""
    _check_steps(n_steps)
    normals = rng.standard_normal(n_steps) if model.draws_random else None
    errors, clamps = _clamped(_raw_sequence(model, n_steps, normals))
    return errors.tolist(), int(clamps)


def sample_errors(
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator
) -> list[float]:
    """Draw one per-step error sequence, deterministic for a given generator."""
    return sample_errors_counted(model, n_steps, rng)[0]


def draw_block(
    model: AmplitudeErrorModel,
    n_steps: int,
    master_seed: int,
    indices: Sequence[int],
    n_uniforms: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a block of trajectories: a ``(block, n_steps)`` array of
    clamped errors, each row's clamp count, and ``(block, n_uniforms)``
    clean-out uniforms.

    Row b holds what ``trajectory_rng(master_seed, indices[b])`` gives when
    it draws the errors and then the uniforms: the thread's Philox for the
    seed (built by the first block that draws with it, see :func:`_stream`)
    is reset to each row's counter in turn and fills that row of two
    preallocated arrays. The block's normals then become the model's
    values at once, through :func:`_raw_sequence`, as one row's do in
    :func:`sample_errors_counted`. A model that draws nothing at random
    takes no stream unless uniforms are asked for.
    """
    _check_steps(n_steps)
    indices = [operator.index(index) for index in indices]
    draws_random = model.draws_random
    normals = np.empty((len(indices), n_steps))
    uniforms = np.empty((len(indices), n_uniforms))
    if draws_random or n_uniforms:
        bitgen, normal, uniform, state, counter = _stream(master_seed)
        # The smallest and largest index bound every row's range check.
        for bound in (min(indices, default=0), max(indices, default=0)):
            _counter(bound)
        fill_uniforms = n_uniforms > 0
        for index, normal_row, uniform_row in zip(indices, normals, uniforms):
            counter[2], counter[3] = index % 2**64, index >> 64
            bitgen.state = state
            if draws_random:
                normal(out=normal_row)
            if fill_uniforms:
                uniform(out=uniform_row)
    raw = _raw_sequence(model, n_steps, normals if draws_random else None)
    return *_clamped(np.broadcast_to(raw, normals.shape)), uniforms


def _stream(master_seed: int):
    """This thread's Philox keyed by ``master_seed``: its bit generator, the
    ``standard_normal`` and ``random`` of its ``Generator``, a fresh state
    of it (buffer_pos 4: empty) in ints the state setter reads fast, and
    that state's counter words. Built on the first draw with a seed and
    kept while the thread draws with that seed; the state is only ever
    written to the bit generator, so it stays fresh but for the counter
    words 2-3 that each row sets."""
    seed = operator.index(master_seed)
    kept = getattr(_streams, "kept", None)
    if kept is None or kept[0] != seed:
        gen = np.random.Generator(np.random.Philox(seed))
        bitgen = gen.bit_generator
        state = bitgen.state
        state["buffer"] = state["buffer"].tolist()
        state["state"]["key"] = state["state"]["key"].tolist()
        counter = state["state"]["counter"] = state["state"]["counter"].tolist()
        kept = (seed, bitgen, gen.standard_normal, gen.random, state, counter)
        _streams.kept = kept
    return kept[1:]


def rms(errors: list[float]) -> float:
    """Root-mean-square of an error sequence (the averaged-error diagnostic)."""
    if not errors:
        return 0.0
    return math.sqrt(sum(v * v for v in errors) / len(errors))


def _counter(index: int) -> list[int]:
    """The Philox counter words that start trajectory ``index``'s stream:
    words 0-1 count its draws, and 2-3 hold the index, below 2**128."""
    index = operator.index(index)
    if not 0 <= index < 2**128:
        raise ValueError(f"trajectory index must be in [0, 2**128), got {index}")
    return [0, 0, index % 2**64, index >> 64]


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory generator from (master seed, index).

    A counter-based Philox stream (Salmon et al., SC'11), keyed by the seed
    with the index in its counter, so a pair yields the same stream on any
    worker. :func:`draw_block` reproduces it a block at a time.
    """
    counter = np.array(_counter(index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(master_seed, counter=counter))
