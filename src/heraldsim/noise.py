"""Stochastic pulse-area errors shared by all tones of a pulse.

The models cover the drifts that defeat composite-pulse compensation:
a constant offset, independent Gaussian draws, a linear drift across the
steps of one gate, and a random walk. Values are in radians of pulse area
and are clamped to the open interval (-pi, pi); clamps are counted so
diagnostics can report them.

Trajectory i of a run draws from its own stream, ``trajectory_rng(seed,
i)``. :func:`draw_block` gives a block of trajectories the same values
without a ``SeedSequence`` per trajectory: numpy mixes the seed into its
pool once, heraldsim mixes each index in and hashes every row's four seed
words at once, and numpy's PCG64 seeds itself from those words. The
derivation is checked against numpy's own seeding on first use in a
process.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, lru_cache
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
    errors, clamps = _clamped(_raw_sequence(model, n_steps, rng))
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
    it draws the errors and then the uniforms. Each row's PCG64 is seeded
    from words derived for the whole block at once, with no
    ``SeedSequence`` per row. A model that draws nothing at random takes no
    stream unless uniforms are asked for.
    """
    _check_steps(n_steps)
    errors, uniforms = [], []
    if model.draws_random or n_uniforms:
        _check_stream_states()
        for words in _stream_states(master_seed, indices):
            gen = np.random.Generator(np.random.PCG64(_RowSeed(words)))
            if model.draws_random:
                errors.append(_raw_sequence(model, n_steps, gen))
            if n_uniforms:
                uniforms.append(gen.random(n_uniforms))
    if not model.draws_random:
        errors = np.tile(_raw_sequence(model, n_steps, None), (len(indices), 1))
    uniforms = np.array(uniforms).reshape(len(indices), n_uniforms)
    return *_clamped(np.array(errors)), uniforms


def rms(errors: list[float]) -> float:
    """Root-mean-square of an error sequence (the averaged-error diagnostic)."""
    if not errors:
        return 0.0
    return math.sqrt(sum(v * v for v in errors) / len(errors))


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory generator from (master seed, index).

    ``SeedSequence`` hashes the pair into the stream's starting state, so
    the same pair always yields the same stream, no matter how trajectories
    are distributed over workers. This is the reference that
    :func:`draw_block` reproduces a block at a time.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


# --- a block's stream seeds --------------------------------------------------
#
# trajectory_rng's stream is a PCG64 that numpy seeds from (seed, index):
# SeedSequence mixes the seed's and then the index's 32-bit words into a pool
# of four words, and generate_state(4, uint64) hashes the pool into the four
# words that PCG64 seeds itself from. numpy gives the seed's pool and seeds
# the PCG64; the index's mixing and the hash are derived here for a whole
# block at once, with numpy's constants (numpy/random/bit_generator.pyx).
# _check_stream_states compares the result with numpy's own seeding.

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# (seed, index) pairs checked against numpy: a padded one-word seed with a
# one-word index, and a five-word seed with a two-word index.
_PROBES = ((12345, 67), (2**130 + 12345, 2**32 + 67))


def _hash_constants(start: int, mult: int, first: int, n: int) -> np.ndarray:
    """The constants before and after hashes first..first+n-1 of the
    sequence start, start*mult, ... mod 2**32, as a ``(2, n)`` uint32 array."""
    consts = [start * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + n + 1)]
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


def _hashmix(value, const, next_const):
    """SeedSequence's hashmix of a word with the hash constant it meets."""
    h = (value ^ const) * next_const & _MASK32
    return h ^ (h >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


@lru_cache(maxsize=16)
def _seed_pool(master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool after the seed's words, which every index shares, and the
    hash constants that the index's words meet, as uint32 arrays."""
    pool = np.random.SeedSequence(master_seed).pool
    # SeedSequence hashes four times per seed word before the spawn key's
    # words, the seed padded with zeros to the pool's four words.
    n_words = max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    return pool, _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * n_words, 2 * _POOL_SIZE)


# generate_state(4, uint64) hashes the pool twice over into 8 words.
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)


def _stream_states(master_seed: int, indices: Sequence[int]) -> np.ndarray:
    """The four uint64 words that seed the PCG64 of
    ``trajectory_rng(master_seed, i)``, one row per index i, derived for the
    whole block at once."""
    # operator.index before the cache, which would take 5.0 for 5.
    pool, spawn = _seed_pool(operator.index(master_seed))
    index = np.asarray(indices, dtype=np.uint64)
    # An index is one spawn-key word below 2**32 and two from there on.
    low = (index & _MASK32).astype(np.uint32)
    pool = _mix(pool, _hashmix(low[:, None], *spawn[:, :_POOL_SIZE]))
    high = index > _MASK32
    if high.any():
        word = (index[high] >> 32).astype(np.uint32)
        pool[high] = _mix(pool[high], _hashmix(word[:, None], *spawn[:, _POOL_SIZE:]))
    words = _hashmix(np.tile(pool, 2), *_STATE_CONSTS)
    # Little-endian pairs of words, as generate_state makes its uint64s.
    return np.ascontiguousarray(words, "<u4").view("<u8").astype(np.uint64)


@dataclass(slots=True)
class _RowSeed:
    """The seed that hands one row's four words to ``PCG64``; registered as
    a numpy ``ISeedSequence`` on first use, so importing heraldsim loads no
    ``numpy.random``."""

    words: np.ndarray

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


@cache
def _check_stream_states() -> None:
    """Raise unless the derived seeds give numpy's own streams, checked once
    per process; a numpy that seeds differently would otherwise change every
    stream silently."""
    np.random.bit_generator.ISeedSequence.register(_RowSeed)
    for seed, index in _PROBES:
        expected = trajectory_rng(seed, index).bit_generator.state
        if np.random.PCG64(_RowSeed(_stream_states(seed, [index])[0])).state != expected:
            raise RuntimeError(
                f"this numpy ({np.__version__}) seeds trajectory streams differently "
                f"from the derivation in heraldsim.noise (seed {seed}, index {index})"
            )
