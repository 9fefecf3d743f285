"""Stochastic pulse-area errors shared by all tones of a pulse.

The models cover the drifts that defeat composite-pulse compensation:
a constant offset, independent Gaussian draws, a linear drift across the
steps of one gate, and a random walk. Values are in radians of pulse area
and are clamped to the open interval (-pi, pi); clamps are counted so
diagnostics can report them.

Trajectories draw in fixed RNG blocks of ``RNG_ROWS`` = 64. RNG block b
of a run is a Philox keyed by the seed with b in words 2-3 of its 256-bit
counter (Salmon et al., SC'11). One ``standard_normal`` call fills the
block's normals, and one ``random`` call, on the same counter with a tag
bit in word 3, its clean-out uniforms. Both fills are column-major: draw
k of the block's row r is entry ``k * RNG_ROWS + r``, so a row's k-th draw
does not depend on how many draws the block takes. :func:`draw_block`
fills every RNG block a kernel block overlaps and takes its rows, so the
values do not depend on the kernel's block size or on how workers split
the trials; :func:`trajectory_rng` is one row's view of its RNG block.
The generator is set up once per thread and seed, and kept while the
thread draws with that seed.
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
RNG_ROWS = 64
# Set in counter word 3 for a block's uniforms. A block index is below
# 2**128 / RNG_ROWS, so word 3 of its counter stays below 2**58 without it.
_UNIFORM_TAG = 1 << 63
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
    model: AmplitudeErrorModel, n_steps: int, rng: np.random.Generator | _RowStream
) -> tuple[list[float], int]:
    """Draw a length-n_steps error sequence from ``rng``'s first normals, a
    numpy generator's or a :func:`trajectory_rng` row's; returns (values,
    clamp count)."""
    _check_steps(n_steps)
    normals = rng.standard_normal(n_steps) if model.draws_random else None
    errors, clamps = _clamped(_raw_sequence(model, n_steps, normals))
    return errors.tolist(), int(clamps)


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

    Row b holds trajectory ``indices[b]``'s row of its RNG block: the model's
    values of the row's first ``n_steps`` normals, and its first
    ``n_uniforms`` uniforms. Each RNG block the indices touch is filled
    once, with the thread's Philox for the seed (see :func:`_stream`), and
    the block's normals then become the model's values at once, through
    :func:`_raw_sequence`, as one row's do in :func:`sample_errors_counted`.
    A model that draws nothing at random takes no stream unless uniforms
    are asked for.
    """
    _check_steps(n_steps)
    blocks, rows = _rng_rows(indices)
    draws_random = model.draws_random
    normals = np.empty((len(blocks), n_steps if draws_random else 0, RNG_ROWS))
    uniforms = np.empty((len(blocks), n_uniforms, RNG_ROWS))
    for j, block in enumerate(blocks):
        if draws_random:
            _fill(master_seed, block, normals[j], False)
        if n_uniforms:
            _fill(master_seed, block, uniforms[j], True)
    uniforms = _by_row(uniforms)[rows]
    raw = _raw_sequence(model, n_steps, _by_row(normals)[rows] if draws_random else None)
    return *_clamped(np.broadcast_to(raw, (len(uniforms), n_steps))), uniforms


def _rng_rows(indices: Sequence[int]) -> tuple[list[int], list[int]]:
    """The RNG blocks that hold ``indices``, in increasing order, and where
    each index's row sits among their rows."""
    indices = [operator.index(index) for index in indices]
    # The smallest and largest index bound every row's range check.
    for bound in (min(indices, default=0), max(indices, default=0)):
        _checked(bound)
    blocks = sorted({index // RNG_ROWS for index in indices})
    at = {block: j * RNG_ROWS for j, block in enumerate(blocks)}
    return blocks, [at[index // RNG_ROWS] + index % RNG_ROWS for index in indices]


def _by_row(fills: np.ndarray) -> np.ndarray:
    """``(blocks, draws, RNG_ROWS)`` fills as one row per trajectory."""
    blocks, draws, _ = fills.shape
    return fills.transpose(0, 2, 1).reshape(blocks * RNG_ROWS, draws)


def _fill(master_seed: int, block: int, out: np.ndarray, uniform: bool) -> None:
    """Fill ``out`` with the first ``out.size`` normals of RNG block
    ``block``, or with its first uniforms."""
    bitgen, normal, random, state, counter = _stream(master_seed)
    counter[2], counter[3] = block % 2**64, block >> 64 | (_UNIFORM_TAG if uniform else 0)
    bitgen.state = state
    (random if uniform else normal)(out=out)


def _stream(master_seed: int):
    """This thread's Philox keyed by ``master_seed``: its bit generator, the
    ``standard_normal`` and ``random`` of its ``Generator``, a fresh state
    of it (buffer_pos 4: empty) in ints the state setter reads fast, and
    that state's counter words. Built on the first draw with a seed and
    kept while the thread draws with that seed; the state is only ever
    written to the bit generator, so it stays fresh but for the counter
    words 2-3 that each fill sets."""
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


def _checked(index: int) -> int:
    """A trajectory index, refused outside [0, 2**128)."""
    index = operator.index(index)
    if not 0 <= index < 2**128:
        raise ValueError(f"trajectory index must be in [0, 2**128), got {index}")
    return index


class _RowStream:
    """Trajectory ``index``'s row of its RNG block, read as a generator:
    ``standard_normal(n)`` gives the row's first n normals, and each
    ``random()`` or ``random(1)`` call the row's next uniform, so errors
    and then one ``random(1)`` per clean-out give the row's values in
    :func:`draw_block`."""

    def __init__(self, master_seed: int, index: int) -> None:
        _stream(master_seed)  # refuses a seed numpy refuses, here
        self._seed = master_seed
        self._block, self._row = divmod(_checked(index), RNG_ROWS)
        self._taken = 0

    def standard_normal(self, size: int) -> np.ndarray:
        fill = np.empty((size, RNG_ROWS))
        _fill(self._seed, self._block, fill, False)
        return fill[:, self._row].copy()

    def random(self, size: int | None = None) -> float | np.ndarray:
        stop = self._taken + (1 if size is None else size)
        # Uniform k is entry k * RNG_ROWS + row of every fill that long.
        fill = np.empty((stop, RNG_ROWS))
        _fill(self._seed, self._block, fill, True)
        values = fill[self._taken :, self._row].copy()
        self._taken = stop
        return float(values[0]) if size is None else values


def trajectory_rng(master_seed: int, index: int) -> _RowStream:
    """Trajectory ``index``'s draws under ``master_seed``, one row of its
    RNG block (see the module docstring): the same values on any worker,
    and the ones :func:`draw_block` gives that row."""
    return _RowStream(master_seed, index)
