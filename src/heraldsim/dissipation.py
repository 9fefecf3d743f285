"""Heralding dissipative clean-out, modeled as an exact branching channel.

A clean-out pumps all population of a target manifold of one ion to that
ion's Bright sink. The pumped branch is an aggregate terminal outcome (the
flag); its internal state is decoherent and never used downstream, so it is
represented by ``None``. The surviving branch is the renormalized projection
onto the complement.

Imperfect selectivity s < 1 adds a false-positive branch: with probability
(1 - s) the protected population is pumped too. Target population is always
pumped, so the channel never produces a false negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .statespace import (
    AUX_MANIFOLD,
    IonLevel,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    level_mask,
)

PROB_FLOOR = 1e-14
NORM_CHECK_ATOL = 1e-8

CleanoutBranch = tuple["PureState | None", float, bool]


@dataclass(frozen=True)
class CleanoutChannel:
    """One heralding clean-out: target levels of one ion, plus selectivity.

    ``fock`` optionally restricts the target to specific Fock indices
    (needed for intermediate clean-outs where residual and protected
    populations share ion levels and differ only in the motional quantum).
    """

    ion: int
    levels: frozenset[IonLevel]
    selectivity: float = 1.0
    fock: frozenset[int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", frozenset(IonLevel(lv) for lv in self.levels))
        if self.fock is not None:
            object.__setattr__(self, "fock", frozenset(int(n) for n in self.fock))
        if not self.levels:
            raise ValueError("clean-out needs at least one target level")
        if IonLevel.BRIGHT in self.levels:
            raise ValueError("the Bright sink cannot be a clean-out target")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError(f"selectivity must lie in [0, 1], got {self.selectivity}")


def qubit_cleanout(ion: int, selectivity: float = 1.0) -> CleanoutChannel:
    return CleanoutChannel(ion, QUBIT_MANIFOLD, selectivity)


def aux_cleanout(ion: int, selectivity: float = 1.0) -> CleanoutChannel:
    return CleanoutChannel(ion, AUX_MANIFOLD, selectivity)


def level_cleanout(
    ion: int,
    levels: Iterable[IonLevel],
    selectivity: float = 1.0,
    fock: Iterable[int] | None = None,
) -> CleanoutChannel:
    return CleanoutChannel(
        ion,
        frozenset(levels),
        selectivity,
        frozenset(fock) if fock is not None else None,
    )


@dataclass(frozen=True)
class HeraldRecord:
    """Outcome of one clean-out query: which ion, flagged or not, and the
    probability of the branch that was taken."""

    step_index: int
    ion: int
    flagged: bool
    branch_probability: float


def _target_weights(
    amps: np.ndarray, space: StateSpace, ch: CleanoutChannel
) -> tuple[np.ndarray, np.ndarray]:
    """Target population of each row of a ``(block, dim)`` array, and the mask."""
    mask = level_mask(space, ch.ion, ch.levels, ch.fock)
    probs = amps.real**2 + amps.imag**2
    total = probs.sum(axis=-1)
    off = total[np.abs(total - 1.0) > NORM_CHECK_ATOL]
    if off.size:
        raise ValueError(
            f"clean-out requires a normalized state (norm {math.sqrt(off[0])})"
        )
    # compress keeps each row contiguous, so each row sums on its own.
    p = probs.compress(mask, axis=-1).sum(axis=-1) / total
    return np.minimum(np.maximum(p, 0.0), 1.0), mask


def _survivor_rows(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row projected off the mask and renormalized: the one
    normalization of surviving states."""
    kept = np.where(mask, 0.0, amps)
    # Each row's norm as np.linalg.norm takes it for one state: a dot product
    # of the real parts plus one of the imaginary parts, one matmul per row.
    re, im = kept.real[:, None], kept.imag[:, None]
    norms = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
    return kept / norms[:, 0]


def _segment_table(p: np.ndarray, selectivity: float) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of each row's branches, in the fixed order flagged
    target, flagged false positive, survivor, shape ``(block, 3)``; and
    which of them lie above PROB_FLOOR and are kept."""
    segments = np.empty((p.shape[0], 3))
    segments[:, 0] = p
    q = 1.0 - p
    segments[:, 1] = (1.0 - selectivity) * q
    segments[:, 2] = selectivity * q
    return segments, segments > PROB_FLOOR


_SEGMENT_FLAGGED = (True, True, False)


def _segments(p: float, selectivity: float) -> list[tuple[float, bool]]:
    """(probability, flagged) of each kept branch of one state, in order."""
    segments, kept = _segment_table(np.array([p]), selectivity)
    return [
        (prob, flagged)
        for prob, keep, flagged in zip(segments[0].tolist(), kept[0], _SEGMENT_FLAGGED)
        if keep
    ]


def survival_probability(p: np.ndarray, selectivity: float) -> np.ndarray:
    """Survivor branch probability s(1 - p) of each row; 0.0 where it is
    dropped below PROB_FLOOR."""
    segments, kept = _segment_table(p, selectivity)
    return np.where(kept[:, 2], segments[:, 2], 0.0)


def _sample_rows(
    p: np.ndarray, selectivity: float, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one branch per row: the first kept segment whose running sum
    exceeds the row's uniform, else the last kept segment. Returns the taken
    branch's probability and whether it flagged."""
    segments, kept = _segment_table(p, selectivity)
    target, false_pos, survive = segments.T
    # Running sums over the kept segments; a dropped segment adds nothing,
    # and a uniform (>= 0) never falls below a sum it did not pass already.
    after_target = np.where(kept[:, 0], target, 0.0)
    after_false_pos = after_target + np.where(kept[:, 1], false_pos, 0.0)
    survived = kept[:, 2] & (uniforms >= after_false_pos)
    # A flagged row took the false positive unless the target segment caught
    # its uniform or the false positive was dropped.
    took_target = (uniforms < after_target) | ~kept[:, 1]
    taken = np.where(survived, survive, np.where(took_target, target, false_pos))
    return taken, ~survived


def cleanout_branches(state: PureState, ch: CleanoutChannel) -> list[CleanoutBranch]:
    """All branches of the channel as (state, probability, flagged) triples.

    Branch order is fixed: flagged target branch, flagged false-positive
    branch (selectivity < 1 only), surviving branch. Probabilities sum to 1;
    branches below PROB_FLOOR are dropped.
    """
    amps = state.amplitudes[None]
    p, mask = _target_weights(amps, state.space, ch)
    return [
        (None, prob, True)
        if flagged
        else (PureState(state.space, _survivor_rows(amps, mask)[0]), prob, False)
        for prob, flagged in _segments(float(p[0]), ch.selectivity)
    ]


def cleanout_sample(
    state: PureState,
    ch: CleanoutChannel,
    rng: np.random.Generator,
    step_index: int = 0,
) -> tuple[PureState | None, HeraldRecord]:
    """Sample one branch of the channel; statistically matches enumeration."""
    amps = state.amplitudes[None]
    p, mask = _target_weights(amps, state.space, ch)
    taken, flagged = _sample_rows(p, ch.selectivity, rng.random(1))
    out = None if flagged[0] else PureState(state.space, _survivor_rows(amps, mask)[0])
    return out, HeraldRecord(step_index, ch.ion, bool(flagged[0]), float(taken[0]))
