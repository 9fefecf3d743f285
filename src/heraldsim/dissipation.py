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


def _target_weight(
    amps: np.ndarray, space: StateSpace, ch: CleanoutChannel
) -> tuple[float, np.ndarray]:
    mask = level_mask(space, ch.ion, ch.levels, ch.fock)
    probs = amps.real**2 + amps.imag**2
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_CHECK_ATOL:
        raise ValueError(
            f"clean-out requires a normalized state (norm {math.sqrt(total)})"
        )
    p = float(probs[mask].sum() / total)
    return min(max(p, 0.0), 1.0), mask


def _survivor(amps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    kept = np.where(mask, 0.0, amps)
    return kept / np.linalg.norm(kept)


def _segments(p: float, selectivity: float) -> list[tuple[float, bool]]:
    """(probability, flagged) of each branch, in the fixed order flagged
    target, flagged false positive, survivor; those not above PROB_FLOOR are
    dropped."""
    segments: list[tuple[float, bool]] = []
    if p > PROB_FLOOR:
        segments.append((p, True))
    false_pos = (1.0 - selectivity) * (1.0 - p)
    if false_pos > PROB_FLOOR:
        segments.append((false_pos, True))
    survive = selectivity * (1.0 - p)
    if survive > PROB_FLOOR:
        segments.append((survive, False))
    return segments


def cleanout_branches(state: PureState, ch: CleanoutChannel) -> list[CleanoutBranch]:
    """All branches of the channel as (state, probability, flagged) triples.

    Branch order is fixed: flagged target branch, flagged false-positive
    branch (selectivity < 1 only), surviving branch. Probabilities sum to 1;
    branches below PROB_FLOOR are dropped.
    """
    p, mask = _target_weight(state.amplitudes, state.space, ch)
    return [
        (None, prob, True)
        if flagged
        else (PureState(state.space, _survivor(state.amplitudes, mask)), prob, False)
        for prob, flagged in _segments(p, ch.selectivity)
    ]


def _sample_raw(
    amps: np.ndarray,
    space: StateSpace,
    ch: CleanoutChannel,
    rng: np.random.Generator,
) -> tuple[np.ndarray | None, float, bool]:
    """Sample one branch on raw amplitudes; same branch layout and floor as
    :func:`cleanout_branches`."""
    p, mask = _target_weight(amps, space, ch)
    segments = _segments(p, ch.selectivity)
    u = rng.random()
    acc = 0.0
    prob, flagged = segments[-1]
    for seg_prob, seg_flagged in segments:
        acc += seg_prob
        if u < acc:
            prob, flagged = seg_prob, seg_flagged
            break
    if flagged:
        return None, prob, True
    return _survivor(amps, mask), prob, False


def cleanout_sample(
    state: PureState,
    ch: CleanoutChannel,
    rng: np.random.Generator,
    step_index: int = 0,
) -> tuple[PureState | None, HeraldRecord]:
    """Sample one branch of the channel; statistically matches enumeration."""
    amps, prob, flagged = _sample_raw(state.amplitudes, state.space, ch, rng)
    out = PureState(state.space, amps) if amps is not None else None
    return out, HeraldRecord(step_index, ch.ion, flagged, prob)
