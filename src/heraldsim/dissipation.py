"""Heralding dissipative clean-out, modeled as an exact branching channel.

A clean-out pumps all population of a target manifold of one ion to that
ion's Bright sink. The pumped branch is an aggregate terminal outcome (the
flag); its internal state is decoherent and never used downstream, so it is
represented by ``None``. The surviving branch is the projection onto the
complement, renormalized.

Imperfect selectivity s < 1 adds a false-positive branch: with probability
(1 - s) the protected population is pumped too. Target population is always
pumped, so the channel never produces a false negative.

The kernel :func:`heraldsim.protocols.survivor_paths` carries the survivor
unnormalized, as the no-jump state of the quantum-jump picture: a clean-out
hands its (ion, levels, fock) target to :mod:`heraldsim.statespace`, which
alone knows the basis layout, to read the target population and zero the
target in place. This module holds only the channel and its branch
arithmetic, and imports nothing of the kernel; the one-clean-out wrappers
:func:`~heraldsim.protocols.cleanout_branches` and
:func:`~heraldsim.protocols.cleanout_sample` live beside the kernel they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .statespace import AUX_MANIFOLD, IonLevel, QUBIT_MANIFOLD

PROB_FLOOR = 1e-14


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


def _segment_table(
    p: np.ndarray, selectivity: float | np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of each row's branches, in the fixed order flagged
    target, flagged false positive, survivor, shape ``(block, 3)``; and
    which of them lie above PROB_FLOOR and are kept. ``selectivity`` is one
    value, or one per row. ``q`` is the fraction the clean-out leaves: 1 - p,
    except where p is close to 1 and 1 - p has lost the digits that a count
    of what is left keeps."""
    segments = np.empty((p.shape[0], 3))
    segments[:, 0] = p
    segments[:, 1] = (1.0 - selectivity) * q
    segments[:, 2] = selectivity * q
    return segments, segments > PROB_FLOOR


def survival_probability(selectivity: float, q: np.ndarray) -> np.ndarray:
    """Survivor branch probability s·q of each row, for clean-outs that
    leave fractions q; 0.0 where it is dropped below PROB_FLOOR. The same
    product and the same strict test as the survivor column of
    :func:`_segment_table`, without the rest of the table."""
    survive = selectivity * q
    return np.where(survive > PROB_FLOOR, survive, 0.0)


def _sample_rows(
    p: np.ndarray, selectivity: float, uniforms: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one branch per row: the first kept segment whose running sum
    exceeds the row's uniform, else the last kept segment. Returns the taken
    branch's probability and whether it flagged."""
    segments, kept = _segment_table(p, selectivity, q)
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
