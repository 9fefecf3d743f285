"""Dense state-vector substrate for registers of five-level ions.

Each ion carries five levels: the two qubit states, two long-lived auxiliary
states used as transfer targets, and an absorbing Bright sink populated only
by dissipative clean-out. An optional shared motional (Fock) mode is the last
tensor factor.

Basis ordering is fixed and golden-value tests depend on it: per-ion levels
in the order (Q0, Q1, AUX_PLUS, AUX_MINUS, BRIGHT), ion index major, Fock
index last. States are immutable; every operation returns a new value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

UNITARY_ATOL = 1e-10

N_LEVELS = 5


class IonLevel(IntEnum):
    """Internal levels of one ion, in basis order."""

    Q0 = 0
    Q1 = 1
    AUX_PLUS = 2
    AUX_MINUS = 3
    BRIGHT = 4


QUBIT_MANIFOLD = frozenset({IonLevel.Q0, IonLevel.Q1})
AUX_MANIFOLD = frozenset({IonLevel.AUX_PLUS, IonLevel.AUX_MINUS})


@dataclass(frozen=True)
class BlochAxis:
    """Rotation axis given by polar and azimuthal angles on the Bloch sphere."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class StateSpace:
    """Tensor layout of a register: ``n_ions`` five-level ions, optional Fock mode.

    ``fock_cutoff`` of 0 means no motional mode; otherwise the mode holds
    Fock states 0..fock_cutoff (dimension fock_cutoff + 1).
    """

    n_ions: int
    fock_cutoff: int = 0

    def __post_init__(self) -> None:
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.fock_cutoff < 0:
            raise ValueError(f"fock_cutoff must be >= 0, got {self.fock_cutoff}")

    @property
    def has_motion(self) -> bool:
        return self.fock_cutoff > 0

    @property
    def fock_dim(self) -> int:
        return self.fock_cutoff + 1 if self.has_motion else 1

    @property
    def factor_dims(self) -> tuple[int, ...]:
        dims = (N_LEVELS,) * self.n_ions
        return dims + (self.fock_dim,) if self.has_motion else dims

    @property
    def motion_axis(self) -> int:
        """Tensor-factor index of the Fock mode (valid only if has_motion)."""
        if not self.has_motion:
            raise ValueError("space has no motional mode")
        return self.n_ions

    @property
    def dim(self) -> int:
        return N_LEVELS**self.n_ions * self.fock_dim

    def index(self, levels: Sequence[IonLevel | int], fock: int = 0) -> int:
        """Flat basis index of the product state with the given ion levels."""
        if len(levels) != self.n_ions:
            raise ValueError(f"expected {self.n_ions} levels, got {len(levels)}")
        if not 0 <= fock < self.fock_dim:
            raise ValueError(f"fock index {fock} out of range for {self}")
        idx = 0
        for lv in levels:
            lv = int(lv)
            if not 0 <= lv < N_LEVELS:
                raise ValueError(f"invalid level {lv}")
            idx = idx * N_LEVELS + lv
        return idx * self.fock_dim + fock


@dataclass(frozen=True)
class PureState:
    """Immutable complex amplitude vector over a StateSpace."""

    space: StateSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def make_state(
    space: StateSpace, entries: Iterable[tuple[int, complex]]
) -> PureState:
    """Build a normalized state from (basis index, amplitude) entries.

    Unspecified entries are zero. Raises on out-of-range indices or an
    all-zero amplitude list.
    """
    amps = np.zeros(space.dim, dtype=np.complex128)
    for idx, value in entries:
        if not 0 <= idx < space.dim:
            raise ValueError(f"basis index {idx} out of range [0, {space.dim})")
        amps[idx] += value
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("state has no nonzero amplitude")
    return PureState(space, amps / norm)


def basis_state(
    space: StateSpace, levels: Sequence[IonLevel | int], fock: int = 0
) -> PureState:
    """Product basis state with the given per-ion levels and Fock index."""
    return make_state(space, [(space.index(levels, fock), 1.0)])


def plus_minus_n_vectors(axis: BlochAxis) -> tuple[np.ndarray, np.ndarray]:
    """Qubit-manifold eigenvectors of the axis, as length-2 arrays over (Q0, Q1).

    The minus vector carries the sign convention with the minus on the Q1
    component; both golden values and the transfer construction rely on it.
    """
    half = 0.5 * axis.theta
    phase = cmath.exp(1j * axis.phi)
    plus = np.array([math.cos(half), phase * math.sin(half)], dtype=np.complex128)
    minus = np.array([math.sin(half), -phase * math.cos(half)], dtype=np.complex128)
    return plus, minus


def plus_minus_n_states(axis: BlochAxis) -> tuple[PureState, PureState]:
    """Single-ion states |+n> and |-n> for the given axis."""
    space = StateSpace(1)
    plus, minus = plus_minus_n_vectors(axis)
    pad = np.zeros(3, dtype=np.complex128)
    return (
        PureState(space, np.concatenate([plus, pad])),
        PureState(space, np.concatenate([minus, pad])),
    )


def _check_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> None:
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"matrix must be square, got shape {u.shape}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if err > atol:
        raise ValueError(f"matrix is not unitary (deviation {err:.2e} > {atol:.0e})")


def _apply_block(
    amps: np.ndarray, space: StateSpace, u: np.ndarray, targets: tuple[int, ...]
) -> np.ndarray:
    """Apply row b's operator ``u[b]`` to row b of a ``(block, dim)`` array.

    Each row goes through its own matrix products, so a row's result does
    not depend on the other rows or on the block size. No unitarity check:
    callers validate matrices once and reuse them.
    """
    block, d = u.shape[0], u.shape[1]
    first = targets[0] if targets else 0
    if targets == tuple(range(first, first + len(targets))):
        # One ascending run of factors: only the Fock mode follows the ions,
        # so every factor before the run is a five-level ion.
        psi = amps.reshape(block, N_LEVELS**first, d, -1)
        return (u[:, None] @ psi).reshape(block, -1)
    axes = tuple(t + 1 for t in targets)
    front = range(1, len(targets) + 1)
    psi = np.moveaxis(amps.reshape((block,) + space.factor_dims), axes, front)
    moved_shape = psi.shape
    psi = u @ psi.reshape(block, d, -1)
    return np.moveaxis(psi.reshape(moved_shape), front, axes).reshape(block, -1)


def _apply_matrix(
    state: PureState, u: np.ndarray, targets: tuple[int, ...]
) -> PureState:
    amps = _apply_block(state.amplitudes[None], state.space, u[None], targets)
    return PureState(state.space, amps[0])


def apply_unitary(
    state: PureState, u: np.ndarray, targets: int | Sequence[int]
) -> PureState:
    """Apply a unitary to the selected tensor factors, identity elsewhere.

    ``targets`` selects factor indices (ions 0..n_ions-1, then the Fock mode
    if present); the matrix dimension must match the product of the selected
    factor dimensions. The input matrix is checked for unitarity.
    """
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    else:
        targets = tuple(int(t) for t in targets)
    n_factors = len(state.space.factor_dims)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target factors in {targets}")
    for t in targets:
        if not 0 <= t < n_factors:
            raise ValueError(f"target factor {t} out of range [0, {n_factors})")
    u = np.asarray(u, dtype=np.complex128)
    d = math.prod(state.space.factor_dims[t] for t in targets)
    if u.shape != (d, d):
        raise ValueError(f"matrix shape {u.shape} does not match target dimension {d}")
    _check_unitary(u)
    return _apply_matrix(state, u, targets)


@lru_cache(maxsize=256)
def _cached_mask(
    space: StateSpace, ion: int, levels: frozenset[int], fock: frozenset[int] | None
) -> np.ndarray:
    stride = N_LEVELS ** (space.n_ions - 1 - ion) * space.fock_dim
    idx = np.arange(space.dim)
    ion_level = (idx // stride) % N_LEVELS
    mask = np.isin(ion_level, sorted(levels))
    if fock is not None:
        mask &= np.isin(idx % space.fock_dim, sorted(fock))
    mask.flags.writeable = False
    return mask


def level_mask(
    space: StateSpace,
    ion: int,
    levels: Iterable[IonLevel | int],
    fock: Iterable[int] | None = None,
) -> np.ndarray:
    """Boolean mask over basis states whose ion level (and optionally Fock
    index) lies in the given sets. Cached and read-only."""
    if not 0 <= ion < space.n_ions:
        raise ValueError(f"ion index {ion} out of range [0, {space.n_ions})")
    if fock is not None and not space.has_motion:
        raise ValueError("Fock-resolved mask requested but space has no motion")
    return _cached_mask(
        space,
        ion,
        frozenset(int(lv) for lv in levels),
        frozenset(int(n) for n in fock) if fock is not None else None,
    )


def manifold_population(
    state: PureState, ion: int, manifold: Iterable[IonLevel | int]
) -> float:
    """Total probability of finding the ion's level inside the manifold."""
    mask = level_mask(state.space, ion, manifold)
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def fock_population(state: PureState, n: int) -> float:
    """Probability of the motional mode holding exactly n quanta."""
    space = state.space
    if not space.has_motion:
        raise ValueError("state has no motional mode")
    if not 0 <= n < space.fock_dim:
        raise ValueError(f"fock index {n} out of range")
    mask = np.arange(space.dim) % space.fock_dim == n
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; spaces must match."""
    if a.space != b.space:
        raise ValueError(f"state spaces differ: {a.space} vs {b.space}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_up_to_global_phase(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2, insensitive to global phase."""
    return abs(overlap(a, b)) ** 2


def _row_fidelities(rows: np.ndarray, ideal: np.ndarray) -> list[float]:
    """|<row|ideal>|^2 of each row of a ``(block, dim)`` array, computed as
    :func:`fidelity_up_to_global_phase` computes it for one state."""
    return [abs(complex(np.vdot(row, ideal))) ** 2 for row in rows]
