"""Drive construction: four-tone qubit/auxiliary transfers and motional sidebands.

Phase convention, used consistently across the package: a tone (or tone-pair)
phase chi multiplies the raising coupling |aux><qubit| by exp(-i*chi); the
lowering coupling carries the conjugate. A resonant pulse of area pi then
transfers population with amplitude -i, and the pair phases (pi - half-angle,
pi + half-angle) returned by :func:`gate_phase_shifts` compose two transfers
into the target rotation with no residual global phase.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .statespace import (
    BlochAxis,
    IonLevel,
    N_LEVELS,
    StateSpace,
    plus_minus_n_vectors,
)

HERMITIAN_ATOL = 1e-10

_AUX_INDEX = {IonLevel.AUX_PLUS: 2, IonLevel.AUX_MINUS: 3}


@dataclass(frozen=True)
class ToneSet:
    """Four simultaneous tones coupling the qubit manifold to the auxiliaries.

    Per-tone Rabi amplitudes and phases are fixed functions of the gate axis:
    tones 1 and 4 carry omega*cos(theta/2), tones 2 and 3 omega*sin(theta/2);
    the tone-pair phases both equal the azimuthal angle, and tone 4 carries an
    extra fixed pi.
    """

    axis: BlochAxis
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def omega_1(self) -> float:
        return self.omega * math.cos(0.5 * self.axis.theta)

    @property
    def omega_2(self) -> float:
        return self.omega * math.sin(0.5 * self.axis.theta)

    omega_3 = omega_2
    omega_4 = omega_1

    @property
    def phase_12(self) -> float:
        return self.axis.phi

    phase_34 = phase_12


@dataclass(frozen=True)
class TransferPulse:
    """One four-tone pulse: total area pi + delta_pi, plus per-pair phases."""

    tones: ToneSet
    area: float = math.pi
    pair_phase_plus: float = 0.0
    pair_phase_minus: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.area):
            raise ValueError(f"pulse area must be finite, got {self.area}")

    @property
    def delta_pi(self) -> float:
        return self.area - math.pi


@dataclass(frozen=True)
class SidebandPulse:
    """A single carrier/red/blue tone coupling one ion level pair.

    ``levels`` is (lower, upper): the qubit-manifold level and the auxiliary
    level it is driven to. Red lowers the Fock index on the way up (coupling
    scaled by sqrt(n)), blue raises it (sqrt(n+1)), carrier leaves it alone.
    """

    kind: str
    levels: tuple[IonLevel, IonLevel]
    area: float = math.pi
    phase: float = 0.0
    ion: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("carrier", "red", "blue"):
            raise ValueError(f"unknown sideband kind {self.kind!r}")
        lo, up = self.levels
        if lo == up:
            raise ValueError("sideband must couple two distinct levels")
        if IonLevel.BRIGHT in (lo, up):
            raise ValueError("the Bright sink is never driven")
        if not math.isfinite(self.area):
            raise ValueError(f"pulse area must be finite, got {self.area}")


def gate_phase_shifts(theta_gate: float) -> tuple[float, float]:
    """Pair phases for the second transfer of a rotation by theta_gate."""
    return math.pi - 0.5 * theta_gate, math.pi + 0.5 * theta_gate


def hamiltonian_matrix(
    tones: ToneSet, chi_plus: float = 0.0, chi_minus: float = 0.0
) -> np.ndarray:
    """Interaction matrix of the four-tone drive on (Q0, Q1, AUX_PLUS, AUX_MINUS).

    Built tone by tone from the per-tone amplitudes and phases; optional
    pair phases multiply each pair's raising couplings by exp(-i*chi).
    """
    h = np.zeros((4, 4), dtype=np.complex128)
    phi = tones.axis.phi
    ap, am = _AUX_INDEX[IonLevel.AUX_PLUS], _AUX_INDEX[IonLevel.AUX_MINUS]
    h[ap, 0] = 0.5 * tones.omega_1 * cmath.exp(-1j * chi_plus)
    h[ap, 1] = 0.5 * tones.omega_2 * cmath.exp(-1j * (phi + chi_plus))
    h[am, 0] = 0.5 * tones.omega_3 * cmath.exp(-1j * chi_minus)
    h[am, 1] = 0.5 * tones.omega_4 * cmath.exp(-1j * (phi + math.pi + chi_minus))
    return h + h.conj().T


def transfer_unitary(pulse: TransferPulse) -> np.ndarray:
    """Exact 4x4 transfer unitary on (Q0, Q1, AUX_PLUS, AUX_MINUS).

    Rotates each of the two axis-aligned 2D subspaces by the full pulse area.
    The drive couples both manifolds symmetrically, so the same matrix serves
    transfers out of the qubit manifold and back into it.
    """
    plus, minus = plus_minus_n_vectors(pulse.tones.axis)
    c = math.cos(0.5 * pulse.area)
    s = math.sin(0.5 * pulse.area)
    u = np.zeros((4, 4), dtype=np.complex128)
    u[0, 0] = u[1, 1] = u[2, 2] = u[3, 3] = c
    for vec, aux, chi in (
        (plus, 2, pulse.pair_phase_plus),
        (minus, 3, pulse.pair_phase_minus),
    ):
        u[aux, :2] = -1j * s * cmath.exp(-1j * chi) * vec.conj()
        u[:2, aux] = -1j * s * cmath.exp(1j * chi) * vec
    return u


def evolve_numeric(h: np.ndarray, duration: float) -> np.ndarray:
    """Numerical evolution exp(-i*h*duration) via spectral decomposition.

    Independent of the analytic pulse constructions above; serves as their
    cross-check oracle. Raises if h is not Hermitian within 1e-10.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * duration)) @ evecs.conj().T


def _fock_pairs(kind: str, fock_dim: int) -> list[tuple[int, int, float]]:
    # (lower-level Fock index, upper-level Fock index, coupling scale).
    if kind == "carrier":
        return [(k, k, 1.0) for k in range(fock_dim)]
    if kind == "red":
        return [(k, k - 1, math.sqrt(k)) for k in range(1, fock_dim)]
    # Blue: the pair out of the top Fock state is truncated, not wrapped.
    return [(k, k + 1, math.sqrt(k + 1)) for k in range(fock_dim - 1)]


def sideband_unitary(pulse: SidebandPulse, space: StateSpace) -> np.ndarray:
    """Unitary of one sideband tone on the (ion level) x (Fock) subsystem.

    The matrix is indexed level-major (dimension 5 * fock_dim) and is meant
    for :func:`heraldsim.statespace.apply_unitary` with targets
    ``(ion, motion_axis)``.
    """
    if not space.has_motion:
        raise ValueError("sideband pulses require a motional mode")
    if pulse.kind in ("red", "blue") and space.fock_cutoff < 1:
        raise ValueError(
            f"{pulse.kind} sideband requires fock_cutoff >= 1, got {space.fock_cutoff}"
        )
    fdim = space.fock_dim
    lo, up = (int(lv) for lv in pulse.levels)
    u = np.eye(N_LEVELS * fdim, dtype=np.complex128)
    for k_lo, k_up, scale in _fock_pairs(pulse.kind, fdim):
        i = lo * fdim + k_lo
        j = up * fdim + k_up
        half = 0.5 * pulse.area * scale
        c, s = math.cos(half), math.sin(half)
        u[i, i] = u[j, j] = c
        u[j, i] = -1j * s * cmath.exp(-1j * pulse.phase)
        u[i, j] = -1j * s * cmath.exp(1j * pulse.phase)
    return u


def sideband_hamiltonian(pulse: SidebandPulse, space: StateSpace, omega: float = 1.0) -> np.ndarray:
    """Drive matrix generating :func:`sideband_unitary` (for oracle checks).

    Scaled so that evolving for duration = area / omega reproduces the pulse.
    """
    if not space.has_motion:
        raise ValueError("sideband pulses require a motional mode")
    fdim = space.fock_dim
    lo, up = (int(lv) for lv in pulse.levels)
    h = np.zeros((N_LEVELS * fdim, N_LEVELS * fdim), dtype=np.complex128)
    for k_lo, k_up, scale in _fock_pairs(pulse.kind, fdim):
        i = lo * fdim + k_lo
        j = up * fdim + k_up
        h[j, i] = 0.5 * omega * scale * cmath.exp(-1j * pulse.phase)
    return h + h.conj().T


def five_level(u4: np.ndarray) -> np.ndarray:
    """Embed a 4x4 manifold unitary into the five-level ion space.

    The Bright sink row/column stays identity: no pulse ever couples it.
    """
    u4 = np.asarray(u4, dtype=np.complex128)
    if u4.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u4.shape}")
    u = np.eye(N_LEVELS, dtype=np.complex128)
    u[:4, :4] = u4
    return u
