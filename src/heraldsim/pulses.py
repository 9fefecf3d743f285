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
    PairRotations,
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
    fill = transfer_fill(
        pulse.tones.axis, pulse.pair_phase_plus, pulse.pair_phase_minus
    )
    return fill(np.array([pulse.area]))[0, :4, :4].copy()


def _minus_i_times(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``-1j * s * z`` for real ``s`` and complex ``z``, broadcast against
    each other, rounded exactly as that Python expression rounds it for
    scalars: ``-1j * s`` is ``complex(0.0, -s)``, and the product with
    ``z`` rounds each real product once (numpy's complex product may fuse
    them)."""
    out = np.empty(np.broadcast_shapes(s.shape, z.shape), dtype=np.complex128)
    out.real = 0.0 * z.real + s * z.imag
    out.imag = 0.0 * z.imag - s * z.real
    return out


def transfer_fill(axis: BlochAxis, chi_plus: float = 0.0, chi_minus: float = 0.0):
    """Five-level transfer unitaries for a block of pulse areas.

    Each coupling, pair-phase factor times axis eigenvector component, is
    computed here, once, in Python complex arithmetic; the returned function
    maps areas of shape ``(block,)`` to a ``(block, 5, 5)`` stack, leaving
    only the cos/sin fill and one real-by-complex product per area.
    """
    plus, minus = plus_minus_n_vectors(axis)
    # Each coupling entry: flat index, phase factor times eigenvector component.
    entries = []
    for vec, aux, chi in ((plus, 2, chi_plus), (minus, 3, chi_minus)):
        for q, v in enumerate(map(complex, vec)):
            entries.append((aux * N_LEVELS + q, cmath.exp(-1j * chi) * v.conjugate()))
            entries.append((q * N_LEVELS + aux, cmath.exp(1j * chi) * v))
    flat, couplings = (np.array(col) for col in zip(*entries))
    diag = np.arange(4) * (N_LEVELS + 1)
    bright = IonLevel.BRIGHT * (N_LEVELS + 1)

    def fill(areas: np.ndarray) -> np.ndarray:
        half = 0.5 * areas
        c, s = np.cos(half), np.sin(half)
        u = np.zeros((areas.shape[0], N_LEVELS * N_LEVELS), dtype=np.complex128)
        u[:, diag] = c[:, None]
        u[:, bright] = 1.0
        u[:, flat] = _minus_i_times(s[:, None], couplings)
        return u.reshape(-1, N_LEVELS, N_LEVELS)

    return fill


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


def _fock_pairs(kind: str, fock_dim: int) -> tuple[int, int, np.ndarray]:
    """A tone's first lower-level and upper-level Fock index, and each
    pair's coupling scale: pair k joins lower-level Fock index
    ``start_lo + k`` to upper-level index ``start_up + k``."""
    if kind == "carrier":
        return 0, 0, np.ones(fock_dim)
    scales = np.sqrt(np.arange(1.0, fock_dim))
    # Red lowers the Fock index on the way up, blue raises it; blue's pair
    # out of the top Fock state is truncated, not wrapped.
    return (1, 0, scales) if kind == "red" else (0, 1, scales)


def sideband_unitary(pulse: SidebandPulse, space: StateSpace) -> np.ndarray:
    """Dense unitary of one sideband tone on the (ion level) x (Fock)
    subsystem: the oracle of the pair rotations the protocols apply.

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
    tones = ((pulse.kind, pulse.levels, pulse.phase),)
    (op,) = sideband_fill(((tones, 0),), space.fock_dim)(np.array([[pulse.area]]))
    return np.asarray(op[0])


def sideband_fill(tone_sets, fock_dim: int):
    """Ion-and-mode rotations of several sets of simultaneous sideband
    tones, for a block of areas.

    ``tone_sets`` holds ``(tones, column)`` pairs. ``tones`` holds ``(kind,
    (lower, upper), phase)`` triples driving disjoint level pairs, so their
    two-level rotations commute and form one
    :class:`~heraldsim.statespace.PairRotations`; they share the area in
    ``column`` of each row. The pair tables and phase factors are computed
    here, once. The returned function maps areas of shape ``(block,
    columns)`` to one rotation per tone set, holding every pair's
    coefficients in every row: c, and the two off-diagonal entries of the
    pair's 2x2 block. One ``cos``, one ``sin`` and one complex product fill
    the pairs of every set at once, and each rotation's arrays are slices
    of those: the same operations on the same operands as one fill per
    set, so the same bits.
    """
    tables, columns, scales, factors, bounds = [], [], [], [], [0]
    for tones, column in tone_sets:
        table = []
        for kind, levels, phase in tones:
            start_lo, start_up, tone_scales = _fock_pairs(kind, fock_dim)
            lo, up = (int(lv) for lv in levels)
            table.append((lo, start_lo, up, start_up, tone_scales.size))
            scales.append(tone_scales)
            columns.append(np.full(tone_scales.size, column))
            # The lowering entry's phase factor, then the raising entry's.
            lowering, raising = cmath.exp(1j * phase), cmath.exp(-1j * phase)
            factors.append(np.repeat([[lowering], [raising]], tone_scales.size, axis=1))
        tables.append(tuple(table))
        bounds.append(bounds[-1] + sum(n for *_, n in table))
    # One row per pair, broadcast against the areas.
    columns = np.concatenate(columns)
    scales = np.concatenate(scales)[:, None]
    factors = np.concatenate(factors, axis=1)[:, :, None]
    spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def fill(areas: np.ndarray) -> tuple[PairRotations, ...]:
        # Each pair's row of half areas, pairs first.
        half = scales * (0.5 * areas).T[columns]
        c, s = np.cos(half), np.sin(half)
        off = _minus_i_times(s, factors)
        return tuple(
            PairRotations(table, fock_dim, c[span], off[:, span])
            for table, span in zip(tables, spans)
        )

    return fill


def sideband_hamiltonian(pulse: SidebandPulse, space: StateSpace, omega: float = 1.0) -> np.ndarray:
    """Drive matrix generating :func:`sideband_unitary` (for oracle checks).

    Scaled so that evolving for duration = area / omega reproduces the pulse.
    """
    if not space.has_motion:
        raise ValueError("sideband pulses require a motional mode")
    fdim = space.fock_dim
    lo, up = (int(lv) for lv in pulse.levels)
    h = np.zeros((N_LEVELS * fdim, N_LEVELS * fdim), dtype=np.complex128)
    start_lo, start_up, scales = _fock_pairs(pulse.kind, fdim)
    k = np.arange(scales.size)
    h[up * fdim + start_up + k, lo * fdim + start_lo + k] = (
        0.5 * omega * scales * cmath.exp(-1j * pulse.phase)
    )
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
