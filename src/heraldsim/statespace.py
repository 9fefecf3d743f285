"""Dense state-vector substrate for registers of five-level ions.

Each ion carries five levels: the two qubit states, two long-lived auxiliary
states used as transfer targets, and an absorbing Bright sink populated only
by dissipative clean-out. An optional shared motional (Fock) mode is the last
tensor factor.

Basis ordering is fixed and golden-value tests depend on it: per-ion levels
in the order (Q0, Q1, AUX_PLUS, AUX_MINUS, BRIGHT), ion index major, Fock
index last. This module alone knows that layout: every read or write of
one ion's levels (and, optionally, some Fock indices) goes through the
strided view of :func:`_target_index`, through the basis indices of
:func:`_pair_index` for a sideband transfer's pairs, or through the cyclic
pass of :func:`_apply_product` over every ion. A :class:`PureState` is
immutable and every operation on one returns a new state; only the
kernel's ``(block, dim)`` array is updated in place.

Each reduction has one row-wise rule in split real arithmetic, with no BLAS
call: :func:`_row_norm2` (norms, populations), :func:`_normalized` and
:func:`_row_overlaps`. The one-state functions are these rules at one row,
so a state and a kernel row agree to the bit on any BLAS kernel.
"""

from __future__ import annotations

import cmath
import math
import numbers
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


def _check_real(**values) -> None:
    """Raise ValueError unless every value is a real number; a bool is not
    one. The one rule for the numbers of every value object and spec."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {type(value).__name__}")


@dataclass(frozen=True)
class BlochAxis:
    """Rotation axis given by polar and azimuthal angles on the Bloch sphere."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        _check_real(theta=self.theta, phi=self.phi)
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
        return math.sqrt(_row_norm2(self.amplitudes[None])[0])


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
    return PureState(space, _normalized(amps[None])[0])


def _normalized(amps: np.ndarray) -> np.ndarray:
    """Each row of a ``(block, n)`` array divided by its norm; raises on a
    row whose squared norm is 0 or not finite."""
    norm2 = _row_norm2(amps)
    if not ((norm2 > 0.0) & (norm2 < math.inf)).all():
        raise ValueError("state has no nonzero amplitude, or its norm overflows")
    return amps / np.sqrt(norm2)[:, None]


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


@dataclass(frozen=True)
class PairRotations:
    """Simultaneous two-level rotations of one ion and the Fock mode: a
    direct sum of 2x2 blocks on disjoint pairs of basis states, identity
    elsewhere.

    ``tones`` holds one ``(lower, lower_fock, upper, upper_fock, count)``
    entry per tone: its k-th pair joins (level ``lower``, Fock index
    ``lower_fock + k``) to (``upper``, ``upper_fock + k``). The pairs are
    numbered tone after tone. A pair maps ``(x_lo, x_up)`` to ``(c*x_lo +
    lowering*x_up, raising*x_lo + c*x_up)``: ``c`` holds c of each pair
    and ``off`` its ``(lowering, raising)``, with the pairs first and any
    trailing axis (one entry per row of a block) last, so ``c`` has shape
    ``(pairs,)`` or ``(pairs, block)`` and ``off`` ``(2,) + c.shape``.
    Indexing selects rows, as it does for a stack of matrices, and
    ``np.asarray`` gives the dense matrices, level-major over (ion level,
    Fock).
    """

    tones: tuple[tuple[int, int, int, int, int], ...]
    fock_dim: int
    c: np.ndarray
    off: np.ndarray

    def __getitem__(self, rows) -> PairRotations:
        return PairRotations(self.tones, self.fock_dim, self.c[:, rows], self.off[:, :, rows])

    @property
    def nbytes(self) -> int:
        return self.c.nbytes + self.off.nbytes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        d = N_LEVELS * self.fock_dim
        lower, upper = _pair_ends(self.tones, self.fock_dim)
        # Rows first, then the pairs.
        c, off = np.moveaxis(self.c, 0, -1), np.moveaxis(self.off, (0, 1), (-2, -1))
        u = np.zeros(c.shape[:-1] + (d, d), dtype=np.complex128)
        u[..., range(d), range(d)] = 1.0
        u[..., lower, lower] = c
        u[..., upper, upper] = c
        u[..., lower, upper] = off[..., 0, :]
        u[..., upper, lower] = off[..., 1, :]
        return u if dtype is None else u.astype(dtype)


@dataclass(frozen=True)
class IonProduct:
    """One 5x5 matrix per ion of a register without a motional mode, all
    applied at once: their tensor product.

    ``factors`` has shape ``(..., n_ions, 5, 5)``, ion 0 first; any leading
    axes are rows of a block. Indexing selects rows, as it does for a stack
    of matrices, and ``np.asarray`` gives the dense Kronecker products,
    with ion 0 the most significant factor.
    """

    factors: np.ndarray

    def __getitem__(self, rows) -> IonProduct:
        return IonProduct(self.factors[rows])

    @property
    def nbytes(self) -> int:
        return self.factors.nbytes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        u = np.ones(self.factors.shape[:-3] + (1, 1))
        for k in range(self.factors.shape[-3]):
            f = self.factors[..., k, :, :]
            d = u.shape[-1] * N_LEVELS
            u = u[..., :, None, :, None] * f[..., None, :, None, :]
            u = u.reshape(u.shape[:-4] + (d, d))
        return u if dtype is None else u.astype(dtype)


def _pair_ends(tones, stride: int) -> np.ndarray:
    """``level * stride + Fock index`` of every pair's lower and upper
    entry: shape ``(2, pairs)``."""
    return np.concatenate(
        [
            np.array([[lo * stride + lo_fock], [up * stride + up_fock]]) + np.arange(n)
            for lo, lo_fock, up, up_fock, n in tones
        ],
        axis=1,
    )


# Enough for the four sideband transfers of one cz run, which the memory
# estimate counts; more would keep a past run's indices alive.
@lru_cache(maxsize=4)
def _pair_index(space: StateSpace, ion: int, tones) -> np.ndarray:
    """The basis index of every pair's lower and upper entry, for each
    setting of the other factors: shape ``(others, 2, pairs)``."""
    shape, _, _ = _target_index(space, ion, None, None)
    before, f = shape[0], shape[-1]
    after = space.dim // (before * N_LEVELS * f)
    stride = after * f  # from one level of the ion to the next
    others = np.arange(before)[:, None] * (N_LEVELS * stride) + np.arange(after) * f
    return others.reshape(-1, 1, 1) + _pair_ends(tones, stride)


def _apply_pairs(
    amps: np.ndarray, space: StateSpace, op: PairRotations, ion: int
) -> np.ndarray:
    """Apply row b of ``op`` to ion ``ion`` and the Fock mode of row b of a
    ``(block, dim)`` array in place; entries outside every pair stay.

    Each new entry is ``c*x + (re(a)*y + i*im(a)*y)``, where x is the entry,
    y its partner and a the coupling from y. Every factor has a zero
    component, so every real product is rounded once, and the sums are
    those of the dense product that rounds each complex product once."""
    index = _pair_index(space, ion, op.tones)
    # Basis index first: one gather gives both entries of every pair, for
    # every setting of the other factors and every row.
    x = amps.T[index]
    y = x[:, ::-1]
    amps.T[index] = op.c * x + (op.off.real * y + (1j * op.off.imag) * y)
    return amps


def _apply_product(amps: np.ndarray, op: IonProduct) -> np.ndarray:
    """Apply row b's product to row b of a C-contiguous ``(block, dim)``
    array, in place, one ion at a time.

    When ion k's turn comes its level leads each row: viewed as ``(5,
    rest)``, the row times the factor is ``x.T @ u.T``, one ``(rest, 5) @
    (5, 5)`` product for the whole row, which leaves the ion's level last.
    After the last ion the axes are back in basis order, so no axis is
    moved. The ions write in turn into one scratch array and into ``amps``,
    and an odd ion count copies the scratch back once."""
    block = amps.shape[0]
    src, dst = amps, np.empty_like(amps)
    for k in range(op.factors.shape[1]):
        rows = np.swapaxes(src.reshape(block, N_LEVELS, -1), 1, 2)
        np.matmul(rows, np.swapaxes(op.factors[:, k], 1, 2), out=dst.reshape(rows.shape))
        src, dst = dst, src
    if src is not amps:
        amps[...] = src
    return amps


def _apply_block(
    amps: np.ndarray,
    space: StateSpace,
    u: np.ndarray | PairRotations | IonProduct,
    targets: tuple[int, ...],
) -> np.ndarray:
    """Apply row b's operator ``u[b]`` to row b of a C-contiguous, writable
    ``(block, dim)`` array, in place, and return that array.

    ``u`` is a ``(block, d, d)`` stack, pair rotations on targets ``(ion,
    motion_axis)``, or an ion product on every ion of a register without a
    motional mode. Each row goes through its own products, so a row's
    result does not depend on the other rows or on the block size. No
    unitarity check: callers validate matrices once and reuse them.
    Protocol steps hold the structured operators; dense stacks come from
    :func:`apply_unitary` and the ideal outputs.
    """
    if isinstance(u, PairRotations):
        return _apply_pairs(amps, space, u, targets[0])
    if isinstance(u, IonProduct):
        return _apply_product(amps, u)
    block, d = u.shape[0], u.shape[1]
    axes = tuple(t + 1 for t in targets)
    front = range(1, len(targets) + 1)
    psi = np.moveaxis(amps.reshape((block,) + space.factor_dims), axes, front)
    psi[...] = (u @ psi.reshape(block, d, -1)).reshape(psi.shape)
    return amps


def _apply_matrix(
    state: PureState, u: np.ndarray | PairRotations | IonProduct, targets: tuple[int, ...]
) -> PureState:
    amps = _apply_block(state.amplitudes[None].copy(), state.space, u[None], targets)
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


# The values selected along the level or the Fock axis; None selects all.
_Values = frozenset[int] | None


def _as_index(values: frozenset[int]) -> slice | list[int]:
    """The sorted values as a slice when they are evenly spaced, else as a list."""
    v = sorted(values)
    start, stop = (v[0], v[-1] + 1) if v else (0, 0)
    stride = v[1] - start if len(v) > 1 else 1
    return slice(start, stop, stride) if v == list(range(start, stop, stride)) else v


@lru_cache(maxsize=256)
def _target_index(space: StateSpace, ion: int, levels: _Values, fock: _Values):
    """The shape ``(5**ion, 5, rest, fock_dim)`` that gives one ion's level
    and the Fock index an axis each after the row axis, and the subset's
    index along those two axes."""
    if not 0 <= ion < space.n_ions:
        raise ValueError(f"ion index {ion} out of range [0, {space.n_ions})")
    if fock is not None:
        if not space.has_motion:
            raise ValueError("Fock-resolved subset requested but space has no motion")
        for n in fock:
            if not 0 <= n < space.fock_dim:
                raise ValueError(f"fock index {n} out of range for {space}")
    levels = slice(None) if levels is None else _as_index(levels)
    fock = slice(None) if fock is None else _as_index(fock)
    return (N_LEVELS**ion, N_LEVELS, -1, space.fock_dim), levels, fock


def _subset_norm2(
    amps: np.ndarray, space: StateSpace, ion: int, levels: _Values, fock: _Values
) -> np.ndarray:
    """Squared norm of each row of a ``(block, dim)`` array on the subset
    where the ion's level is in ``levels`` and the Fock index in ``fock``:
    :func:`_row_norm2` of a contiguous copy of the strided view (faster to
    square than the view), in basis index order."""
    shape, levels, fock = _target_index(space, ion, levels, fock)
    view = amps.reshape((amps.shape[0],) + shape)[:, :, levels][..., fock]
    return _row_norm2(np.ascontiguousarray(view).reshape(amps.shape[0], -1))


def _zero_target(
    amps: np.ndarray, space: StateSpace, ion: int, levels: _Values, fock: _Values
) -> None:
    """Zero the subset in every row of a C-contiguous ``(block, dim)``
    array, in place."""
    shape, levels, fock = _target_index(space, ion, levels, fock)
    # Reshaping a C-contiguous array gives a view, so the writes land in amps.
    view = amps.reshape((amps.shape[0],) + shape)
    # One index list at a time: two would be paired, not crossed.
    for level in levels if isinstance(levels, list) else (levels,):
        view[:, :, level, :, fock] = 0.0


def _row_norm2(amps: np.ndarray) -> np.ndarray:
    """Squared norm re**2 + im**2 of each row of a ``(block, n)`` array; the
    squares are a new contiguous array, so each row sums on its own."""
    return (amps.real**2 + amps.imag**2).sum(axis=-1)


def manifold_population(
    state: PureState, ion: int, manifold: Iterable[IonLevel | int]
) -> float:
    """Total probability of finding the ion's level inside the manifold.
    Raises ValueError on a level that does not exist."""
    levels = frozenset(IonLevel(lv) for lv in manifold)
    return float(_subset_norm2(state.amplitudes[None], state.space, ion, levels, None)[0])


def fock_population(state: PureState, n: int) -> float:
    """Probability of the motional mode holding exactly n quanta."""
    return float(_subset_norm2(state.amplitudes[None], state.space, 0, None, frozenset({n}))[0])


def _one_row(a: PureState, b: PureState) -> tuple[np.ndarray, np.ndarray]:
    if a.space != b.space:
        raise ValueError(f"state spaces differ: {a.space} vs {b.space}")
    return a.amplitudes[None], b.amplitudes


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; spaces must match."""
    re, im = _row_overlaps(*_one_row(a, b))
    return complex(re[0], im[0])


def fidelity_up_to_global_phase(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2, insensitive to global phase."""
    return float(_row_fidelities(*_one_row(a, b))[0])


def _row_overlaps(rows: np.ndarray, ideal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """re and im of <row|ideal> for each row of a ``(block, n)`` array, as
    sum(ar*br + ai*bi) and sum(ar*bi - ai*br): each real product rounds once
    (a complex product may fuse them, by CPU), and rows sum as in
    :func:`_row_norm2`."""
    ar, ai, br, bi = rows.real, rows.imag, ideal.real, ideal.imag
    # In-place adds: two (block, n) temporaries rather than four, same bits.
    re = ar * br
    re += ai * bi
    im = ar * bi
    im -= ai * br
    return re.sum(axis=-1), im.sum(axis=-1)


def _row_fidelities(rows: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """|<row|ideal>|^2 of each row, re**2 + im**2 of :func:`_row_overlaps`;
    :func:`fidelity_up_to_global_phase` is this at one row."""
    re, im = _row_overlaps(rows, ideal)
    return re**2 + im**2
