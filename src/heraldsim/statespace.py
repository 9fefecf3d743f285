"""Dense state-vector substrate for registers of five-level ions.

Each ion carries five levels: the two qubit states, two long-lived auxiliary
states used as transfer targets, and an absorbing Bright sink populated only
by dissipative clean-out. An optional shared motional (Fock) mode is the last
tensor factor.

Basis ordering is fixed and golden-value tests depend on it: per-ion levels
in the order (Q0, Q1, AUX_PLUS, AUX_MINUS, BRIGHT), ion index major, Fock
index last. This module alone knows that layout, and the kernel's three
layouts beside it, the register, the support and the per-ion factors:
every read or write of one ion's levels (and, optionally, some Fock
indices) goes through the strided view of :func:`_target_index`, through
the basis indices of :func:`_pair_index` for a sideband transfer's pairs,
through the cyclic pass of :func:`_apply_product` over every ion, through
a support's row positions, or through one ion's vector. Each of these
reads the level count of the layout it is given.
A :class:`PureState` is immutable and every operation on one returns a new
state; only the kernel's ``(block, n)`` array is updated in place.

The register (:class:`_Register`) is the one layout the survivor kernel
takes its starts in: each ion keeps Q0, Q1, AUX_PLUS and AUX_MINUS, in the same order,
so a row holds ``4**n_ions * fock_dim`` amplitudes. Only the clean-out
fills Bright, and a flagged branch leaves the survivor path, so a survivor
never holds Bright amplitude and the register is exact, not an
approximation. The public entry points gather a five-level state into it
with :func:`_into_register`, which refuses Bright amplitude, and write rows
back into +0s with :func:`_public_rows`; :func:`_basis` maps register
entries to public indices. The runner and its branch tables build their
states on the register: :func:`make_state` sums a norm over the nonzero
entries only, so the same entries give the same bits in either layout.
The step operators are trusted to keep Bright empty, as every builder's
do: an ion product applies each factor's 4x4 block, a pair rotation that
names Bright reaches outside the register's basis and :func:`_pair_index`
refuses it, and a dense stack on an ion does not fit the register's
factors. The public basis, :class:`StateSpace`, :class:`PureState` and
every one-state function stay five-level; :func:`_qubit_indices` gives the
qubit manifold's indices in either layout.

The support (:class:`_Support`) is the kernel's layout for steps made only
of pair rotations and clean-outs, the entangling gate's: the register
entries those rotations can reach from the start's nonzero entries, a
fixed point built once per rotations, clean-outs and start columns by
:func:`_support`. A pair rotation maps two zeros to zeros and a clean-out
only zeroes, so every other entry stays exactly 0, and every kept entry
goes through the same operations on the same operands as on the register.
The sideband transfers of the entangling gate never lift a motional mode
that starts in its ground state above Fock 1 (Cirac & Zoller, PRL 74, 4091
(1995)), so from the qubit manifold a cz row keeps 10 of its 16·(cutoff+1)
register entries at any cutoff. Rows on a support carry their entries
with them: :func:`_public_rows` writes them into the public layout, and an
ideal is scored at those entries.

The factors (:class:`_Factors`) are the kernel's layout for steps of ion
products and clean-outs of whole levels, a chain's, from a start that is
a product state: one four-level vector per ion, ``(block, n_ions, 4)``.
Each ion's transfer acts on its own vector and a clean-out zeroes levels
of one vector, so a product stays a product: the bond-dimension-1 case of
a matrix product state (Vidal, PRL 91, 147902 (2003)). :func:`_factor`
factors a register row through its largest entry and accepts it only if
the product of the vectors gives it back to rounding. The transfers
(:func:`_apply_factors`), the populations and the end rows
(:func:`_product_planes`) are split real arithmetic with no BLAS call. End
rows are register rows over the levels that no clean-out after the last
transfer zeroes, Q0 and Q1 of every ion for a chain, and carry those
entries as a support's rows do.

Each reduction has one row-wise rule in split real arithmetic, with no BLAS
call: :func:`_row_norm2` (norms, populations), :func:`_normalized` and
:func:`_row_overlaps`; :func:`_times` is the one complex product, written
as real products. The one-state functions are these rules at one row,
so a state and a kernel row agree to the bit on any BLAS kernel. An
overlap sums only the entries where the ideal is nonzero, so a register
row scored against the register entries of an ideal with no Bright
amplitude has the bits of the same row written back into the public
layout and scored against the whole ideal.

The kernel's block-sized arrays (the survivor block, on any layout, the
product pass's scratch, and on the factors the transfer's planes, the
compacted block and the end rows' partial products) are views of work
arrays that each thread keeps between runs, one per role, so repeated
blocks reuse the same memory; see :func:`_work`. A pair rotation's gather
and products, which run on a support's few entries, are allocated afresh.
"""

from __future__ import annotations

import cmath
import math
import numbers
import threading
import weakref
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import ClassVar, Iterable, Sequence

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

# A block runs as many trajectories as fit in _BLOCK_BYTES of one row's
# amplitudes or operators, whichever is larger, and at least one; work
# arrays up to this size are kept between runs.
_BLOCK_BYTES = 512 * 2**10
_kept = threading.local()


def _work(role: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """An uninitialized C-contiguous array of ``shape``, complex unless
    ``dtype`` says otherwise: a view of this thread's work array for
    ``role``, grown to the largest request, or a fresh array when it would
    pass one block's bytes. A role keeps one dtype. The view is valid until
    the next request for the same role, so no returned array may hold it."""
    count = math.prod(shape)
    if count * np.dtype(dtype).itemsize > _BLOCK_BYTES:
        return np.empty(shape, dtype=dtype)
    buffer = getattr(_kept, role, None)
    if buffer is None or buffer.size < count:
        buffer = np.empty(count, dtype=dtype)
        setattr(_kept, role, buffer)
    return buffer[:count].reshape(shape)


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
    # Levels per ion in this layout; the kernel's register keeps four.
    levels: ClassVar[int] = N_LEVELS

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
        dims = (self.levels,) * self.n_ions
        return dims + (self.fock_dim,) if self.has_motion else dims

    @property
    def motion_axis(self) -> int:
        """Tensor-factor index of the Fock mode (valid only if has_motion)."""
        if not self.has_motion:
            raise ValueError("space has no motional mode")
        return self.n_ions

    @property
    def dim(self) -> int:
        return self.levels**self.n_ions * self.fock_dim

    def index(self, levels: Sequence[IonLevel | int], fock: int = 0) -> int:
        """Flat basis index of the product state with the given ion levels."""
        if len(levels) != self.n_ions:
            raise ValueError(f"expected {self.n_ions} levels, got {len(levels)}")
        if not 0 <= fock < self.fock_dim:
            raise ValueError(f"fock index {fock} out of range for {self}")
        idx = 0
        for lv in levels:
            lv = int(lv)
            if not 0 <= lv < self.levels:
                raise ValueError(f"invalid level {lv}")
            idx = idx * self.levels + lv
        return idx * self.fock_dim + fock


class _Register(StateSpace):
    """The kernel's register of a space: each ion keeps Q0, Q1, AUX_PLUS and
    AUX_MINUS, in basis order, and the Fock mode stays. Bright is dropped,
    so a row holds ``4**n_ions * fock_dim`` amplitudes. Never equal to a
    :class:`StateSpace`."""

    levels = N_LEVELS - 1


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

    Unspecified entries are zero. The norm sums the nonzero entries in basis
    order, so the same entries give the same bits in a space and in its
    register. Raises on out-of-range indices or an all-zero amplitude list.
    """
    amps = np.zeros(space.dim, dtype=np.complex128)
    for idx, value in entries:
        if not 0 <= idx < space.dim:
            raise ValueError(f"basis index {idx} out of range [0, {space.dim})")
        amps[idx] += value
    nonzero = np.flatnonzero(amps)
    amps[nonzero] = _normalized(amps[None, nonzero])[0]
    return PureState(space, amps)


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


def _qubit_indices(space: StateSpace) -> np.ndarray:
    """Flat basis index of every qubit-manifold label k: bit i of k, from
    the most significant, is ion i's qubit level."""
    place = np.arange(space.n_ions - 1, -1, -1)
    bits = (np.arange(2**space.n_ions)[:, None] >> place) & 1
    return bits @ space.levels**place * space.fock_dim


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
    Fock). The kernel applies only the pairs a :class:`_Support` holds,
    each with the coefficients of its number; a pair it leaves out joins
    two entries that stay exactly 0.
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
    setting of the other factors: shape ``(2, others * pairs)``, setting
    after setting, so column j holds pair ``j % pairs``."""
    shape, _, _ = _target_index(space, ion, None, None)
    before, f = shape[0], shape[-1]
    after = space.dim // (before * space.levels * f)
    stride = after * f  # from one level of the ion to the next
    others = np.arange(before)[:, None] * (space.levels * stride) + np.arange(after) * f
    index = others.reshape(-1, 1, 1) + _pair_ends(tones, stride)
    # Checked once here: the kernel gathers with mode="clip".
    if ((index < 0) | (index >= space.dim)).any():
        raise ValueError(f"pair tones {tones} reach outside the basis of {space}")
    return np.ascontiguousarray(index.transpose(1, 0, 2).reshape(2, -1))


def _apply_pairs(
    amps: np.ndarray, space: StateSpace | _Support, op: PairRotations, ion: int
) -> np.ndarray:
    """Apply row b of ``op`` to ion ``ion`` and the Fock mode of row b of a
    ``(block, n)`` array of a space or of a :class:`_Support`, in place;
    entries outside every pair stay.

    Each new entry is ``c*x + (re(a)*y + i*im(a)*y)``, where x is the entry,
    y its partner and a the coupling from y. Every factor has a zero
    component, so every real product is rounded once, and the sums are
    those of the dense product that rounds each complex product once. Each
    entry goes through the same operations on either layout."""
    if isinstance(space, _Support):
        ends, pair = space.pairs[ion, op.tones]
    else:
        ends = _pair_index(space, ion, op.tones)
        pair = np.arange(ends.shape[1]) % op.c.shape[0]
    # One gather gives both entries of every pair in every row, and each
    # pair's coefficients in each row, rows first.
    x = np.take(amps, ends, axis=1)
    y = x[:, ::-1]
    c = op.c[pair].T[:, None]
    off = op.off[:, pair].transpose(2, 0, 1)
    # c*x + (re*y + (1j*im)*y) one operation at a time: the same operations
    # on the same operands as the expression, so the same bits.
    new = c * x
    mixed = off.real * y
    mixed += 1j * off.imag * y
    new += mixed
    amps[:, ends] = new
    return amps


def _apply_product(amps: np.ndarray, space: StateSpace, op: IonProduct) -> np.ndarray:
    """Apply row b's product to row b of a C-contiguous ``(block, dim)``
    array of ``space``, in place, one ion at a time.

    Each factor is sliced to the space's L levels: on the register, the
    4x4 block that a factor whose Bright row and column are the unit vector
    leaves. When ion k's turn comes its level leads each row: viewed as
    ``(L, rest)``, the row times the factor is ``x.T @ u.T``, one ``(rest,
    L) @ (L, L)`` product for the whole row, which leaves the ion's level
    last. After the last ion the axes are back in basis order, so no axis
    is moved. The ions write in turn into one scratch work array and into
    ``amps``, and an odd ion count copies the scratch back once."""
    block, levels = amps.shape[0], space.levels
    factors = op.factors[..., :levels, :levels]
    src, dst = amps, _work("product", amps.shape)
    for k in range(factors.shape[1]):
        rows = np.swapaxes(src.reshape(block, levels, -1), 1, 2)
        np.matmul(rows, np.swapaxes(factors[:, k], 1, 2), out=dst.reshape(rows.shape))
        src, dst = dst, src
    if src is not amps:
        amps[...] = src
    return amps


def _apply_block(
    amps: np.ndarray,
    space: StateSpace | _Support | _Factors,
    u: np.ndarray | PairRotations | IonProduct,
    targets: tuple[int, ...],
    rows: slice | np.ndarray = slice(None),
) -> np.ndarray:
    """Apply the operator ``u[rows][b]`` to row b of a C-contiguous, writable
    ``(block, n)`` array, in place, and return that array.

    ``u`` is a ``(block, d, d)`` stack, pair rotations on targets ``(ion,
    motion_axis)``, or an ion product on every ion of a register without a
    motional mode. Rows of a :class:`_Support` take pair rotations only,
    and rows of :class:`_Factors` ion products only. Each row goes through
    its own products, so a row's result does not depend on the other rows
    or on the block size. No unitarity check: callers validate matrices
    once and reuse them. Protocol steps hold the structured operators;
    dense stacks come from :func:`apply_unitary`.
    """
    if isinstance(space, _Factors):
        return _apply_factors(amps, u, rows)
    u = u[rows]
    if isinstance(u, PairRotations):
        return _apply_pairs(amps, space, u, targets[0])
    if isinstance(u, IonProduct):
        return _apply_product(amps, space, u)
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
    """The shape ``(L**ion, L, rest, fock_dim)``, for the space's L levels
    per ion, that gives one ion's level and the Fock index an axis each
    after the row axis, and the subset's index along those two axes."""
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
    return (space.levels**ion, space.levels, -1, space.fock_dim), levels, fock


def _subset_norm2(
    amps: np.ndarray, space: StateSpace | _Support | _Factors, ion: int, levels: _Values, fock: _Values
) -> np.ndarray:
    """Squared norm of each row of a ``(block, n)`` array, of a space or of
    a :class:`_Support`, on the subset where the ion's level is in
    ``levels`` and the Fock index in ``fock``: :func:`_row_norm2` of a
    contiguous copy of the subset (faster to square than a view), in basis
    index order. On :class:`_Factors` it is the population of those levels
    in the ion's own vector."""
    if isinstance(space, _Factors):
        return _row_norm2(amps[:, ion, space.subsets[ion, levels]])
    if isinstance(space, _Support):
        return _row_norm2(np.take(amps, space.subsets[ion, levels, fock], axis=1))
    shape, levels, fock = _target_index(space, ion, levels, fock)
    # A strided view where both index sets are evenly spaced, else a copy.
    view = amps.reshape((amps.shape[0],) + shape)[:, :, levels][..., fock]
    return _row_norm2(np.ascontiguousarray(view).reshape(amps.shape[0], -1))


def _zero_target(
    amps: np.ndarray, space: StateSpace | _Support | _Factors, ion: int, levels: _Values, fock: _Values
) -> None:
    """Zero the subset in every row of a C-contiguous ``(block, n)`` array
    of a space or of a :class:`_Support`, or the levels in the ion's vector
    of every row on :class:`_Factors`, in place."""
    if isinstance(space, _Factors):
        amps[:, ion, space.subsets[ion, levels]] = 0.0
        return
    if isinstance(space, _Support):
        amps[:, space.subsets[ion, levels, fock]] = 0.0
        return
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
    """re and im of <row|ideal> for each row of a ``(block, n)`` array,
    summed over the entries where ``ideal`` is nonzero: every other term of
    a finite row is a product with an exact zero. The terms ar*br + ai*bi
    and ar*bi - ai*br round each real product once (a complex product may
    fuse them, by CPU), and each row is summed as in :func:`_row_norm2`."""
    support = np.flatnonzero(ideal)
    # np.take gathers into a new C-contiguous array, so each row sums on its
    # own; rows[:, support] need not be C-contiguous.
    a, b = np.take(rows, support, axis=1), ideal[support]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    # In-place adds: two temporaries rather than four, same bits.
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


# --- the kernel's register ---------------------------------------------------


# Enough for the spaces of the runs one process alternates between.
@lru_cache(maxsize=8)
def _basis(space: StateSpace) -> np.ndarray:
    """The basis index in ``space`` of each entry of its four-level register,
    in register order, built factor by factor: no array has space.dim entries."""
    register, index = _Register(space.n_ions, space.fock_cutoff), np.zeros((), dtype=np.intp)
    for digits, public in zip(register.factor_dims, space.factor_dims):
        index = np.add.outer(index * public, np.arange(digits))
    return index.reshape(-1)


def _into_register(amps: np.ndarray, space: StateSpace) -> tuple[np.ndarray, _Register]:
    """The entries of a state's ``(space.dim,)`` amplitudes on the space's
    four-level :class:`_Register`, in a new array, and that register.
    Raises ValueError when it has nonzero amplitude on any state where some
    ion is Bright."""
    kept = np.take(amps, _basis(space))
    if np.count_nonzero(kept) != np.count_nonzero(amps):
        raise ValueError("the survivor kernel starts only from states with no Bright amplitude")
    return kept, _Register(space.n_ions, space.fock_cutoff)


def _public_rows(rows: np.ndarray, space: StateSpace, columns: slice | np.ndarray) -> np.ndarray:
    """Rows over the register entries ``columns`` of the space (a
    :class:`_Support`'s entries, or ``slice(None)``, every entry) written
    into +0s of its public layout."""
    public = np.zeros((rows.shape[0], space.dim), dtype=np.complex128)
    public[:, _basis(space)[columns]] = rows
    return public


# --- the support of pair rotations -------------------------------------------


@dataclass(frozen=True, eq=False)
class _Support:
    """The register entries that pair rotations can reach from a start,
    and the kernel's row layout for steps of pair rotations and clean-outs.

    A pair rotation maps two zeros to zeros and a clean-out only zeroes, so
    every other entry stays exactly 0: a row over ``entries`` (register
    entries, ascending) holds all of a state, and each kept entry goes
    through the same operations on the same operands as on the register.
    ``pairs`` maps a rotation's ``(ion, tones)`` to the row positions of its
    reached pairs' lower and upper entries, shape ``(2, k)``, and the pair
    of each column, for its coefficients. ``subsets`` maps a clean-out's
    ``(ion, levels, fock)`` to the row positions of its target, and
    ``top`` holds the row positions at the top Fock index.
    """

    entries: np.ndarray
    pairs: dict
    subsets: dict
    top: np.ndarray


# Enough for the runs one process alternates between. A key holds the
# start's nonzero columns: a handful for every input the runner builds.
@lru_cache(maxsize=8)
def _support(register: _Register, rotations: tuple, cleanouts: tuple, columns: bytes) -> _Support:
    """The support that the pair rotations ``rotations``, ``(ion, tones)``
    each, reach from the register entries in ``columns`` (the bytes of an
    ascending index array), with the row positions of those rotations'
    pairs, of the clean-out targets ``cleanouts``, ``(ion, levels, fock)``
    each, and of the top Fock index. Built once per key; pair tones that
    name Bright and invalid clean-out targets raise ValueError here."""
    tables = {key: _pair_index(register, *key) for key in rotations}
    reached = np.zeros(register.dim, dtype=bool)
    reached[np.frombuffer(columns, dtype=np.intp)] = True
    # A fixed point: an entry joins when its partner in any pair has joined.
    grown = True
    while grown:
        grown = False
        for ends in tables.values():
            joined = ends[:, reached[ends].any(axis=0)]
            if not reached[joined].all():
                reached[joined] = True
                grown = True
    entries = np.flatnonzero(reached)
    entries.flags.writeable = False  # handed out with every end row
    pairs = {}
    for (ion, tones), ends in tables.items():
        kept = np.flatnonzero(reached[ends[0]])
        n_pairs = sum(n for *_, n in tones)
        pairs[ion, tones] = (np.searchsorted(entries, ends[:, kept]), kept % n_pairs)
    f, levels_per_ion = register.fock_dim, register.levels
    subsets = {}
    for ion, levels, fock in cleanouts:
        _target_index(register, ion, levels, fock)  # the checks of the strided view
        level = entries // f // levels_per_ion ** (register.n_ions - 1 - ion) % levels_per_ion
        hit = np.isin(level, sorted(levels))
        if fock is not None:
            hit &= np.isin(entries % f, sorted(fock))
        subsets[ion, levels, fock] = np.flatnonzero(hit)
    top = register.has_motion & (entries % f == register.fock_cutoff)
    return _Support(entries, pairs, subsets, np.flatnonzero(top))


def _top_fock(space: StateSpace | _Support | _Factors) -> slice | np.ndarray | None:
    """The columns of a kernel row, of a space or of a :class:`_Support`,
    at the top Fock index, or None if a row has none (as on
    :class:`_Factors`, which holds no motion)."""
    if isinstance(space, _Factors):
        return None
    if isinstance(space, _Support):
        return space.top if space.top.size else None
    return slice(space.fock_cutoff, None, space.fock_dim) if space.has_motion else None


# --- per-ion factors ----------------------------------------------------------


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The complex product a*b, broadcast, in split real arithmetic:
    re = ar*br - ai*bi and im = ar*bi + ai*br, every real product rounded
    once. numpy's complex multiply may fuse them, by CPU."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    re, im = out.real, out.imag
    np.multiply(ar, br, out=re)
    re -= ai * bi
    np.multiply(ar, bi, out=im)
    im += ai * br
    return out


@dataclass(frozen=True, eq=False)
class _Factors:
    """The kernel's layout for steps of ion products and clean-outs from a
    product start: each row holds one four-level vector per ion, shape
    ``(n_ions, 4)``, whose tensor product, ion 0 most significant, is the
    register row. An ion product applies each factor's 4x4 block to its
    ion's vector, a clean-out zeroes levels of one ion's vector, and the
    fraction a clean-out takes is a population of that vector over its own
    squared norm. ``subsets`` maps a clean-out's ``(ion, levels)`` to the
    index of its levels in the vector. The end rows are register rows over
    ``entries`` (register entries, ascending): the product of each ion's
    levels in ``kept``, those that no clean-out after the last transfer
    zeroes. Every other entry of an end state is exactly 0."""

    kept: tuple[tuple[int, ...], ...]
    entries: np.ndarray
    subsets: dict


# Enough for the runs one process alternates between; a key holds the
# chain's clean-out targets.
@lru_cache(maxsize=8)
def _factors(register: _Register, cleanouts: tuple, tail: tuple) -> _Factors:
    """The factor layout of a register without motion whose steps clean
    ``cleanouts``, ``(ion, levels)`` each, of which ``tail`` come after the
    last transfer. Invalid clean-out targets raise ValueError here."""
    subsets = {}
    for ion, levels in cleanouts:
        _target_index(register, ion, levels, None)  # the checks of the strided view
        subsets[ion, levels] = _as_index(levels)
    zeroed = [set() for _ in range(register.n_ions)]
    for ion, levels in tail:
        zeroed[ion] |= levels
    kept = tuple(tuple(lv for lv in range(register.levels) if lv not in z) for z in zeroed)
    entries = np.zeros((), dtype=np.intp)
    for levels in kept:
        entries = np.add.outer(entries * register.levels, levels)
    entries = entries.reshape(-1)
    entries.flags.writeable = False  # handed out with every end row
    return _Factors(kept, entries, subsets)


def _product_planes(factors: np.ndarray, kept, normalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The tensor product of each row's ion vectors, ion 0 most significant,
    over the levels ``kept[k]`` of ion k (an index each), as its real and
    imaginary planes, entry-major: ``(entries, block)``, the register
    entries ascending, each vector divided by its norm first if
    ``normalize``. Each new entry is a*b of the product so far and one
    level of the next vector, in split real arithmetic: re = ar*br - ai*bi
    and im = ar*bi + ai*br. Entry-major, no operand is broadcast along its
    contiguous axis; the planes are work arrays, valid until the next
    call."""
    block = factors.shape[0]
    for k, levels in enumerate(kept):
        vector = factors[:, k]
        br = np.ascontiguousarray(vector.real[:, levels].T)
        bi = np.ascontiguousarray(vector.imag[:, levels].T)
        if normalize:
            norm = np.sqrt(_row_norm2(vector))
            if not (norm > 0.0).all():
                raise ValueError("state has no nonzero amplitude")
            br /= norm
            bi /= norm
        if k == 0:
            re, im = br, bi
            continue
        # Two pairs of work arrays in turn: each step reads the other's.
        shape = (re.shape[0], br.shape[0], block)
        new_re = _work(f"product-re{k % 2}", shape, np.float64)
        new_im = _work(f"product-im{k % 2}", shape, np.float64)
        term = _work("product-term", re.shape, np.float64)
        for level, (lr, li) in enumerate(zip(br, bi)):
            np.multiply(re, lr, out=new_re[:, level])
            new_re[:, level] -= np.multiply(im, li, out=term)
            np.multiply(re, li, out=new_im[:, level])
            new_im[:, level] += np.multiply(im, lr, out=term)
        re, im = (plane.reshape(shape[0] * shape[1], block) for plane in (new_re, new_im))
    return re, im


def _end_rows(amps: np.ndarray, space: _Register | _Support | _Factors) -> np.ndarray:
    """A kernel block's rows, normalized, as register rows in a new array:
    on the register or a support the rows themselves, over their entries,
    and on :class:`_Factors` the product of each row's ion vectors, each
    divided by its norm, over the layout's entries."""
    if isinstance(space, _Factors):
        re, im = _product_planes(amps, space.kept, normalize=True)
        rows = np.empty((amps.shape[0], re.shape[0]), dtype=np.complex128)
        rows.real, rows.imag = re.T, im.T
        return rows
    return _normalized(amps)


# How far, per ion, a product start's entries may lie from the product of
# its factors, in units in the last place of its largest magnitude. The
# runner's product inputs, built ion after ion, lie within 2 per ion (up to
# 9 at 5 ions, over random plus_n and basis inputs of 2-10 ions); a start
# entangled at 1e-12 lies 1e4 or more from any product.
_FACTOR_ULPS = 8


def _factor(amps: np.ndarray, register: _Register) -> tuple[np.ndarray, np.ndarray]:
    """Each register row of a ``(block, register.dim)`` array as one vector
    per ion, ``(block, n_ions, 4)``, and whether that row is their product
    to rounding. A row is factored through its largest-magnitude entry m:
    ion 0's vector is the row along ion 0's level through m, and every other
    ion's the row along its level through m over the entry at m, in split
    real arithmetic. The row is a product when :func:`_product_planes` of
    the vectors gives every entry within ``_FACTOR_ULPS`` per ion units in
    the last place of the largest magnitude. Each row is factored on its
    own, and no temporary holds more than two planes of a row."""
    block, n, levels = amps.shape[0], register.n_ions, register.levels
    mag2 = amps.real**2
    mag2 += amps.imag**2
    m = mag2.argmax(axis=1)
    del mag2  # freed before the product is rebuilt
    place = levels ** np.arange(n - 1, -1, -1)
    digits = m[:, None] // place % levels
    # Row positions of each ion's levels through m: (block, n, levels).
    index = m[:, None, None] + (np.arange(levels) - digits[:, :, None]) * place[:, None]
    factors = np.take_along_axis(amps, index.reshape(block, -1), axis=1).reshape(block, n, levels)
    pivot = np.take_along_axis(amps, m[:, None], axis=1)[:, :, None]  # the entry at m
    size2 = pivot.real**2 + pivot.imag**2
    # A zero row is the product of zero vectors; the kernel's norm check
    # refuses it, as on the register.
    size2[size2 == 0.0] = 1.0
    rest = _times(factors[:, 1:], pivot.conj())
    factors[:, 1:].real = rest.real / size2
    factors[:, 1:].imag = rest.imag / size2
    tolerance = n * _FACTOR_ULPS * np.spacing(np.sqrt(size2[:, 0, 0]))
    close = np.ones(block, dtype=bool)
    # |rebuilt - row| plane by plane, in place in the product's work arrays.
    for plane, part in zip(_product_planes(factors, (slice(None),) * n), (amps.real, amps.imag)):
        plane -= part.T
        close &= (np.abs(plane, out=plane) <= tolerance).all(axis=0)
    return factors, close


def _factored(start: np.ndarray, register: _Register) -> tuple[np.ndarray, bool]:
    """:func:`_factor` of one register row: its ``(n_ions, 4)`` vectors and
    whether the row is their product. The result is kept for the next call
    while ``start`` lives, if it is read-only and owns its memory, as a
    :class:`PureState`'s amplitudes are: the runner passes one such start
    per spec. One start is kept per thread."""
    last = getattr(_kept, "factored", None)
    if last is not None and last[0]() is start and last[1] == register and not start.flags.writeable:
        return last[2]
    factors, product = _factor(start[None], register)
    result = factors[0], bool(product[0])
    if not start.flags.writeable and start.flags.owndata:
        _kept.factored = (weakref.ref(start), register, result)
    return result


def _apply_factors(amps: np.ndarray, op: IonProduct, rows: slice | np.ndarray) -> np.ndarray:
    """Apply the product ``op[rows][b]`` to the ion vectors of row b of a
    ``(block, n_ions, 4)`` array, in place: each ion's vector times the 4x4
    block of its factor, sum_j u[i, j] * x[j], in split real arithmetic, j
    in order, every real product rounded once.

    The real and imaginary planes of the blocks (of the rows ``rows``) and
    of the vectors are first copied level-major into work arrays, ``(j, i,
    block, n_ions)`` and ``(j, block, n_ions)``, so each operation runs
    over every row and ion at once along contiguous memory, and no row's
    operator is copied whole."""
    levels = amps.shape[-1]
    u = op.factors[..., :levels, :levels]
    planes = (levels,) + amps.shape[:-1]
    ur = _work("factor-ur", (levels,) + planes, np.float64)
    ui = _work("factor-ui", (levels,) + planes, np.float64)
    xr = _work("factor-xr", planes, np.float64)
    xi = _work("factor-xi", planes, np.float64)
    re = _work("factor-re", planes, np.float64)
    im = _work("factor-im", planes, np.float64)
    term = _work("factor-term", planes, np.float64)
    for plane, part in ((ur, u.real), (ui, u.imag)):
        if isinstance(rows, slice):
            np.copyto(plane, part[rows].transpose(3, 2, 0, 1))
        else:
            # Every row's plane, then the live rows' gathered from it; take
            # copies a strided source whole first, and mode="clip" writes
            # its output unbuffered.
            whole = _work("factor-whole", (levels, levels) + u.shape[:2], np.float64)
            np.copyto(whole, part.transpose(3, 2, 0, 1))
            np.take(whole, rows, axis=2, out=plane, mode="clip")
    np.copyto(xr, amps.real.transpose(2, 0, 1))
    np.copyto(xi, amps.imag.transpose(2, 0, 1))
    for j in range(levels):
        if j == 0:
            np.multiply(ur[0], xr[0], out=re)
            np.multiply(ur[0], xi[0], out=im)
        else:
            re += np.multiply(ur[j], xr[j], out=term)
            im += np.multiply(ur[j], xi[j], out=term)
        re -= np.multiply(ui[j], xi[j], out=term)
        im += np.multiply(ui[j], xr[j], out=term)
    amps.real, amps.imag = re.transpose(1, 2, 0), im.transpose(1, 2, 0)
    return amps


def _held(space: _Register | _Support | _Factors, ion: int) -> slice | tuple[slice, int]:
    """The index, into a kernel block and into its squared norms, of the
    part of each row that a clean-out on ``ion`` reads and zeroes: the
    whole row, or on :class:`_Factors` the ion's vector, whose squared norm
    each row keeps beside the other ions'."""
    return (slice(None), ion) if isinstance(space, _Factors) else slice(None)


def _compacted(amps: np.ndarray, space: _Register | _Support | _Factors, live: np.ndarray) -> np.ndarray:
    """The rows ``live`` of a kernel block, in order: a new array, or on
    :class:`_Factors` a view of whichever of two work arrays the block is
    not in, so a chain's compactions allocate nothing."""
    if not isinstance(space, _Factors):
        return amps[live]
    role = "factor-live" if np.may_share_memory(amps, getattr(_kept, "block", None)) else "block"
    rows = np.flatnonzero(live)
    return np.take(amps, rows, axis=0, out=_work(role, (rows.size,) + amps.shape[1:]), mode="clip")
