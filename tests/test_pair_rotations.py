"""Structured transfers against their dense matrices: the sideband pair
rotations of the entangling gate and the ion products of a chain.

A sideband transfer is a direct sum of 2x2 rotations on (lower level, Fock
n) and (upper level, n +- 1) pairs. ``sideband_fill`` gives each pair's
coefficients and the kernel applies them slice by slice; a wrong pair,
offset, sign or phase would lower the conditional fidelity of the
entangling gate. These checks compare, bit for bit:

* the operator's dense form with the dense fill it replaced;
* the kernel with the dense product that rounds each complex product once
  and sums in basis order (``np.einsum``, which calls no BLAS);
* the kernel with ``apply_unitary`` of ``sideband_unitary`` for tones of
  phase 0, where each real sum of the dense product has one nonzero term
  from each side of a pair. For phase pi, the 1.2e-16 real part of
  exp(i*pi) can meet the cosine term inside one fused multiply-add of a
  BLAS kernel, so that check holds to one rounding there.

States carry weight at Fock 0 and at the top Fock level, which reach the
truncated red and blue edges. The ``apply_unitary`` check leaves the
Bright level empty, as every protocol run does: BLAS rounds the columns
of a Bright neighbor in another kernel.

A chain transfer is the tensor product of one 5x5 matrix per ion, applied
one ion at a time in a cyclic pass. Its checks: the dense form is the
``np.kron`` of the factors; the pass equals ``np.einsum`` of the dense form
to within a few roundings; a row's result does not depend on the block
size; and an ion with crosstalk ratio 0 is left exactly as it was.

The kernel updates the block it is given in place and returns it, so each
check hands it a copy and computes its reference from the untouched states.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from heraldsim.protocols import (
    CrosstalkProfile,
    GateSpec,
    addressed_builder,
    cz_space,
    cz_steps,
)
from heraldsim.pulses import SidebandPulse, sideband_fill, sideband_unitary, transfer_fill
from heraldsim.statespace import (
    N_LEVELS,
    BlochAxis,
    IonLevel,
    IonProduct,
    PureState,
    StateSpace,
    _apply_block,
    apply_unitary,
)

E_UP = (IonLevel.Q1, IonLevel.AUX_PLUS)
G_UP = (IonLevel.Q0, IonLevel.AUX_MINUS)
# The entangling gate's four sideband transfers: ion m's blue + carrier and
# carrier, ion n's red pair and the red pair with the excited tone flipped.
CZ_TRANSFERS = (
    (("blue", E_UP, 0.0), ("carrier", G_UP, 0.0)),
    (("carrier", G_UP, 0.0),),
    (("red", E_UP, 0.0), ("red", G_UP, 0.0)),
    (("red", E_UP, math.pi), ("red", G_UP, 0.0)),
)
SINGLE_TONES = tuple(
    ((kind, levels, phase),)
    for kind in ("carrier", "red", "blue")
    for levels in (E_UP, G_UP)
    for phase in (0.0, math.pi)
)
CUTOFFS = range(1, 7)
BLOCKS = (1, 7)


def dense_fill(tones, fock_dim: int, areas: np.ndarray) -> np.ndarray:
    """The ``(block, 5*fock_dim, 5*fock_dim)`` fill that applied every
    sideband transfer as a dense matrix, kept here as the oracle. Each
    off-diagonal entry is the Python expression ``-1j * s * exp(-+1j * phase)``."""
    rows, cols, scales, phases = [], [], [], []
    for kind, (lo, up), phase in tones:
        if kind == "carrier":
            pairs = [(k, k, 1.0) for k in range(fock_dim)]
        elif kind == "red":
            pairs = [(k, k - 1, math.sqrt(k)) for k in range(1, fock_dim)]
        else:
            pairs = [(k, k + 1, math.sqrt(k + 1)) for k in range(fock_dim - 1)]
        for k_lo, k_up, scale in pairs:
            rows.append(int(lo) * fock_dim + k_lo)
            cols.append(int(up) * fock_dim + k_up)
            scales.append(scale)
            phases.append(phase)
    half = (0.5 * areas)[:, None] * np.array(scales)
    c, s = np.cos(half), np.sin(half)
    d = N_LEVELS * fock_dim
    u = np.zeros((areas.shape[0], d, d), dtype=np.complex128)
    u[:, range(d), range(d)] = 1.0
    u[:, rows, rows] = c
    u[:, cols, cols] = c
    for b in range(areas.shape[0]):
        for k, (i, j, phase) in enumerate(zip(rows, cols, phases)):
            u[b, j, i] = -1j * s[b, k] * cmath.exp(-1j * phase)
            u[b, i, j] = -1j * s[b, k] * cmath.exp(1j * phase)
    return u


def random_areas(rng, block: int) -> np.ndarray:
    # Errors up to 3 pi either way: |delta| > pi wraps the rotation.
    return math.pi + rng.uniform(-3 * math.pi, 3 * math.pi, block)


def random_states(rng, space: StateSpace, block: int, bright: bool = True) -> np.ndarray:
    """Normalized ``(block, dim)`` states with weight on every level, Fock 0
    and the top Fock level included; the Bright level only if asked."""
    shape = (block,) + space.factor_dims
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps[..., 0] *= 3.0
    amps[..., -1] *= 3.0
    if not bright:
        amps[:, IonLevel.BRIGHT] = 0.0
        amps[:, :, IonLevel.BRIGHT] = 0.0
    amps = amps.reshape(block, -1)
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def unfused_product(amps, space: StateSpace, u: np.ndarray, ion: int) -> np.ndarray:
    """Row b of ``u`` on ion ``ion`` and the mode of row b of ``amps``,
    each complex product rounded once and summed in basis order."""
    f = space.fock_dim
    x = np.moveaxis(amps.reshape(amps.shape[0], N_LEVELS**ion, N_LEVELS, -1, f), 3, 1)
    y = np.einsum("bijkl,bmakl->bmaij", u.reshape(-1, N_LEVELS, f, N_LEVELS, f), x)
    return np.moveaxis(y, 1, 3).reshape(amps.shape)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_dense_form_is_the_dense_fill(cutoff):
    rng = np.random.default_rng(cutoff)
    fock_dim = cutoff + 1
    for tones in CZ_TRANSFERS + SINGLE_TONES:
        for block in BLOCKS:
            areas = random_areas(rng, block)
            op = sideband_fill(tones, fock_dim)(areas)
            assert np.array_equal(np.asarray(op), dense_fill(tones, fock_dim, areas))


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pairs_equal_the_unfused_dense_product(cutoff):
    rng = np.random.default_rng(100 + cutoff)
    space = StateSpace(2, cutoff)
    for tones in CZ_TRANSFERS + SINGLE_TONES:
        for block in BLOCKS:
            for ion in (0, 1):
                areas = random_areas(rng, block)
                amps = random_states(rng, space, block)
                op = sideband_fill(tones, space.fock_dim)(areas)
                work = amps.copy()
                got = _apply_block(work, space, op, (ion, space.motion_axis))
                assert got is work
                assert np.array_equal(got, unfused_product(amps, space, np.asarray(op), ion))


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_pairs_equal_apply_unitary_of_sideband_unitary(cutoff):
    rng = np.random.default_rng(200 + cutoff)
    space = StateSpace(2, cutoff)
    targets = lambda ion: (ion, space.motion_axis)
    for tones in CZ_TRANSFERS + SINGLE_TONES:
        for block in BLOCKS:
            for ion in (0, 1):
                areas = random_areas(rng, block)
                amps = random_states(rng, space, block, bright=False)
                got = _apply_block(
                    amps.copy(), space, sideband_fill(tones, space.fock_dim)(areas), targets(ion)
                )
                for row, area in enumerate(areas):
                    state = PureState(space, amps[row])
                    for kind, levels, phase in tones:
                        pulse = SidebandPulse(kind, levels, area, phase)
                        state = apply_unitary(
                            state, sideband_unitary(pulse, space), targets(ion)
                        )
                    if all(phase == 0.0 for _, _, phase in tones):
                        assert np.array_equal(got[row], state.amplitudes)
                    else:
                        diff = np.abs(got[row] - state.amplitudes)
                        assert diff.max() <= 2.0**-52


def test_cz_operator_bytes_grow_linearly_in_the_cutoff():
    # Each pair holds c, lowering and raising: 8 + 16 + 16 bytes per row.
    for cutoff in (3, 30):
        steps = cz_steps((0.1, -0.2, 0.3, 0.4), 1.0, cz_space(cutoff))
        ops = [u for step in steps for u, _ in step.unitaries]
        pairs = sum(np.count_nonzero(np.triu(np.asarray(u), 1)) for u in ops)
        assert pairs == 10 * (cutoff + 1) - 6
        assert sum(u.nbytes for u in ops) <= 40 * pairs


# --- ion products ------------------------------------------------------------

ION_COUNTS = range(1, 6)
# Unit-norm rows and factors with entries of about 1/2: the pass and the
# dense product differ by a few roundings (at most 1.4 * 2**-52 seen).
PRODUCT_ATOL = 2.0**-48


def random_factors(rng, block: int, n_ions: int) -> np.ndarray:
    shape = (block, n_ions, N_LEVELS, N_LEVELS)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(10)


def chain_product(ratios, block: int, rng) -> IonProduct:
    """The first transfer of an addressed gate on a chain with these
    crosstalk ratios, for ``block`` random area errors."""
    gate = GateSpec(BlochAxis(1.1, 0.4), 2.0)
    build = addressed_builder(gate, CrosstalkProfile(ratios), ratios.index(1.0))
    (step, _) = build(rng.normal(scale=0.3, size=(block, 2)))
    ((op, targets),) = step.unitaries
    assert targets == tuple(range(len(ratios)))
    return op


@pytest.mark.parametrize("n_ions", range(1, 5))
def test_product_dense_form_is_the_kron_of_the_factors(n_ions):
    rng = np.random.default_rng(300 + n_ions)
    for block in BLOCKS:
        factors = random_factors(rng, block, n_ions)
        dense = np.asarray(IonProduct(factors))
        for row in range(block):
            assert np.array_equal(dense[row], functools.reduce(np.kron, factors[row]))


@pytest.mark.parametrize("n_ions", ION_COUNTS)
def test_product_pass_equals_einsum_of_the_dense_form(n_ions):
    rng = np.random.default_rng(400 + n_ions)
    space = StateSpace(n_ions)
    for block in BLOCKS:
        op = IonProduct(random_factors(rng, block, n_ions))
        amps = random_states(rng, space, block)
        assert np.abs(amps[:, IonLevel.BRIGHT :: N_LEVELS]).min() > 0.0
        work = amps.copy()
        got = _apply_block(work, space, op, tuple(range(n_ions)))
        assert got is work
        for row in range(block):
            # One row's dense matrix at a time: 156 MB at five ions.
            want = np.einsum("ij,j->i", np.asarray(op[row]), amps[row])
            assert np.abs(got[row] - want).max() <= PRODUCT_ATOL


@pytest.mark.parametrize("n_ions", ION_COUNTS)
def test_product_row_does_not_depend_on_the_block(n_ions):
    rng = np.random.default_rng(500 + n_ions)
    space = StateSpace(n_ions)
    op = IonProduct(random_factors(rng, 64, n_ions))
    amps = random_states(rng, space, 64)
    got = _apply_block(amps.copy(), space, op, tuple(range(n_ions)))
    for row in range(64):
        alone = _apply_block(amps[row : row + 1].copy(), space, op[row : row + 1], tuple(range(n_ions)))
        assert np.array_equal(alone[0], got[row])


def test_ratio_zero_ion_is_the_exact_identity():
    rng = np.random.default_rng(600)
    # Area 0 gives cos 1 and sin 0: no coupling at all.
    still = transfer_fill(BlochAxis(1.1, 0.4))(np.zeros(1))[0]
    assert np.array_equal(still, np.eye(N_LEVELS))
    for ratios in ((1.0, 0.0, 0.3), (0.0, 1.0), (0.2, 0.0, 1.0, 0.0)):
        space = StateSpace(len(ratios))
        ions = tuple(range(space.n_ions))
        op = chain_product(ratios, 7, rng)
        amps = random_states(rng, space, 7)
        eye = op.factors.copy()
        eye[:, [j for j, r in enumerate(ratios) if r == 0.0]] = np.eye(N_LEVELS)
        assert np.array_equal(
            _apply_block(amps.copy(), space, op, ions),
            _apply_block(amps.copy(), space, IonProduct(eye), ions),
        )
    # Every ion at ratio 0: the state comes back bit for bit.
    space = StateSpace(3)
    amps = random_states(rng, space, 7)
    op = IonProduct(np.broadcast_to(still, (7, 3, N_LEVELS, N_LEVELS)))
    assert np.array_equal(_apply_block(amps.copy(), space, op, (0, 1, 2)), amps)
