"""The survivor kernel's support against a dense five-level oracle.

Steps made only of pair rotations and clean-outs (the entangling gate's)
run on the register entries those rotations can reach from the start
(``statespace._support``): every other entry must stay exactly 0. The
oracle here never reads the support. It evolves the dense five-level state
one tone at a time with ``apply_unitary`` of ``sideband_unitary``, the
gate's four transfers written out from the protocol, and applies each
clean-out as a projector. Two checks, for random cz error rows at Fock
cutoffs 2-6:

* every public entry outside the kernel's support, mapped through
  ``_basis``, is exactly 0 in the oracle's state after every transfer and
  every clean-out;
* the kernel's weights and end rows match the oracle's to 1e-12.

Starts are random qubit-manifold states at Fock 0, as the runner's inputs
are, and public starts with weight at Fock k <= cutoff, run through
``run_protocol``. The latter reach the truncated blue edge and the top Fock
state, where the top-Fock check still raises.
"""

import math

import numpy as np
import pytest
from oracle import cleanout_mask

from heraldsim.dissipation import PROB_FLOOR
from heraldsim.protocols import (
    LeakageError,
    cz_builder,
    cz_space,
    no_flag_branch,
    run_protocol,
    survivor_paths,
)
from heraldsim.pulses import SidebandPulse, sideband_unitary
from heraldsim.statespace import (
    IonLevel,
    PureState,
    _basis,
    _into_register,
    _public_rows,
    apply_unitary,
)

E_UP = (IonLevel.Q1, IonLevel.AUX_PLUS)
G_UP = (IonLevel.Q0, IonLevel.AUX_MINUS)
ON_M = (("blue", E_UP, 0.0), ("carrier", G_UP, 0.0))
CARRIER_M = (("carrier", G_UP, 0.0),)
ON_N = (("red", E_UP, 0.0), ("red", G_UP, 0.0))
ON_N_FLIPPED = (("red", E_UP, math.pi), ("red", G_UP, 0.0))
# Each transfer of the entangling gate: (ion, tones) at the area of its column.
TRANSFERS = (
    ((0, ON_M),),
    ((0, CARRIER_M), (1, ON_N)),
    ((0, CARRIER_M), (1, ON_N_FLIPPED)),
    ((0, ON_M),),
)
CUTOFFS = range(2, 7)
SELECTIVITY = 0.9


def oracle(space, start: np.ndarray, errors: np.ndarray, cleanouts, outside: np.ndarray):
    """One row's survivor by dense matrices: its weight and its normalized
    end state (None if it drops below the floor). Asserts that the public
    entries ``outside`` are exactly 0 after every transfer and clean-out."""
    psi, weight = start.astype(complex), 1.0
    for transfer, step_cleanouts, error in zip(TRANSFERS, cleanouts, errors):
        state = PureState(space, psi)
        for ion, tones in transfer:
            for kind, levels, phase in tones:
                pulse = SidebandPulse(kind, levels, math.pi + error, phase)
                state = apply_unitary(state, sideband_unitary(pulse, space), (ion, space.motion_axis))
        psi = state.amplitudes.copy()
        assert not psi[outside].any()
        for ch in step_cleanouts:
            target = cleanout_mask(space, ch.ion, ch.levels, ch.fock)
            p = np.vdot(psi[target], psi[target]).real / np.vdot(psi, psi).real
            survive = ch.selectivity * (1.0 - p)
            if not survive > PROB_FLOOR:
                return 0.0, None
            weight *= survive
            psi[target] = 0.0
            assert not psi[outside].any()
    return weight, psi / np.linalg.norm(psi)


def qubit_starts(rng, space, block: int) -> np.ndarray:
    """Random public states on both ions' qubit manifolds at Fock 0."""
    amps = np.zeros((block,) + space.factor_dims, dtype=complex)
    shape = amps[:, :2, :2, 0].shape
    amps[:, :2, :2, 0] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps = amps.reshape(block, -1)
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def outside_support(space, columns: np.ndarray) -> np.ndarray:
    """The public basis states that the kernel's support leaves out."""
    outside = np.ones(space.dim, dtype=bool)
    outside[_basis(space)[columns]] = False
    return outside


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_the_support_holds_every_nonzero_entry_of_a_qubit_start(cutoff):
    rng = np.random.default_rng(cutoff)
    space, block = cz_space(cutoff), 5
    build = cz_builder(SELECTIVITY, space)
    errors = rng.normal(0.0, 0.6, size=(block, 4))
    errors[0, 0] = math.pi  # one row whose first transfer leaves everything behind
    starts = qubit_starts(rng, space, block)
    for row in range(block):
        steps = build(errors[row : row + 1])
        paths = survivor_paths(*_into_register(starts[row], space), steps, monitor_top_fock=True)
        # Every qubit-manifold start reaches the same 10 register entries.
        assert paths.columns.size == 10
        outside = outside_support(space, paths.columns)
        weight, final = oracle(space, starts[row], errors[row], build.cleanouts, outside)
        assert paths.alive[0] == (final is not None)
        np.testing.assert_allclose(paths.weight[0], weight, rtol=0, atol=1e-12)
        if final is not None:
            (got,) = _public_rows(paths.final, space, paths.columns)
            np.testing.assert_allclose(got, final, rtol=0, atol=1e-12)


def fock_start(rng, space, k: int) -> PureState:
    """A random public state on both ions' qubit manifolds, at Fock 0 and k."""
    amps = np.zeros(space.factor_dims, dtype=complex)
    for n in {0, k}:
        amps[:2, :2, n] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    amps = amps.reshape(-1)
    return PureState(space, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_a_start_with_motion_keeps_its_support_exact(cutoff):
    rng = np.random.default_rng(10 + cutoff)
    space = cz_space(cutoff)
    build = cz_builder(SELECTIVITY, space)
    for k in range(1, cutoff + 1):
        start = fock_start(rng, space, k)
        errors = rng.normal(0.0, 0.6, size=(1, 4))
        steps = build(errors)
        register_start, register = _into_register(start.amplitudes, space)
        paths = survivor_paths(register_start, register, steps)
        # Weight at Fock k reaches the truncated edge, and k >= cutoff - 1
        # the top Fock state; the support reaches it too.
        if k >= cutoff - 1:
            assert (_basis(space)[paths.columns] % space.fock_dim == cutoff).any()
        weight, final = oracle(
            space, start.amplitudes, errors[0], build.cleanouts, outside_support(space, paths.columns)
        )
        survivor = no_flag_branch(run_protocol(start, steps, "branch"))
        assert (survivor is None) == (final is None)
        if survivor is not None:
            np.testing.assert_allclose(survivor.probability, weight, rtol=0, atol=1e-12)
            np.testing.assert_allclose(survivor.state.amplitudes, final, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_a_start_that_reaches_the_top_fock_state_still_raises(cutoff):
    # Weight at Fock cutoff - 1 in Q1 of ion 0: the first transfer's blue
    # tone moves some of it up to the top Fock state (all of it, and back,
    # at some areas: at cutoff 4 an error of 0 rotates it by 2 pi).
    space = cz_space(cutoff)
    amps = np.zeros(space.factor_dims, dtype=complex)
    amps[IonLevel.Q0, IonLevel.Q0, 0] = amps[IonLevel.Q1, IonLevel.Q0, cutoff - 1] = math.sqrt(0.5)
    start = PureState(space, amps.reshape(-1))
    steps = cz_builder(SELECTIVITY, space)(np.full((1, 4), 0.3))
    with pytest.raises(LeakageError):
        run_protocol(start, steps, "branch", monitor_top_fock=True)
