"""Every read and write of a register subset (one ion's levels, optionally
restricted to Fock indices) against a dense boolean mask over the flat
basis, bit for bit. numpy only.

The mask is ``oracle.cleanout_mask``, built from the basis digits alone:
per-ion levels (Q0, Q1, AUX_PLUS, AUX_MINUS, BRIGHT), ion index major,
Fock index last.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import bright_mask, cleanout_mask

from heraldsim.dissipation import CleanoutChannel
from heraldsim.protocols import _Step, ideal_cz_output, survivor_paths
from heraldsim.statespace import (
    IonLevel,
    PureState,
    StateSpace,
    _basis,
    _into_register,
    fock_population,
    manifold_population,
)

SPACES = [StateSpace(1), StateSpace(2), StateSpace(3), StateSpace(4), StateSpace(2, 3)]
LEVEL_SUBSETS = [
    frozenset(c) for r in range(len(IonLevel) + 1) for c in itertools.combinations(IonLevel, r)
]
# Uneven sets: an evenly spaced pair with a gap, and sets no slice can hold.
CLEANOUT_LEVELS = [
    frozenset({IonLevel.Q0, IonLevel.AUX_MINUS}),
    frozenset({IonLevel.Q0, IonLevel.Q1, IonLevel.AUX_MINUS}),
]
CLEANOUT_FOCK = [None, frozenset({0, 2}), frozenset({0, 1, 3}), frozenset({1})]

seeds = st.integers(0, 2**32 - 1)


def norm2(v):
    """re**2 + im**2 summed in index order along the last axis: the one
    population rule, written out."""
    return (v.real**2 + v.imag**2).sum(axis=-1)


def space_id(space):
    return f"{space.n_ions}ions-cutoff{space.fock_cutoff}"


def random_rows(space, seed, block=1):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(block, space.dim)) + 1j * rng.normal(size=(block, space.dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def no_bright_rows(space, seed, block):
    """random_rows with 0 wherever some ion is Bright, renormalized: the
    starts the survivor kernel takes."""
    v = np.where(bright_mask(space), 0.0, random_rows(space, seed, block))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("space", SPACES, ids=space_id)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=seeds)
def test_manifold_population_matches_the_mask(space, seed):
    state = PureState(space, random_rows(space, seed)[0])
    assert len(LEVEL_SUBSETS) == 32
    for ion in range(space.n_ions):
        for levels in LEVEL_SUBSETS:
            mask = cleanout_mask(space, ion, levels)
            expected = float(norm2(state.amplitudes[mask]))
            assert manifold_population(state, ion, levels) == expected


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=seeds)
def test_fock_population_matches_the_mask(seed):
    space = StateSpace(2, 3)
    state = PureState(space, random_rows(space, seed)[0])
    for n in range(space.fock_dim):
        mask = np.arange(space.dim) % space.fock_dim == n
        expected = float(norm2(state.amplitudes[mask]))
        assert fock_population(state, n) == expected


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=seeds)
def test_ideal_cz_output_matches_the_mask(cutoff, seed):
    space = StateSpace(2, cutoff)
    state = PureState(space, random_rows(space, seed)[0])
    both_excited = cleanout_mask(space, 0, {IonLevel.Q1}) & cleanout_mask(space, 1, {IonLevel.Q1})
    expected = state.amplitudes * np.where(both_excited, -1.0, 1.0)
    assert ideal_cz_output(state).amplitudes.tobytes() == expected.tobytes()


def _cleanout_cases():
    for space in SPACES:
        for ion in range(space.n_ions):
            for levels in CLEANOUT_LEVELS:
                for fock in CLEANOUT_FOCK if space.has_motion else [None]:
                    levels_id = "+".join(lv.name for lv in sorted(levels))
                    fock_id = "all" if fock is None else "+".join(map(str, sorted(fock)))
                    name = f"{space_id(space)}-ion{ion}-{levels_id}-fock{fock_id}"
                    yield pytest.param(space, ion, levels, fock, id=name)


@pytest.mark.parametrize("space,ion,levels,fock", list(_cleanout_cases()))
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=seeds)
def test_cleanout_reads_and_zeroes_the_mask(space, ion, levels, fock, seed):
    ch = CleanoutChannel(ion, levels, fock=fock)
    # The kernel runs on register rows: the mask restricted to them.
    mask = cleanout_mask(space, ion, levels, fock)[_basis(space)]
    for start in no_bright_rows(space, seed, block=3):
        amps, register = _into_register(start, space)
        paths = survivor_paths(amps, register, (_Step((), (ch,)),))
        pop = norm2(amps[mask])
        assert paths.target[0, 0].tobytes() == np.minimum(pop / norm2(amps), 1.0).tobytes()

        zeroed = amps.copy()
        zeroed[mask] = 0.0
        left = norm2(zeroed)
        assert paths.alive.all()
        assert paths.final[0].tobytes() == (zeroed / np.sqrt(left)).tobytes()


@pytest.mark.parametrize("space", [StateSpace(1), StateSpace(1, 3)], ids=space_id)
def test_ideal_cz_output_needs_two_ions(space):
    state = PureState(space, random_rows(space, 0)[0])
    with pytest.raises(ValueError):
        ideal_cz_output(state)
