import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.dissipation import (
    CleanoutChannel,
    aux_cleanout,
    cleanout_branches,
    cleanout_sample,
    level_cleanout,
    qubit_cleanout,
)
from heraldsim.statespace import (
    AUX_MANIFOLD,
    BlochAxis,
    IonLevel,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    basis_state,
    make_state,
)
from heraldsim.protocols import _Step, survivor_paths
from heraldsim.pulses import ToneSet, TransferPulse, five_level, transfer_unitary


def imperfect_transfer_state(delta, c_plus=0.6, c_minus=0.8, axis=None):
    """State after one imperfect transfer of c+|+n> + c-|-n>, axis at the pole."""
    axis = axis or BlochAxis(0.0, 0.0)
    u = five_level(transfer_unitary(TransferPulse(ToneSet(axis), math.pi + delta)))
    state = make_state(StateSpace(1), [(0, c_plus), (1, c_minus)])
    return PureState(state.space, u @ state.amplitudes)


class TestChannel:
    def test_selectivity_range(self):
        with pytest.raises(ValueError):
            CleanoutChannel(0, QUBIT_MANIFOLD, selectivity=1.1)
        with pytest.raises(ValueError):
            CleanoutChannel(0, QUBIT_MANIFOLD, selectivity=-0.01)

    def test_needs_levels(self):
        with pytest.raises(ValueError):
            CleanoutChannel(0, frozenset())

    def test_bright_not_targetable(self):
        with pytest.raises(ValueError):
            CleanoutChannel(0, frozenset({IonLevel.BRIGHT}))


class TestBranches:
    def test_nothing_to_pump(self):
        state = basis_state(StateSpace(1), [IonLevel.AUX_PLUS])
        branches = cleanout_branches(state, qubit_cleanout(0))
        assert len(branches) == 1
        out, prob, flagged = branches[0]
        assert not flagged
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_imperfect_transfer_split(self):
        delta = 0.44
        c_plus, c_minus = 0.6, 0.8
        state = imperfect_transfer_state(delta, c_plus, c_minus)
        branches = cleanout_branches(state, qubit_cleanout(0))
        assert len(branches) == 2
        flag_state, flag_prob, flagged = branches[0]
        assert flagged and flag_state is None
        assert flag_prob == pytest.approx(math.sin(delta / 2) ** 2, abs=1e-12)
        survivor, prob, flagged = branches[1]
        assert not flagged
        assert prob == pytest.approx(1 - math.sin(delta / 2) ** 2, abs=1e-12)
        # clean transfer target -i(c+|A+> + c-|A->); at the pole axis the
        # minus eigenvector is -|1>, so c- = -c_minus.
        expected = np.zeros(5, dtype=complex)
        expected[IonLevel.AUX_PLUS] = -1j * c_plus
        expected[IonLevel.AUX_MINUS] = 1j * c_minus
        np.testing.assert_allclose(survivor.amplitudes, expected, atol=1e-12)

    def test_imperfect_selectivity_false_positive(self):
        delta = 0.44
        state = imperfect_transfer_state(delta)
        branches = cleanout_branches(state, qubit_cleanout(0, selectivity=0.95))
        assert len(branches) == 3
        total_flagged = sum(p for _, p, flagged in branches if flagged)
        expected = math.sin(delta / 2) ** 2 + 0.05 * math.cos(delta / 2) ** 2
        assert total_flagged == pytest.approx(expected, abs=1e-12)
        survivor, prob, flagged = branches[-1]
        assert not flagged
        # false positives lower the yield but never touch the survivor
        clean = cleanout_branches(state, qubit_cleanout(0))[-1][0]
        np.testing.assert_allclose(survivor.amplitudes, clean.amplitudes, atol=1e-12)

    @settings(max_examples=100)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.sampled_from([QUBIT_MANIFOLD, AUX_MANIFOLD, frozenset({IonLevel.Q0})]),
    )
    def test_probabilities_sum_to_one(self, seed, selectivity, levels):
        rng = np.random.default_rng(seed)
        space = StateSpace(2)
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = PureState(space, v / np.linalg.norm(v))
        branches = cleanout_branches(state, level_cleanout(1, levels, selectivity))
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_input_rejected(self):
        state = PureState(StateSpace(1), np.array([0.5, 0, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            cleanout_branches(state, qubit_cleanout(0))

    def test_fock_resolved_channel(self):
        space = StateSpace(1, 2)
        state = make_state(
            space,
            [
                (space.index([IonLevel.Q0], 0), 1.0),
                (space.index([IonLevel.Q0], 1), 1.0),
            ],
        )
        ch = level_cleanout(0, {IonLevel.Q0}, fock={1})
        branches = cleanout_branches(state, ch)
        assert branches[0][1] == pytest.approx(0.5, abs=1e-12)
        survivor = branches[-1][0]
        assert survivor.amplitudes[space.index([IonLevel.Q0], 0)] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_fock_resolution_needs_motion(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        ch = level_cleanout(0, {IonLevel.Q0}, fock={0})
        with pytest.raises(ValueError):
            cleanout_branches(state, ch)


class TestSampling:
    def test_deterministic_unflagged(self):
        state = basis_state(StateSpace(1), [IonLevel.AUX_PLUS])
        rng = np.random.default_rng(0)
        for _ in range(50):
            out, record = cleanout_sample(state, qubit_cleanout(0), rng)
            assert not record.flagged
            assert out is not None

    def test_deterministic_flagged(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            out, record = cleanout_sample(state, qubit_cleanout(0), rng)
            assert record.flagged
            assert out is None

    def test_binomial_agreement(self):
        delta = 0.3
        p = math.sin(delta / 2) ** 2
        state = imperfect_transfer_state(delta)
        n = 100_000
        # A call of cleanout_sample draws rng.random(1), so n calls draw what
        # one rng.random(n) gives, and the n rows, run as one block on those
        # uniforms, take the branches the n calls would take.
        uniforms = np.random.default_rng(123).random(n)
        paths = survivor_paths(
            np.repeat(state.amplitudes[None], n, axis=0),
            state.space,
            (_Step((), (qubit_cleanout(0),)),),
            draw=lambda col, rows: uniforms[rows],
        )
        rng = np.random.default_rng(123)
        head = [cleanout_sample(state, qubit_cleanout(0), rng)[1].flagged for _ in range(200)]
        assert head == paths.flags[:200, 0].tolist()
        flags = int(paths.flags[:, 0].sum())
        sigma = math.sqrt(p * (1 - p) / n)
        # For a random seed this fails with probability 2.6e-3: the flag count
        # is binomial(n, p), and its exact two-sided tail at 3 sigma is that.
        assert abs(flags / n - p) < 3 * sigma

    def test_record_fields(self):
        state = imperfect_transfer_state(0.3)
        rng = np.random.default_rng(7)
        _, record = cleanout_sample(state, aux_cleanout(0), rng, step_index=3)
        assert record.step_index == 3
        assert record.ion == 0
        assert 0.0 <= record.branch_probability <= 1.0
