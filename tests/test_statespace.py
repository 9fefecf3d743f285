import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.statespace import (
    AUX_MANIFOLD,
    BlochAxis,
    IonLevel,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    apply_unitary,
    basis_state,
    fidelity_up_to_global_phase,
    fock_population,
    make_state,
    manifold_population,
    overlap,
    plus_minus_n_states,
    plus_minus_n_vectors,
)

axes = st.builds(
    BlochAxis,
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)


def random_qubit_state(rng):
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    return make_state(StateSpace(1), [(0, amps[0]), (1, amps[1])])


class TestStateSpace:
    def test_dimensions(self):
        assert StateSpace(1).dim == 5
        assert StateSpace(2).dim == 25
        assert StateSpace(2, 3).dim == 100
        assert StateSpace(4, 3).dim == 2500

    def test_no_motion_when_cutoff_zero(self):
        space = StateSpace(2)
        assert not space.has_motion
        assert space.factor_dims == (5, 5)
        with pytest.raises(ValueError):
            space.motion_axis

    def test_index_ordering_ion_major_fock_last(self):
        space = StateSpace(2, 2)
        assert space.index([IonLevel.Q0, IonLevel.Q0], 0) == 0
        assert space.index([IonLevel.Q0, IonLevel.Q0], 1) == 1
        assert space.index([IonLevel.Q0, IonLevel.Q1], 0) == 3
        assert space.index([IonLevel.Q1, IonLevel.Q0], 0) == 15

    def test_index_validation(self):
        space = StateSpace(1, 2)
        with pytest.raises(ValueError):
            space.index([IonLevel.Q0], 3)
        with pytest.raises(ValueError):
            space.index([IonLevel.Q0, IonLevel.Q0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            StateSpace(0)
        with pytest.raises(ValueError):
            StateSpace(1, -1)


class TestMakeState:
    def test_basis_state(self):
        state = make_state(StateSpace(1), [(IonLevel.Q0, 1.0)])
        assert state.amplitudes[0] == 1.0
        assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_normalizes(self):
        state = make_state(StateSpace(1), [(0, 1.0), (1, 1.0)])
        assert abs(state.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(state.amplitudes[1] - 1 / math.sqrt(2)) < 1e-12

    def test_two_ion_fock_basis_state(self):
        space = StateSpace(2, 2)
        idx = space.index([IonLevel.Q1, IonLevel.Q1], 0)
        state = make_state(space, [(idx, 1.0)])
        assert state.amplitudes[idx] == 1.0
        assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            make_state(StateSpace(1), [(5, 1.0)])

    def test_all_zero_input(self):
        with pytest.raises(ValueError):
            make_state(StateSpace(1), [(0, 0.0)])

    def test_amplitudes_immutable(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestAxisBasis:
    def test_pole(self):
        plus, minus = plus_minus_n_states(BlochAxis(0.0, 0.0))
        assert abs(plus.amplitudes[0] - 1.0) < 1e-12
        # sign convention puts the minus on the Q1 component
        assert abs(minus.amplitudes[1] + 1.0) < 1e-12

    def test_equator(self):
        plus, minus = plus_minus_n_states(BlochAxis(math.pi / 2, 0.0))
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(plus.amplitudes[:2], [r, r], atol=1e-12)
        np.testing.assert_allclose(minus.amplitudes[:2], [r, -r], atol=1e-12)

    def test_equator_y(self):
        plus, minus = plus_minus_n_states(BlochAxis(math.pi / 2, math.pi / 2))
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(plus.amplitudes[:2], [r, 1j * r], atol=1e-12)
        np.testing.assert_allclose(minus.amplitudes[:2], [r, -1j * r], atol=1e-12)

    @given(axes)
    def test_orthogonal_and_complete(self, axis):
        plus, minus = plus_minus_n_vectors(axis)
        assert abs(np.vdot(plus, minus)) < 1e-12
        ident = np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
        assert np.max(np.abs(ident - np.eye(2))) < 1e-12

    @given(axes)
    def test_eigenvectors_of_axis(self, axis):
        n = axis.unit_vector
        sigma = np.array(
            [[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]], dtype=complex
        )
        plus, minus = plus_minus_n_vectors(axis)
        assert np.max(np.abs(sigma @ plus - plus)) < 1e-12
        assert np.max(np.abs(sigma @ minus + minus)) < 1e-12

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            BlochAxis(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochAxis(1.0, 2 * math.pi)

    @given(axes)
    def test_unit_vector_norm(self, axis):
        assert abs(np.linalg.norm(axis.unit_vector) - 1.0) < 1e-12


class TestApplyUnitary:
    def test_identity(self):
        state = basis_state(StateSpace(1), [IonLevel.Q1])
        out = apply_unitary(state, np.eye(5), 0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_pauli_x_on_qubit(self):
        x5 = np.eye(5, dtype=complex)
        x5[:2, :2] = [[0, 1], [1, 0]]
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        out = apply_unitary(state, x5, 0)
        assert abs(out.amplitudes[1] - 1.0) < 1e-12

    def test_norm_preserved_many_random_pairs(self):
        rng = np.random.default_rng(42)
        space = StateSpace(2)
        n_pairs = 10_000
        mats = rng.normal(size=(n_pairs, 5, 5)) + 1j * rng.normal(size=(n_pairs, 5, 5))
        qs, _ = np.linalg.qr(mats)
        vecs = rng.normal(size=(n_pairs, space.dim)) + 1j * rng.normal(
            size=(n_pairs, space.dim)
        )
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        worst = 0.0
        for i, (q, v) in enumerate(zip(qs, vecs)):
            out = apply_unitary(PureState(space, v), q, (i % 2,))
            worst = max(worst, abs(out.norm - 1.0))
        assert worst < 1e-12

    def test_dimension_mismatch(self):
        state = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            apply_unitary(state, np.eye(5), (0, 1))

    def test_non_unitary_rejected(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        bad = np.eye(5, dtype=complex)
        bad[0, 0] = 1.5
        with pytest.raises(ValueError):
            apply_unitary(state, bad, 0)

    def test_target_validation(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        with pytest.raises(ValueError):
            apply_unitary(state, np.eye(5), 1)
        state2 = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            apply_unitary(state2, np.eye(25), (0, 0))

    @pytest.mark.parametrize(
        "space,targets",
        [
            (StateSpace(3), (0,)),
            (StateSpace(3), (1,)),
            (StateSpace(3), (2,)),
            (StateSpace(2, 3), (0, 2)),
            (StateSpace(2, 3), (1, 2)),
            (StateSpace(2, 3), (2, 1)),
        ],
    )
    def test_lands_on_the_target_factors(self, space, targets):
        # Oracle: the operator is kron'ed with the identity in target-first
        # factor order, then each basis index is mapped back to its place in
        # the register's own order.
        rng = np.random.default_rng(sum(targets) + 10 * space.n_ions)
        dims = space.factor_dims
        d = math.prod(dims[t] for t in targets)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        rest = [a for a in range(len(dims)) if a not in targets]
        order = list(targets) + rest
        permuted = np.kron(q, np.eye(space.dim // d))
        place = np.arange(space.dim).reshape(dims).transpose(order).reshape(-1)
        dense = np.empty_like(permuted)
        dense[np.ix_(place, place)] = permuted
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = PureState(space, v / np.linalg.norm(v))
        out = apply_unitary(state, q, targets)
        np.testing.assert_allclose(out.amplitudes, dense @ state.amplitudes, rtol=0, atol=1e-12)

    def test_two_ion_random_unitary_norm(self):
        rng = np.random.default_rng(3)
        space = StateSpace(2)
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = PureState(space, v / np.linalg.norm(v))
        m = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        q, _ = np.linalg.qr(m)
        out = apply_unitary(state, q, (0, 1))
        assert abs(out.norm - 1.0) < 1e-12


class TestPopulations:
    def test_basis_state_population(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        assert manifold_population(state, 0, QUBIT_MANIFOLD) == pytest.approx(1.0)

    def test_equal_superposition_across_manifolds(self):
        state = make_state(StateSpace(1), [(IonLevel.Q0, 1.0), (IonLevel.AUX_PLUS, 1.0)])
        assert manifold_population(state, 0, AUX_MANIFOLD) == pytest.approx(0.5, abs=1e-12)

    def test_imperfect_transfer_population(self):
        # State of one imperfect transfer: qubit-manifold weight sin^2(d/2).
        d = 0.37
        c_plus, c_minus = 0.6, 0.8
        space = StateSpace(1)
        amps = np.zeros(5, dtype=complex)
        amps[IonLevel.AUX_PLUS] = -1j * math.cos(d / 2) * c_plus
        amps[IonLevel.AUX_MINUS] = -1j * math.cos(d / 2) * c_minus
        amps[IonLevel.Q0] = -math.sin(d / 2) * c_plus
        amps[IonLevel.Q1] = -math.sin(d / 2) * c_minus
        state = PureState(space, amps)
        assert manifold_population(state, 0, QUBIT_MANIFOLD) == pytest.approx(
            math.sin(d / 2) ** 2, abs=1e-12
        )

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_levels_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        space = StateSpace(2, 2)
        v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = PureState(space, v / np.linalg.norm(v))
        for ion in range(2):
            total = sum(
                manifold_population(state, ion, {level}) for level in IonLevel
            )
            assert abs(total - 1.0) < 1e-12

    def test_invalid_ion(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        with pytest.raises(ValueError):
            manifold_population(state, 1, QUBIT_MANIFOLD)

    def test_level_that_does_not_exist(self):
        state = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q1])
        with pytest.raises(ValueError):
            manifold_population(state, 1, [7])
        with pytest.raises(ValueError):
            manifold_population(state, 1, [IonLevel.Q1, -1])

    def test_empty_level_set_holds_nothing(self):
        state = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q1])
        assert manifold_population(state, 1, []) == 0.0
        with pytest.raises(ValueError):
            manifold_population(state, 2, [])

    def test_fock_population(self):
        space = StateSpace(1, 2)
        state = make_state(
            space,
            [(space.index([IonLevel.Q0], 0), 1.0), (space.index([IonLevel.Q0], 2), 1.0)],
        )
        assert fock_population(state, 0) == pytest.approx(0.5, abs=1e-12)
        assert fock_population(state, 1) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            fock_population(basis_state(StateSpace(1), [IonLevel.Q0]), 0)

    @pytest.mark.parametrize("n", [-1, 3])
    def test_fock_index_out_of_range(self, n):
        with pytest.raises(ValueError):
            fock_population(basis_state(StateSpace(1, 2), [IonLevel.Q0]), n)


class TestFidelity:
    @given(st.floats(0.0, 2 * math.pi))
    def test_global_phase_invariance(self, gamma):
        rng = np.random.default_rng(1)
        state = random_qubit_state(rng)
        rotated = PureState(state.space, np.exp(1j * gamma) * state.amplitudes)
        assert fidelity_up_to_global_phase(state, rotated) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_orthogonal(self):
        a = basis_state(StateSpace(1), [IonLevel.Q0])
        b = basis_state(StateSpace(1), [IonLevel.Q1])
        assert fidelity_up_to_global_phase(a, b) == 0.0

    def test_plus_n_against_zero(self):
        plus, _ = plus_minus_n_states(BlochAxis(math.pi / 3, 0.0))
        zero = basis_state(StateSpace(1), [IonLevel.Q0])
        assert fidelity_up_to_global_phase(plus, zero) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_space_mismatch(self):
        a = basis_state(StateSpace(1), [IonLevel.Q0])
        b = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            overlap(a, b)
