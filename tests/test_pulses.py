import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.statespace import (
    BlochAxis,
    IonLevel,
    StateSpace,
    plus_minus_n_vectors,
)
from heraldsim.pulses import (
    SidebandPulse,
    ToneSet,
    TransferPulse,
    evolve_numeric,
    five_level,
    gate_phase_shifts,
    hamiltonian_matrix,
    sideband_hamiltonian,
    sideband_unitary,
    transfer_unitary,
)

axes = st.builds(
    BlochAxis,
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)


def dyadic_form(axis, omega=1.0, chi_plus=0.0, chi_minus=0.0):
    plus, minus = plus_minus_n_vectors(axis)
    h = np.zeros((4, 4), dtype=complex)
    h[2, :2] = 0.5 * omega * np.exp(-1j * chi_plus) * plus.conj()
    h[3, :2] = 0.5 * omega * np.exp(-1j * chi_minus) * minus.conj()
    return h + h.conj().T


class TestToneSet:
    @given(axes, st.floats(0.1, 10.0))
    def test_amplitude_invariant(self, axis, omega):
        tones = ToneSet(axis, omega)
        assert tones.omega_1**2 + tones.omega_2**2 == pytest.approx(
            omega**2, abs=1e-12 * omega**2
        )
        assert tones.omega_3**2 + tones.omega_4**2 == pytest.approx(
            omega**2, abs=1e-12 * omega**2
        )

    def test_pair_phases_track_axis(self):
        tones = ToneSet(BlochAxis(1.0, 2.5))
        assert tones.phase_12 == 2.5
        assert tones.phase_34 == 2.5

    def test_omega_positive(self):
        with pytest.raises(ValueError):
            ToneSet(BlochAxis(1.0, 0.0), omega=0.0)


class TestHamiltonian:
    def test_pole_couplings(self):
        # theta=0 silences tones 2 and 3: only Q0-AuxPlus and Q1-AuxMinus couple.
        h = hamiltonian_matrix(ToneSet(BlochAxis(0.0, 0.0)))
        assert abs(h[2, 0] - 0.5) < 1e-12
        assert abs(h[3, 1] + 0.5) < 1e-12  # tone 4 carries the fixed pi
        assert abs(h[2, 1]) < 1e-12
        assert abs(h[3, 0]) < 1e-12

    def test_equator_coupling_magnitudes(self):
        h = hamiltonian_matrix(ToneSet(BlochAxis(math.pi / 2, 0.0)))
        expected = 1.0 / (2.0 * math.sqrt(2.0))
        for i, j in ((2, 0), (2, 1), (3, 0), (3, 1)):
            assert abs(abs(h[i, j]) - expected) < 1e-12

    @settings(max_examples=200)
    @given(axes)
    def test_eigenvalues_two_level_pairs(self, axis):
        h = hamiltonian_matrix(ToneSet(axis, omega=1.0))
        evals = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(evals, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)

    def test_dyadic_equality_many_axes(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            axis = BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            h = hamiltonian_matrix(ToneSet(axis))
            assert np.max(np.abs(h - dyadic_form(axis))) < 1e-12

    @given(axes, st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
    def test_dyadic_equality_with_pair_phases(self, axis, chi_plus, chi_minus):
        h = hamiltonian_matrix(ToneSet(axis), chi_plus, chi_minus)
        assert np.max(np.abs(h - dyadic_form(axis, 1.0, chi_plus, chi_minus))) < 1e-12


class TestTransferUnitary:
    def test_perfect_transfer_prefactor(self):
        axis = BlochAxis(0.9, 4.0)
        u = transfer_unitary(TransferPulse(ToneSet(axis), math.pi))
        plus, _ = plus_minus_n_vectors(axis)
        out = u @ np.concatenate([plus, [0, 0]])
        expected = np.zeros(4, dtype=complex)
        expected[2] = -1j
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_double_area_returns_negated_state(self):
        axis = BlochAxis(1.2, 0.3)
        u = transfer_unitary(TransferPulse(ToneSet(axis), 2 * math.pi))
        psi = np.array([0.6, 0.8j, 0, 0], dtype=complex)
        assert np.max(np.abs(u @ psi + psi)) < 1e-12

    def test_residual_amplitude(self):
        axis = BlochAxis(2.0, 1.0)
        u = transfer_unitary(TransferPulse(ToneSet(axis), math.pi + 0.2))
        psi = np.array([0.28, 0.96, 0, 0], dtype=complex)
        assert np.vdot(psi, u @ psi) == pytest.approx(-math.sin(0.1), abs=1e-12)

    @given(
        axes,
        st.floats(-1.0, 1.0),
        st.floats(0, 2 * math.pi),
        st.floats(0, 2 * math.pi),
    )
    def test_unitarity(self, axis, delta, chi_plus, chi_minus):
        u = transfer_unitary(
            TransferPulse(ToneSet(axis), math.pi + delta, chi_plus, chi_minus)
        )
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    @given(axes)
    def test_perfect_pulse_empties_qubit_manifold(self, axis):
        u = transfer_unitary(TransferPulse(ToneSet(axis), math.pi))
        assert np.max(np.abs(u[:2, :2])) < 1e-12

    def test_delta_pi_recoverable(self):
        pulse = TransferPulse(ToneSet(BlochAxis(1.0, 0.0)), math.pi + 0.125)
        assert pulse.delta_pi == 0.125


class TestGatePhaseShifts:
    def test_zero_rotation(self):
        assert gate_phase_shifts(0.0) == (math.pi, math.pi)

    def test_pi_rotation(self):
        chi_plus, chi_minus = gate_phase_shifts(math.pi)
        assert chi_plus == pytest.approx(math.pi / 2)
        assert chi_minus == pytest.approx(3 * math.pi / 2)

    def test_half_pi_rotation(self):
        chi_plus, chi_minus = gate_phase_shifts(math.pi / 2)
        assert chi_plus == pytest.approx(3 * math.pi / 4)
        assert chi_minus == pytest.approx(5 * math.pi / 4)


class TestCompositionIdentity:
    def test_grid(self):
        # Two perfect transfers with the pair phase shifts compose to the
        # target rotation on the qubit manifold, up to global phase.
        rng = np.random.default_rng(5)
        thetas = np.linspace(0, math.pi, 10)
        phis = np.linspace(0, 2 * math.pi, 10, endpoint=False)
        big_thetas = np.linspace(-2 * math.pi, 2 * math.pi, 10)
        worst = 0.0
        for theta in thetas:
            for phi in phis:
                for big_theta in big_thetas:
                    axis = BlochAxis(theta, phi)
                    tones = ToneSet(axis)
                    u1 = transfer_unitary(TransferPulse(tones, math.pi))
                    chi_plus, chi_minus = gate_phase_shifts(big_theta)
                    u2 = transfer_unitary(
                        TransferPulse(tones, math.pi, chi_plus, chi_minus)
                    )
                    comp = (u2 @ u1)[:2, :2]
                    n = axis.unit_vector
                    n_sigma = np.array(
                        [[n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], -n[2]]]
                    )
                    ideal = (
                        math.cos(big_theta / 2) * np.eye(2)
                        - 1j * math.sin(big_theta / 2) * n_sigma
                    )
                    v = rng.normal(size=2) + 1j * rng.normal(size=2)
                    v /= np.linalg.norm(v)
                    fid = abs(np.vdot(ideal @ v, comp @ v)) ** 2
                    worst = max(worst, 1.0 - fid)
        assert worst < 1e-10


class TestEvolveNumeric:
    def test_zero_hamiltonian(self):
        u = evolve_numeric(np.zeros((3, 3)), 1.7)
        assert np.max(np.abs(u - np.eye(3))) < 1e-12

    def test_rabi_pi_pulse(self):
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        u = evolve_numeric(sx, math.pi)
        out = u @ np.array([1, 0], dtype=complex)
        assert np.max(np.abs(out - np.array([0, -1j]))) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            evolve_numeric(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_oracle_matches_transfer_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            axis = BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            delta = rng.uniform(-0.8, 0.8)
            chi_plus = rng.uniform(0, 2 * math.pi)
            chi_minus = rng.uniform(0, 2 * math.pi)
            omega = rng.uniform(0.5, 2.0)
            tones = ToneSet(axis, omega)
            area = math.pi + delta
            analytic = transfer_unitary(TransferPulse(tones, area, chi_plus, chi_minus))
            h = hamiltonian_matrix(tones, chi_plus, chi_minus)
            numeric = evolve_numeric(h, area / omega)
            assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_output_unitary(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = m + m.conj().T
        u = evolve_numeric(h, 0.37)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10


def ion_fock_index(space, level, n):
    return int(level) * space.fock_dim + n


class TestSidebands:
    def setup_method(self):
        self.space = StateSpace(1, 3)

    def test_blue_pi_pulse(self):
        pulse = SidebandPulse("blue", (IonLevel.Q1, IonLevel.AUX_PLUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        vec = np.zeros(20, dtype=complex)
        vec[ion_fock_index(self.space, IonLevel.Q1, 0)] = 1.0
        out = u @ vec
        target = ion_fock_index(self.space, IonLevel.AUX_PLUS, 1)
        assert out[target] == pytest.approx(-1j, abs=1e-12)

    def test_carrier_pi_pulse(self):
        pulse = SidebandPulse("carrier", (IonLevel.Q0, IonLevel.AUX_MINUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        vec = np.zeros(20, dtype=complex)
        vec[ion_fock_index(self.space, IonLevel.Q0, 0)] = 1.0
        out = u @ vec
        target = ion_fock_index(self.space, IonLevel.AUX_MINUS, 0)
        assert out[target] == pytest.approx(-1j, abs=1e-12)

    def test_blue_sqrt_scaling_incomplete_transfer(self):
        # From Fock 1 the blue pair rotates by area*sqrt(2); cross-check
        # against a plain two-level rotation.
        pulse = SidebandPulse("blue", (IonLevel.Q1, IonLevel.AUX_PLUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        vec = np.zeros(20, dtype=complex)
        vec[ion_fock_index(self.space, IonLevel.Q1, 1)] = 1.0
        out = u @ vec
        angle = math.pi * math.sqrt(2)
        stay = ion_fock_index(self.space, IonLevel.Q1, 1)
        go = ion_fock_index(self.space, IonLevel.AUX_PLUS, 2)
        assert out[stay] == pytest.approx(math.cos(angle / 2), abs=1e-12)
        assert out[go] == pytest.approx(-1j * math.sin(angle / 2), abs=1e-12)
        assert abs(out[stay]) ** 2 + abs(out[go]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_red_sqrt_scaling(self):
        pulse = SidebandPulse("red", (IonLevel.Q1, IonLevel.AUX_PLUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        vec = np.zeros(20, dtype=complex)
        vec[ion_fock_index(self.space, IonLevel.Q1, 1)] = 1.0
        out = u @ vec
        target = ion_fock_index(self.space, IonLevel.AUX_PLUS, 0)
        assert out[target] == pytest.approx(-1j, abs=1e-12)

    def test_red_dark_on_ground_fock(self):
        pulse = SidebandPulse("red", (IonLevel.Q1, IonLevel.AUX_PLUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        vec = np.zeros(20, dtype=complex)
        vec[ion_fock_index(self.space, IonLevel.Q1, 0)] = 1.0
        out = u @ vec
        np.testing.assert_allclose(out, vec, atol=1e-12)

    def test_blue_truncated_at_cutoff(self):
        # The pair out of the top Fock state is dropped, not wrapped.
        pulse = SidebandPulse("blue", (IonLevel.Q1, IonLevel.AUX_PLUS), math.pi)
        u = sideband_unitary(pulse, self.space)
        top = ion_fock_index(self.space, IonLevel.Q1, 3)
        col = u[:, top]
        expected = np.zeros(20, dtype=complex)
        expected[top] = 1.0
        np.testing.assert_allclose(col, expected, atol=1e-12)

    def test_unitary_for_all_kinds(self):
        for kind in ("carrier", "red", "blue"):
            pulse = SidebandPulse(kind, (IonLevel.Q0, IonLevel.AUX_MINUS), 1.3, 0.7)
            u = sideband_unitary(pulse, self.space)
            assert np.max(np.abs(u.conj().T @ u - np.eye(20))) < 1e-12

    def test_oracle_matches_numeric(self):
        rng = np.random.default_rng(11)
        for kind in ("carrier", "red", "blue"):
            area = rng.uniform(0.5, 4.0)
            phase = rng.uniform(0, 2 * math.pi)
            pulse = SidebandPulse(kind, (IonLevel.Q1, IonLevel.AUX_PLUS), area, phase)
            analytic = sideband_unitary(pulse, self.space)
            h = sideband_hamiltonian(pulse, self.space)
            numeric = evolve_numeric(h, area)
            assert np.max(np.abs(analytic - numeric)) < 1e-8

    def test_requires_motion(self):
        pulse = SidebandPulse("carrier", (IonLevel.Q0, IonLevel.AUX_MINUS), math.pi)
        with pytest.raises(ValueError):
            sideband_unitary(pulse, StateSpace(1))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SidebandPulse("green", (IonLevel.Q0, IonLevel.AUX_MINUS), math.pi)
        with pytest.raises(ValueError):
            SidebandPulse("red", (IonLevel.Q0, IonLevel.BRIGHT), math.pi)


class TestFiveLevelEmbed:
    def test_bright_sink_untouched(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(m)
        u = five_level(q)
        assert u[4, 4] == 1.0
        assert np.max(np.abs(u[4, :4])) == 0.0
        assert np.max(np.abs(u[:4, 4])) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            five_level(np.eye(3))
