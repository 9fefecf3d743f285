import math
from dataclasses import replace

import numpy as np
import pytest

from heraldsim.dissipation import HeraldRecord
from heraldsim.protocols import (
    ONE_ION,
    Branch,
    CrosstalkProfile,
    GateSpec,
    LeakageError,
    _Step,
    addressed_steps,
    bare_single_qubit,
    certified_addressed_gate,
    certified_cz,
    certified_single_qubit,
    cz_problem,
    cz_space,
    cz_steps,
    flag_probability,
    ideal_addressed_output,
    ideal_cz,
    ideal_cz_output,
    ideal_single_qubit,
    ideal_single_qubit_output,
    no_flag_branch,
    run_protocol,
    step_flag_rates,
    transfer_pass,
)
from heraldsim.statespace import (
    BlochAxis,
    IonLevel,
    IonProduct,
    N_LEVELS,
    StateSpace,
    basis_state,
    fidelity_up_to_global_phase,
    make_state,
    overlap,
    plus_minus_n_vectors,
)

A_PLUS, A_MINUS = IonLevel.AUX_PLUS, IonLevel.AUX_MINUS


def random_axis(rng):
    return BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))


def random_qubit_state(rng, space=None):
    space = space or StateSpace(1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return make_state(space, [(0, v[0]), (1, v[1])])


def no_flag_probability_product(errors):
    out = 1.0
    for d in errors:
        out *= 1.0 - math.sin(d / 2) ** 2
    return out


class TestIdealSingleQubit:
    def test_zero_angle_is_identity(self):
        u = ideal_single_qubit(GateSpec(BlochAxis(1.0, 2.0), 0.0))
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_pi_about_x(self):
        u = ideal_single_qubit(GateSpec(BlochAxis(math.pi / 2, 0.0), math.pi))
        sx = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(u + 1j * sx)) < 1e-12

    def test_axis_eigenphases(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            axis = random_axis(rng)
            big_theta = rng.uniform(-2 * math.pi, 2 * math.pi)
            u = ideal_single_qubit(GateSpec(axis, big_theta))
            plus, minus = plus_minus_n_vectors(axis)
            assert np.max(np.abs(u @ plus - np.exp(-1j * big_theta / 2) * plus)) < 1e-12
            assert np.max(np.abs(u @ minus - np.exp(1j * big_theta / 2) * minus)) < 1e-12


class TestCertifiedSingleQubit:
    def test_error_free_case(self):
        rng = np.random.default_rng(0)
        spec = GateSpec(BlochAxis(0.7, 1.3), 2.0)
        state = random_qubit_state(rng)
        out = certified_single_qubit(state, spec, (0.0, 0.0))
        assert len(out.branches) == 1
        branch = out.branches[0]
        assert branch.probability == pytest.approx(1.0, abs=1e-12)
        ideal = ideal_single_qubit_output(state, spec)
        np.testing.assert_allclose(branch.state.amplitudes, ideal.amplitudes, atol=1e-12)

    def test_no_flag_probability_and_fidelity(self):
        rng = np.random.default_rng(1)
        spec = GateSpec(BlochAxis(1.1, 0.4), 0.9)
        state = random_qubit_state(rng)
        out = certified_single_qubit(state, spec, (0.2, 0.1))
        survivor = no_flag_branch(out)
        assert survivor.probability == pytest.approx(
            no_flag_probability_product([0.2, 0.1]), abs=1e-12
        )
        ideal = ideal_single_qubit_output(state, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        state = random_qubit_state(rng)
        out = certified_single_qubit(
            state, GateSpec(BlochAxis(0.5, 0.0), 1.0), (0.4, -0.3), selectivity=0.9
        )
        assert sum(b.probability for b in out.branches) == pytest.approx(1.0, abs=1e-10)

    def test_certification_theorem_grid(self):
        # Conditional-on-no-flag output is exactly ideal for every shared
        # area error; the no-flag weight follows the survival product.
        rng = np.random.default_rng(3)
        deltas = (-0.5, -0.2, -0.05, 0.0, 0.05, 0.2, 0.5)
        for _ in range(20):
            axis = random_axis(rng)
            spec = GateSpec(axis, rng.uniform(-2 * math.pi, 2 * math.pi))
            state = random_qubit_state(rng)
            ideal = ideal_single_qubit_output(state, spec)
            for d1 in deltas:
                for d2 in deltas:
                    out = certified_single_qubit(state, spec, (d1, d2))
                    survivor = no_flag_branch(out)
                    assert survivor.probability == pytest.approx(
                        no_flag_probability_product([d1, d2]), abs=1e-10
                    )
                    fid = fidelity_up_to_global_phase(survivor.state, ideal)
                    assert fid > 1 - 1e-10

    def test_selectivity_reduces_yield_not_fidelity(self):
        rng = np.random.default_rng(4)
        spec = GateSpec(BlochAxis(2.0, 5.0), 1.7)
        state = random_qubit_state(rng)
        out = certified_single_qubit(state, spec, (0.3, 0.2), selectivity=0.95)
        survivor = no_flag_branch(out)
        expected = 0.95**2 * no_flag_probability_product([0.3, 0.2])
        assert survivor.probability == pytest.approx(expected, abs=1e-12)
        ideal = ideal_single_qubit_output(state, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_rejects_population_outside_qubit_manifold(self):
        state = basis_state(StateSpace(1), [IonLevel.AUX_PLUS])
        with pytest.raises(ValueError):
            certified_single_qubit(state, GateSpec(BlochAxis(0.0, 0.0), 1.0), (0, 0))

    def test_rejects_wrong_space(self):
        state = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            certified_single_qubit(state, GateSpec(BlochAxis(0.0, 0.0), 1.0), (0, 0))

    def test_mc_requires_rng(self):
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        with pytest.raises(ValueError):
            certified_single_qubit(
                state, GateSpec(BlochAxis(0.0, 0.0), 1.0), (0, 0), mode="mc"
            )

    @pytest.mark.parametrize(
        "entry,options,message",
        [
            pytest.param(entry, options, message, id=f"{entry}-{name}")
            for entry in (
                "run_protocol",
                "certified_single_qubit",
                "certified_cz",
                "certified_addressed_gate",
            )
            for name, options, message in (
                ("mode", {"mode": "sometimes"}, "mode must be one of"),
                ("flag_query", {"flag_query": "sometimes"}, "flag_query must be one of"),
                # Options the mode would ignore; the addressed gate has no
                # keep_intermediate.
                ("rng-in-branch", {"rng": 0}, "pass rng in mc mode only"),
                (
                    "intermediates-in-mc",
                    {"mode": "mc", "rng": 0, "keep_intermediate": True},
                    "keep_intermediate applies to branch mode only",
                ),
            )
            if not (entry == "certified_addressed_gate" and "keep_intermediate" in options)
        ],
    )
    def test_run_protocol_refuses_unknown_choices(self, entry, options, message):
        if "rng" in options:
            options = options | {"rng": np.random.default_rng(options["rng"])}
        gate = GateSpec(BlochAxis(0.5, 0.0), 1.0)
        one_ion = basis_state(StateSpace(1), [IonLevel.Q0])
        calls = {
            "run_protocol": lambda **kw: run_protocol(one_ion, (), **kw),
            "certified_single_qubit": lambda **kw: certified_single_qubit(
                one_ion, gate, (0, 0), **kw
            ),
            "certified_cz": lambda **kw: certified_cz(
                basis_state(cz_space(), [IonLevel.Q0, IonLevel.Q0]), (0, 0, 0, 0), **kw
            ),
            "certified_addressed_gate": lambda **kw: certified_addressed_gate(
                basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0]),
                0,
                gate,
                CrosstalkProfile((1.0, 0.1)),
                (0, 0),
                **kw,
            ),
        }
        with pytest.raises(ValueError, match=message):
            calls[entry](**options)

    def test_mc_agrees_with_enumeration(self):
        spec = GateSpec(BlochAxis(1.0, 0.0), 1.5)
        state = make_state(StateSpace(1), [(0, 1.0), (1, 1.0)])
        errors = (0.4, 0.25)
        enumerated = certified_single_qubit(state, spec, errors)
        p_flag = flag_probability(enumerated)
        rng = np.random.default_rng(77)
        n = 20_000
        flagged = 0
        for _ in range(n):
            out = certified_single_qubit(state, spec, errors, mode="mc", rng=rng)
            flagged += out.branches[0].flagged
        sigma = math.sqrt(p_flag * (1 - p_flag) / n)
        # For a random seed this fails with probability 2.6e-3: the flag count
        # is binomial(n, p_flag), and its exact two-sided tail at 3 sigma is
        # that.
        assert abs(flagged / n - p_flag) < 3 * sigma

    def test_deferred_query_identical(self):
        rng = np.random.default_rng(5)
        spec = GateSpec(BlochAxis(0.9, 0.2), 2.2)
        state = random_qubit_state(rng)
        immediate = certified_single_qubit(
            state, spec, (0.3, -0.2), selectivity=0.9, flag_query="immediate"
        )
        deferred = certified_single_qubit(
            state, spec, (0.3, -0.2), selectivity=0.9, flag_query="end"
        )
        assert len(immediate.branches) == len(deferred.branches)
        for a, b in zip(immediate.branches, deferred.branches):
            assert a.records == b.records
            assert a.probability == b.probability
            if a.state is None:
                assert b.state is None
            else:
                np.testing.assert_array_equal(a.state.amplitudes, b.state.amplitudes)


    @pytest.mark.parametrize("mode", ["branch", "mc"])
    def test_steps_without_cleanouts_give_one_unflagged_branch(self, mode):
        rng = np.random.default_rng(8)
        gate = GateSpec(BlochAxis(0.9, 0.2), 2.2)
        state = random_qubit_state(rng)
        steps = addressed_steps(gate, ONE_ION, 0, (0.3, -0.2))
        steps = [replace(step, cleanouts=()) for step in steps]
        mc = {"rng": np.random.default_rng(1)} if mode == "mc" else {}
        (branch,) = run_protocol(state, steps, mode, **mc).branches
        assert (branch.flagged, branch.probability, branch.records) == (False, 1.0, ())
        bare = transfer_pass(state.amplitudes[None].copy(), state.space, steps)[0]
        # The kernel normalizes its end state and transfer_pass does not, so
        # they agree to a few units of rounding.
        np.testing.assert_allclose(branch.state.amplitudes, bare, rtol=0, atol=2e-15)


class TestBareSingleQubit:
    @staticmethod
    def overlap_oracle(d1, d2, big_theta, c_plus, c_minus):
        # Hand-derived overlap of the bare two-transfer output with the
        # ideal output; aux components never contribute.
        kappa = (
            abs(c_plus) ** 2 * np.exp(1j * big_theta / 2)
            + abs(c_minus) ** 2 * np.exp(-1j * big_theta / 2)
        )
        return math.cos(d1 / 2) * math.cos(d2 / 2) + math.sin(d1 / 2) * math.sin(
            d2 / 2
        ) * kappa

    def test_error_free(self):
        rng = np.random.default_rng(6)
        state = random_qubit_state(rng)
        _, fid = bare_single_qubit(state, GateSpec(BlochAxis(1.0, 1.0), 1.0), 0.0)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_matches_overlap_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            axis = random_axis(rng)
            big_theta = rng.uniform(-2 * math.pi, 2 * math.pi)
            spec = GateSpec(axis, big_theta)
            state = random_qubit_state(rng)
            plus, minus = plus_minus_n_vectors(axis)
            c_plus = np.vdot(plus, state.amplitudes[:2])
            c_minus = np.vdot(minus, state.amplitudes[:2])
            d1, d2 = rng.uniform(-0.6, 0.6, size=2)
            _, fid = bare_single_qubit(state, spec, (d1, d2))
            expected = abs(self.overlap_oracle(d1, d2, big_theta, c_plus, c_minus)) ** 2
            assert fid == pytest.approx(expected, abs=1e-12)

    def test_quadratic_scaling(self):
        spec = GateSpec(BlochAxis(math.pi / 2, 0.0), math.pi / 2)
        state = make_state(StateSpace(1), [(0, 1.0), (1, 1.0)])
        deltas = np.logspace(-3, -1.5, 8)
        infids = []
        for d in deltas:
            _, fid = bare_single_qubit(state, spec, (d, d))
            infids.append(1.0 - fid)
        slope = np.polyfit(np.log(deltas), np.log(infids), 1)[0]
        assert abs(slope - 2.0) < 0.05

    def test_opposite_sign_errors_cancel_for_large_rotations(self):
        # For rotations beyond pi the cross term flips sign and opposite
        # per-transfer errors leave a smaller residual than equal ones.
        spec = GateSpec(BlochAxis(math.pi / 2, 0.0), 3 * math.pi / 2)
        plus, _ = plus_minus_n_vectors(spec.axis)
        state = make_state(StateSpace(1), [(0, plus[0]), (1, plus[1])])
        d = 0.3
        _, fid_equal = bare_single_qubit(state, spec, (d, d))
        _, fid_opposite = bare_single_qubit(state, spec, (d, -d))
        assert fid_opposite > fid_equal
        assert fid_equal == pytest.approx(
            abs(self.overlap_oracle(d, d, spec.theta_gate, 1.0, 0.0)) ** 2, abs=1e-12
        )

    def test_scalar_error_broadcasts(self):
        rng = np.random.default_rng(8)
        state = random_qubit_state(rng)
        spec = GateSpec(BlochAxis(0.3, 0.0), 0.5)
        _, fid_scalar = bare_single_qubit(state, spec, 0.2)
        _, fid_pair = bare_single_qubit(state, spec, (0.2, 0.2))
        assert fid_scalar == fid_pair


class TestIdealCz:
    def test_matrix(self):
        np.testing.assert_allclose(ideal_cz(), np.diag([1, 1, 1, -1]), atol=0)

    def test_output_sign_flip(self):
        space = cz_space(2)
        gg = basis_state(space, [IonLevel.Q0, IonLevel.Q0])
        ee = basis_state(space, [IonLevel.Q1, IonLevel.Q1])
        np.testing.assert_array_equal(ideal_cz_output(gg).amplitudes, gg.amplitudes)
        np.testing.assert_array_equal(ideal_cz_output(ee).amplitudes, -ee.amplitudes)

    def test_bell_linearity(self):
        space = cz_space(2)
        bell = make_state(space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 1.0)])
        out = ideal_cz_output(bell)
        expected = make_state(
            space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), -1.0)]
        )
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-12)


def random_two_qubit_input(rng, space):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    entries = [
        (space.index([IonLevel.Q0, IonLevel.Q0], 0), c[0]),
        (space.index([IonLevel.Q0, IonLevel.Q1], 0), c[1]),
        (space.index([IonLevel.Q1, IonLevel.Q0], 0), c[2]),
        (space.index([IonLevel.Q1, IonLevel.Q1], 0), c[3]),
    ]
    return make_state(space, entries), c


class TestCertifiedCz:
    def test_identity_on_gg(self):
        space = cz_space()
        state = basis_state(space, [IonLevel.Q0, IonLevel.Q0])
        out = certified_cz(state, (0, 0, 0, 0))
        branch = out.branches[0]
        assert branch.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(branch.state.amplitudes, state.amplitudes, atol=1e-12)

    def test_bell_sign_flip(self):
        space = cz_space()
        bell = make_state(space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 1.0)])
        out = certified_cz(bell, (0, 0, 0, 0))
        survivor = no_flag_branch(out)
        expected = make_state(
            space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), -1.0)]
        )
        assert fidelity_up_to_global_phase(survivor.state, expected) > 1 - 1e-12

    def test_equal_error_product_formula(self):
        rng = np.random.default_rng(11)
        space = cz_space()
        state, _ = random_two_qubit_input(rng, space)
        d = 0.22
        out = certified_cz(state, (d, d, d, d))
        survivor = no_flag_branch(out)
        assert survivor.probability == pytest.approx(
            (1 - math.sin(d / 2) ** 2) ** 4, abs=1e-10
        )
        ideal = ideal_cz_output(state)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_distinct_errors_certification(self):
        rng = np.random.default_rng(12)
        space = cz_space()
        for _ in range(10):
            state, _ = random_two_qubit_input(rng, space)
            errors = tuple(rng.uniform(-0.5, 0.5, size=4))
            out = certified_cz(state, errors, selectivity=0.97)
            survivor = no_flag_branch(out)
            ideal = ideal_cz_output(state)
            assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10
            expected = 0.97**6 * no_flag_probability_product(errors)
            assert survivor.probability == pytest.approx(expected, abs=1e-10)

    def test_motion_returns_to_ground(self):
        rng = np.random.default_rng(13)
        space = cz_space()
        state, _ = random_two_qubit_input(rng, space)
        out = certified_cz(state, (0.3, -0.2, 0.1, 0.4))
        survivor = no_flag_branch(out)
        amps = survivor.state.amplitudes.reshape(-1, space.fock_dim)
        excited = float(np.sum(np.abs(amps[:, 1:]) ** 2))
        assert excited < 1e-12

    def test_second_transfer_error_form(self):
        # After transfer 2 the pre-clean-out state overlaps the previous
        # no-flag state with amplitude -sin(d2/2).
        rng = np.random.default_rng(14)
        space = cz_space()
        state, _ = random_two_qubit_input(rng, space)
        d2 = 0.37
        out1 = certified_cz(state, (0.0, d2, 0.0, 0.0), keep_intermediate=True)
        psi1 = out1.intermediate_states[0]
        steps = cz_steps((0.0, d2, 0.0, 0.0), 1.0, space)
        phi2 = psi1
        from heraldsim.statespace import _apply_matrix

        for u, targets in steps[1].unitaries:
            phi2 = _apply_matrix(phi2, u[0], targets)
        assert overlap(psi1, phi2) == pytest.approx(-math.sin(d2 / 2), abs=1e-12)

    def test_input_validation(self):
        space = cz_space()
        aux = basis_state(space, [IonLevel.AUX_PLUS, IonLevel.Q0])
        with pytest.raises(ValueError):
            certified_cz(aux, (0, 0, 0, 0))
        excited_motion = basis_state(space, [IonLevel.Q0, IonLevel.Q0], fock=1)
        with pytest.raises(ValueError):
            certified_cz(excited_motion, (0, 0, 0, 0))
        small = basis_state(cz_space(1), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError) as err:
            certified_cz(small, (0, 0, 0, 0))
        # The one rule the config check also raises.
        assert str(err.value) == cz_problem(2, 1)
        assert "headroom" in str(err.value)
        ok = basis_state(space, [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            certified_cz(ok, (0, 0))
        one_ion = basis_state(StateSpace(1, 3), [IonLevel.Q0])
        with pytest.raises(ValueError, match="expects two ions and a motional mode"):
            certified_cz(one_ion, (0, 0, 0, 0))

    def test_leak_monitor_fires_on_cutoff_population(self):
        space = StateSpace(1, 2)
        state = basis_state(space, [IonLevel.Q0], fock=2)
        step = _Step((), ())
        with pytest.raises(LeakageError):
            run_protocol(state, [step], monitor_top_fock=True)


class TestCertifiedAddressed:
    def test_no_crosstalk_reduces_to_single(self):
        rng = np.random.default_rng(20)
        spec = GateSpec(BlochAxis(0.8, 0.3), 1.9)
        chain = make_state(StateSpace(2), [(0, 0.6), (1, 0.8j)])
        out = certified_addressed_gate(
            chain, 0, spec, CrosstalkProfile((1.0, 0.0)), (0.2, 0.1)
        )
        survivor = no_flag_branch(out)
        assert survivor.probability == pytest.approx(
            no_flag_probability_product([0.2, 0.1]), abs=1e-12
        )
        ideal = ideal_addressed_output(chain, 0, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_neighbor_herald_rate(self):
        spec = GateSpec(BlochAxis(0.8, 0.3), 1.9)
        chain = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        r = 0.1
        out = certified_addressed_gate(
            chain, 0, spec, CrosstalkProfile((1.0, r)), (0.0, 0.0)
        )
        rates = step_flag_rates(out)
        p = math.sin(r * math.pi / 2) ** 2
        assert rates[(0, 1)] == pytest.approx(p, abs=1e-12)
        assert rates[(1, 1)] == pytest.approx(p, abs=1e-12)
        assert rates[(0, 0)] == pytest.approx(0.0, abs=1e-12)
        survivor = no_flag_branch(out)
        ideal = ideal_addressed_output(chain, 0, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_neighbor_superposition_restored(self):
        rng = np.random.default_rng(21)
        spec = GateSpec(BlochAxis(1.3, 4.0), 2.6)
        space = StateSpace(3)
        per_ion = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        entries = []
        for b0 in range(2):
            for b1 in range(2):
                for b2 in range(2):
                    amp = per_ion[0][b0] * per_ion[1][b1] * per_ion[2][b2]
                    entries.append((space.index([b0, b1, b2]), amp))
        chain = make_state(space, entries)
        out = certified_addressed_gate(
            chain, 1, spec, CrosstalkProfile((0.15, 1.0, 0.08)), (0.1, -0.2)
        )
        survivor = no_flag_branch(out)
        ideal = ideal_addressed_output(chain, 1, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_entangled_chain_certified(self):
        spec = GateSpec(BlochAxis(2.1, 1.0), 0.8)
        space = StateSpace(2)
        chain = make_state(space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 1.0)])
        out = certified_addressed_gate(
            chain, 0, spec, CrosstalkProfile((1.0, 0.2)), (0.15, 0.1)
        )
        survivor = no_flag_branch(out)
        ideal = ideal_addressed_output(chain, 0, spec)
        assert fidelity_up_to_global_phase(survivor.state, ideal) > 1 - 1e-10

    def test_validation(self):
        spec = GateSpec(BlochAxis(0.5, 0.0), 1.0)
        chain = basis_state(StateSpace(2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError):
            certified_addressed_gate(
                chain, 2, spec, CrosstalkProfile((1.0, 0.1)), (0, 0)
            )
        with pytest.raises(ValueError):
            certified_addressed_gate(
                chain, 0, spec, CrosstalkProfile((0.9, 0.1)), (0, 0)
            )
        with pytest.raises(ValueError):
            certified_addressed_gate(
                chain, 0, spec, CrosstalkProfile((1.0,)), (0, 0)
            )
        with pytest.raises(ValueError):
            CrosstalkProfile((1.0, 1.2))
        with pytest.raises(ValueError, match="neighbor 1 crosstalk ratio must be < 1"):
            certified_addressed_gate(chain, 0, spec, CrosstalkProfile((1.0, 1.0)), (0, 0))
        with_motion = basis_state(StateSpace(2, 2), [IonLevel.Q0, IonLevel.Q0])
        with pytest.raises(ValueError, match="chains without a motional mode"):
            certified_addressed_gate(
                with_motion, 0, spec, CrosstalkProfile((1.0, 0.1)), (0, 0)
            )


class TestBrightIrreversibility:
    # Structural check: no pulse matrix couples any ion's Bright sink to
    # the rest of its space, so flagged population can never re-enter.

    @staticmethod
    def factors(u, targets):
        """The (matrix, targets) pairs one trajectory's operator applies:
        each 5x5 factor of a chain transfer on its own ion, or a sideband
        transfer's dense matrix on its ion and the motional mode. A step
        holds one operator per row, and ``u[0]`` is the trajectory's."""
        u = u[0]
        if isinstance(u, IonProduct):
            assert targets == tuple(range(u.factors.shape[0]))
            return [(f, (j,)) for j, f in enumerate(u.factors)]
        return [(np.asarray(u), targets)]

    @classmethod
    def assert_bright_decoupled(cls, steps, space):
        # Each factor drives one ion, optionally with the motional mode, and
        # is indexed level-major over its targets.
        dims = space.factor_dims
        for step in steps:
            for op, op_targets in step.unitaries:
                for u, targets in cls.factors(op, op_targets):
                    assert len(targets) < len(dims)
                    ion = targets[0]
                    assert ion < space.n_ions
                    inner = math.prod(dims[t] for t in targets[1:])
                    assert u.shape == (N_LEVELS * inner,) * 2
                    bright = np.arange(u.shape[0]) // inner == IonLevel.BRIGHT
                    assert np.max(np.abs(u[np.ix_(bright, ~bright)])) == 0.0
                    assert np.max(np.abs(u[np.ix_(~bright, bright)])) == 0.0

    def test_single_qubit_steps(self):
        from heraldsim.protocols import single_qubit_steps

        spec = GateSpec(BlochAxis(1.0, 0.7), 2.2)
        steps = single_qubit_steps(spec, (0.3, -0.2))
        for step in steps:
            for op, targets in step.unitaries:
                ((u, _),) = self.factors(op, targets)
                mask = np.zeros(5, dtype=bool)
                mask[IonLevel.BRIGHT] = True
                assert np.max(np.abs(u[np.ix_(mask, ~mask)])) == 0.0
                assert np.max(np.abs(u[np.ix_(~mask, mask)])) == 0.0

    def test_cz_steps(self):
        space = cz_space()
        self.assert_bright_decoupled(cz_steps((0.1, 0.2, -0.3, 0.4), 1.0, space), space)

    def test_addressed_steps(self):
        from heraldsim.protocols import addressed_steps

        spec = GateSpec(BlochAxis(0.5, 0.1), 1.0)
        space = StateSpace(3)
        steps = addressed_steps(spec, CrosstalkProfile((0.2, 1.0, 0.1)), 1, (0.1, 0.2))
        self.assert_bright_decoupled(steps, space)


class TestOutcomeHelpers:
    def test_flag_probability_and_sorting(self):
        rng = np.random.default_rng(30)
        state = random_qubit_state(rng)
        out = certified_single_qubit(
            state, GateSpec(BlochAxis(1.0, 1.0), 1.0), (0.4, 0.3), selectivity=0.9
        )
        survivor = no_flag_branch(out)
        assert flag_probability(out) == pytest.approx(
            1.0 - survivor.probability, abs=1e-12
        )

    def test_all_flagged_outcome(self):
        # Area error of pi empties the survivor branch entirely.
        state = basis_state(StateSpace(1), [IonLevel.Q0])
        delta = math.pi - 1e-6
        out = certified_single_qubit(
            state, GateSpec(BlochAxis(0.0, 0.0), 0.0), (delta, 0.0)
        )
        assert no_flag_branch(out) is not None  # tiny survivor remains
        state2 = basis_state(StateSpace(1), [IonLevel.Q0])
        out2 = certified_single_qubit(
            state2, GateSpec(BlochAxis(0.0, 0.0), 0.0), (math.pi, 0.0)
        )
        assert no_flag_branch(out2) is None
        assert flag_probability(out2) == pytest.approx(1.0, abs=1e-12)

    def test_branch_flagged_property(self):
        rec = HeraldRecord(0, 0, True, 0.1)
        assert Branch(None, 0.1, (rec,)).flagged
        rec2 = HeraldRecord(0, 0, False, 0.9)
        assert not Branch(None, 0.9, (rec2,)).flagged
