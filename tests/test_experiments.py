import concurrent.futures
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from heraldsim import experiments
from heraldsim.config import parse_config
from heraldsim.experiments import (
    CertifiedVsBare,
    ConfigError,
    EnsembleStatistics,
    ExperimentSpec,
    InputSpec,
    worker_processes,
    compare_certified_vs_bare,
    enumerate_trajectory,
    herald_probability_analytic,
    prepare_input,
    run_ensemble,
    sweep,
)
from heraldsim.noise import AmplitudeErrorModel
from heraldsim.protocols import (
    CrosstalkProfile,
    GateSpec,
    certified_addressed_gate,
    cleanout_sites,
    ideal_addressed_output,
    no_flag_branch,
)
from heraldsim.statespace import (
    BlochAxis,
    IonLevel,
    StateSpace,
    fidelity_up_to_global_phase,
    make_state,
    plus_minus_n_vectors,
)


GATE = GateSpec(BlochAxis(1.0471975511965976, 0.5), 2.1)


def single_spec(**overrides):
    base = dict(
        protocol="single",
        error_model=AmplitudeErrorModel.constant(0.2),
        input_state=InputSpec("plus_n"),
        trials=200,
        master_seed=11,
        gate=GATE,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestHeraldFormula:
    def test_zero_errors(self):
        assert herald_probability_analytic([0.0, 0.0]) == 0.0

    def test_two_step_value(self):
        expected = 1 - (1 - math.sin(0.1) ** 2) * (1 - math.sin(0.05) ** 2)
        assert herald_probability_analytic([0.2, 0.1]) == pytest.approx(
            expected, abs=1e-15
        )

    def test_four_step_matches_cz_enumeration(self):
        d = 0.15
        spec = ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.constant(d),
            input_state=InputSpec("bell"),
            trials=1,
            master_seed=0,
        )
        outcome = enumerate_trajectory(spec)
        enumerated = sum(b.probability for b in outcome.branches if b.flagged)
        assert herald_probability_analytic([d] * 4) == pytest.approx(
            enumerated, abs=1e-10
        )

    def test_matches_enumeration_for_every_protocol(self):
        # Constant shared-area error: the analytic product formula equals
        # the enumerated flag probability of the addressed ion's transfers.
        d = 0.21
        single = single_spec(error_model=AmplitudeErrorModel.constant(d), trials=1)
        out = enumerate_trajectory(single)
        flagged = sum(b.probability for b in out.branches if b.flagged)
        assert flagged == pytest.approx(herald_probability_analytic([d, d]), abs=1e-10)
        addressing = ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.constant(d),
            input_state=InputSpec("basis", "00"),
            trials=1,
            master_seed=0,
            gate=GATE,
            crosstalk=(1.0, 0.1),
        )
        stats = run_ensemble(addressing)
        target_survival = (1 - stats.step_flag_rates[(0, 0)]) * (
            1 - stats.step_flag_rates[(1, 0)]
        )
        assert 1 - target_survival == pytest.approx(
            herald_probability_analytic([d, d]), abs=1e-10
        )


class TestRegisterSize:
    # Six ions (dim 15 625) need per-factor operators: one full-register
    # step matrix would take ~3.9 GB.
    CROSSTALK = (0.02, 0.05, 1.0, 0.1, 0.05, 0.02)

    def spec(self, **overrides):
        base = dict(
            protocol="addressing",
            error_model=AmplitudeErrorModel.gaussian_iid(0.05),
            input_state=InputSpec("basis", "0+1-+0"),
            trials=20,
            master_seed=6,
            gate=GATE,
            crosstalk=self.CROSSTALK,
            target=2,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_six_ion_chain(self):
        chain = prepare_input(self.spec())
        assert chain.space.dim == 15_625
        out = certified_addressed_gate(
            chain, 2, GATE, CrosstalkProfile(self.CROSSTALK), (0.3, -0.2)
        )
        survivor = no_flag_branch(out)
        ideal = ideal_addressed_output(chain, 2, GATE)
        assert fidelity_up_to_global_phase(survivor.state, ideal) >= 1 - 1e-10
        assert sum(b.probability for b in out.branches) == pytest.approx(1.0, abs=1e-12)
        stats = run_ensemble(self.spec(mode="mc"))
        assert stats.conditional_fidelity >= 1 - 1e-9


class TestPrepareInput:
    def test_single_basis(self):
        state = prepare_input(single_spec(input_state=InputSpec("basis", "1")))
        assert state.amplitudes[IonLevel.Q1] == 1.0

    def test_plus_n_uses_gate_axis(self):
        state = prepare_input(single_spec())
        half = GATE.axis.theta / 2
        assert state.amplitudes[0] == pytest.approx(math.cos(half), abs=1e-12)

    def test_bell(self):
        spec = ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("bell"),
            trials=1,
            master_seed=0,
        )
        state = prepare_input(spec)
        space = state.space
        r = 1 / math.sqrt(2)
        assert state.amplitudes[space.index([0, 0])] == pytest.approx(r, abs=1e-12)
        assert state.amplitudes[space.index([1, 1])] == pytest.approx(r, abs=1e-12)

    def test_cz_basis_labels(self):
        spec = ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("basis", "eg"),
            trials=1,
            master_seed=0,
        )
        state = prepare_input(spec)
        assert state.amplitudes[state.space.index([IonLevel.Q1, IonLevel.Q0])] == 1.0

    def test_explicit_amplitudes(self):
        amps = (0.5, 0.5j, -0.5, 0.5)
        spec = ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("amplitudes", amplitudes=amps),
            trials=1,
            master_seed=0,
        )
        state = prepare_input(spec)
        space = state.space
        assert state.amplitudes[space.index([0, 1])] == pytest.approx(0.5j, abs=1e-12)

    def test_addressing_product_labels(self):
        spec = ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("basis", "0+"),
            trials=1,
            master_seed=0,
            gate=GATE,
            crosstalk=(1.0, 0.1),
        )
        state = prepare_input(spec)
        space = state.space
        r = 1 / math.sqrt(2)
        assert state.amplitudes[space.index([0, 0])] == pytest.approx(r, abs=1e-12)
        assert state.amplitudes[space.index([0, 1])] == pytest.approx(r, abs=1e-12)

    @staticmethod
    def label_loop(space, per_ion):
        """The product state built label by label in Python, ion 0's qubit
        level the most significant bit."""
        entries = []
        for bits in np.ndindex(*(2,) * space.n_ions):
            amp = 1.0 + 0.0j
            for ion, b in enumerate(bits):
                amp *= per_ion[ion][b]
            if amp != 0.0:
                entries.append((space.index([IonLevel(b) for b in bits]), amp))
        return make_state(space, entries)

    def test_inputs_equal_the_label_loop(self):
        # Byte for byte, signed zeros included.
        rng = np.random.default_rng(12)
        chars = experiments._QUBIT_CHARS
        for n_ions in range(1, 6):
            ratios = tuple(1.0 if j == 0 else 0.1 for j in range(n_ions))
            label = "".join(rng.choice(list(chars), n_ions))
            gate = GateSpec(BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 6.28)), 1.0)
            amps = tuple(complex(*rng.normal(size=2)) for _ in range(2**n_ions))
            plus, _ = plus_minus_n_vectors(gate.axis)
            cases = (
                (InputSpec("plus_n"), [(plus[0], plus[1])] * n_ions),
                (InputSpec("basis", label), [chars[c] for c in label]),
                (InputSpec("amplitudes", amplitudes=amps), None),
            )
            for inp, per_ion in cases:
                spec = ExperimentSpec(
                    protocol="addressing",
                    error_model=AmplitudeErrorModel.constant(0.0),
                    input_state=inp,
                    trials=1,
                    master_seed=0,
                    gate=gate,
                    crosstalk=ratios,
                )
                state = prepare_input(spec)
                if per_ion is None:
                    bits = [np.unravel_index(k, (2,) * n_ions) for k in range(2**n_ions)]
                    labels = [state.space.index([IonLevel(b) for b in k]) for k in bits]
                    want = make_state(state.space, zip(labels, amps))
                else:
                    want = self.label_loop(state.space, per_ion)
                assert state.amplitudes.tobytes() == want.amplitudes.tobytes(), (n_ions, inp)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            prepare_input(single_spec(input_state=InputSpec("basis", "2")))

    def test_wrong_amplitude_count(self):
        with pytest.raises(ValueError):
            prepare_input(
                single_spec(input_state=InputSpec("amplitudes", amplitudes=(1.0,)))
            )

    @pytest.mark.parametrize(
        "amps", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0), (1e200, 0.0), (1e-170, 0.0)]
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_amplitudes_whose_squared_norm_leaves_float_range(self, amps):
        # The state is normalized by its squared norm, so one that overflows
        # or underflows to 0 is refused with the zero and non-finite ones.
        with pytest.raises(ConfigError) as err:
            single_spec(input_state=InputSpec("amplitudes", amplitudes=amps))
        assert err.value.path == "$.input_state"
        with pytest.raises(ValueError):
            make_state(StateSpace(1), enumerate(amps))


class TestRunEnsemble:
    def test_error_free(self):
        stats = run_ensemble(
            single_spec(error_model=AmplitudeErrorModel.constant(0.0), trials=50)
        )
        assert stats.herald_rate == 0.0
        assert stats.conditional_fidelity == pytest.approx(1.0, abs=1e-12)
        assert stats.n_unflagged == 50

    def test_branch_mode_exact_rate(self):
        stats = run_ensemble(single_spec())
        expected = herald_probability_analytic([0.2, 0.2])
        assert stats.herald_rate == pytest.approx(expected, abs=1e-12)
        assert stats.herald_rate_se == pytest.approx(0.0, abs=1e-15)

    def test_mc_rate_within_three_sigma(self):
        n = 20_000
        stats = run_ensemble(single_spec(mode="mc", trials=n))
        expected = herald_probability_analytic([0.2, 0.2])
        sigma = math.sqrt(expected * (1 - expected) / n)
        # For a random seed this fails with probability 2.8e-3: with s = 1 the
        # flag count is binomial(n, expected), and its exact two-sided tail at
        # 3 sigma is that. The Wilson interval always holds the rate.
        assert abs(stats.herald_rate - expected) < 3 * sigma
        lo, hi = stats.wilson_interval
        assert lo <= stats.herald_rate <= hi

    def test_gaussian_draws_keep_conditional_fidelity_exact(self):
        stats = run_ensemble(
            single_spec(
                error_model=AmplitudeErrorModel.gaussian_iid(0.1),
                trials=300,
                mode="branch",
            )
        )
        assert stats.conditional_fidelity == pytest.approx(1.0, abs=1e-10)
        assert stats.rms_error > 0.0

    def test_deterministic_given_spec(self):
        spec = single_spec(error_model=AmplitudeErrorModel.gaussian_iid(0.05), mode="mc")
        assert run_ensemble(spec) == run_ensemble(spec)

    def test_worker_count_invariance(self):
        spec = single_spec(
            error_model=AmplitudeErrorModel.random_walk(0.02, 0.1),
            trials=300,
            mode="mc",
        )
        assert run_ensemble(spec, workers=1) == run_ensemble(spec, workers=3)

    def test_undefined_conditional_fidelity_marker(self):
        stats = run_ensemble(
            single_spec(error_model=AmplitudeErrorModel.constant(math.pi), trials=10)
        )
        assert stats.conditional_fidelity is None
        assert stats.conditional_fidelity_se is None
        assert stats.n_unflagged == 0
        assert stats.clamp_count == 20  # every drawn value hits the clamp

    def test_step_rates_addressing(self):
        spec = ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("basis", "00"),
            trials=40,
            master_seed=4,
            gate=GATE,
            crosstalk=(1.0, 0.2),
        )
        stats = run_ensemble(spec)
        p = math.sin(0.2 * math.pi / 2) ** 2
        assert stats.step_flag_rates[(0, 1)] == pytest.approx(p, abs=1e-12)
        assert stats.step_flag_rates[(1, 1)] == pytest.approx(p, abs=1e-12)

    def test_quadratic_approx_reported(self):
        stats = run_ensemble(single_spec(trials=20))
        # two steps at rms 0.2: 1 - 2*(0.2/2)^2
        assert stats.quadratic_no_flag_approx == pytest.approx(1 - 2 * 0.01, abs=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        spec = single_spec(
            error_model=AmplitudeErrorModel.gaussian_iid(0.07321),
            input_state=InputSpec("amplitudes", amplitudes=(0.6, 0.8j)),
            selectivity=0.953,
        )
        doc = json.loads(json.dumps(spec.to_dict()))
        restored = parse_config(doc, "single").spec
        assert restored == spec
        assert run_ensemble(restored, workers=1) == run_ensemble(spec, workers=1)

    def test_round_trip_addressing(self):
        spec = ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.linear_drift(0.01, 0.002),
            input_state=InputSpec("basis", "00"),
            trials=5,
            master_seed=77,
            gate=GATE,
            crosstalk=(1.0, 0.125),
            target=0,
        )
        doc = json.loads(json.dumps(spec.to_dict()))
        assert parse_config(doc, "addressing").spec == spec

    def test_statistics_to_dict(self):
        stats = run_ensemble(single_spec(trials=10))
        doc = stats.to_dict()
        assert doc["trials"] == 10
        assert isinstance(doc["step_flag_rates"], list)


class TestSweep:
    def test_single_zero_row(self):
        rows = sweep(single_spec(trials=20), "delta_pi", [0.0])
        assert len(rows) == 1
        assert rows[0][1].herald_rate == 0.0

    def test_selectivity_false_positive_rate(self):
        rows = sweep(
            single_spec(error_model=AmplitudeErrorModel.constant(0.0), trials=10),
            "selectivity",
            [1.0, 0.95, 0.9],
        )
        rates = [stats.herald_rate for _, stats in rows]
        assert rates[0] == 0.0
        # with no area error the flag rate is purely false positives: 1 - s^2
        assert rates[1] == pytest.approx(1 - 0.95**2, abs=1e-12)
        assert rates[2] == pytest.approx(1 - 0.9**2, abs=1e-12)
        assert rates == sorted(rates)

    def test_theta_gate_sweep(self):
        rows = sweep(single_spec(trials=5), "theta_gate", [0.5, 1.5])
        assert all(stats.conditional_fidelity > 1 - 1e-10 for _, stats in rows)

    def test_r_neighbor_sweep(self):
        spec = ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("basis", "00"),
            trials=10,
            master_seed=4,
            gate=GATE,
            crosstalk=(1.0, 0.0),
        )
        rows = sweep(spec, "r_neighbor", [0.05, 0.1])
        for r, stats in rows:
            p = math.sin(r * math.pi / 2) ** 2
            expected = 1 - (1 - p) ** 2
            assert stats.herald_rate == pytest.approx(expected, abs=1e-12)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(single_spec(trials=5), "detuning", [0.1])

    def test_points_share_one_pool(self, monkeypatch):
        # A counting stand-in for the process pool, run on threads.
        started, closed = [], []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

            def shutdown(self, *args, **kwargs):
                closed.append(True)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        spec = single_spec(error_model=AmplitudeErrorModel.gaussian_iid(0.1), trials=40)
        values = [0.02, 0.05, 0.1]
        pooled = sweep(spec, "sigma", values, workers=2)
        assert started == [2] and closed == [True]
        assert pooled == sweep(spec, "sigma", values, workers=1)
        assert started == [2]

    def test_quadratic_flag_scaling(self):
        values = np.logspace(-3, -1, 6)
        rows = sweep(single_spec(trials=3), "delta_pi", values)
        rates = np.array([stats.herald_rate for _, stats in rows])
        slope = np.polyfit(np.log(values), np.log(rates), 1)[0]
        assert abs(slope - 2.0) < 0.1


class TestCertifiedVsBare:
    def test_error_free(self):
        result = compare_certified_vs_bare(
            single_spec(error_model=AmplitudeErrorModel.constant(0.0), trials=20)
        )
        assert result.certified_herald_rate == 0.0
        assert result.certified_conditional_infidelity == pytest.approx(0.0, abs=1e-12)
        assert result.bare_unconditional_infidelity == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(result.ratio)

    def test_gaussian_flag_rate_matches_expectation(self):
        sigma = 0.05
        n = 20_000
        spec = single_spec(
            error_model=AmplitudeErrorModel.gaussian_iid(sigma), trials=n, mode="mc"
        )
        result = compare_certified_vs_bare(spec)
        assert result.certified_conditional_infidelity < 1e-10
        # expectation of the two-step flag formula over iid Gaussian errors,
        # by Gauss-Hermite quadrature
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        survive = weights @ (1 - np.sin(sigma * nodes / 2) ** 2) / math.sqrt(2 * math.pi)
        expected = 1 - survive**2
        binom_sigma = math.sqrt(expected * (1 - expected) / n)
        # For a random seed this fails with probability 3.6e-3: every trial
        # flags with probability `expected` over its own draw, so the count is
        # binomial(n, expected); with ~25 flags expected its exact two-sided
        # tail at 3 sigma is skewed above the normal 2.7e-3.
        assert abs(result.certified_herald_rate - expected) < 3 * binom_sigma
        assert result.bare_unconditional_infidelity > 0.0
        assert result.ratio > 0.0

    def test_constant_error_report(self):
        result = compare_certified_vs_bare(single_spec(trials=100, mode="branch"))
        expected_rate = herald_probability_analytic([0.2, 0.2])
        assert result.certified_herald_rate == pytest.approx(expected_rate, abs=1e-12)
        assert isinstance(result, CertifiedVsBare)
        assert set(result.to_dict()) == {
            "certified_herald_rate",
            "certified_conditional_infidelity",
            "bare_unconditional_infidelity",
            "ratio",
        }

    def test_requires_single_protocol(self):
        spec = ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.constant(0.0),
            input_state=InputSpec("bell"),
            trials=5,
            master_seed=0,
        )
        with pytest.raises(ValueError):
            compare_certified_vs_bare(spec)


class TestSpecValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            single_spec(protocol="teleport")

    def test_gate_required(self):
        with pytest.raises(ValueError):
            single_spec(gate=None)

    def test_crosstalk_required_for_addressing(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                protocol="addressing",
                error_model=AmplitudeErrorModel.constant(0.0),
                input_state=InputSpec("basis", "00"),
                trials=5,
                master_seed=0,
                gate=GATE,
            )

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            single_spec(trials=0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("trials", 2.5),
            ("trials", True),
            ("master_seed", 1.5),
            ("master_seed", False),
            ("fock_cutoff", 2.5),
            ("target", 1.0),
            ("target", True),
        ],
    )
    def test_integer_fields_refuse_bools_and_non_integers(self, name, value):
        if name == "fock_cutoff":
            spec = dict(protocol="cz", gate=None, input_state=InputSpec("bell"))
        elif name == "target":
            spec = dict(protocol="addressing", crosstalk=(0.1, 1.0), target=1)
        else:
            spec = {}
        with pytest.raises(ConfigError) as err:
            single_spec(**(spec | {name: value}))
        assert err.value.path == f"$.{name}"
        assert "expected an integer" in str(err.value)

    @pytest.mark.parametrize(
        "overrides,path",
        [
            ({"selectivity": True}, "$.selectivity"),
            ({"selectivity": "0.5"}, "$.selectivity"),
            ({"selectivity": 10**400}, "$.selectivity"),
            ({"protocol": "addressing", "crosstalk": (True, 0.1)}, "$.crosstalk.ratios[0]"),
            ({"protocol": "addressing", "crosstalk": 5}, "$.crosstalk"),
            ({"protocol": "addressing", "crosstalk": "ab"}, "$.crosstalk"),
        ],
    )
    def test_real_fields_refuse_bools_and_non_reals(self, overrides, path):
        with pytest.raises(ConfigError) as err:
            single_spec(**overrides)
        assert err.value.path == path

    def test_real_fields_are_stored_as_floats(self):
        spec = single_spec(
            protocol="addressing", selectivity=1, crosstalk=[np.int64(1), np.float32(0.5)]
        )
        assert type(spec.selectivity) is float and spec.selectivity == 1.0
        assert spec.crosstalk == (1.0, 0.5)
        assert all(type(r) is float for r in spec.crosstalk)

    def test_integer_fields_are_stored_as_plain_ints(self):
        spec = single_spec(trials=np.int64(5), master_seed=np.uint64(2**63 + 1))
        assert type(spec.trials) is int and spec.trials == 5
        assert type(spec.master_seed) is int and spec.master_seed == 2**63 + 1
        assert run_ensemble(spec).to_dict() == run_ensemble(
            single_spec(trials=5, master_seed=2**63 + 1)
        ).to_dict()

    def test_target_only_on_chains(self):
        with pytest.raises(ConfigError) as err:
            single_spec(target=1)
        assert err.value.path == "$.target"

    @pytest.mark.parametrize("protocol", ["single", "addressing"])
    @pytest.mark.parametrize("fock_cutoff", [0, 2, 5])
    def test_fock_cutoff_only_on_cz(self, protocol, fock_cutoff):
        # Only cz has a motional mode, so any other cutoff would do nothing.
        chain = {"crosstalk": (1.0, 0.1)} if protocol == "addressing" else {}
        with pytest.raises(ConfigError) as err:
            single_spec(protocol=protocol, fock_cutoff=fock_cutoff, **chain)
        assert err.value.path == "$.fock_cutoff"
        assert "cz protocol only" in str(err.value)
        # The default is accepted, passed explicitly or not.
        single_spec(protocol=protocol, fock_cutoff=3, **chain)

    def test_memory_guard_boundary(self):
        # Construction allocates nothing, so oversize specs are cheap to try.
        def chain(n_ions):
            return ExperimentSpec(
                protocol="addressing",
                error_model=AmplitudeErrorModel.gaussian_iid(0.05),
                input_state=InputSpec("plus_n"),
                trials=1,
                master_seed=0,
                gate=GATE,
                crosstalk=(1.0,) + (0.1,) * (n_ions - 1),
            )

        def cz(fock_cutoff):
            return ExperimentSpec(
                protocol="cz",
                error_model=AmplitudeErrorModel.gaussian_iid(0.05),
                input_state=InputSpec("bell"),
                trials=1,
                master_seed=0,
                fock_cutoff=fock_cutoff,
            )

        chain(11)
        cz(553290)
        with pytest.raises(ConfigError) as err:
            chain(12)
        assert err.value.path == "$.crosstalk.ratios"
        with pytest.raises(ConfigError) as err:
            cz(553291)
        assert err.value.path == "$.fock_cutoff"

    def test_trials_memory_boundary(self):
        # A one-ion run: 68 052 064 B of blocks and process, and 182 B per
        # trajectory of columns, their join and the reduction's temporaries.
        spec = single_spec(trials=11_425_448)
        assert experiments._trajectory_bytes(spec, StateSpace(1)) == 182
        with pytest.raises(ConfigError) as err:
            single_spec(trials=11_425_449)
        assert err.value.path == "$.trials"
        # Two processes hold the same columns between them, and two blocks.
        assert worker_processes(single_spec(trials=11_051_535), 2) == 2
        with pytest.raises(ConfigError) as err:
            worker_processes(single_spec(trials=11_051_536), 2)
        assert err.value.path == "$.trials"

    def test_public_input_memory_boundary(self, monkeypatch):
        # prepare_input builds the five-level vector and a copy of it, two
        # at once: 2 * 16 * 5**n bytes for an n-ion chain. An 11-ion chain
        # (1.46 GiB) fits the budget; one ion more would pass it, and the
        # runner refuses that chain already. The budget is lowered after the
        # specs are built, so nothing large is allocated.
        chains = {
            n: single_spec(protocol="addressing", crosstalk=(1.0,) + (0.1,) * (n - 1))
            for n in (3, 4)
        }
        cz = single_spec(protocol="cz", gate=None, input_state=InputSpec("bell"))
        assert 2 * 16 * 5**11 <= experiments.MEMORY_BUDGET < 2 * 16 * 5**12
        monkeypatch.setattr(experiments, "MEMORY_BUDGET", 2 * 16 * 5**4)
        assert prepare_input(chains[4]).space == StateSpace(4)
        monkeypatch.setattr(experiments, "MEMORY_BUDGET", 2 * 16 * 5**4 - 1)
        assert prepare_input(chains[3]).space == StateSpace(3)
        with pytest.raises(ConfigError, match="five-level input") as err:
            prepare_input(chains[4])
        assert err.value.path == "$.crosstalk.ratios"
        monkeypatch.setattr(experiments, "MEMORY_BUDGET", 2 * 16 * 25 * 4 - 1)
        with pytest.raises(ConfigError) as err:
            prepare_input(cz)
        assert err.value.path == "$.fock_cutoff"

    @pytest.mark.parametrize(
        "protocol,extra",
        [("single", {}), ("cz", {"gate": None, "input_state": InputSpec("bell")}),
         ("addressing", {"crosstalk": (0.1, 1.0, 0.1), "target": 1})],
    )
    def test_trajectory_bytes_count_the_runner_columns(self, protocol, extra):
        # One probability per clean-out the builder makes.
        spec = single_spec(protocol=protocol, **extra)
        space = experiments._space_for(spec)
        n_cleanouts = len(cleanout_sites(experiments._block_builder(spec).cleanouts))
        columns = experiments._run_rows(replace(spec, trials=3), 1)
        row = sum(col.nbytes for col in columns[1:-1]) // 3  # the bare column is empty
        assert row == 41 + 8 * n_cleanouts
        assert experiments._trajectory_bytes(spec, space) == 2 * row + 10 * n_cleanouts + 48


class TestWorkerGuard:
    """The memory budget counts every process a run starts."""

    def chain(self, trials):
        return ExperimentSpec(
            protocol="addressing",
            error_model=AmplitudeErrorModel.gaussian_iid(0.05),
            input_state=InputSpec("plus_n"),
            trials=trials,
            master_seed=0,
            gate=GATE,
            crosstalk=(1.0,) + (0.1,) * 10,
        )

    def test_eleven_ion_chain_fits_two_processes(self):
        # Checking allocates nothing, so oversize runs are cheap to try.
        assert worker_processes(self.chain(4), 2) == 2
        assert worker_processes(self.chain(5), 3) == 1  # too few trials to split
        with pytest.raises(ConfigError) as err:
            worker_processes(self.chain(6), 3)
        assert err.value.path == "--workers"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ConfigError) as err:
            run_ensemble(single_spec(), workers)
        assert err.value.path == "--workers"

    def test_refused_before_a_pool_starts(self, monkeypatch):
        # A one-ion run is estimated at a little over 64 MiB per process.
        monkeypatch.setattr(experiments, "MEMORY_BUDGET", 100 * 2**20)
        spec = single_spec(trials=8)
        run_ensemble(spec, workers=1)
        run_ensemble(replace(spec, trials=3), workers=2)
        for run in (
            lambda: run_ensemble(spec, 2),
            lambda: sweep(spec, "sigma", [0.1], 2),
            lambda: compare_certified_vs_bare(spec, 2),
        ):
            with pytest.raises(ConfigError) as err:
                run()
            assert err.value.path == "--workers"


@pytest.mark.parametrize(
    "build",
    [
        lambda: BlochAxis(True, 0.0),
        lambda: BlochAxis(0.5, True),
        lambda: BlochAxis("1", 0.0),
        lambda: BlochAxis(0.5, None),
        lambda: GateSpec(BlochAxis(0.5, 0.0), True),
        lambda: GateSpec(BlochAxis(0.5, 0.0), "1.0"),
        lambda: AmplitudeErrorModel.constant(True),
        lambda: AmplitudeErrorModel.gaussian_iid(True),
        lambda: AmplitudeErrorModel.linear_drift(0.1, False),
        lambda: AmplitudeErrorModel.random_walk("0.1"),
        lambda: AmplitudeErrorModel("constant", value=0.1j),
    ],
)
def test_value_objects_refuse_bools_and_non_reals(build):
    # A spec built over such an object would echo a config that
    # parse_config refuses.
    with pytest.raises(ValueError, match="must be a real number"):
        build()


def test_value_objects_keep_real_numbers_as_given():
    assert BlochAxis(1, np.float64(0.5)).theta == 1
    assert GateSpec(BlochAxis(0.5), np.int64(2)).theta_gate == 2
    assert AmplitudeErrorModel.constant(0).to_dict() == {"kind": "constant", "delta_pi": 0}
