import json
import math

import pytest

from heraldsim.config import (
    ConfigError,
    format_float,
    load_config,
    parse_config,
)


def base_single(**extra):
    doc = {
        "protocol": "single",
        "gate": {"theta": 1.0, "phi": 0.25, "theta_gate": 2.0},
        "error_model": {"kind": "constant", "delta_pi": 0.2},
        "trials": 10,
        "master_seed": 7,
    }
    doc.update(extra)
    return doc


class TestLoad:
    def test_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"protocol": "single",\n  "trials": }')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestParse:
    def test_valid_single(self):
        resolved = parse_config(base_single(), "single")
        spec = resolved.spec
        assert spec.protocol == "single"
        assert spec.trials == 10
        assert spec.master_seed == 7
        assert spec.gate.theta_gate == 2.0
        assert spec.input_state.kind == "basis"
        assert resolved.output.prefix == "single"

    def test_unknown_key_named(self):
        doc = base_single()
        doc["error_model"] = {"kind": "constant", "delta_pii": 0.2}
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "single")
        assert "delta_pii" in str(err.value)
        assert "$.error_model.delta_pii" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(base_single(tirals=5), "single")
        assert "tirals" in str(err.value)

    def test_missing_required(self):
        doc = base_single()
        del doc["trials"]
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "single")
        assert "trials" in str(err.value)

    def test_type_error_with_path(self):
        doc = base_single()
        doc["trials"] = "many"
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "single")
        assert "$.trials" in str(err.value)

    def test_bool_not_accepted_as_int(self):
        doc = base_single()
        doc["trials"] = True
        with pytest.raises(ConfigError):
            parse_config(doc, "single")

    def test_protocol_command_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config(base_single(), "cz")
        assert "$.protocol" in str(err.value)

    def test_protocol_inferred_from_command(self):
        doc = base_single()
        del doc["protocol"]
        resolved = parse_config(doc, "single")
        assert resolved.spec.protocol == "single"

    def test_gate_forbidden_for_cz(self):
        doc = {
            "protocol": "cz",
            "gate": {"theta": 1.0, "theta_gate": 2.0},
            "error_model": {"kind": "constant", "delta_pi": 0.0},
            "trials": 1,
            "master_seed": 0,
        }
        with pytest.raises(ConfigError):
            parse_config(doc, "cz")

    def test_cz_cutoff_diagnostic(self):
        doc = {
            "protocol": "cz",
            "error_model": {"kind": "constant", "delta_pi": 0.0},
            "trials": 1,
            "master_seed": 0,
            "fock_cutoff": 1,
        }
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "cz")
        assert "fock_cutoff" in str(err.value)
        assert "headroom" in str(err.value)

    def test_addressing_requires_crosstalk(self):
        doc = base_single(protocol="addressing")
        with pytest.raises(ConfigError):
            parse_config(doc, "addressing")

    def test_addressing_target_ratio(self):
        doc = base_single(protocol="addressing", crosstalk={"ratios": [0.5, 0.1]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "addressing")
        assert "ratio" in str(err.value)

    def test_addressing_neighbor_ratio_range(self):
        doc = base_single(
            protocol="addressing", crosstalk={"ratios": [1.0, 1.0]}, target=0
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "addressing")
        assert "ratios[1]" in str(err.value)

    def test_addressing_defaults(self):
        doc = base_single(protocol="addressing", crosstalk={"ratios": [1.0, 0.1]})
        resolved = parse_config(doc, "addressing")
        assert resolved.spec.input_state.label == "00"

    def test_selectivity_range(self):
        with pytest.raises(ConfigError):
            parse_config(base_single(selectivity=1.5), "single")

    def test_error_model_kinds(self):
        for model in (
            {"kind": "constant", "delta_pi": 0},
            {"kind": "gaussian_iid", "sigma": 0.1},
            {"kind": "linear_drift", "start": 0.0, "slope": 0.01},
            {"kind": "random_walk", "start": 1, "sigma_step": 0.02},
        ):
            resolved = parse_config(base_single(error_model=model), "single")
            assert resolved.spec.error_model.kind == model["kind"]
            # echoed as written, integers included
            echoed = resolved.to_dict()["error_model"]
            assert json.dumps(echoed) == json.dumps(model)
        with pytest.raises(ConfigError):
            parse_config(base_single(error_model={"kind": "telegraph"}), "single")

    def test_sweep_requires_section(self):
        with pytest.raises(ConfigError):
            parse_config(base_single(), "sweep")

    def test_sweep_parses(self):
        doc = base_single(sweep={"parameter": "delta_pi", "values": [0.0, 0.1]})
        resolved = parse_config(doc, "sweep")
        assert resolved.sweep.parameter == "delta_pi"
        assert resolved.sweep.values == (0.0, 0.1)

    def test_sweep_unknown_parameter(self):
        doc = base_single(sweep={"parameter": "detuning", "values": [0.1]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "sweep")
        assert "detuning" in str(err.value)

    def test_sweep_section_rejected_elsewhere(self):
        doc = base_single(sweep={"parameter": "delta_pi", "values": [0.1]})
        with pytest.raises(ConfigError):
            parse_config(doc, "single")

    def test_input_state_amplitudes(self):
        doc = base_single(
            input_state={"kind": "amplitudes", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
        )
        resolved = parse_config(doc, "single")
        assert resolved.spec.input_state.amplitudes == (0.6, 0.8j)

    def test_input_state_bad_pair(self):
        doc = base_single(input_state={"kind": "amplitudes", "amplitudes": [[0.6]]})
        with pytest.raises(ConfigError) as err:
            parse_config(doc, "single")
        assert "amplitudes[0]" in str(err.value)

    def test_output_env_default(self, monkeypatch):
        monkeypatch.setenv("HERALDSIM_OUT", "/tmp/elsewhere")
        resolved = parse_config(base_single(), "single")
        assert resolved.output.directory == "/tmp/elsewhere"

    def test_resolved_round_trip(self):
        resolved = parse_config(base_single(), "single")
        doc = resolved.to_dict()
        again = parse_config(json.loads(json.dumps(doc)), "single")
        assert again.spec == resolved.spec


def test_format_float_round_trips():
    values = [math.pi, 1 / 3, 1e-17, 0.1 + 0.2, float(2**53 - 1)]
    for v in values:
        assert float(format_float(v)) == v
    assert format_float(float("nan")) == "nan"
