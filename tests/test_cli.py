import json
import math

import pytest

from heraldsim import experiments
from heraldsim.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def single_doc(out_dir, **extra):
    doc = {
        "protocol": "single",
        "gate": {"theta": 1.0471975511965976, "phi": 0.5, "theta_gate": 2.1},
        "error_model": {"kind": "constant", "delta_pi": 0.2},
        "input_state": {"kind": "plus_n"},
        "trials": 50,
        "master_seed": 11,
        "mode": "branch",
        "output": {"dir": str(out_dir), "prefix": "run"},
    }
    doc.update(extra)
    return doc


def read_summary(out_dir, prefix="run"):
    return json.loads((out_dir / f"{prefix}_summary.json").read_text())


class TestSingleCommand:
    def test_error_free_run(self, tmp_path):
        out = tmp_path / "out"
        doc = single_doc(out, error_model={"kind": "constant", "delta_pi": 0.0})
        code = main(["single", write_config(tmp_path, doc), "--quiet"])
        assert code == 0
        summary = read_summary(out)
        assert summary["results"]["herald_rate"] == 0.0
        assert summary["config"]["master_seed"] == 11
        assert (out / "run_steps.csv").exists()

    def test_no_flag_probability_field(self, tmp_path):
        out = tmp_path / "out"
        code = main(["single", write_config(tmp_path, single_doc(out)), "--quiet"])
        assert code == 0
        summary = read_summary(out)
        expected = (1 - math.sin(0.1) ** 2) ** 2
        assert summary["results"]["herald_rate"] == pytest.approx(
            1 - expected, abs=1e-12
        )

    def test_echoes_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["single", write_config(tmp_path, single_doc(out))])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"master_seed": 11' in printed
        assert "herald_rate=" in printed

    def test_quiet(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["single", write_config(tmp_path, single_doc(out)), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_overrides_echoed_and_applied(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "single",
                write_config(tmp_path, single_doc(out)),
                "--seed",
                "99",
                "--trials",
                "7",
                "--mode",
                "mc",
                "--quiet",
            ]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["config"]["master_seed"] == 99
        assert summary["config"]["trials"] == 7
        assert summary["config"]["mode"] == "mc"
        assert summary["results"]["trials"] == 7

    def test_trajectories_table(self, tmp_path):
        out = tmp_path / "out"
        doc = single_doc(out)
        doc["output"]["write_trajectories"] = True
        code = main(["single", write_config(tmp_path, doc), "--quiet"])
        assert code == 0
        lines = (out / "run_trajectories.csv").read_text().splitlines()
        assert lines[0] == "index,no_flag_probability,fidelity,flagged,clamp_count"
        assert len(lines) == 51


def cz_doc(out_dir, **extra):
    doc = {
        "protocol": "cz",
        "error_model": {"kind": "constant", "delta_pi": 0.0},
        "input_state": {"kind": "bell"},
        "trials": 5,
        "master_seed": 0,
        "output": {"dir": str(out_dir)},
    }
    doc.update(extra)
    return doc


def addressing_doc(out_dir, n_ions=2, **extra):
    doc = {
        "protocol": "addressing",
        "gate": {"theta": 0.8, "phi": 0.3, "theta_gate": 1.9},
        "error_model": {"kind": "constant", "delta_pi": 0.0},
        "crosstalk": {"ratios": [1.0] + [0.1] * (n_ions - 1)},
        "trials": 5,
        "master_seed": 0,
        "output": {"dir": str(out_dir)},
    }
    doc.update(extra)
    return doc


def with_input(make, **input_state):
    return lambda out: make(out, input_state=input_state)


def with_model(**model):
    return lambda out: single_doc(out, error_model=model)


def with_sweep(make, parameter, value):
    def doc(out_dir):
        d = make(out_dir)
        d["sweep"] = {"parameter": parameter, "values": [0.1, value]}
        return d

    return doc


def branch_table(make, **extra):
    def doc(out_dir):
        d = make(out_dir, **extra)
        d["output"].update(write_trajectories=True, write_branches=True)
        return d

    return doc


HUGE = 10**400

# case: (command, config builder, extra arguments, JSON path the error names)
INVALID_CONFIGS = {
    "basis-label-chars": (
        "single", with_input(single_doc, kind="basis", label="xy"), [], "$.input_state"
    ),
    "basis-label-length": (
        "addressing", with_input(addressing_doc, kind="basis", label="0"), [],
        "$.input_state",
    ),
    "plus-n-on-cz": ("cz", with_input(cz_doc, kind="plus_n"), [], "$.input_state"),
    "bell-on-single": ("single", with_input(single_doc, kind="bell"), [], "$.input_state"),
    "amplitude-count": (
        "single",
        with_input(single_doc, kind="amplitudes", amplitudes=[[1, 0], [0, 0], [0, 0]]),
        [],
        "$.input_state",
    ),
    "amplitudes-all-zero": (
        "single",
        with_input(single_doc, kind="amplitudes", amplitudes=[[0, 0], [0, 0]]),
        [],
        "$.input_state",
    ),
    "amplitude-nan": (
        "single",
        with_input(single_doc, kind="amplitudes", amplitudes=[[math.nan, 0], [1, 0]]),
        [],
        "$.input_state",
    ),
    "negative-seed": (
        "single", lambda out: single_doc(out, master_seed=-1), [], "$.master_seed"
    ),
    "seed-override": ("single", single_doc, ["--seed", "-1"], "$.master_seed"),
    "trials-override": ("single", single_doc, ["--trials", "0"], "$.trials"),
    "r-neighbor-on-single": (
        "sweep", with_sweep(single_doc, "r_neighbor", 0.2), [], "$.sweep.values[0]"
    ),
    "r-neighbor-above-one": (
        "sweep", with_sweep(addressing_doc, "r_neighbor", 1.5), [], "$.sweep.values[1]"
    ),
    "sweep-value-nan": (
        "sweep", with_sweep(single_doc, "delta_pi", math.nan), [], "$.sweep.values[1]"
    ),
    "branches-in-mc": (
        "single", branch_table(single_doc, mode="mc"), [], "$.output.write_branches"
    ),
    "branches-mode-override": (
        "cz", branch_table(cz_doc), ["--mode", "mc"], "$.output.write_branches"
    ),
    "sigma-nan": (
        "single", with_model(kind="gaussian_iid", sigma=math.nan), [], "$.error_model"
    ),
    # 1e400 is what json.loads makes of the literal 1e400: inf
    "delta-pi-overflow": (
        "single", with_model(kind="constant", delta_pi=1e400), [], "$.error_model"
    ),
    "chain-too-large": (
        "addressing", lambda out: addressing_doc(out, n_ions=13), [], "$.crosstalk.ratios"
    ),
    "fock-cutoff-too-large": (
        "cz", lambda out: cz_doc(out, fock_cutoff=10**4), [], "$.fock_cutoff"
    ),
    # json reads an integer literal exactly, however large; HUGE has no float.
    "selectivity-huge": (
        "single", lambda out: single_doc(out, selectivity=HUGE), [], "$.selectivity"
    ),
    "gate-angle-huge": (
        "single",
        lambda out: single_doc(out, gate={"theta": 1.0, "theta_gate": HUGE}),
        [],
        "$.gate.theta_gate",
    ),
    "crosstalk-ratio-huge": (
        "addressing",
        lambda out: addressing_doc(out, crosstalk={"ratios": [1.0, HUGE]}),
        [],
        "$.crosstalk.ratios[1]",
    ),
    "sweep-value-huge": (
        "sweep", with_sweep(single_doc, "delta_pi", HUGE), [], "$.sweep.values[1]"
    ),
    "amplitude-huge": (
        "single",
        with_input(single_doc, kind="amplitudes", amplitudes=[[1, 0], [0, HUGE]]),
        [],
        "$.input_state.amplitudes[1]",
    ),
    "error-model-huge": (
        "single", with_model(kind="constant", delta_pi=HUGE), [], "$.error_model.delta_pi"
    ),
    "fock-cutoff-huge": (
        "cz", lambda out: cz_doc(out, fock_cutoff=HUGE), [], "$.fock_cutoff"
    ),
    "workers-zero": ("single", single_doc, ["--workers", "0"], "--workers"),
    "workers-negative": ("single", single_doc, ["--workers", "-3"], "--workers"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_exit_2_before_output(self, tmp_path, capsys, case):
        command, make, extra, path = INVALID_CONFIGS[case]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, make(out))
        assert main([command, cfg, "--quiet"] + extra) == 2
        assert f"{path}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,key", [("gaussian_iid", "sigma"), ("random_walk", "sigma_step")]
    )
    def test_missing_error_model_key(self, tmp_path, capsys, kind, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, with_model(kind=kind)(out))
        assert main(["single", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: $.error_model: missing required key {key!r}\n"
        assert not out.exists()

    def test_worker_processes_share_the_memory_budget(self, tmp_path, capsys, monkeypatch):
        # A one-ion run is estimated at a little over 64 MiB per process:
        # one process fits in 100 MiB, the two that 50 trials start do not.
        monkeypatch.setattr(experiments, "MEMORY_BUDGET", 100 * 2**20)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, single_doc(out))
        assert main(["single", cfg, "--quiet", "--workers", "2"]) == 2
        assert "--workers: the run needs about" in capsys.readouterr().err
        assert not out.exists()
        assert main(["single", cfg, "--quiet"]) == 0

    def test_malformed_key_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = single_doc(out)
        doc["error_model"] = {"kind": "constant", "delta_pii": 0.2}
        code = main(["single", write_config(tmp_path, doc), "--quiet"])
        assert code == 2
        assert "delta_pii" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["single", str(path), "--quiet"]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["single", str(tmp_path / "none.json"), "--quiet"]) == 2

    def test_cz_cutoff_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {
            "protocol": "cz",
            "error_model": {"kind": "constant", "delta_pi": 0.0},
            "input_state": {"kind": "bell"},
            "trials": 5,
            "master_seed": 0,
            "fock_cutoff": 1,
            "output": {"dir": str(out)},
        }
        assert main(["cz", write_config(tmp_path, doc), "--quiet"]) == 2
        assert "fock_cutoff" in capsys.readouterr().err


class TestCzCommand:
    def test_bell_state_table(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "protocol": "cz",
            "error_model": {"kind": "constant", "delta_pi": 0.0},
            "input_state": {"kind": "bell"},
            "trials": 5,
            "master_seed": 3,
            "output": {"dir": str(out), "prefix": "cz", "write_branches": True},
        }
        assert main(["cz", write_config(tmp_path, doc), "--quiet"]) == 0
        lines = (out / "cz_branches.csv").read_text().splitlines()
        assert lines[0] == "branch,flagged,probability,basis_index,amp_re,amp_im"
        rows = [line.split(",") for line in lines[1:]]
        amps = {int(r[3]): complex(float(r[4]), float(r[5])) for r in rows}
        r = 1 / math.sqrt(2)
        # basis 0 is |gg,0>; |ee,0> sits at (5*1+1)*4 = 24 for cutoff 3
        assert amps[0] == pytest.approx(r, abs=1e-12)
        assert amps[24] == pytest.approx(-r, abs=1e-12)

    def test_four_step_histogram(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "protocol": "cz",
            "error_model": {"kind": "constant", "delta_pi": 0.1},
            "input_state": {"kind": "bell"},
            "trials": 5,
            "master_seed": 3,
            "output": {"dir": str(out), "prefix": "cz"},
        }
        assert main(["cz", write_config(tmp_path, doc), "--quiet"]) == 0
        lines = (out / "cz_steps.csv").read_text().splitlines()
        steps = {int(line.split(",")[0]) for line in lines[1:]}
        assert steps == {0, 1, 2, 3}
        summary = read_summary(out, "cz")
        expected = 1.0
        for _ in range(4):
            expected *= 1 - math.sin(0.05) ** 2
        assert summary["results"]["herald_rate"] == pytest.approx(
            1 - expected, abs=1e-12
        )


class TestAddressingCommand:
    def doc(self, out, ratio):
        return {
            "protocol": "addressing",
            "gate": {"theta": 0.8, "phi": 0.3, "theta_gate": 1.9},
            "error_model": {"kind": "constant", "delta_pi": 0.0},
            "crosstalk": {"ratios": [1.0, ratio]},
            "trials": 20,
            "master_seed": 5,
            "output": {"dir": str(out), "prefix": "addr"},
        }

    def test_zero_crosstalk(self, tmp_path):
        out = tmp_path / "out"
        assert main(["addressing", write_config(tmp_path, self.doc(out, 0.0)), "--quiet"]) == 0
        summary = read_summary(out, "addr")
        assert summary["results"]["herald_rate"] == 0.0

    def test_neighbor_rate(self, tmp_path):
        out = tmp_path / "out"
        assert main(["addressing", write_config(tmp_path, self.doc(out, 0.1)), "--quiet"]) == 0
        summary = read_summary(out, "addr")
        rates = {
            (step, ion): rate
            for step, ion, rate in summary["results"]["step_flag_rates"]
        }
        assert rates[(0, 1)] == pytest.approx(math.sin(0.05 * math.pi) ** 2, abs=1e-12)


class TestSweepCommand:
    def test_selectivity_sweep_monotone(self, tmp_path):
        out = tmp_path / "out"
        doc = single_doc(out, error_model={"kind": "constant", "delta_pi": 0.0})
        doc["sweep"] = {"parameter": "selectivity", "values": [1.0, 0.95, 0.9]}
        doc["output"]["prefix"] = "sweep"
        assert main(["sweep", write_config(tmp_path, doc), "--quiet"]) == 0
        lines = (out / "sweep_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("selectivity,herald_rate")
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert rates == sorted(rates)
        assert rates[0] == 0.0


class TestReproducibility:
    def test_identical_bytes_across_runs_and_workers(self, tmp_path):
        out = tmp_path / "out"
        doc = single_doc(
            out, error_model={"kind": "gaussian_iid", "sigma": 0.05}, mode="mc"
        )
        cfg = write_config(tmp_path, doc)
        assert main(["single", cfg, "--quiet"]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("run_summary.json", "run_steps.csv")
        }
        assert main(["single", cfg, "--quiet", "--workers", "2"]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_rerun_from_embedded_config(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        doc = single_doc(out1, error_model={"kind": "random_walk", "start": 0.05, "sigma_step": 0.01})
        cfg = write_config(tmp_path, doc)
        assert main(["single", cfg, "--quiet"]) == 0
        summary1 = read_summary(out1)
        embedded = summary1["config"]
        embedded["output"]["dir"] = str(out2)
        cfg2 = write_config(tmp_path, embedded, name="embedded.json")
        assert main(["single", cfg2, "--quiet"]) == 0
        summary2 = read_summary(out2)
        assert summary2["results"] == summary1["results"]
        assert (out1 / "run_steps.csv").read_bytes() == (out2 / "run_steps.csv").read_bytes()
