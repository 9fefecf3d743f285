"""Tests of the benchmark itself: generated inputs, the correctness gate, the
traced mirror and the output contract.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from heraldsim import run_ensemble, trajectory_rng  # noqa: E402
from heraldsim.config import parse_config  # noqa: E402
from heraldsim.noise import sample_errors_counted  # noqa: E402

from layers import traced_run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    InputStream,
    _gauss_mean,
    config_doc,
    gate_problems,
    make_spec,
    no_flag_probability,
)

EXACT_COUNTS = ("protocols.op_bytes", "statespace.dim", "dissipation.cleanouts", "noise.clamps")


def _benchmark_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec(name: str, trials: int):
    return make_spec(WORKLOADS[name], 12345, trials)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_flag_form_holds_per_draw(name):
    trials = 3 if name == "chain4-mc" else 40
    spec = dataclasses.replace(_spec(name, trials), mode="branch")
    _, rows = run_ensemble(spec, return_rows=True)
    for row in rows:
        errors, _ = sample_errors_counted(
            spec.error_model, spec.n_steps, trajectory_rng(spec.master_seed, row.index)
        )
        assert row.no_flag_probability == pytest.approx(
            no_flag_probability(spec, errors), abs=1e-13
        )


def test_quadrature_matches_the_analytic_mean():
    for sigma in (0.0, 0.03, 0.05, 0.1):
        analytic = (1.0 + math.exp(-0.5 * sigma**2)) / 2.0
        assert _gauss_mean(lambda d: np.cos(d / 2.0) ** 2, sigma) == pytest.approx(
            analytic, abs=1e-15
        )


def test_gate_passes_real_ensembles_and_rejects_wrong_ones():
    spec = _spec("single-mc", 2000)
    stats = run_ensemble(spec).to_dict()
    assert gate_problems(spec, stats) == []
    assert gate_problems(spec, dict(stats, conditional_fidelity=1.0 - 1e-6))
    assert gate_problems(spec, dict(stats, conditional_fidelity=None))
    assert gate_problems(spec, dict(stats, herald_rate=stats["herald_rate"] + 0.05))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_resolves_to_the_gated_spec(name):
    spec = _spec(name, 17)
    doc = config_doc(spec, "out", "bench")
    assert parse_config(json.loads(json.dumps(doc)), spec.protocol).spec == spec


def test_inputs_come_from_the_seed_only():
    workload = WORKLOADS["cz-branch"]
    first = [InputStream(workload, 7).next_master_seed() for _ in range(2)]
    stream = InputStream(workload, 7)
    assert first[0] == first[1] == stream.next_master_seed() != stream.next_master_seed()
    assert InputStream(workload, 8).next_master_seed() != first[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_mirror_matches(name, tmp_path):
    workload = WORKLOADS[name]
    trials = 2 if name == "chain4-mc" else 12
    runs = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        metrics, attempted, failed, _, tracer = traced_run(workload, 99, trials, work)
        assert failed == 0 and attempted >= 2
        assert metrics["trace.mirror_match"][0] == 1
        runs.append(metrics)
    for key in EXACT_COUNTS + ("protocols.build_hit_ratio", "dissipation.survivor_ratio"):
        assert runs[0][key] == runs[1][key], key
    assert set(runs[0]) == {m["name"] for m in _benchmark_doc()["per_layer"]}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_contract(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-mc", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _benchmark_doc()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
