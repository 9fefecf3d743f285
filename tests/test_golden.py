"""Golden output manifest: the sha256 of every file a fixed set of runs writes.

Each case in ``CASES`` runs through ``cli.main`` at ``--workers`` 1 and 2,
once per module, and every file it writes must hash to the entry of
``golden.json`` under ``cli/<case>/<file>``, one test per file; both worker
counts share one entry, so this also pins worker invariance. A summary
echoes ``config.output.dir``, which depends on where the test runs, so it
is hashed with that one field removed. The
``api/`` entries hash ``repr(run_ensemble(spec).to_dict())`` for a few specs
and the amplitude bytes of ``ideal_cz_output`` and ``no_flag_branch``.

Generated with numpy 2.4.6 and OpenBLAS 0.3.31 (scipy-openblas64,
DYNAMIC_ARCH) on an AVX-512 CPU, whose default OpenBLAS kernel is SkylakeX.
Every entry but one uses no BLAS call and passes unchanged under
``OPENBLAS_CORETYPE=Haswell``, ``Sandybridge`` and ``Nehalem``, and with
numpy's ``X86_V3 X86_V4 AVX512_ICL AVX512_SPR`` dispatch disabled
(``NPY_DISABLE_CPU_FEATURES``; every entry passes then): every
norm, population and overlap is a split real row rule, the chain runs'
product starts run on one vector per ion in split real arithmetic, and the
addressed ideal is a split real 2x2 on the target. The one BLAS entry is
``api/no_flag_branch/addressing``: its 3-ion start is entangled, so it runs
on the register, which applies each transfer as one BLAS product per ion;
its last bits depend on the OpenBLAS kernel, and each of the three kernels
moves it. A failure of only that entry on another CPU says the kernel
differs, not the code. ``test_entries_without_blas_hold_under_haswell``
reruns this file under ``OPENBLAS_CORETYPE=Haswell`` with that one entry
deselected, on a CPU with AVX2.

Last regenerated when chain runs from product starts moved onto one vector
per ion (``statespace._Factors``) and the addressed ideal out of BLAS:
``api/ensemble/chain4-mc``, ``cli/chain4-mc/run_summary.json`` and the
summary, trajectory and branch tables of ``cli/chain4-branch`` moved, 5 of
the 52 hashes; their step tables, and every single and cz entry, did not.
That took four chain entries out of the Haswell rerun's deselection. Before
that, when trajectories began to draw in 64-row RNG blocks,
keyed by the block index instead of the trajectory index: 40 of the 52
hashes moved, the same 40 as at the first Philox streams below. Before
that, when an overlap began to sum only the entries where the
ideal is nonzero, so that the runner scores the kernel's register rows
directly. The terms left out are exact zeros; only the pairwise grouping
of the others changed, which moved ``api/ensemble/chain4-mc``,
``cli/chain4-branch/run_summary.json``,
``cli/chain4-branch/run_trajectories.csv`` and
``cli/chain4-mc/run_summary.json``, 4 of the 52 hashes. The single and cz
entries did not move. Before that, when the kernel began to run on a
four-level register (each ion without its never-populated Bright level),
its norms and populations summed fewer terms: that moved the three files
of ``cli/chain4-branch`` and ``api/ensemble/chain4-mc``, 4 of the 52
hashes. Before that,
when trajectory streams became Philox streams keyed by the seed with the
index in the counter, 40 of the 52 hashes moved: every file of every CLI
case except ``constant`` and ``linear_drift``, whose models draw nothing
and whose branch runs take no uniforms, and the five ``api/ensemble/``
entries.

Update rule: regenerate the manifest only in a change that says it changes
values. That change records why in CHANGES.md and shows that the statistics
did not move. Never update the manifest to make a failing change pass.

Regenerate, from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It prints the key of every hash that changed, so a values change can
record which entries moved.
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import heraldsim
from heraldsim import (
    InputSpec,
    certified_addressed_gate,
    certified_cz,
    certified_single_qubit,
    cz_space,
    ideal_cz_output,
    make_state,
    no_flag_branch,
    plus_minus_n_states,
    run_ensemble,
)
from heraldsim.cli import main
from heraldsim.config import parse_config
from heraldsim.protocols import CrosstalkProfile, GateSpec
from heraldsim.statespace import BlochAxis, StateSpace

MANIFEST = Path(__file__).with_name("golden.json")

GATE = {"theta": math.pi / 3, "phi": 0.5, "theta_gate": math.pi / 2}
GAUSSIAN = {"kind": "gaussian_iid", "sigma": 0.05}
CHAIN = {"ratios": [0.05, 1.0, 0.05, 0.02]}
TABLES = {"write_trajectories": True, "write_branches": True}
CZ_EE = {
    "error_model": {"kind": "gaussian_iid", "sigma": 0.5},
    "input_state": {"kind": "basis", "label": "ee"},
    "fock_cutoff": 5,
}


def _single(mode, model=GAUSSIAN, **extra):
    doc = {
        "protocol": "single", "gate": GATE, "error_model": model,
        "input_state": {"kind": "plus_n"}, "selectivity": 0.95,
        "trials": 300, "master_seed": 4242, "mode": mode,
    }
    return doc | extra


def _cz(mode, **extra):
    doc = {
        "protocol": "cz", "error_model": GAUSSIAN, "input_state": {"kind": "bell"},
        "selectivity": 0.95, "fock_cutoff": 3, "trials": 64, "master_seed": 7,
        "mode": mode,
    }
    return doc | extra


def _chain(mode, **extra):
    doc = {
        "protocol": "addressing", "gate": GATE, "error_model": GAUSSIAN,
        "input_state": {"kind": "plus_n"}, "selectivity": 0.95, "crosstalk": CHAIN,
        "target": 1, "trials": 40, "master_seed": 2**130 + 5, "mode": mode,
    }
    return doc | extra


# case: (command, config without its output dir, output flags)
CASES = {
    # The benchmark's three workloads, in both modes.
    "single-mc": ("single", _single("mc"), {"write_trajectories": True}),
    "single-branch": ("single", _single("branch"), {}),
    "cz-mc": ("cz", _cz("mc"), {"write_trajectories": True}),
    "cz-branch": ("cz", _cz("branch"), TABLES),
    # cz from ee at Fock cutoff 5: sideband pairs above Fock 1.
    "cz-ee-mc": ("cz", _cz("mc", **CZ_EE), {"write_trajectories": True}),
    "cz-ee-branch": ("cz", _cz("branch", **CZ_EE), TABLES),
    "chain4-mc": ("addressing", _chain("mc"), {}),
    "chain4-branch": ("addressing", _chain("branch"), TABLES),
    # One config per error-model kind, with both tables.
    "constant": ("single", _single("branch", {"kind": "constant", "delta_pi": 0.3}), TABLES),
    "gaussian_iid": (
        "single", _single("branch", {"kind": "gaussian_iid", "sigma": 0.4}), TABLES
    ),
    "linear_drift": (
        "single",
        _single("branch", {"kind": "linear_drift", "start": 0.1, "slope": -0.25}),
        TABLES,
    ),
    "random_walk": (
        "single",
        _single("branch", {"kind": "random_walk", "start": 0.05, "sigma_step": 0.3}),
        TABLES,
    ),
    "sweep": (
        "sweep",
        _single("mc", trials=100, sweep={"parameter": "sigma", "values": [0.02, 0.3]}),
        {},
    ),
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def cli_hashes(case: str, workers: int, tmp: Path) -> dict[str, str]:
    """Run one case through the CLI; the hash of every file it writes."""
    command, doc, flags = CASES[case]
    out = tmp / f"{case}-w{workers}"
    doc = doc | {"output": {"dir": str(out), "prefix": "run"} | flags}
    config = tmp / f"{case}-w{workers}.json"
    config.write_text(json.dumps(doc))
    assert main([command, str(config), "--quiet", "--workers", str(workers)]) == 0
    hashes = {}
    for path in sorted(out.iterdir()):
        blob = path.read_bytes()
        if path.name.endswith("_summary.json"):
            summary = json.loads(blob)
            del summary["config"]["output"]["dir"]
            blob = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        hashes[f"cli/{case}/{path.name}"] = _sha(blob)
    return hashes


def _spec(case: str, **changes):
    command, doc, _ = CASES[case]
    return replace(parse_config(doc, command).spec, **changes)


def _amplitudes(state) -> bytes:
    return state.amplitudes.tobytes()


def _bell():
    space = cz_space(3)
    return make_state(space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 0.6j)])


def _values() -> dict:
    """Each ``api/`` entry's bytes, made on demand."""
    gate = GateSpec(BlochAxis(GATE["theta"], GATE["phi"]), GATE["theta_gate"])
    plus, _ = plus_minus_n_states(gate.axis)
    chain = make_state(StateSpace(3), [(0, 0.6), (1, 0.8j), (5, -0.3)])
    return {
        "ensemble/single-mc": lambda: _spec("single-mc", trials=500),
        "ensemble/single-branch-seed-2**128": lambda: _spec(
            "single-branch", master_seed=2**128 + 3, trials=200
        ),
        "ensemble/cz-branch": lambda: _spec("cz-branch", master_seed=1),
        "ensemble/chain4-mc": lambda: _spec("chain4-mc", master_seed=9),
        "ensemble/random_walk": lambda: _spec(
            "random_walk", input_state=InputSpec("basis", "+")
        ),
        "ideal_cz_output/bell": lambda: _amplitudes(ideal_cz_output(_bell())),
        "no_flag_branch/cz": lambda: _amplitudes(
            no_flag_branch(certified_cz(_bell(), (0.1, -0.05, 0.07, 0.02), 0.95)).state
        ),
        "no_flag_branch/single": lambda: _amplitudes(
            no_flag_branch(certified_single_qubit(plus, gate, (0.2, -0.1), 0.9)).state
        ),
        "no_flag_branch/addressing": lambda: _amplitudes(
            no_flag_branch(
                certified_addressed_gate(
                    chain, 1, gate, CrosstalkProfile((0.1, 1.0, 0.05)), (0.1, 0.2), 0.95
                )
            ).state
        ),
    }


def value_hash(name: str) -> str:
    value = _values()[name]()
    if not isinstance(value, bytes):
        value = repr(run_ensemble(value).to_dict()).encode()
    return _sha(value)


def _manifest() -> dict[str, str]:
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_every_case():
    cases = {key.split("/")[1] for key in _manifest() if key.startswith("cli/")}
    values = {key[4:] for key in _manifest() if key.startswith("api/")}
    assert cases == set(CASES) and values == set(_values())


def _cli_files() -> list[str]:
    """Each ``cli/`` entry of the manifest as ``<case>/<file>``."""
    return sorted(key[4:] for key in _manifest() if key.startswith("cli/"))


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """:func:`cli_hashes` of a case at a worker count, run once per module."""
    tmp = tmp_path_factory.mktemp("cli")
    return functools.cache(lambda case, workers: cli_hashes(case, workers, tmp))


@pytest.mark.parametrize("file", _cli_files())
def test_cli_outputs_match_the_manifest(file, cli_run):
    case = file.split("/")[0]
    manifest = _manifest()
    written = {key for key in manifest if key.startswith(f"cli/{case}/")}
    for workers in (1, 2):
        hashes = cli_run(case, workers)
        assert hashes.keys() == written, f"--workers {workers}"
        assert hashes[f"cli/{file}"] == manifest[f"cli/{file}"], f"--workers {workers}"


@pytest.mark.parametrize("name", sorted(_values()))
def test_values_match_the_manifest(name):
    assert value_hash(name) == _manifest()[f"api/{name}"]


# The entries whose last bits depend on the OpenBLAS kernel; the Haswell
# kernel moves each of them.
BLAS_ENTRIES = ("test_values_match_the_manifest[no_flag_branch/addressing]",)


def test_entries_without_blas_hold_under_haswell():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("AVX2"):
        pytest.skip("this CPU cannot run the Haswell kernel")
    here = Path(__file__)
    skipped = BLAS_ENTRIES + ("test_entries_without_blas_hold_under_haswell",)
    src = Path(heraldsim.__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", here.name]
        + [f"--rootdir={here.parent}"]
        + [f"--deselect={here.name}::{name}" for name in skipped],
        cwd=here.parent,
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout
    # The coverage test, one per CLI file and one per value, less the BLAS ones.
    assert f"{len(_cli_files()) + len(_values()) + 1 - len(BLAS_ENTRIES)} passed" in result.stdout
    assert f"{len(skipped)} deselected" in result.stdout


def _regenerate() -> None:
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            manifest |= cli_hashes(case, 1, Path(tmp))
    manifest |= {f"api/{name}": value_hash(name) for name in _values()}
    old = _manifest() if MANIFEST.exists() else {}
    moved = sorted(k for k in manifest.keys() | old.keys() if manifest.get(k) != old.get(k))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} hashes to {MANIFEST}; {len(moved)} moved:", file=sys.stderr)
    for key in moved:
        print(f"  {key}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
