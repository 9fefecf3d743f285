"""The blocked survivor-path kernel against the per-trajectory scalar path.

``run_ensemble`` runs trajectories in blocks, one ``(block, dim)`` array at
a time. Its rows must equal, by ``repr``, the rows rebuilt one trajectory at
a time from the public functions (trajectory_rng -> sample_errors_counted ->
*_steps -> run_protocol -> fidelity_up_to_global_phase), at any block split
and worker count. An independent closed form checks the rows' physics.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.dissipation import PROB_FLOOR, _sample_rows
from heraldsim.experiments import (
    ExperimentSpec,
    InputSpec,
    _block_size,
    prepare_input,
    run_ensemble,
)
from heraldsim.noise import AmplitudeErrorModel, sample_errors_counted, trajectory_rng
from heraldsim.protocols import (
    CrosstalkProfile,
    GateSpec,
    addressed_steps,
    cz_space,
    cz_steps,
    ideal_addressed_output,
    ideal_cz_output,
    ideal_single_qubit_output,
    no_flag_branch,
    run_protocol,
    single_qubit_steps,
)
from heraldsim.statespace import BlochAxis, StateSpace, fidelity_up_to_global_phase


def scalar_rows(spec: ExperimentSpec) -> list[str]:
    """The ensemble's rows rebuilt trajectory by trajectory, as repr strings."""
    state = prepare_input(spec)
    if spec.protocol == "single":
        ideal = ideal_single_qubit_output(state, spec.gate)
        steps_of = lambda errs: single_qubit_steps(spec.gate, errs, spec.selectivity)
    elif spec.protocol == "cz":
        ideal = ideal_cz_output(state)
        space = cz_space(spec.fock_cutoff)
        steps_of = lambda errs: cz_steps(errs, spec.selectivity, space)
    else:
        ideal = ideal_addressed_output(state, spec.target, spec.gate)
        xtalk = CrosstalkProfile(spec.crosstalk)
        steps_of = lambda errs: addressed_steps(
            spec.gate, xtalk, spec.target, errs, spec.selectivity
        )
    mc = spec.mode == "mc"
    rows = []
    for i in range(spec.trials):
        rng = trajectory_rng(spec.master_seed, i)
        errors, clamps = sample_errors_counted(spec.error_model, spec.n_steps, rng)
        outcome = run_protocol(
            state,
            steps_of(tuple(errors)),
            spec.mode,
            rng=rng if mc else None,
            monitor_top_fock=spec.protocol == "cz",
        )
        sumsq = sum(v * v for v in errors)
        branch = outcome.branches[0] if mc else no_flag_branch(outcome)
        if branch is None:
            rows.append((i, 0.0, 0.0, None, (), clamps, sumsq, len(errors)))
            continue
        fid = 0.0 if branch.state is None else fidelity_up_to_global_phase(branch.state, ideal)
        if mc:
            flags = tuple((r.step_index, r.ion, 1.0 if r.flagged else 0.0) for r in branch.records)
            row = (i, 0.0 if branch.flagged else 1.0, fid, branch.flagged, flags)
        else:
            flags = tuple((r.step_index, r.ion, 1.0 - r.branch_probability) for r in branch.records)
            row = (i, branch.probability, fid, None, flags)
        rows.append(row + (clamps, sumsq, len(errors)))
    return [repr(row) for row in rows]


def ensemble_rows(spec: ExperimentSpec, workers: int = 1) -> list[str]:
    _, rows = run_ensemble(spec, workers, return_rows=True)
    return [repr(dataclasses.astuple(row)) for row in rows]


def survival(spec: ExperimentSpec, delta: float) -> float:
    """One step's survival g(delta) without the selectivity factor: the
    transfer's cos^2(delta/2), times, on a chain, cos^2(r(pi + delta)/2) for
    every neighbor with crosstalk ratio r."""
    g = math.cos(delta / 2) ** 2
    if spec.protocol == "addressing":
        for j, r in enumerate(spec.crosstalk):
            if j != spec.target:
                g *= math.cos(r * (math.pi + delta) / 2) ** 2
    return g


def n_cleanouts(spec: ExperimentSpec) -> int:
    return {"single": 2, "cz": 6}.get(spec.protocol, 2 * len(spec.crosstalk or ()))


# --- random specs ------------------------------------------------------------

angle = st.floats(-2 * math.pi, 2 * math.pi)
# 4.0 clamps at +-pi in most draws.
sigmas = st.sampled_from([0.0, 0.05, 0.6, 4.0])
selectivities = st.sampled_from([1.0, 0.0]) | st.floats(0.0, 1.0)


@st.composite
def amplitudes(draw, n):
    values = draw(st.lists(st.tuples(angle, angle), min_size=n, max_size=n))
    if not any(re or im for re, im in values):
        values[0] = (1.0, 0.0)
    return tuple(complex(re, im) for re, im in values)


@st.composite
def specs(draw, protocol, mode, trials):
    gate = None
    if protocol != "cz":
        axis = BlochAxis(
            draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
        )
        gate = GateSpec(axis, draw(angle))
    crosstalk, target, n_ions = None, 0, 1
    if protocol == "addressing":
        n_ions = draw(st.integers(2, 3))
        target = draw(st.integers(0, n_ions - 1))
        neighbors = st.sampled_from([0.0]) | st.floats(0.0, 0.99)
        crosstalk = tuple(1.0 if j == target else draw(neighbors) for j in range(n_ions))
    elif protocol == "cz":
        n_ions = 2
    kind = draw(st.sampled_from(["amplitudes", "bell" if protocol == "cz" else "plus_n"]))
    input_state = InputSpec(kind)
    if kind == "amplitudes":
        input_state = InputSpec(kind, amplitudes=draw(amplitudes(2**n_ions)))
    return ExperimentSpec(
        protocol=protocol,
        error_model=AmplitudeErrorModel.gaussian_iid(draw(sigmas)),
        input_state=input_state,
        trials=trials,
        master_seed=draw(st.integers(0, 2**32)),
        gate=gate,
        selectivity=draw(selectivities),
        mode=mode,
        crosstalk=crosstalk,
        target=target,
    )


PROTOCOLS_AND_MODES = pytest.mark.parametrize(
    "protocol,mode", list(itertools.product(("single", "cz", "addressing"), ("branch", "mc")))
)


# --- (a) kernel rows equal the scalar path -----------------------------------


@PROTOCOLS_AND_MODES
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_rows_equal_the_scalar_path(protocol, mode, data):
    # 70 trials: a full block of 64 and a partial one.
    spec = data.draw(specs(protocol, mode, trials=70))
    assert ensemble_rows(spec) == scalar_rows(spec)


# --- single is the addressed gate on a one-ion chain -------------------------


@pytest.mark.parametrize("mode", ["branch", "mc"])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_single_rows_equal_one_ion_chain_rows(mode, data):
    spec = data.draw(specs("single", mode, trials=70))
    chain = dataclasses.replace(spec, protocol="addressing", crosstalk=(1.0,), target=0)
    assert ensemble_rows(chain) == ensemble_rows(spec)


# --- (b) an independent closed form ------------------------------------------


@PROTOCOLS_AND_MODES
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_rows_satisfy_the_closed_form(protocol, mode, data):
    spec = data.draw(specs(protocol, mode, trials=40))
    _, rows = run_ensemble(spec, return_rows=True)
    s, k = spec.selectivity, n_cleanouts(spec)
    for row in rows:
        errors, _ = sample_errors_counted(
            spec.error_model, spec.n_steps, trajectory_rng(spec.master_seed, row.index)
        )
        unflagged = row.flagged is False or (row.flagged is None and row.no_flag_probability > 0)
        if unflagged:
            assert row.fidelity >= 1 - 1e-10, row
        if spec.mode == "branch":
            expected = s**k * math.prod(survival(spec, d) for d in errors)
            assert row.no_flag_probability == pytest.approx(expected, abs=1e-12), row


# --- (c) block and worker invariance -----------------------------------------


def chain_spec(n_ions: int, trials: int, **overrides) -> ExperimentSpec:
    ratios = (0.1, 1.0, 0.05, 0.2, 0.02, 0.3)[:n_ions]
    base = dict(
        protocol="addressing",
        error_model=AmplitudeErrorModel.gaussian_iid(0.3),
        input_state=InputSpec("plus_n"),
        trials=trials,
        master_seed=4,
        gate=GateSpec(BlochAxis(1.1, 0.4), 2.0),
        selectivity=0.9,
        mode="mc",
        crosstalk=ratios,
        target=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "base",
    [
        chain_spec(2, 131, mode="branch"),
        chain_spec(3, 131),
        ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.gaussian_iid(0.4),
            input_state=InputSpec("bell"),
            trials=131,
            master_seed=8,
            selectivity=0.8,
        ),
    ],
    ids=["chain2-branch", "chain3-mc", "cz-branch"],
)
def test_rows_do_not_depend_on_the_block_split(base):
    reference = ensemble_rows(base)
    for trials, workers in itertools.product((63, 64, 65, 131), (1, 2)):
        spec = dataclasses.replace(base, trials=trials)
        assert ensemble_rows(spec, workers) == reference[:trials], (trials, workers)


def test_six_ion_chain_runs_in_smaller_blocks():
    spec = chain_spec(6, 37)
    assert _block_size(spec.protocol, StateSpace(6)) < 37
    rows = ensemble_rows(spec)
    assert ensemble_rows(spec, workers=2) == rows
    assert ensemble_rows(dataclasses.replace(spec, trials=5)) == rows[:5]
    assert ensemble_rows(dataclasses.replace(spec, trials=3)) == scalar_rows(
        dataclasses.replace(spec, trials=3)
    )


# --- the clean-out sampling rule ---------------------------------------------


def walk_segments(p: float, s: float, u: float) -> tuple[float, bool]:
    """The sampling rule written out for one state: keep the branches above
    the floor in the order target, false positive, survivor; take the first
    whose running sum exceeds u, else the last one kept."""
    kept = [
        (prob, flagged)
        for prob, flagged in ((p, True), ((1 - s) * (1 - p), True), (s * (1 - p), False))
        if prob > PROB_FLOOR
    ]
    acc = 0.0
    for prob, flagged in kept:
        acc += prob
        if u < acc:
            return prob, flagged
    return kept[-1]


def test_row_sampling_follows_the_segment_walk():
    rng = np.random.default_rng(3)
    ps = [0.0, 1e-15, PROB_FLOOR, 2e-14, 0.3, 1 - 1e-14, 1 - 1e-15, 1.0, *rng.random(8)]
    ss = [0.0, 1e-15, 0.5, 1 - 1e-15, 1.0, *rng.random(4)]
    cases = []
    for p, s in itertools.product(ps, ss):
        for u in (0.0, 0.3, 0.9999, p, np.nextafter(p, 0.0), *rng.random(3)):
            if 0.0 <= u < 1.0:
                cases.append((p, s, u))
    for s in sorted({s for _, s, _ in cases}):
        block = [(p, u) for p, s2, u in cases if s2 == s]
        p, u = (np.array(col) for col in zip(*block))
        taken, flagged = _sample_rows(p, s, u)
        expected = [walk_segments(pi, s, ui) for pi, ui in block]
        assert list(zip(taken.tolist(), flagged.tolist())) == expected
