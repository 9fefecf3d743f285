"""The blocked survivor-path kernel against the per-trajectory scalar path.

``run_ensemble`` runs trajectories in blocks, one ``(block, dim)`` array at
a time. Its rows must equal, by ``repr``, the rows rebuilt one trajectory at
a time from the public functions (trajectory_rng -> sample_errors_counted ->
*_steps -> run_protocol -> fidelity_up_to_global_phase), at any block split
and worker count. An independent closed form checks the rows' physics.
The work arrays the kernel keeps between runs, and the generator a thread
keeps for the seed it last drew with, leak into no result, no later run
and no other thread, and a warm block allocates little beside them.
"""

import dataclasses
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim import experiments
from heraldsim.dissipation import PROB_FLOOR, _sample_rows, _segment_table, survival_probability
from heraldsim.experiments import (
    ExperimentSpec,
    InputSpec,
    _block_size,
    _space_for,
    prepare_input,
    run_ensemble,
)
from heraldsim.noise import (
    AmplitudeErrorModel,
    draw_block,
    sample_errors_counted,
    trajectory_rng,
)
from heraldsim.protocols import (
    CrosstalkProfile,
    GateSpec,
    addressed_steps,
    cleanout_sites,
    cz_space,
    cz_steps,
    ideal_addressed_output,
    ideal_cz_output,
    ideal_single_qubit_output,
    no_flag_branch,
    run_protocol,
    single_qubit_steps,
    survivor_paths,
)
from heraldsim.statespace import (
    BlochAxis,
    StateSpace,
    _Register,
    _row_norm2,
    fidelity_up_to_global_phase,
)


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
    amps = [complex(re, im) for re, im in values]
    # The rule of experiments._input_problem: a draw whose squared norm is 0,
    # all zeros or subnormals such as (5e-324, 0), is not a valid input.
    if not _row_norm2(np.array([[a for a in amps if a]]))[0] > 0.0:
        amps[0] = complex(1.0, 0.0)
    return tuple(amps)


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
    # Blocks of 64 one-ion rows (800 B of operators each): 70 trials run a
    # full block of 64 and a partial one, and the larger rows of cz and of
    # a chain run more blocks.
    spec = data.draw(specs(protocol, mode, trials=70))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_BLOCK_BYTES", 64 * 800)
        assert _block_size(spec.protocol, _space_for(spec)) <= 64
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
        chain_spec(2, 1, mode="branch"),
        chain_spec(3, 1),
        ExperimentSpec(
            protocol="cz",
            error_model=AmplitudeErrorModel.gaussian_iid(0.4),
            input_state=InputSpec("bell"),
            trials=1,
            master_seed=8,
            selectivity=0.8,
        ),
    ],
    ids=["chain2-branch", "chain3-mc", "cz-branch"],
)
def test_rows_do_not_depend_on_the_block_split(base, monkeypatch):
    # The base's trials are replaced by counts around the register's block
    # size: one row short of a full block, a full block, one row over, and
    # two full blocks and a partial one.
    size = _block_size(base.protocol, _space_for(base))
    longest = 2 * size + 3
    blocks = []

    def counted(model, n_steps, seed, indices, n_uniforms):
        blocks.append(len(indices))
        return draw_block(model, n_steps, seed, indices, n_uniforms)

    monkeypatch.setattr(experiments, "draw_block", counted)
    reference = ensemble_rows(dataclasses.replace(base, trials=longest))
    assert blocks == [size, size, 3]
    for trials, workers in itertools.product((size - 1, size, size + 1, longest), (1, 2)):
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
        taken, flagged = _sample_rows(p, s, u, 1.0 - p)
        expected = [walk_segments(pi, s, ui) for pi, ui in block]
        assert list(zip(taken.tolist(), flagged.tolist())) == expected


@pytest.mark.parametrize("s", [0.0, 0.3, 0.95, 1.0])
def test_survival_is_the_survivor_column_of_the_segment_table(s):
    # q for s*q at the floor, a few ulps either side of it, and ordinary
    # fractions; at s = 1 the product is q itself.
    near = PROB_FLOOR / s if s else PROB_FLOOR
    q = [0.0, 0.5, 1.0, PROB_FLOOR, near]
    for _ in range(3):
        q += [np.nextafter(q[-2], 0.0), np.nextafter(q[-1], 1.0)]
    q = np.array(q)
    p = 1.0 - q
    segments, kept = _segment_table(p, s, q)
    expected = np.where(kept[:, 2], segments[:, 2], 0.0)
    assert survival_probability(s, q).tobytes() == expected.tobytes()
    if s:
        # The floor itself is dropped, the value above it kept.
        survive = s * q
        assert (survive < PROB_FLOOR).any() and (survive > PROB_FLOOR).any()
    if s == 1.0:
        assert survival_probability(s, np.array([PROB_FLOOR]))[0] == 0.0
        above = np.nextafter(PROB_FLOOR, 1.0)
        assert survival_probability(s, np.array([above]))[0] == above


# --- (d) the work arrays the kernel keeps between runs -----------------------


def cz_spec(trials: int, **overrides) -> ExperimentSpec:
    base = dict(
        protocol="cz",
        error_model=AmplitudeErrorModel.gaussian_iid(0.05),
        input_state=InputSpec("bell"),
        trials=trials,
        master_seed=17,
        selectivity=0.95,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def kernel_inputs(spec: ExperimentSpec) -> tuple:
    """``survivor_paths``' arguments for all of the spec's trajectories as
    one block, as the runner drives a block: its input on the register, the
    start of every row."""
    space = _space_for(spec)
    state = experiments._input_on(spec, _Register(space.n_ions, space.fock_cutoff))
    mc = spec.mode == "mc"
    build = experiments._block_builder(spec)
    errors, _, uniforms = draw_block(
        spec.error_model,
        spec.n_steps,
        spec.master_seed,
        range(spec.trials),
        len(cleanout_sites(build.cleanouts)) if mc else 0,
    )
    draw = (lambda col, live: uniforms[live, col]) if mc else None
    return state.amplitudes, state.space, build(errors), spec.trials, draw, state.space.has_motion


def ensemble_bytes(spec: ExperimentSpec) -> str:
    stats, rows = run_ensemble(spec, return_rows=True)
    return repr(stats.to_dict()) + repr([dataclasses.astuple(row) for row in rows])


def in_new_thread(fn, *args):
    """``fn(*args)`` in a thread of its own, which starts with no work arrays."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def test_results_do_not_alias_the_work_arrays():
    paths = survivor_paths(*kernel_inputs(cz_spec(40)))
    assert paths.alive.all()  # final is the whole block, normalized
    kept = {name: value.copy() for name, value in vars(paths).items()}
    # More rows of another protocol in fewer bytes reuse the work arrays in
    # place; a larger cz block grows them.
    survivor_paths(*kernel_inputs(chain_spec(2, 100, mode="branch")))
    survivor_paths(*kernel_inputs(cz_spec(109, master_seed=18)))
    for name, value in vars(paths).items():
        assert value.tobytes() == kept[name].tobytes(), name


def test_runs_do_not_depend_on_earlier_runs():
    specs = [cz_spec(250), chain_spec(4, 60), cz_spec(250, mode="mc", master_seed=19)]
    alone = [in_new_thread(ensemble_bytes, spec) for spec in specs]
    assert in_new_thread(lambda: [ensemble_bytes(spec) for spec in specs]) == alone
    assert in_new_thread(lambda: [ensemble_bytes(spec) for spec in specs[::-1]]) == alone[::-1]


def test_each_thread_keeps_its_own_work_arrays():
    # More threads than the two cores, switching often: numpy releases the
    # interpreter lock inside the kernel's array operations, so threads that
    # shared work arrays would overwrite each other's blocks, and threads
    # that shared a generator would draw from each other's seeds (17 and 4).
    specs = [cz_spec(250), chain_spec(4, 60), cz_spec(250, mode="mc"), chain_spec(3, 80)]
    sequential = [ensemble_bytes(spec) for spec in specs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            for _ in range(2):
                futures = [pool.submit(ensemble_bytes, spec) for spec in specs]
                assert [f.result(timeout=120) for f in futures] == sequential
    finally:
        sys.setswitchinterval(interval)


def test_a_warm_cz_block_allocates_at_most_two_and_a_half_blocks():
    # Without the kept work arrays one cz-branch block at Fock cutoff 3 (109
    # rows, 174 KB on five levels) peaked at ~5.5 five-level blocks above its
    # start. With them it peaks at 251 KB, 2.25 blocks of its 112 KB of
    # register rows, as it did when the kernel gathered five-level rows.
    spec = cz_spec(_block_size("cz", cz_space()))
    inputs = kernel_inputs(spec)
    survivor_paths(*inputs)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        survivor_paths(*inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * 16 * spec.trials * inputs[0].size


def test_a_warm_cz_block_at_cutoff_50_allocates_under_half_a_register_block():
    # The cz steps reach 5 of a Bell start's 16 * 51 register entries, so
    # the kernel's rows, gathers and products hold those 5 alone. On the
    # whole register a block of 8 rows peaked at 2.28 register blocks.
    spec = cz_spec(_block_size("cz", cz_space(50)), fock_cutoff=50)
    inputs = kernel_inputs(spec)
    survivor_paths(*inputs)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        survivor_paths(*inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 0.5 * 16 * spec.trials * inputs[0].size


# --- (e) the generator a thread keeps for its seed ---------------------------


def philox_seeds(monkeypatch) -> list:
    """The seed of every ``np.random.Philox`` built from now on, in order."""
    built, philox = [], np.random.Philox

    def counted(seed=None, **kwargs):
        built.append(seed)
        return philox(seed, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return built


def test_a_thread_builds_one_philox_per_seed(monkeypatch):
    spec = cz_spec(3 * _block_size("cz", cz_space()) + 1, mode="mc")
    built = philox_seeds(monkeypatch)
    in_new_thread(run_ensemble, spec)
    assert built == [17]  # four blocks
    # Kept while the seed repeats; another seed replaces it.
    in_new_thread(lambda: [run_ensemble(dataclasses.replace(spec, master_seed=m)) for m in (17, 17, 18, 17)])
    assert built == [17, 17, 18, 17]


def test_runs_after_another_seed_equal_runs_alone():
    specs = [cz_spec(250, mode="mc", master_seed=m) for m in (21, 22, 21)]
    alone = [in_new_thread(ensemble_bytes, spec) for spec in specs]
    assert in_new_thread(lambda: [ensemble_bytes(spec) for spec in specs]) == alone
