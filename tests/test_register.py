"""The survivor kernel's four-level register against five-level oracles.

Only the clean-out fills Bright, and flagged branches leave the survivor
path, so a survivor never holds Bright amplitude: ``survivor_paths`` takes
rows of each ion's other four levels only. ``_into_register`` refuses a
public start with Bright amplitude, but nothing inspects the step
operators, so the explicit factor and dense-matrix checks below, over every
operator the builders make, are the only guard of that premise. These
tests also check the register against a dense five-level oracle
(``np.kron`` of the per-ion matrices and explicit projector clean-outs,
numpy only), check that every entry point refuses a start with Bright
amplitude, check that the states and ideals the runner builds on the
register have the bytes of the public ones at ``_basis``, and guard,
without timing, that a chain block holds register rows and that a run
holds no five-level vector.

Chains from product starts run on one vector per ion. For 2-8 ions their
rows are checked against a dense five-level oracle that applies each
ion's 5x5 matrix on its axis (the Kronecker product ``np.asarray`` of an
``IonProduct`` gives, checked against it at 2-3 ions) and the projector
clean-outs above, in both modes and at errors that reach the lost-half
recount; a start entangled at 1e-12 stays on the register with its bits,
a start that is not normalized (zero or NaN included) is refused on the
factors as on the register and the support, a spec's read-only start is
factored once per thread and a writable one on every call, a warm factor
block allocates little beside what it returns, and 5-8-ion rows meet the
closed form. Each ion's factor transfer has the bytes of single's one-ion
register row under that ion's factor. The kernel refuses a start that is
not one register row, and steps whose operators do not hold one row per
trajectory.
"""

import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from oracle import bright_mask, cleanout_mask

from heraldsim import experiments, protocols, statespace
from heraldsim.dissipation import PROB_FLOOR, aux_cleanout, qubit_cleanout
from heraldsim.experiments import (
    ExperimentSpec,
    InputSpec,
    _block_size,
    enumerate_trajectory,
    run_ensemble,
)
from heraldsim.noise import AmplitudeErrorModel, draw_block, sample_errors_counted, trajectory_rng
from heraldsim.protocols import (
    LEAK_ATOL,
    ONE_ION,
    CrosstalkProfile,
    GateSpec,
    LeakageError,
    _Step,
    addressed_builder,
    certified_single_qubit,
    cleanout_branches,
    cleanout_sample,
    cleanout_sites,
    cz_builder,
    cz_space,
    ideal_addressed_output,
    ideal_cz_output,
    no_flag_branch,
    run_protocol,
    survivor_paths,
    transfer_pass,
)
from heraldsim.statespace import (
    N_LEVELS,
    BlochAxis,
    IonLevel,
    IonProduct,
    PairRotations,
    PureState,
    StateSpace,
    _Register,
    _basis,
    _into_register,
    _public_rows,
    fidelity_up_to_global_phase,
    make_state,
    plus_minus_n_vectors,
)

BRIGHT = int(IonLevel.BRIGHT)


def random_errors(rng, block: int, n_steps: int) -> np.ndarray:
    """Normal errors of width 0.6, with +-pi among them."""
    errors = rng.normal(0.0, 0.6, size=(block, n_steps))
    errors[0, 0], errors[-1, -1] = math.pi, -math.pi
    return errors


def random_gate(rng) -> GateSpec:
    return GateSpec(BlochAxis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)), rng.uniform(-4, 4))


def random_chain(rng, n_ions: int) -> tuple[CrosstalkProfile, int]:
    target = int(rng.integers(n_ions))
    ratios = [1.0 if j == target else float(rng.choice([0.0, rng.uniform(0, 0.99)])) for j in range(n_ions)]
    return CrosstalkProfile(tuple(ratios)), target


def qubit_start(rng, space: StateSpace) -> PureState:
    """A random normalized state on the qubit manifold of every ion, Fock 0."""
    amps = np.zeros(space.factor_dims, dtype=complex)
    qubits = (slice(0, 2),) * space.n_ions + ((0,) if space.has_motion else ())
    shape = amps[qubits].shape
    amps[qubits] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps = amps.reshape(-1)
    return PureState(space, amps / np.linalg.norm(amps))


def builder_cases():
    """(space, builder, steps per row) of single, cz at cutoffs 2-5 and
    2-5-ion chains."""
    rng = np.random.default_rng(2024)
    cases = [("single", StateSpace(1), addressed_builder(random_gate(rng), ONE_ION, 0, 0.9))]
    for cutoff in (2, 3, 4, 5):
        cases.append((f"cz-{cutoff}", cz_space(cutoff), cz_builder(0.9, cz_space(cutoff))))
    for n in (2, 3, 4, 5):
        xtalk, target = random_chain(rng, n)
        cases.append((f"chain{n}", StateSpace(n), addressed_builder(random_gate(rng), xtalk, target, 0.9)))
    return cases


BUILDERS = builder_cases()


# --- the premise: nothing reaches Bright -------------------------------------


@pytest.mark.parametrize("name,space,build", BUILDERS, ids=[c[0] for c in BUILDERS])
def test_every_builder_operator_keeps_bright_empty(name, space, build):
    rng = np.random.default_rng(len(name))
    n_steps = 4 if space.has_motion else 2
    steps = build(random_errors(rng, 9, n_steps))
    for step in steps:
        for u, _ in step.unitaries:
            if isinstance(u, IonProduct):
                # Each factor's Bright row and column are the unit vector.
                unit = np.eye(N_LEVELS)[BRIGHT]
                assert np.array_equal(u.factors[..., BRIGHT, :], np.broadcast_to(unit, u.factors.shape[:-1]))
                assert np.array_equal(u.factors[..., :, BRIGHT], np.broadcast_to(unit, u.factors.shape[:-1]))
            else:
                # The dense (ion level, Fock) matrices: no entry joins a
                # Bright state to another, and Bright is left as it is.
                dense = np.asarray(u)
                f = u.fock_dim
                bright = np.arange(BRIGHT * f, (BRIGHT + 1) * f)
                others = np.arange(BRIGHT * f)
                assert not dense[:, bright][:, :, others].any()
                assert not dense[:, others][:, :, bright].any()
                assert np.array_equal(dense[:, bright][:, :, bright], np.broadcast_to(np.eye(f), (9, f, f)))


@pytest.mark.parametrize("name,space,build", BUILDERS, ids=[c[0] for c in BUILDERS])
def test_a_start_without_bright_ends_without_it(name, space, build):
    rng = np.random.default_rng(7 + len(name))
    n_steps = 4 if space.has_motion else 2
    steps = build(random_errors(rng, 6, n_steps))
    starts = np.stack([qubit_start(rng, space).amplitudes for _ in range(6)])
    mask = bright_mask(space)
    # The five-level pass of every transfer, without clean-outs.
    passed = transfer_pass(starts.copy(), space, steps)
    assert not passed[:, mask].any()
    # The survivor of each row, in the public layout.
    for row in range(6):
        outcome = run_protocol(PureState(space, starts[row]), row_steps(steps, row))
        survivor = no_flag_branch(outcome)
        if survivor is not None:
            assert not survivor.state.amplitudes[mask].any()


def row_steps(steps, row: int) -> list[_Step]:
    """Row ``row`` of a block's steps: the steps of one trajectory."""
    return [_Step(tuple((u[row : row + 1], t) for u, t in step.unitaries), step.cleanouts) for step in steps]


# --- an independent dense five-level oracle ----------------------------------


def dense_operator(space: StateSpace, u, targets) -> np.ndarray:
    """Row 0 of a step operator as one matrix on the whole space: the
    Kronecker product of the per-ion factors, or the (ion level, Fock)
    matrix of pair rotations times the identity on the other ion."""
    if isinstance(u, IonProduct):
        full = np.ones((1, 1))
        for k in range(space.n_ions):
            full = np.kron(full, u.factors[0, k])
        return full
    assert isinstance(u, PairRotations) and space.n_ions == 2
    f = space.fock_dim
    pair = np.asarray(u)[0].reshape(N_LEVELS, f, N_LEVELS, f)
    eye = np.eye(N_LEVELS)
    if targets[0] == 0:
        full = np.einsum("afcg,bd->abfcdg", pair, eye)
    else:
        full = np.einsum("bfdg,ac->abfcdg", pair, eye)
    return full.reshape(space.dim, space.dim)


def oracle(space: StateSpace, start: np.ndarray, steps, uniforms=None):
    """The survivor path by dense matrices: the branch table as (sites and
    flags, probability) pairs and the normalized survivor, or, given one
    uniform per clean-out, the sampled records and end state."""
    psi, weight, records, table = start.astype(complex), 1.0, [], []
    draws = iter(uniforms) if uniforms is not None else None
    for si, step in enumerate(steps):
        for u, targets in step.unitaries:
            psi = dense_operator(space, u, targets) @ psi
        for ch in step.cleanouts:
            target = cleanout_mask(space, ch.ion, ch.levels, ch.fock)
            norm2 = np.vdot(psi, psi).real
            p = np.vdot(psi[target], psi[target]).real / norm2
            s = ch.selectivity
            segments = [(p, True), ((1 - s) * (1 - p), True), (s * (1 - p), False)]
            if draws is not None:
                kept = [seg for seg in segments if seg[0] > PROB_FLOOR]
                u_draw, acc, taken = next(draws), 0.0, kept[-1]
                for seg in kept:
                    acc += seg[0]
                    if u_draw < acc:
                        taken = seg
                        break
                records.append((si, ch.ion, taken[1], taken[0]))
                if taken[1]:
                    return records, None
            else:
                for prob, flagged in segments[:2]:
                    if prob > PROB_FLOOR:
                        table.append((records + [(si, ch.ion, True)], weight * prob))
                survive = segments[2][0]
                if not survive > PROB_FLOOR:
                    return table, None
                weight *= survive
                records = records + [(si, ch.ion, False)]
            psi = np.where(target, 0.0, psi)
    final = psi / np.linalg.norm(psi)
    if draws is not None:
        return records, final
    table.append((records, weight))
    return table, final


def oracle_cases():
    rng = np.random.default_rng(99)
    cases = [("single", StateSpace(1), addressed_builder(random_gate(rng), ONE_ION, 0, 0.9), 2)]
    cases.append(("cz-3", cz_space(3), cz_builder(0.9, cz_space(3)), 4))
    for n in (2, 3):
        xtalk, target = random_chain(rng, n)
        cases.append((f"chain{n}", StateSpace(n), addressed_builder(random_gate(rng), xtalk, target, 0.85), 2))
    return cases


ORACLE_CASES = oracle_cases()


def assert_table_matches(outcome, table):
    got = sorted(
        ([(r.step_index, r.ion, r.flagged) for r in b.records], b.probability) for b in outcome.branches
    )
    want = sorted(table)
    assert [sites for sites, _ in got] == [sites for sites, _ in want]
    np.testing.assert_allclose([p for _, p in got], [p for _, p in want], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,space,build,n_steps", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
@pytest.mark.parametrize("seed", range(4))
def test_the_register_matches_the_dense_oracle(name, space, build, n_steps, seed):
    rng = np.random.default_rng(seed * 101 + len(name))
    start = qubit_start(rng, space)
    steps = build(random_errors(rng, 1, n_steps) if seed else rng.normal(0.0, 0.4, size=(1, n_steps)))
    monitor = space.has_motion
    # Branch mode: the table and the survivor.
    outcome = run_protocol(start, steps, "branch", monitor_top_fock=monitor)
    table, final = oracle(space, start.amplitudes, steps)
    assert_table_matches(outcome, table)
    survivor = no_flag_branch(outcome)
    assert (survivor is None) == (final is None)
    if survivor is not None:
        np.testing.assert_allclose(survivor.state.amplitudes, final, rtol=0, atol=1e-12)
    # mc mode: run_protocol draws one uniform per clean-out it reaches.
    for draw_seed in range(3):
        uniforms = np.random.default_rng(draw_seed).random(len(cleanout_sites(build.cleanouts)))
        (branch,) = run_protocol(
            start, steps, "mc", np.random.default_rng(draw_seed), monitor_top_fock=monitor
        ).branches
        records, final = oracle(space, start.amplitudes, steps, uniforms)
        assert [(r.step_index, r.ion, r.flagged) for r in branch.records] == [r[:3] for r in records]
        np.testing.assert_allclose(
            [r.branch_probability for r in branch.records], [r[3] for r in records], rtol=0, atol=1e-12
        )
        assert (branch.state is None) == (final is None)
        if final is not None:
            np.testing.assert_allclose(branch.state.amplitudes, final, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,space,build,n_steps", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_a_start_with_bright_amplitude_is_refused(name, space, build, n_steps):
    # 1e-150 at one Bright state: the four-level register cannot hold it,
    # and dropping it would pass silently.
    rng = np.random.default_rng(5)
    amps = qubit_start(rng, space).amplitudes.copy()
    amps[np.flatnonzero(bright_mask(space))[-1]] = 1e-150
    start = PureState(space, amps)
    steps = build(rng.normal(0.0, 0.3, size=(1, n_steps)))
    ch = qubit_cleanout(0, 0.9)
    runs = [
        lambda: _into_register(amps, space),
        lambda: run_protocol(start, steps, "branch"),
        lambda: run_protocol(start, steps, "mc", np.random.default_rng(0)),
        lambda: cleanout_branches(start, ch),
        lambda: cleanout_sample(start, ch, np.random.default_rng(0)),
    ]
    if name == "single":
        # Its qubit-manifold check (POP_ATOL) lets 1e-300 outside through.
        runs.append(lambda: certified_single_qubit(start, random_gate(rng), (0.1, -0.2)))
    for run in runs:
        with pytest.raises(ValueError, match="Bright"):
            run()
    # The kernel itself takes register rows only.
    with pytest.raises(ValueError, match="register rows"):
        survivor_paths(amps, space, steps)


# --- the runner's states on the register -------------------------------------


def shared_states(rng, space: StateSpace):
    """Pairs of one state built by ``make_state`` from the same random
    entries in the space and in its register, on random supports of the
    register's basis: one entry, at least 9 entries where the register has
    them, half of them and all of them."""
    register, basis = _Register(space.n_ions, space.fock_cutoff), _basis(space)
    sizes = {1, min(9, register.dim), register.dim // 2 + 1, register.dim}
    sizes |= set(rng.integers(min(9, register.dim), register.dim + 1, size=3).tolist())
    for size in sorted(sizes):
        picks = rng.choice(register.dim, size=size, replace=False)
        values = (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()
        public = make_state(space, zip(basis[picks].tolist(), values))
        yield public, make_state(register, zip(picks.tolist(), values))


@pytest.mark.parametrize("n_ions", [1, 2, 3, 4, 5])
def test_a_register_state_and_its_addressed_ideal_have_the_public_bytes(n_ions):
    # make_state sums the norm over the nonzero entries in basis order, so
    # the zeros where some ion is Bright do not regroup the sum; the ideal
    # rotation is embedded in the identity on the space's levels.
    rng = np.random.default_rng(n_ions)
    space = StateSpace(n_ions)
    basis = _basis(space)
    for public, kept in shared_states(rng, space):
        assert kept.amplitudes.tobytes() == public.amplitudes[basis].tobytes()
        for target in range(n_ions):
            gate = random_gate(rng)
            ideal = ideal_addressed_output(public, target, gate).amplitudes[basis]
            assert ideal_addressed_output(kept, target, gate).amplitudes.tobytes() == ideal.tobytes()


@pytest.mark.parametrize("cutoff", [2, 3, 4, 5])
def test_a_register_state_and_its_cz_ideal_have_the_public_bytes(cutoff):
    rng = np.random.default_rng(10 + cutoff)
    space = cz_space(cutoff)
    basis = _basis(space)
    for public, kept in shared_states(rng, space):
        assert kept.amplitudes.tobytes() == public.amplitudes[basis].tobytes()
        ideal = ideal_cz_output(public).amplitudes[basis]
        assert ideal_cz_output(kept).amplitudes.tobytes() == ideal.tobytes()


# --- the top-Fock check ------------------------------------------------------


@pytest.mark.parametrize("scale,raises", [(1.01, True), (0.99, False), (0.0, False)])
def test_a_top_fock_leak_raises_only_above_the_tolerance(scale, raises):
    # A start whose top Fock state holds scale * LEAK_ATOL of its norm; a
    # step with no transfer runs the check before its clean-out, of an
    # empty target.
    space = cz_space(3)
    leak = scale * LEAK_ATOL
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index([0, 1], 0)] = math.sqrt(1 - leak)
    amps[space.index([1, 0], space.fock_cutoff)] = math.sqrt(leak)
    step = _Step((), (aux_cleanout(1),))
    inputs = (*_into_register(amps, space), [step])
    if raises:
        with pytest.raises(LeakageError):
            survivor_paths(*inputs, monitor_top_fock=True)
    else:
        assert survivor_paths(*inputs, monitor_top_fock=True).alive.all()


# --- chains hold register rows -----------------------------------------------


def chain_spec(n_ions: int, trials: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="addressing",
        error_model=AmplitudeErrorModel.gaussian_iid(0.05),
        input_state=InputSpec("plus_n"),
        trials=trials,
        master_seed=17,
        gate=GateSpec(BlochAxis(math.pi / 3, 0.5), math.pi / 2),
        selectivity=0.95,
        mode="branch",
        crosstalk=(0.05, 1.0, 0.05, 0.02, 0.01, 0.01, 0.01, 0.01)[:n_ions],
        target=1,
    )


def warm_peak(run) -> int:
    """The ``tracemalloc`` peak of a second call of ``run`` over what was
    allocated before it: the first call fills the kept work arrays."""
    run()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_a_warm_chain_block_allocates_at_most_two_register_blocks():
    # A four-ion chain's rows hold 4**4 = 256 amplitudes on the register,
    # against 5**4 = 625 on five levels: the end states alone, 2.44 times
    # wider on five levels, would pass this bound.
    spec = chain_spec(4, _block_size("addressing", StateSpace(4)))
    register = _Register(4)
    state = experiments._input_on(spec, register)
    build = experiments._block_builder(spec)
    errors, _, _ = draw_block(spec.error_model, spec.n_steps, spec.master_seed, range(spec.trials))
    steps = build(errors)
    run = lambda: survivor_paths(state.amplitudes, register, steps, spec.trials)
    assert warm_peak(run) <= 2 * 16 * spec.trials * 4**4


def test_a_run_keeps_no_register_row_past_one_block():
    # The runner keeps the last spec's register input and ideal for its
    # next batch only while a row fits in one block's bytes; an 8-ion row
    # (1 MiB) is freed with the run, so a branch table after the ensemble
    # does not hold two more rows.
    run_ensemble(chain_spec(4, 3))
    assert experiments._kept_inputs.last is not None  # a 4 KiB row
    run_ensemble(chain_spec(8, 1))
    assert experiments._kept_inputs.last is None


@pytest.mark.parametrize(
    "run, trials",
    [(run_ensemble, 1), (run_ensemble, 2), (enumerate_trajectory, 1)],
    ids=["1", "2", "branch_table"],
)
def test_an_eight_ion_run_holds_no_five_level_vector(run, trials):
    # One five-level vector of 8 ions is 16 * 5**8 B = 6.25 MB, a register
    # row 1 MiB. The run's start, ideal, block, scratch and end states are
    # register rows, and it peaks at 4.3 MB; a runner that built its start
    # and ideal on five levels peaked at 25 MB. The CLI's branch table,
    # enumerate_trajectory, runs under the same estimate: 5.3 MB on the
    # register, 21 MB from a five-level input to a five-level end state.
    spec = chain_spec(8, trials)
    assert warm_peak(lambda: run(spec)) < 16 * 5**8


# --- chains from product starts run on one vector per ion ---------------------


def ion_by_ion(space: StateSpace, factors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``np.asarray(IonProduct(factors)) @ psi`` for one row's factors,
    applied as the Kronecker product it is: each ion's 5x5 matrix on its
    axis of the dense five-level state, so no matrix spans the space."""
    tensor = psi.reshape(space.factor_dims)
    for k, u in enumerate(factors):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [k])), 0, k)
    return tensor.reshape(-1)


def chain_oracle(space: StateSpace, start: np.ndarray, steps, uniforms=None):
    """One row's survivor path by dense five-level states: at every clean-out
    reached, (p, q, probability of the branch taken, flagged), with q the
    squared norm left over the squared norm before; and the normalized end
    state, or None. Branch mode (no ``uniforms``) follows the survivor."""
    psi, records = start.astype(complex), []
    draws = iter(uniforms) if uniforms is not None else None
    for step in steps:
        for u, _ in step.unitaries:
            psi = ion_by_ion(space, u.factors[0], psi)
        for ch in step.cleanouts:
            target = cleanout_mask(space, ch.ion, ch.levels, ch.fock)
            norm2 = np.vdot(psi, psi).real
            p = np.vdot(psi[target], psi[target]).real / norm2
            psi = np.where(target, 0.0, psi)
            q = np.vdot(psi, psi).real / norm2
            s = ch.selectivity
            segments = [(p, True), ((1 - s) * q, True), (s * q, False)]
            taken = segments[2]
            if draws is not None:
                kept = [seg for seg in segments if seg[0] > PROB_FLOOR]
                u_draw, acc, taken = next(draws), 0.0, kept[-1]
                for seg in kept:
                    acc += seg[0]
                    if u_draw < acc:
                        taken = seg
                        break
            records.append((p, q, taken[0] if taken[0] > PROB_FLOOR else 0.0, taken[1]))
            if taken[1] or not taken[0] > PROB_FLOOR:
                return records, None
    return records, psi / np.linalg.norm(psi)


def product_chain_case(n_ions: int, seed: int, mode: str, rows: int):
    """A random chain of ``n_ions``, a plus_n or basis start, the steps of
    ``rows`` rows with errors drawn at sigma 4 (most clamp at +-pi), and,
    in mc mode, one uniform per clean-out for every row. Row 0's errors lie
    1e-4 and 3e-5 from pi, so its clean-outs take all but 1e-9 or less and
    the lost-half recount decides q."""
    rng = np.random.default_rng(1000 * n_ions + seed)
    xtalk, target = random_chain(rng, n_ions)
    ratios = list(xtalk.ratios)
    ratios[(target + 1) % n_ions] = 0.99
    if n_ions > 2:
        ratios[(target + 2) % n_ions] = 0.0
    label = "".join(rng.choice(list("01+-"), size=n_ions))
    spec = ExperimentSpec(
        protocol="addressing",
        error_model=AmplitudeErrorModel.gaussian_iid(4.0),
        input_state=InputSpec("plus_n") if seed % 2 else InputSpec("basis", label),
        trials=rows,
        master_seed=seed,
        gate=random_gate(rng),
        selectivity=float(rng.choice([1.0, 0.9])),
        mode=mode,
        crosstalk=tuple(ratios),
        target=target,
    )
    build = experiments._block_builder(spec)
    n_uniforms = len(cleanout_sites(build.cleanouts)) if mode == "mc" else 0
    errors, clamps, uniforms = draw_block(spec.error_model, 2, seed, range(rows), n_uniforms)
    assert clamps.sum() > 0
    errors[0] = (math.pi - 1e-4, -(math.pi - 3e-5))
    return spec, build(errors), uniforms


@pytest.mark.parametrize("n_ions", range(2, 9))
@pytest.mark.parametrize("mode", ["branch", "mc"])
def test_factor_rows_match_the_dense_oracle(n_ions, mode):
    rows = 4 if n_ions < 6 else 2
    for seed in (0, 1):  # a basis start, then plus_n
        spec, steps, uniforms = product_chain_case(n_ions, seed, mode, rows)
        space = StateSpace(n_ions)
        public = experiments.prepare_input(spec)
        ideal = ideal_addressed_output(public, spec.target, spec.gate)
        start, register = _into_register(public.amplitudes, space)
        draw = (lambda col, live: uniforms[live, col]) if mode == "mc" else None
        paths = survivor_paths(start, register, steps, rows, draw)
        # On the factors: the end rows hold each ion's Q0 and Q1 only.
        assert paths.columns.size == 2**n_ions
        finals = iter(_public_rows(paths.final, space, paths.columns))
        for b in range(rows):
            records, final = chain_oracle(
                space, public.amplitudes, row_steps(steps, b), uniforms[b] if mode == "mc" else None
            )
            reached = len(records)
            flagged = [r[3] for r in records]
            assert paths.alive[b] == (final is not None)
            if mode == "mc":
                assert paths.flags[b, :reached].tolist() == flagged
                assert not paths.flags[b, reached:].any()
                assert paths.done[b] == reached
            p, q, taken, _ = (np.array(col) for col in zip(*records))
            np.testing.assert_allclose(paths.target[b, :reached], p, rtol=0, atol=1e-12)
            # Relative: where a clean-out takes all but 1e-9, 1 - p keeps
            # only seven digits of q, and the recount keeps them all.
            np.testing.assert_allclose(paths.rest[b, :reached], q, rtol=1e-9, atol=0)
            np.testing.assert_allclose(paths.probs[b, :reached], taken, rtol=0, atol=1e-12)
            if mode == "branch":
                weight = math.prod(taken) if final is not None else 0.0
                assert paths.weight[b] == pytest.approx(weight, rel=0, abs=1e-12)
            if final is not None:
                got = next(finals)
                np.testing.assert_allclose(got, final, rtol=0, atol=1e-12)
                fidelity = fidelity_up_to_global_phase(PureState(space, got), ideal)
                assert fidelity == pytest.approx(
                    fidelity_up_to_global_phase(PureState(space, final), ideal), abs=1e-12
                )


@pytest.mark.parametrize("n_ions", [2, 3])
def test_the_ion_by_ion_oracle_is_the_dense_product(n_ions):
    rng = np.random.default_rng(n_ions)
    space = StateSpace(n_ions)
    xtalk, target = random_chain(rng, n_ions)
    (step, _) = addressed_builder(random_gate(rng), xtalk, target)(rng.normal(0.0, 1.0, (1, 2)))
    (u, targets), = step.unitaries
    psi = qubit_start(rng, space).amplitudes
    np.testing.assert_allclose(
        ion_by_ion(space, u.factors[0], psi), dense_operator(space, u, targets) @ psi, rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(np.asarray(u)[0], dense_operator(space, u, targets), rtol=0, atol=0)


def entangled_chain(trials: int, mode: str, tilt: float) -> tuple:
    """``survivor_paths``' inputs for a 3-ion plus_n chain whose start is
    given as amplitudes, with ``tilt`` added to one of them."""
    base = chain_spec(3, trials)
    plus, _ = plus_minus_n_vectors(base.gate.axis)
    amps = [plus[a] * plus[b] * plus[c] for a, b, c in np.ndindex(2, 2, 2)]
    amps[5] += tilt
    spec = ExperimentSpec(**{
        **vars(base), "mode": mode, "input_state": InputSpec("amplitudes", amplitudes=tuple(amps)),
        "error_model": AmplitudeErrorModel.gaussian_iid(0.6),
    })
    register = _Register(3)
    state = experiments._input_on(spec, register)
    build = experiments._block_builder(spec)
    n_uniforms = len(cleanout_sites(build.cleanouts)) if mode == "mc" else 0
    errors, _, uniforms = draw_block(spec.error_model, 2, 5, range(trials), n_uniforms)
    draw = (lambda col, live: uniforms[live, col]) if mode == "mc" else None
    return state.amplitudes, register, build(errors), draw


@pytest.mark.parametrize("mode", ["branch", "mc"])
def test_a_start_entangled_at_1e_12_runs_on_the_register(mode, monkeypatch):
    row, register, steps, draw = entangled_chain(20, mode, 1e-12)
    paths = survivor_paths(row, register, steps, 20, draw)
    assert paths.columns == slice(None)
    # The register's bits: those of a kernel that factors nothing.
    monkeypatch.setattr(protocols, "_factored", lambda start, _: (None, False))
    alone = survivor_paths(row, register, steps, 20, draw)
    assert alone.columns == slice(None)
    for name, value in vars(paths).items():
        if name != "columns":
            assert value.tobytes() == vars(alone)[name].tobytes(), name
    # Without the tilt the same start runs on the factors.
    row, *_ = entangled_chain(20, mode, 0.0)
    monkeypatch.undo()
    assert survivor_paths(row, register, steps, 20, draw).columns.size == 8


def test_a_start_that_is_not_one_register_row_is_refused():
    # A block of starts would broadcast into a block of blocks.
    row, register, steps, _ = entangled_chain(3, "branch", 0.0)
    with pytest.raises(ValueError, match="one register row"):
        survivor_paths(np.stack([row, row, row]), register, steps, 3)


def one_row_case(layout: str) -> tuple:
    """A start on each of the kernel's layouts, its register and steps of
    one row: a 3-ion product start (the factors), an entangled 3-ion start
    (the register) and a cz Bell start (the support)."""
    if layout == "cz":
        space = cz_space(3)
        bell = make_state(space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 0.6j)])
        row, register = _into_register(bell.amplitudes, space)
        return row, register, cz_builder(0.9, space)(np.full((1, 4), 0.1))
    row, register, steps, _ = entangled_chain(1, "branch", 0.3 if layout == "entangled" else 0.0)
    return row, register, steps


@pytest.mark.parametrize("layout,columns", [("product", 8), ("entangled", 64), ("cz", 5)])
def test_operators_with_the_wrong_row_count_are_refused(layout, columns):
    # One-row operators under three rows would broadcast: every row would
    # take row 0's operator, silently. Two rows under three would fail in a
    # numpy broadcast that does not name the cause.
    row, register, steps = one_row_case(layout)
    paths = survivor_paths(row, register, steps)
    assert np.arange(register.dim)[paths.columns].size == columns  # the layout named
    two = [_Step(tuple((u[[0, 0]], t) for u, t in step.unitaries), step.cleanouts) for step in steps]
    for wrong, held in ((steps, 1), (two, 2)):
        with pytest.raises(ValueError, match=f"one row per trajectory, 3, not {held}"):
            survivor_paths(row, register, wrong, 3)


@pytest.mark.parametrize("n_ions", [2, 3, 4])
def test_a_factor_transfer_is_the_one_ion_register_transfer(n_ions):
    # The one arithmetic of an ion's transfer: each ion's vector after a
    # chain's factor transfer has the bytes of single's one-ion register
    # row under that ion's factor, for the whole block and for the live
    # rows that an mc compaction leaves, whose operators are gathered.
    rng = np.random.default_rng(50 + n_ions)
    block = 9
    factors = rng.normal(size=(block, n_ions, N_LEVELS, N_LEVELS)) * (1 + 1j * rng.normal(size=N_LEVELS))
    vectors = rng.normal(size=(block, n_ions, 4)) + 1j * rng.normal(size=(block, n_ions, 4))
    for rows in (slice(None), np.array([0, 2, 3, 7])):
        amps = vectors[rows].copy()
        assert statespace._apply_factors(amps, IonProduct(factors), rows) is amps
        for b, r in enumerate(np.arange(block)[rows]):
            for k in range(n_ions):
                alone = vectors[r, k][None].copy()
                statespace._apply_product(alone, _Register(1), IonProduct(factors[r, k][None, None]))
                assert amps[b, k].tobytes() == alone[0].tobytes(), (rows, b, k)


def unnormalized_case(protocol: str) -> tuple:
    """A normalized start, its register and steps of 3 rows: a cz start,
    which runs on the support, or a chain start, which runs on the
    factors."""
    if protocol == "chain":
        row, register, steps, _ = entangled_chain(3, "branch", 0.0)
        return row, register, steps
    space = cz_space(3)
    row, register = _into_register(qubit_start(np.random.default_rng(3), space).amplitudes, space)
    return row, register, cz_builder(0.9, space)(np.full((3, 4), 0.1))


@pytest.mark.parametrize("protocol", ["cz", "chain"])
@pytest.mark.parametrize("scale", [0.0, 1.01, math.nan])
def test_a_chain_start_that_is_not_normalized_is_refused(protocol, scale):
    # A zero chain row factors into zero vectors, with no division by zero,
    # and the kernel's norm check refuses it as it does on the register. A
    # NaN norm fails every comparison, so the check asks for a norm within
    # its bound rather than for one outside it. Writable and read-only
    # starts alike: the runner's is read-only, and a chain's is then
    # factored through the kept result.
    row, register, steps = unnormalized_case(protocol)
    scaled = scale * row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for writable in (True, False):
            scaled.flags.writeable = writable
            with pytest.raises(ValueError, match="start from normalized states"):
                survivor_paths(scaled, register, steps, 3)


def counted_factors(monkeypatch) -> list:
    """The row count of every ``statespace._factor`` call from now on."""
    calls, factor = [], statespace._factor

    def counted(amps, register):
        calls.append(len(amps))
        return factor(amps, register)

    monkeypatch.setattr(statespace, "_factor", counted)
    return calls


def test_a_spec_factors_its_start_once(monkeypatch):
    # Factoring the 4-ion start took 148 us against 1.16 ms for a whole
    # 72-trial 4-ion mc ensemble (2-core AVX-512 x86-64): the runner's start
    # is read-only and owns its memory, so a thread factors it once, over
    # every block of both ensembles.
    spec = replace(chain_spec(4, 3 * _block_size("addressing", StateSpace(4)) + 1), mode="mc")
    calls = counted_factors(monkeypatch)
    with ThreadPoolExecutor(max_workers=1) as pool:  # a thread that has kept nothing
        pool.submit(lambda: [run_ensemble(spec) for _ in range(2)]).result()
    assert calls == [1]


def test_a_writable_start_is_factored_on_every_call(monkeypatch):
    row, register, steps, _ = entangled_chain(4, "branch", 0.0)
    calls = counted_factors(monkeypatch)
    # A writable copy, and a read-only view that owns nothing, are factored
    # on every call; the read-only row that owns its memory once.
    for start, factored in ((row.copy(), 3), (row[:], 3), (row, 1)):
        calls.clear()
        for _ in range(3):
            assert survivor_paths(start, register, steps, 4).columns.size == 8
        assert calls == [1] * factored


def warm_transient(run) -> int:
    """The ``tracemalloc`` peak of a second call of ``run`` over what it
    returns: what the call allocates and frees again."""
    run()
    tracemalloc.start()
    try:
        kept = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak - current


@pytest.mark.parametrize("mode", ["branch", "mc"])
def test_a_warm_factor_block_allocates_little_beside_what_it_returns(mode):
    # A four-ion chain block of 128 rows: one register block is 512 KiB,
    # and the factor block 32 KiB. On the register the same call peaked
    # 0.27 (branch) and 1.55 (mc) register blocks over what it returned,
    # with the subsets' copies and, in mc mode, the live rows and their
    # operators copied at each compaction. On the factors it takes 0.025:
    # the transfers' scratch, the compactions, the live rows' gathered
    # operators and the end rows' partial products are kept work arrays.
    # Indexing the live rows' operators instead of gathering them into one
    # read 158 464 B in mc mode.
    spec = replace(chain_spec(4, _block_size("addressing", StateSpace(4))), mode=mode)
    register = _Register(4)
    state = experiments._input_on(spec, register)
    build = experiments._block_builder(spec)
    n_uniforms = len(cleanout_sites(build.cleanouts)) if mode == "mc" else 0
    errors, _, uniforms = draw_block(spec.error_model, 2, spec.master_seed, range(spec.trials), n_uniforms)
    draw = (lambda col, live: uniforms[live, col]) if mode == "mc" else None
    steps = build(errors)
    run = lambda: survivor_paths(state.amplitudes, register, steps, spec.trials, draw)
    paths = run()
    assert paths.columns.size == 16 and 0 < paths.alive.sum() < spec.trials or mode == "branch"
    transient = warm_transient(run)
    assert transient < 16 * spec.trials * 4**4 / 8


@pytest.mark.parametrize("n_ions", [5, 6, 7, 8])
def test_long_chain_rows_satisfy_the_closed_form(n_ions):
    # test_kernel.py's closed form, on chains past its random specs' three
    # ions, which run on one vector per ion: each branch row's weight is
    # s**(2n) times g(delta) of both transfers, g the target's
    # cos^2(delta/2) times cos^2(r(pi + delta)/2) of every neighbor.
    rng = np.random.default_rng(n_ions)
    target = int(rng.integers(n_ions))
    ratios = [1.0 if j == target else float(rng.choice([0.0, 0.99, rng.uniform(0, 0.99)])) for j in range(n_ions)]
    spec = ExperimentSpec(
        protocol="addressing",
        error_model=AmplitudeErrorModel.gaussian_iid(0.6),
        input_state=InputSpec("plus_n"),
        trials=12,
        master_seed=n_ions,
        gate=random_gate(rng),
        selectivity=0.9,
        mode="branch",
        crosstalk=tuple(ratios),
        target=target,
    )
    _, rows = run_ensemble(spec, return_rows=True)
    for row in rows:
        errors, _ = sample_errors_counted(
            spec.error_model, spec.n_steps, trajectory_rng(spec.master_seed, row.index)
        )
        g = [
            math.cos(d / 2) ** 2 * math.prod(math.cos(r * (math.pi + d) / 2) ** 2 for r in ratios if r != 1.0)
            for d in errors
        ]
        expected = spec.selectivity ** (2 * n_ions) * math.prod(g)
        assert row.no_flag_probability == pytest.approx(expected, rel=0, abs=1e-12), row
        if row.no_flag_probability > 0:
            assert row.fidelity >= 1 - 1e-10, row
