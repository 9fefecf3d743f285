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
"""

import math
import tracemalloc

import numpy as np
import pytest

from heraldsim import experiments
from heraldsim.dissipation import PROB_FLOOR, aux_cleanout, qubit_cleanout
from heraldsim.experiments import (
    ExperimentSpec,
    InputSpec,
    _block_size,
    enumerate_trajectory,
    run_ensemble,
)
from heraldsim.noise import AmplitudeErrorModel, draw_block
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
    make_state,
)

BRIGHT = int(IonLevel.BRIGHT)


def bright_mask(space: StateSpace) -> np.ndarray:
    """Basis states of the space where some ion is Bright, from the tensor
    indices alone."""
    levels = np.indices(space.factor_dims)[: space.n_ions]
    return (levels == BRIGHT).any(axis=0).reshape(-1)


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


def cleanout_projector(space: StateSpace, ch) -> np.ndarray:
    """The diagonal of the projector onto a clean-out's target."""
    index = np.indices(space.factor_dims)
    hit = np.isin(index[ch.ion], [int(lv) for lv in ch.levels])
    if ch.fock is not None:
        hit &= np.isin(index[space.n_ions], sorted(ch.fock))
    return hit.reshape(-1)


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
            target = cleanout_projector(space, ch)
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
        lambda: _into_register(amps[None], space),
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
        survivor_paths(amps[None], space, steps)


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
    amps = np.zeros((2, space.dim), dtype=complex)
    amps[:, space.index([0, 1], 0)] = math.sqrt(1 - leak)
    amps[1, space.index([1, 0], space.fock_cutoff)] = math.sqrt(leak)
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
    start = np.broadcast_to(state.amplitudes, (spec.trials, register.dim))
    steps = build(errors)
    assert warm_peak(lambda: survivor_paths(start, register, steps)) <= 2 * 16 * spec.trials * 4**4


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
