"""Branch tables and the unnormalized survivor kernel, against numpy oracles.

``run_protocol(mode="branch")`` reads a state's branch table off its one
survivor path, which ``survivor_paths`` carries unnormalized and cleans out
in place. The oracle below enumerates every herald branch the long way, one
renormalized state per live branch, with numpy only: the basis masks of
``oracle.py``, its own tensor contraction for the step operators, and its
own accounting of the mass dropped below PROB_FLOOR.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import bright_mask, cleanout_mask

from heraldsim.dissipation import PROB_FLOOR, level_cleanout
from heraldsim.experiments import (
    ExperimentSpec,
    InputSpec,
    _run_rows,
    enumerate_trajectory,
    prepare_input,
    run_ensemble,
)
from heraldsim.noise import AmplitudeErrorModel, sample_errors_counted, trajectory_rng
from heraldsim.protocols import (
    CrosstalkProfile,
    GateSpec,
    LeakageError,
    _Step,
    addressed_builder,
    addressed_steps,
    bare_single_qubit,
    cz_builder,
    cz_space,
    cz_steps,
    no_flag_branch,
    run_protocol,
    single_qubit_steps,
    survivor_paths,
)
from heraldsim.statespace import BlochAxis, IonLevel, PureState, StateSpace, _into_register, make_state

Q0, Q1, A_PLUS, A_MINUS = IonLevel.Q0, IonLevel.Q1, IonLevel.AUX_PLUS, IonLevel.AUX_MINUS

# Table probabilities are products of a few factors, each rounded once:
# 1e-12 leaves three orders of magnitude over the rounding either side makes.
PROB_ATOL = 1e-12
# A table sums to 1 within a few roundings of 1.1e-16 each (3.3e-16 seen
# over 300 runs), well under the up to 1e-14 that PROB_FLOOR drops.
MASS_ATOL = 2e-15


# --- the oracle --------------------------------------------------------------


def no_bright_rows(rng, space: StateSpace, block: int) -> np.ndarray:
    """Random normalized rows with 0 wherever some ion is Bright: the
    starts the survivor kernel takes."""
    amps = rng.normal(size=(block, space.dim)) + 1j * rng.normal(size=(block, space.dim))
    amps[:, bright_mask(space)] = 0.0
    return amps / np.linalg.norm(amps, axis=1)[:, None]


def oracle_apply(psi: np.ndarray, space: StateSpace, u: np.ndarray, targets) -> np.ndarray:
    """u on the target factors of one state vector, by tensor contraction."""
    k = len(targets)
    dims = [space.factor_dims[t] for t in targets]
    tensor = psi.reshape(space.factor_dims)
    out = np.tensordot(u.reshape(dims + dims), tensor, axes=(range(k, 2 * k), targets))
    return np.moveaxis(out, range(k), targets).reshape(-1)


def enumerate_branches(psi: np.ndarray, space: StateSpace, steps):
    """Every herald branch of one normalized state as (probability,
    records, state or None); the probability mass dropped at or below
    PROB_FLOOR; and the survivor branch after each step, or None."""
    live = [(1.0, (), psi)]
    done, dropped, after_step = [], 0.0, []
    for si, step in enumerate(steps):
        for u, targets in step.unitaries:
            # The dense form: a chain transfer's Kronecker product of its
            # per-ion factors, or a sideband transfer's matrix.
            u = np.asarray(u)
            live = [(w, recs, oracle_apply(v, space, u, targets)) for w, recs, v in live]
        for ch in step.cleanouts:
            mask, s = cleanout_mask(space, ch.ion, ch.levels, ch.fock), ch.selectivity
            split = []
            for w, recs, v in live:
                p = np.sum(np.abs(v[mask]) ** 2) / np.sum(np.abs(v) ** 2)
                segments = ((p, True), ((1 - s) * (1 - p), True), (s * (1 - p), False))
                for prob, flagged in segments:
                    rec = recs + ((si, ch.ion, flagged, prob),)
                    if prob <= PROB_FLOOR:
                        dropped += w * prob
                    elif flagged:
                        done.append((w * prob, rec, None))
                    else:
                        kept = np.where(mask, 0.0, v)
                        split.append((w * prob, rec, kept / np.linalg.norm(kept)))
            live = split
        after_step.append(live[0] if live else None)
    return done + live, dropped, after_step


# --- random protocol runs ----------------------------------------------------

angle = st.floats(-math.pi, math.pi)
# An error of pi makes a transfer fail outright: its survivor drops out.
errors = st.sampled_from([0.0, math.pi]) | angle
# At selectivity PROB_FLOOR every survivor is dropped, with mass up to the floor.
selectivities = st.sampled_from([1.0, 0.0, PROB_FLOOR]) | st.floats(0.0, 1.0)


@st.composite
def protocol_runs(draw):
    """A qubit-manifold input state and the steps of one protocol."""
    protocol = draw(st.sampled_from(["single", "cz", "addressing"]))
    s = draw(selectivities)
    gate = GateSpec(
        BlochAxis(draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 6.28))), draw(angle)
    )
    if protocol == "cz":
        space = cz_space(draw(st.integers(2, 3)))
        steps = cz_steps(tuple(draw(errors) for _ in range(4)), s, space)
    elif protocol == "single":
        space = StateSpace(1)
        steps = single_qubit_steps(gate, (draw(errors), draw(errors)), s)
    else:
        n_ions = draw(st.integers(2, 3))
        target = draw(st.integers(0, n_ions - 1))
        neighbor = st.floats(0.0, 0.99)
        ratios = tuple(1.0 if j == target else draw(neighbor) for j in range(n_ions))
        space = StateSpace(n_ions)
        steps = addressed_steps(
            gate, CrosstalkProfile(ratios), target, (draw(errors), draw(errors)), s
        )
    n_ions = space.n_ions
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    c = rng.normal(size=2**n_ions) + 1j * rng.normal(size=2**n_ions)
    entries = [
        (space.index([IonLevel(b) for b in np.unravel_index(k, (2,) * n_ions)]), c[k])
        for k in range(2**n_ions)
    ]
    return make_state(space, entries), steps


def oracle_key(branch):
    prob, records, _ = branch
    return tuple(rec[:3] for rec in records), prob


@settings(max_examples=60, derandomize=True, deadline=None)
@given(protocol_runs())
def test_branch_tables_match_the_oracle(run):
    state, steps = run
    space = state.space
    expected, dropped, after_step = enumerate_branches(state.amplitudes, space, steps)
    # The oracle accounts for all the probability.
    assert sum(b[0] for b in expected) + dropped == pytest.approx(1.0, abs=MASS_ATOL)
    outcome = run_protocol(state, steps, "branch", keep_intermediate=True)
    deferred = run_protocol(state, steps, "branch", flag_query="end")
    assert [(b.probability, b.records) for b in outcome.branches] == [
        (b.probability, b.records) for b in deferred.branches
    ]
    # The table's probabilities and the mass the oracle saw dropped add up to 1.
    total = sum(b.probability for b in outcome.branches)
    assert total + dropped == pytest.approx(1.0, abs=MASS_ATOL)
    got = sorted(
        ((b.probability, tuple(dataclasses.astuple(r) for r in b.records), b.state)
         for b in outcome.branches),
        key=oracle_key,
    )
    expected.sort(key=oracle_key)
    assert len(got) == len(expected)
    for (p, recs, final), (q, want_recs, want) in zip(got, expected):
        assert p == pytest.approx(q, abs=PROB_ATOL)
        assert [r[:3] for r in recs] == [r[:3] for r in want_recs]
        for r, w in zip(recs, want_recs):
            assert r[3] == pytest.approx(w[3], abs=PROB_ATOL)
        assert (final is None) == (want is None)
        if want is not None:
            assert_same_survivor(final, q, want)
    for mid, want in zip(outcome.intermediate_states, after_step, strict=True):
        assert (mid is None) == (want is None)
        if want is not None:
            assert_same_survivor(mid, want[0], want[2])


def assert_same_survivor(state: PureState, probability: float, want: np.ndarray) -> None:
    # Rounding of order 1e-16 in the unnormalized survivor grows by at most
    # 1/sqrt(probability) when it is normalized.
    atol = 1e-13 / math.sqrt(probability)
    np.testing.assert_allclose(state.amplitudes, want, atol=atol)


# --- where a clean-out's target sits -----------------------------------------


@pytest.mark.parametrize(
    "space,levels,fock",
    [
        (StateSpace(3), {Q0, A_PLUS}, None),
        (StateSpace(3), {Q0, Q1, A_MINUS}, None),
        (StateSpace(3), {A_MINUS}, None),
        (StateSpace(2, 3), {Q0, A_PLUS}, {0, 2}),
        (StateSpace(2, 3), {Q1}, {0, 1, 3}),
        (StateSpace(2, 3), {Q0, Q1, A_MINUS}, {0, 1, 3}),
        (StateSpace(2, 3), {Q0, Q1}, {1}),
    ],
)
@pytest.mark.parametrize("ion", [0, 1])
def test_kernel_cleans_out_exactly_the_masked_target(space, levels, fock, ion):
    ch = level_cleanout(ion, levels, fock=fock)
    rng = np.random.default_rng(ion * 31 + len(levels))
    mask = cleanout_mask(space, ion, levels, fock)
    for amps in no_bright_rows(rng, space, 5):
        paths = survivor_paths(*_into_register(amps, space), [_Step((), (ch,))])
        p = np.sum(np.abs(amps[mask]) ** 2)
        np.testing.assert_allclose(paths.target[0, 0], p, rtol=1e-13)
        survivor = np.where(mask, 0.0, amps)
        survivor /= np.linalg.norm(survivor)
        # A register row: the basis order with every Bright state left out.
        np.testing.assert_allclose(paths.final[0], survivor[~bright_mask(space)], atol=1e-14)
        assert paths.alive.all()


def test_faint_survivor_keeps_its_norm():
    # The first clean-out leaves 1e-10 of the norm, the second takes half of
    # that. Taking the pumped population off the norm would leave the
    # remainder off by up to ~1e-16 absolute, ~1e-6 of itself (8e-8 here);
    # the kernel counts a remainder under half the norm again, so the second
    # p is exact.
    eps = 1e-10
    amps = np.zeros(5, dtype=complex)
    amps[:3] = math.sqrt(1 - eps), math.sqrt(eps / 2), 1j * math.sqrt(eps / 2)
    steps = [_Step((), (level_cleanout(0, {Q0}),)), _Step((), (level_cleanout(0, {Q1}),))]
    paths = survivor_paths(*_into_register(amps, StateSpace(1)), steps)
    assert paths.target[0, 1] == pytest.approx(0.5, rel=1e-14)


def test_survivors_that_keep_little_match_the_closed_form():
    # sigma = 3 puts many pulse areas a = pi + delta near 0 or 2 pi, where a
    # clean-out keeps as little as 1e-8 of the survivor, so 1 - p has lost
    # half its digits (off by up to 9.8e-11 relative here); the kernel takes
    # q from the recounted remainder instead. The closed form is s^8 times,
    # per step, the target's sin^2(a/2) and each neighbour's cos^2(r a/2),
    # at the area a the builder computes; the input is a product state, so
    # each factor is one clean-out's survivor, and a row whose survivor falls
    # to PROB_FLOOR at any clean-out is dropped. The closed form and the
    # kernel each round a few dozen times at 1.1e-16; 1.4e-15 is the largest
    # difference seen.
    ratios, target, s = (0.05, 1.0, 0.05, 0.02), 1, 0.95
    spec = ExperimentSpec(
        protocol="addressing",
        error_model=AmplitudeErrorModel.gaussian_iid(3.0),
        input_state=InputSpec("plus_n"),
        trials=600,
        master_seed=99,
        gate=GateSpec(BlochAxis(math.pi / 3, 0.5), math.pi / 2),
        selectivity=s,
        mode="branch",
        crosstalk=ratios,
        target=target,
    )
    _, rows = run_ensemble(spec, 1, return_rows=True)
    for row in rows:
        errors, _ = sample_errors_counted(spec.error_model, 2, trajectory_rng(99, row.index))
        factors = []
        for delta in errors:
            for j, r in enumerate(ratios):
                half = 0.5 * ((math.pi + delta) * r)
                factors.append(s * (math.sin(half) if j == target else math.cos(half)) ** 2)
        closed = math.prod(factors) if min(factors) > PROB_FLOOR else 0.0
        # Ensemble rows and branch tables read the same survivor path.
        survivor = no_flag_branch(enumerate_trajectory(spec, row.index))
        table = 0.0 if survivor is None else survivor.probability
        for weight in (row.no_flag_probability, table):
            assert weight == pytest.approx(closed, rel=1e-14, abs=0.0), row.index


# --- the kernel's input ------------------------------------------------------


@pytest.mark.parametrize("mode", ["branch", "mc"])
@pytest.mark.parametrize("transfers", [True, False])
@pytest.mark.parametrize("protocol", ["cz", "addressing"])
@pytest.mark.parametrize("read_only", [False, True])
def test_kernel_leaves_its_input_unchanged(mode, transfers, protocol, read_only):
    # cz steps go through the pair rotations, a three-ion chain's through
    # the product pass (an odd ion count); the runner passes its input
    # state's read-only amplitudes.
    rng = np.random.default_rng(4)
    if protocol == "cz":
        space = cz_space(3)
        steps = cz_builder(0.9, space)(rng.normal(0.0, 0.3, size=(3, 4)))
    else:
        space = StateSpace(3)
        gate = GateSpec(BlochAxis(1.1, 0.4), 2.0)
        build = addressed_builder(gate, CrosstalkProfile((0.05, 1.0, 0.3)), 1)
        steps = build(rng.normal(0.0, 0.3, size=(3, 2)))
    if not transfers:
        steps = [_Step((), step.cleanouts) for step in steps]
    amps, register = _into_register(no_bright_rows(rng, space, 1)[0], space)
    amps.flags.writeable = not read_only
    before = amps.copy()
    draw = (lambda col, rows: rng.random(3)[rows]) if mode == "mc" else None
    survivor_paths(amps, register, steps, 3, draw)
    assert np.array_equal(amps, before)


def bare_spec(mode, model):
    return ExperimentSpec(
        protocol="single",
        error_model=model,
        input_state=InputSpec("plus_n"),
        trials=200,
        master_seed=11,
        gate=GateSpec(BlochAxis(1.0471975511965976, 0.5), 2.1),
        mode=mode,
    )


@pytest.mark.parametrize(
    "spec",
    [
        bare_spec("branch", AmplitudeErrorModel.constant(0.2)),
        bare_spec("mc", AmplitudeErrorModel.gaussian_iid(0.05)),
        bare_spec("branch", AmplitudeErrorModel.constant(0.0)),
    ],
)
def test_bare_baseline_reads_the_input_the_kernel_was_given(spec):
    # The ensemble runs the certified block, then the bare transfers from the
    # same input array; each bare fidelity equals the scalar baseline's.
    fids = _run_rows(spec, 1, bare=True).bare
    state = prepare_input(spec)
    for i, fid in enumerate(fids):
        rng = trajectory_rng(spec.master_seed, i)
        errs, _ = sample_errors_counted(spec.error_model, 2, rng)
        assert fid == bare_single_qubit(state, spec.gate, tuple(errs))[1], i


def test_unnormalized_input_is_refused():
    amps = np.zeros(5, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError, match="normalized"):
        survivor_paths(*_into_register(amps, StateSpace(1)), [_Step((), ())])


# --- leakage on a faint survivor ---------------------------------------------


def test_leak_is_measured_against_the_survivor_norm():
    # Row 0 keeps 1e-13 of its norm through a clean-out of ion 0's Q0; a
    # swap of Fock 0 and the top Fock state then moves all of what is left
    # to the cutoff. Its raw population there, 1e-13, is below LEAK_ATOL,
    # but it is the whole survivor. Row 1 never leaks.
    space = cz_space(2)
    eps = 1e-13
    amps = np.zeros((2, space.dim), dtype=complex)
    amps[0, space.index([Q0, Q0])] = math.sqrt(1 - eps)
    amps[0, space.index([Q1, Q0])] = math.sqrt(eps)
    amps[1, space.index([Q1, Q1])] = 1.0
    swap = np.eye(3, dtype=complex)[[2, 1, 0]]
    leak_row0 = np.stack([swap, np.eye(3, dtype=complex)])
    steps = [
        _Step((), (level_cleanout(0, {Q0}),)),
        _Step(((leak_row0[:1], (space.motion_axis,)),), ()),
    ]
    with pytest.raises(LeakageError):
        survivor_paths(*_into_register(amps[0], space), steps, monitor_top_fock=True)
    # Without the faint row, nothing is reported.
    paths = survivor_paths(
        *_into_register(amps[1], space),
        [steps[0], _Step(((leak_row0[1:], (space.motion_axis,)),), ())],
        monitor_top_fock=True,
    )
    assert paths.alive.all()
