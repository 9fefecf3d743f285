"""Certified gate protocols: transfers interleaved with heralding clean-outs.

Three protocols are provided, each with an ideal reference:

* a single-qubit rotation split into two qubit/auxiliary transfers,
* a two-ion entangling gate built from four sideband transfers through a
  shared motional mode (sign flip on the doubly-excited component),
* an addressed single-qubit gate on one ion of a chain, where beam
  crosstalk partially rotates the neighbors and is caught by cleaning
  their auxiliary manifolds.

With no neighbors the addressed gate is the single-qubit rotation: the
same two transfers, phase shifts and clean-outs. The rotation is therefore
built as the addressed gate on a one-ion chain (crosstalk ``ONE_ION``,
target 0), and :func:`addressed_builder` serves both.

Protocols run in two modes: the exact table of all herald outcomes, or
Monte Carlo sampling of a single trajectory. Flagged branches are terminal
aggregates (state ``None``): flagged runs are discarded, so their internal
state is never tracked. Each state therefore has one survivor path, and
:func:`survivor_paths`, the one propagation kernel, drives a block of rows
from one start along it, each row under its own errors, unnormalized, as
the no-jump states of the quantum-jump picture (Dalibard, Castin & Mølmer
1992). The scalar steps are the block builders' output for one row, so
both modes of :func:`run_protocol` are that kernel at block size 1;
branch tables are read off the survivor path, and
:func:`cleanout_branches` and :func:`cleanout_sample` run it over one
clean-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dissipation import (
    CleanoutChannel,
    HeraldRecord,
    _sample_rows,
    _segment_table,
    aux_cleanout,
    level_cleanout,
    qubit_cleanout,
    survival_probability,
)
from .pulses import gate_phase_shifts, sideband_fill, transfer_fill
from .statespace import (
    N_LEVELS,
    BlochAxis,
    IonLevel,
    IonProduct,
    PairRotations,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    _Register,
    _apply_block,
    _check_real,
    _compacted,
    _end_rows,
    _factored,
    _factors,
    _held,
    _into_register,
    _public_rows,
    _row_norm2,
    _subset_norm2,
    _support,
    _target_index,
    _times,
    _top_fock,
    _work,
    _zero_target,
    fidelity_up_to_global_phase,
    fock_population,
    manifold_population,
)

POP_ATOL = 1e-12
LEAK_ATOL = 1e-12
NORM_CHECK_ATOL = 1e-8
DEFAULT_FOCK_CUTOFF = 3

MODES = ("branch", "mc")
FLAG_QUERIES = ("immediate", "end")
# Block builders hold only error-independent tables, so one per spec and
# selectivity serves every draw; the most recent ones are kept.
_BUILDERS_KEPT = 32


class LeakageError(RuntimeError):
    """Population reached the truncated top Fock state."""


@dataclass(frozen=True)
class GateSpec:
    """Target rotation: axis on the Bloch sphere plus rotation angle."""

    axis: BlochAxis
    theta_gate: float

    def __post_init__(self) -> None:
        _check_real(theta_gate=self.theta_gate)
        if not math.isfinite(self.theta_gate):
            raise ValueError(f"theta_gate must be finite, got {self.theta_gate}")


@dataclass(frozen=True)
class CrosstalkProfile:
    """Per-ion fraction of the addressed Rabi frequency (1.0 at the target)."""

    ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        for j, r in enumerate(self.ratios):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"crosstalk ratio for ion {j} must lie in [0, 1], got {r}")


# The single-qubit rotation is the addressed gate on a chain of one ion.
ONE_ION = CrosstalkProfile((1.0,))


def chain_problem(ratios: Sequence[float], target: int) -> tuple[str, int | None] | None:
    """Why ``target`` cannot be addressed on a chain with these ratios, if it
    cannot: the message and the offending ion (``None``: the target index)."""
    if not 0 <= target < len(ratios):
        return f"target {target} out of range for {len(ratios)} ions", None
    if ratios[target] != 1.0:
        return "the addressed ion must have crosstalk ratio 1.0", target
    for j, r in enumerate(ratios):
        if j != target and not 0.0 <= r < 1.0:
            return f"neighbor {j} crosstalk ratio must be < 1 and >= 0, got {r}", j
    return None


def cz_problem(n_ions: int, fock_cutoff: int) -> str | None:
    """Why the entangling gate cannot run on a register of ``n_ions`` ions
    with this Fock cutoff, if it cannot: it needs two ions and a motional
    mode with headroom above the Fock 1 state it populates."""
    if n_ions != 2:
        return "the entangling gate expects two ions and a motional mode"
    if fock_cutoff < 2:
        return (
            f"fock_cutoff {fock_cutoff} leaves no headroom above the populated "
            "Fock 1 state; use at least 2"
        )
    return None


@dataclass(frozen=True)
class Branch:
    """One protocol outcome: final state (None for flagged aggregates),
    its probability, and the herald records along the way."""

    state: PureState | None
    probability: float
    records: tuple[HeraldRecord, ...]

    @property
    def flagged(self) -> bool:
        return any(r.flagged for r in self.records)


@dataclass(frozen=True)
class ProtocolOutcome:
    branches: tuple[Branch, ...]
    mode: str
    intermediate_states: tuple[PureState | None, ...] | None = None


@dataclass(frozen=True)
class _Step:
    """One transfer followed by its clean-outs, in fixed order.

    The transfer is a sequence of prevalidated (operator, targets) pairs,
    applied in order to the state tensor: a chain transfer's 5x5 transfer
    of every ion on all of them (:class:`~heraldsim.statespace.IonProduct`,
    one pass over the register), or the pair rotations of a sideband
    transfer on ``(ion, motion_axis)``
    (:class:`~heraldsim.statespace.PairRotations`). Every step holds one
    operator per row of a block, and indexing an operator selects rows;
    the steps of one trajectory are a block of one row.
    """

    unitaries: tuple[tuple[IonProduct | PairRotations, tuple[int, ...]], ...]
    cleanouts: tuple[CleanoutChannel, ...]


@dataclass(frozen=True)
class _Builder:
    """Block builder of one protocol: ``transfers`` maps errors of shape
    ``(block, n_steps)`` to each step's transfer, and ``cleanouts`` holds
    each step's clean-outs, which do not depend on the errors."""

    transfers: Callable[[np.ndarray], tuple]
    cleanouts: tuple[tuple[CleanoutChannel, ...], ...]

    def __call__(self, errors: np.ndarray) -> tuple[_Step, ...]:
        return tuple(map(_Step, self.transfers(errors), self.cleanouts))


def transfer_pass(amps: np.ndarray, space: StateSpace, steps: Sequence[_Step]) -> np.ndarray:
    """Apply every step's transfers, and none of its clean-outs, to a
    C-contiguous ``(block, dim)`` array in place: the uncertified baseline."""
    for step in steps:
        for u, targets in step.unitaries:
            _apply_block(amps, space, u, targets)
    return amps


def cleanout_sites(
    cleanouts: Sequence[Sequence[CleanoutChannel]],
) -> tuple[tuple[int, int], ...]:
    """(step index, ion) of every clean-out, in the order they run, from
    each step's clean-outs."""
    return tuple((si, ch.ion) for si, step in enumerate(cleanouts) for ch in step)


def _branch_sort_key(branch: Branch):
    return tuple(
        (r.step_index, r.ion, r.flagged, r.branch_probability) for r in branch.records
    )


def _check_top_fock(amps: np.ndarray, top: slice | np.ndarray, norm2: np.ndarray) -> None:
    """Raise if any row of a ``(block, n)`` array of unnormalized states
    with squared norms ``norm2`` has reached the top Fock state, whose
    columns ``top`` are (``statespace._top_fock``)."""
    rows = amps[:, top]
    # Most blocks hold exactly nothing there: one test instead of a sum.
    if not rows.any():
        return
    # Relative to each row's norm: a raw population would understate the
    # leak of a row whose survivor has lost most of its norm.
    leak = _row_norm2(np.ascontiguousarray(rows)) / norm2
    over = leak[leak > LEAK_ATOL]
    if over.size:
        raise LeakageError(f"population {over[0]:.3e} at the Fock cutoff; raise fock_cutoff")


def run_protocol(
    state: PureState,
    steps: Sequence[_Step],
    mode: str = "branch",
    rng: np.random.Generator | None = None,
    flag_query: str = "immediate",
    monitor_top_fock: bool = False,
    keep_intermediate: bool = False,
) -> ProtocolOutcome:
    """Drive a prepared state through transfer/clean-out steps: the kernel
    :func:`survivor_paths` at block size 1.

    Branch mode gives every herald outcome exactly; mc mode samples one
    trajectory, drawing ``rng.random(1)`` once per clean-out it reaches
    (``rng`` required: a numpy ``Generator``, or the row view that
    :func:`~heraldsim.noise.trajectory_rng` gives, which replays that
    trajectory's uniforms in the runner). ``flag_query`` says whether flagged
    branches are finalized as they occur or carried as aggregates and
    partitioned only at the end; flagged branches are terminal, so both give
    the same table. ``keep_intermediate`` (branch mode) also returns the
    survivor after each step: the kernel's end state over each prefix of
    the steps, which the deterministic kernel reproduces bit for bit. An
    option the mode would ignore, ``rng`` in branch mode or
    ``keep_intermediate`` in mc mode, raises ValueError, and so does a
    state with amplitude where some ion is Bright, which the kernel's
    four-level register cannot hold.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if flag_query not in FLAG_QUERIES:
        raise ValueError(f"flag_query must be one of {FLAG_QUERIES}, got {flag_query!r}")
    if mode == "branch" and rng is not None:
        raise ValueError("branch mode draws nothing; pass rng in mc mode only")
    if mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires a random generator")
        if keep_intermediate:
            raise ValueError("keep_intermediate applies to branch mode only")
        paths = survivor_paths(
            *_into_register(state.amplitudes, state.space),
            steps,
            draw=lambda col, rows: rng.random(1),
            monitor_top_fock=monitor_top_fock,
        )
        records = tuple(
            HeraldRecord(si, ion, bool(paths.flags[0, c]), float(paths.probs[0, c]))
            for c, (si, ion) in enumerate(
                cleanout_sites([step.cleanouts for step in steps])[: paths.done[0]]
            )
        )
        final = _public_state(state.space, paths)
        return ProtocolOutcome((Branch(final, 1.0, records),), "mc")
    branches, intermediates = _branches(state, steps, monitor_top_fock, keep_intermediate)
    branches.sort(key=_branch_sort_key)
    return ProtocolOutcome(tuple(branches), "branch", intermediates)


def _branches(
    state: PureState,
    steps: Sequence[_Step],
    monitor_top_fock: bool = False,
    keep_intermediate: bool = False,
) -> tuple[list[Branch], tuple[PureState | None, ...] | None]:
    """The branch table of one state in the order the branches arise, and
    the survivor after each step if asked (None once it has dropped out).

    Flagged branches are terminal aggregates, so the table is the survivor
    path plus, at each clean-out c, the flagged target W(c-1)·p_c and false
    positive W(c-1)·(1-s)(1-p_c), where W(c-1) is the survivor's
    probability before c; branches at or below PROB_FLOOR are dropped.
    """
    start, register = _into_register(state.amplitudes, state.space)
    paths = survivor_paths(start, register, steps, monitor_top_fock=monitor_top_fock)
    channels = [(si, ch) for si, step in enumerate(steps) for ch in step.cleanouts]
    selectivity = np.array([ch.selectivity for _, ch in channels])
    segments, kept = _segment_table(paths.target[0], selectivity, paths.rest[0])
    branches = []
    weight, records = 1.0, ()
    for (si, ch), (target, false_pos, survive), keep in zip(
        channels, segments.tolist(), kept.tolist()
    ):
        for prob, flag_kept in ((target, keep[0]), (false_pos, keep[1])):
            if flag_kept:
                flag = HeraldRecord(si, ch.ion, True, prob)
                branches.append(Branch(None, weight * prob, records + (flag,)))
        if not keep[2]:
            break
        weight *= survive
        records += (HeraldRecord(si, ch.ion, False, survive),)
    if paths.alive[0]:
        branches.append(Branch(_public_state(state.space, paths), weight, records))
    intermediates = None
    if keep_intermediate:
        # The full run has checked the top Fock state along every prefix.
        prefixes = (survivor_paths(start, register, steps[: k + 1]) for k in range(len(steps)))
        intermediates = tuple(_public_state(state.space, p) for p in prefixes)
    return branches, intermediates


def _public_state(space: StateSpace, paths: SurvivorPaths) -> PureState | None:
    """The end state of a one-row run in the public layout, or None if the
    row did not survive."""
    if not paths.alive[0]:
        return None
    return PureState(space, _public_rows(paths.final, space, paths.columns)[0])


@dataclass(frozen=True)
class SurvivorPaths:
    """The unflagged path of every row of a block, all from one start, as
    :func:`survivor_paths` leaves it.

    ``target[b, c]`` is row b's target fraction p at clean-out c,
    ``rest[b, c]`` the fraction q it left (1 - p, or where p > 1/2 the
    remaining norm counted again over the norm before), and
    ``probs[b, c]`` the probability of the branch the row took there: the
    survivor's in branch mode, the sampled one in mc mode, where
    ``flags[b, c]`` tells whether it flagged and ``done[b]`` counts the
    clean-outs the row passed, its flag included. ``target``, ``rest`` and
    ``probs`` are 0.0 past a row's last clean-out. ``weight`` is the unflagged
    probability (branch mode) or 1.0/0.0 (mc mode). ``final`` holds the
    normalized end states of the rows with ``alive`` set, in row order, on
    the kernel's layout: its columns are the register entries ``columns``,
    a support's entries, on per-ion factors the entries of the levels no
    clean-out after the last transfer zeroes (Q0 and Q1 of every ion for a
    chain), or ``slice(None)``, every entry. Every register entry outside
    them is exactly 0. The public entry points write the rows
    into the five-level layout (``statespace._public_rows``), and the
    runner scores them against its ideal's entries at ``columns``, the
    public ideal's entries at ``statespace._basis``, with the bits of the
    written-back row's fidelity. No state between steps is kept (see
    :func:`survivor_paths`).
    """

    weight: np.ndarray
    alive: np.ndarray
    final: np.ndarray
    columns: slice | np.ndarray
    target: np.ndarray
    rest: np.ndarray
    probs: np.ndarray
    flags: np.ndarray
    done: np.ndarray


def survivor_paths(
    start: np.ndarray,
    register: _Register,
    steps: Sequence[_Step],
    block: int = 1,
    draw=None,
    monitor_top_fock: bool = False,
) -> SurvivorPaths:
    """Drive ``block`` rows from one normalized register state, ``start`` of
    shape ``(register.dim,)``, along their unflagged paths, each row under
    its own operators in ``steps``: the one propagation kernel of both
    modes.

    Flagged branches are terminal, so each row carries one live state: its
    no-jump state, unnormalized, with its squared norm. A clean-out divides
    the target population by the norm for p, zeroes the target in place and
    takes the population off the norm. The fraction that survives is
    q = 1 - p, except where the clean-out takes more than half: there the
    rest is counted again and q is that count over the norm before, which
    keeps the digits 1 - p loses. Branch mode (``draw`` None) multiplies
    each row's weight by the survivor probability s·q and drops a row whose
    survivor falls below the probability floor. mc mode compares
    ``draw(column, rows)``, the uniforms of clean-out ``column`` for the
    live rows (a slice or an index array into the block), with the same
    branch segments and freezes the rows that flag.

    The kernel takes rows of the four-level register only. Only the
    clean-out fills Bright and flagged branches leave the path, so a
    survivor never holds Bright amplitude: a row holds each ion's other
    four levels, ``4**n_ions * fock_dim`` amplitudes, and the ion products
    apply each factor's 4x4 block. The public entry points gather a
    five-level state with ``statespace._into_register``, which refuses
    Bright amplitude; the runner builds its input on the register.

    The rows run on one of three layouts, chosen here from the steps and
    the start:

    * Steps of pair rotations and clean-outs only, as cz's are, run on the
      register entries those rotations can reach from the start's nonzero
      entries (``statespace._support``, built once per rotations,
      clean-outs and start columns): a cz run from the qubit manifold keeps
      10 of them at any Fock cutoff. Every other entry stays exactly 0, and
      every kept one goes through the same operations as on the register.
    * Steps of ion products and clean-outs of whole levels on two or more
      ions without motion, as a chain's are, run on one vector per ion
      (``statespace._Factors``) when the start is a product state to
      rounding (``statespace._factored``): a product stays a product under
      each ion's transfer and each clean-out of one ion. A clean-out's
      fraction is that ion's population over its vector's squared norm,
      and the end rows are the products over the levels that no clean-out
      after the last transfer zeroes: 2**n_ions entries for a chain.
    * Everything else runs on the whole register, entangled chain starts
      included.

    ``start`` is written once, onto the layout, into every row of the
    block, and never written to; its squared norm is taken once. Every row
    goes through its own matrix products and the row rules of
    ``manifold_population`` and ``PureState.norm``, so its result does not
    depend on the other rows. No state is kept between steps: a survivor
    after step k, which :func:`run_protocol` returns with
    ``keep_intermediate``, is its end state over ``steps[:k+1]``.
    """
    if not isinstance(register, _Register):
        raise ValueError(f"the survivor kernel runs on register rows, not on {register}")
    if start.shape != (register.dim,):
        raise ValueError(f"a start is one register row of shape ({register.dim},), got {start.shape}")
    unitaries = [(u, targets) for step in steps for u, targets in step.unitaries]
    wrong = sorted({len(u) for u, _ in unitaries} - {block})  # one row would broadcast
    if wrong:
        raise ValueError(f"every step operator holds one row per trajectory, {block}, not {wrong[0]}")
    cleanouts = [ch for step in steps for ch in step.cleanouts]
    space, columns = register, slice(None)
    if all(isinstance(u, PairRotations) for u, _ in unitaries):
        space = _support(
            register,
            tuple((targets[0], u.tones) for u, targets in unitaries),
            tuple((ch.ion, ch.levels, ch.fock) for ch in cleanouts),
            np.flatnonzero(start).tobytes(),
        )
        columns = space.entries
        start = start[columns]
    elif (
        register.n_ions > 1
        and not register.has_motion
        and all(isinstance(u, IonProduct) for u, _ in unitaries)
        and all(ch.fock is None for ch in cleanouts)
    ):
        factors, product = _factored(start, register)
        if product:
            last = max(si for si, step in enumerate(steps) if step.unitaries)
            space = _factors(
                register,
                tuple((ch.ion, ch.levels) for ch in cleanouts),
                tuple((ch.ion, ch.levels) for step in steps[last:] for ch in step.cleanouts),
            )
            start, columns = factors, space.entries
    # The one block the kernel writes: the start in every row of a work
    # array, which no returned array holds (final is normalized into a new
    # one).
    amps = _work("block", (block,) + start.shape)
    amps[...] = start
    # The row rule gives every row the first row's bits; on factors, each
    # ion's vector's.
    norm2 = np.repeat(_row_norm2(amps[:1]), block, axis=0)
    total = norm2 if norm2.ndim == 1 else norm2.prod(axis=1)
    off = total[~(np.abs(total - 1.0) <= NORM_CHECK_ATOL)]  # NaN included
    if off.size:
        raise ValueError(f"survivor paths start from normalized states (norm {math.sqrt(off[0])})")
    top = _top_fock(space) if monitor_top_fock else None
    n_cleanouts = len(cleanouts)
    rows = slice(None)  # the live rows: all of them until one drops out
    weight = np.ones(block)
    target = np.zeros((block, n_cleanouts))
    rest = np.zeros((block, n_cleanouts))
    probs = np.zeros((block, n_cleanouts))
    flags = np.zeros((block, n_cleanouts), dtype=bool)
    col = 0
    for step in steps:
        if amps.shape[0] == 0:
            break
        for u, targets in step.unitaries:
            _apply_block(amps, space, u, targets, rows)
        if top is not None:
            _check_top_fock(amps, top, norm2)
        for ch in step.cleanouts:
            # The norm the clean-out takes its fraction of, and the part of
            # each row that holds it: the whole row, or the ion's vector.
            held = _held(space, ch.ion)
            before = norm2[held]
            pop = _subset_norm2(amps, space, ch.ion, ch.levels, ch.fock)
            p = np.minimum(pop / before, 1.0)
            _zero_target(amps, space, ch.ion, ch.levels, ch.fock)
            left = before - pop
            q = 1.0 - p
            # Taking off more than half the norm cancels bits; count what is
            # left again, and take q from that count.
            lost = pop > left
            if lost.any():
                left[lost] = _row_norm2(amps[lost][held])
                q[lost] = left[lost] / before[lost]
            if draw is None:
                taken = survival_probability(ch.selectivity, q)
                live = taken > 0.0
                weight[rows] *= taken
            else:
                taken, flagged = _sample_rows(p, ch.selectivity, draw(col, rows), q)
                flags[rows, col] = flagged
                live = ~flagged
            target[rows, col] = p
            rest[rows, col] = q
            probs[rows, col] = taken
            col += 1
            norm2[held] = left
            if not live.all():
                rows = np.arange(block)[rows][live]
                amps, norm2 = _compacted(amps, space, live), norm2[live]
                if rows.size == 0:
                    break
    alive = np.zeros(block, dtype=bool)
    alive[rows] = True
    weight[~alive] = 0.0
    done = np.full(block, n_cleanouts)
    if n_cleanouts:  # argmax refuses an empty axis
        done = np.where(flags.any(axis=1), flags.argmax(axis=1) + 1, n_cleanouts)
    final = _end_rows(amps, space)
    return SurvivorPaths(weight, alive, final, columns, target, rest, probs, flags, done)


def cleanout_branches(
    state: PureState, ch: CleanoutChannel
) -> list[tuple[PureState | None, float, bool]]:
    """All branches of the channel as (state, probability, flagged) triples.

    Branch order is fixed: flagged target branch, flagged false-positive
    branch (selectivity < 1 only), surviving branch. Probabilities sum to 1;
    branches below PROB_FLOOR are dropped. A state with amplitude where
    some ion is Bright raises ValueError, as in :func:`survivor_paths`.
    """
    branches, _ = _branches(state, (_Step((), (ch,)),))
    return [(b.state, b.probability, b.flagged) for b in branches]


def cleanout_sample(
    state: PureState,
    ch: CleanoutChannel,
    rng: np.random.Generator,
    step_index: int = 0,
) -> tuple[PureState | None, HeraldRecord]:
    """Sample one branch of the channel; statistically matches
    :func:`cleanout_branches`."""
    (branch,) = run_protocol(state, (_Step((), (ch,)),), "mc", rng).branches
    (record,) = branch.records
    return branch.state, replace(record, step_index=step_index)


def no_flag_branch(outcome: ProtocolOutcome) -> Branch | None:
    """The unique surviving branch, or None if every branch flagged."""
    for branch in outcome.branches:
        if not branch.flagged and branch.state is not None:
            return branch
    return None


def flag_probability(outcome: ProtocolOutcome) -> float:
    return float(sum(b.probability for b in outcome.branches if b.flagged))


def step_flag_rates(outcome: ProtocolOutcome) -> dict[tuple[int, int], float]:
    """Conditional flag probability of each (step, ion) clean-out, read off
    the surviving branch of a branch-mode outcome."""
    survivor = no_flag_branch(outcome)
    if survivor is None:
        return {}
    return {
        (r.step_index, r.ion): 1.0 - r.branch_probability for r in survivor.records
    }


# --- single-qubit protocol ---------------------------------------------------


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def ideal_single_qubit(spec: GateSpec) -> np.ndarray:
    """2x2 rotation by theta_gate about the spec axis; the axis eigenvectors
    pick up phases exp(-i*theta_gate/2) and exp(+i*theta_gate/2)."""
    n = spec.axis.unit_vector
    n_sigma = sum(c * p for c, p in zip(n, _PAULI))
    half = 0.5 * spec.theta_gate
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * n_sigma


def ideal_single_qubit_output(state: PureState, spec: GateSpec) -> PureState:
    """Reference output of the ideal gate applied to a one-ion state."""
    return ideal_addressed_output(state, 0, spec)


def _require_qubit_manifold(state: PureState, ion: int) -> None:
    outside = 1.0 - manifold_population(state, ion, QUBIT_MANIFOLD)
    if outside > POP_ATOL:
        raise ValueError(
            f"ion {ion} has population {outside:.3e} outside the qubit manifold"
        )


def _error_row(errors, n_steps: int) -> np.ndarray:
    row = np.array([errors], dtype=float)
    if row.shape != (1, n_steps):
        raise ValueError(f"expected {n_steps} per-transfer errors, got {len(errors)}")
    return row


def single_qubit_steps(
    spec: GateSpec, errors: tuple[float, float], selectivity: float = 1.0
) -> tuple[_Step, ...]:
    """The two transfer/clean-out steps of the certified rotation: the
    addressed gate on a one-ion chain."""
    return addressed_steps(spec, ONE_ION, 0, errors, selectivity)


def certified_single_qubit(
    state: PureState,
    spec: GateSpec,
    errors: tuple[float, float],
    selectivity: float = 1.0,
    mode: str = "branch",
    rng: np.random.Generator | None = None,
    flag_query: str = "immediate",
    keep_intermediate: bool = False,
) -> ProtocolOutcome:
    """Certified rotation on a single ion: transfer, clean qubit manifold,
    phase-shifted transfer back, clean auxiliary manifold.

    The surviving branch carries the exact ideal rotation regardless of the
    per-transfer area errors; errors only lower its probability.
    """
    if state.space != StateSpace(1):
        raise ValueError("certified_single_qubit expects one ion and no motional mode")
    _require_qubit_manifold(state, 0)
    steps = single_qubit_steps(spec, errors, selectivity)
    return run_protocol(
        state, steps, mode, rng, flag_query, keep_intermediate=keep_intermediate
    )


def bare_single_qubit(
    state: PureState,
    spec: GateSpec,
    errors: float | tuple[float, float],
) -> tuple[PureState, float]:
    """Uncertified baseline: the same two transfers, no clean-outs.

    Accepts a single shared error or a per-transfer pair. Returns the final
    state and its fidelity to the ideal output.
    """
    if isinstance(errors, (int, float)):
        errors = (float(errors), float(errors))
    if state.space != StateSpace(1):
        raise ValueError("bare_single_qubit expects one ion and no motional mode")
    _require_qubit_manifold(state, 0)
    steps = single_qubit_steps(spec, errors)
    amps = transfer_pass(state.amplitudes[None].copy(), state.space, steps)
    final = PureState(state.space, amps[0])
    ideal = ideal_single_qubit_output(state, spec)
    return final, fidelity_up_to_global_phase(final, ideal)


# --- two-ion entangling protocol ---------------------------------------------


def cz_space(fock_cutoff: int = DEFAULT_FOCK_CUTOFF) -> StateSpace:
    return StateSpace(2, fock_cutoff)


def ideal_cz() -> np.ndarray:
    """Diagonal entangling gate on (gg, ge, eg, ee): sign flip on ee only.

    g maps to Q0 and e to Q1, first slot is ion m (index 0).
    """
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)


def ideal_cz_output(state: PureState) -> PureState:
    """Reference output: sign flip on components with both ions excited."""
    space = state.space
    if space.n_ions < 2:
        raise ValueError(f"the entangling gate needs two ions, got {space.n_ions}")
    signs = np.ones(space.factor_dims)
    signs[IonLevel.Q1, IonLevel.Q1] = -1.0
    return PureState(space, state.amplitudes * signs.reshape(-1))


@lru_cache(maxsize=_BUILDERS_KEPT)
def cz_builder(selectivity: float, space: StateSpace):
    """Block builder of the entangling gate: maps errors of shape
    ``(block, 4)`` to the four transfers of every row, with their clean-outs.

    Simultaneous tones of one transfer touch disjoint level pairs, so each
    transfer is a set of commuting two-level rotations sharing one area
    error: the pair rotations of its Fock pairs, with each row's
    coefficients. One sideband fill gives all six rotations of a block. No
    dense operator is built.
    """
    e_up = (IonLevel.Q1, IonLevel.AUX_PLUS)
    g_up = (IonLevel.Q0, IonLevel.AUX_MINUS)
    f = space.motion_axis
    s = selectivity
    # Blue sideband out of the excited state plus carrier out of the ground
    # state, both on ion m.
    on_m = (("blue", e_up, 0.0), ("carrier", g_up, 0.0))
    carrier_m = (("carrier", g_up, 0.0),)
    # Red sidebands bringing both of ion n's qubit levels down one motional
    # quantum into its auxiliaries; the third transfer flips the excited
    # tone's phase.
    on_n = (("red", e_up, 0.0), ("red", g_up, 0.0))
    on_n_flipped = (("red", e_up, math.pi), ("red", g_up, 0.0))
    # Each rotation with the transfer whose area it takes.
    fill = sideband_fill(
        (
            (on_m, 0),
            (carrier_m, 1),
            (on_n, 1),
            (carrier_m, 2),
            (on_n_flipped, 2),
            (on_m, 3),
        ),
        space.fock_dim,
    )
    cleanouts = (
        (qubit_cleanout(0, s),),
        (
            level_cleanout(0, {IonLevel.AUX_MINUS}, s),
            level_cleanout(1, QUBIT_MANIFOLD, s, fock={1}),
        ),
        (aux_cleanout(1, s), level_cleanout(0, {IonLevel.Q0}, s)),
        (aux_cleanout(0, s),),
    )

    def transfers(errors: np.ndarray):
        m1, m2, n2, m3, n3, m4 = fill(math.pi + errors)
        return (
            ((m1, (0, f)),),
            ((m2, (0, f)), (n2, (1, f))),
            ((m3, (0, f)), (n3, (1, f))),
            ((m4, (0, f)),),
        )

    return _Builder(transfers, cleanouts)


def cz_steps(
    errors: tuple[float, float, float, float],
    selectivity: float,
    space: StateSpace,
) -> tuple[_Step, ...]:
    """The four transfers of the entangling gate, with their clean-outs."""
    return cz_builder(selectivity, space)(_error_row(errors, 4))


def certified_cz(
    state: PureState,
    errors: tuple[float, float, float, float],
    selectivity: float = 1.0,
    mode: str = "branch",
    rng: np.random.Generator | None = None,
    flag_query: str = "immediate",
    keep_intermediate: bool = False,
) -> ProtocolOutcome:
    """Certified entangling gate on two ions sharing a ground-state motional mode.

    The surviving branch equals the ideal gate on the qubit part with the
    motion back in its ground state; each of the four transfers contributes
    an independent herald.
    """
    space = state.space
    problem = cz_problem(space.n_ions, space.fock_cutoff)
    if problem is not None:
        raise ValueError(problem)
    _require_qubit_manifold(state, 0)
    _require_qubit_manifold(state, 1)
    if 1.0 - fock_population(state, 0) > POP_ATOL:
        raise ValueError("motional mode must start in its ground state")
    steps = cz_steps(tuple(errors), selectivity, space)
    return run_protocol(
        state,
        steps,
        mode,
        rng,
        flag_query,
        monitor_top_fock=True,
        keep_intermediate=keep_intermediate,
    )


# --- addressed gate on a chain -----------------------------------------------


@lru_cache(maxsize=_BUILDERS_KEPT)
def addressed_builder(
    spec: GateSpec,
    crosstalk: CrosstalkProfile,
    target: int,
    selectivity: float = 1.0,
):
    """Block builder of the addressed gate: maps errors of shape
    ``(block, 2)`` to both halves of every row.

    Every ion sees the same waveform scaled by its crosstalk ratio, so each
    half is one :class:`~heraldsim.statespace.IonProduct` on the whole
    chain: every ion's 5x5 transfer at its scaled area. An ion with ratio
    0 gets area 0, the identity, which the kernel applies exactly. After
    the first half the target's qubit manifold and each neighbor's auxiliary
    manifold are cleaned; after the second half every auxiliary manifold is.
    """
    n_ions = len(crosstalk.ratios)
    ratios = np.array(crosstalk.ratios)
    ions = tuple(range(n_ions))
    first = transfer_fill(spec.axis)
    second = transfer_fill(spec.axis, *gate_phase_shifts(spec.theta_gate))
    neighbors = [j for j in range(n_ions) if j != target]
    s = selectivity
    cleanouts = (
        (qubit_cleanout(target, s),) + tuple(aux_cleanout(j, s) for j in neighbors),
        tuple(aux_cleanout(j, s) for j in range(n_ions)),
    )

    def rotations(fill, delta: np.ndarray):
        # Every ion's area, row-major: a ratio of 0 gives area 0, the identity.
        areas = (math.pi + delta)[:, None] * ratios
        factors = fill(areas.reshape(-1)).reshape(areas.shape + (N_LEVELS, N_LEVELS))
        return ((IonProduct(factors), ions),)

    def transfers(errors: np.ndarray):
        return rotations(first, errors[:, 0]), rotations(second, errors[:, 1])

    return _Builder(transfers, cleanouts)


def addressed_steps(
    spec: GateSpec,
    crosstalk: CrosstalkProfile,
    target: int,
    errors: tuple[float, float],
    selectivity: float = 1.0,
) -> tuple[_Step, ...]:
    """Both halves of the addressed gate on a chain."""
    build = addressed_builder(spec, crosstalk, target, selectivity)
    return build(_error_row(errors, 2))


def ideal_addressed_output(chain: PureState, target: int, spec: GateSpec) -> PureState:
    """Reference output: the ideal rotation on the target's Q0 and Q1, every
    other level and every neighbor untouched, in either layout (five
    levels, or the register's four). Each new qubit amplitude is g0*x0 +
    g1*x1 of the target's two, in split real arithmetic with no BLAS call,
    so the same entries give the same bits in either layout and on any
    CPU."""
    shape, _, _ = _target_index(chain.space, target, None, None)
    amps = chain.amplitudes.reshape(shape)
    out = amps.copy()
    for level, (g0, g1) in enumerate(ideal_single_qubit(spec)):
        out[:, level] = _times(g0, amps[:, 0]) + _times(g1, amps[:, 1])
    return PureState(chain.space, out.reshape(-1))


def certified_addressed_gate(
    chain: PureState,
    target: int,
    spec: GateSpec,
    crosstalk: CrosstalkProfile,
    errors: tuple[float, float],
    selectivity: float = 1.0,
    mode: str = "branch",
    rng: np.random.Generator | None = None,
    flag_query: str = "immediate",
) -> ProtocolOutcome:
    """Certified addressed rotation: crosstalk partially transfers neighbor
    population to their auxiliaries, and the extra clean-outs either flag it
    as a bright neighbor or undo it exactly.

    If no ion flags, the target received the exact ideal gate and every
    neighbor is back in its initial state.
    """
    space = chain.space
    if space.has_motion:
        raise ValueError("addressed gates act on chains without a motional mode")
    if len(crosstalk.ratios) != space.n_ions:
        raise ValueError(
            f"crosstalk has {len(crosstalk.ratios)} ratios for {space.n_ions} ions"
        )
    problem = chain_problem(crosstalk.ratios, target)
    if problem is not None:
        raise ValueError(problem[0])
    for j in range(space.n_ions):
        _require_qubit_manifold(chain, j)
    steps = addressed_steps(spec, crosstalk, target, errors, selectivity)
    return run_protocol(chain, steps, mode, rng, flag_query)
