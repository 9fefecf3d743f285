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
:func:`survivor_paths`, the one propagation kernel, drives blocks of states
along it, unnormalized, as the no-jump states of the quantum-jump picture
(Dalibard, Castin & Mølmer 1992). Both modes of :func:`run_protocol` are
that kernel at block size 1; branch tables are read off the survivor path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _apply_block,
    _apply_matrix,
    _check_real,
    _normalized,
    _row_norm2,
    _subset_norm2,
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
    (:class:`~heraldsim.statespace.PairRotations`). Steps of one
    trajectory hold one operator each; steps of a block of trajectories
    hold one per row, and indexing an operator selects rows.
    """

    unitaries: tuple[tuple[IonProduct | PairRotations, tuple[int, ...]], ...]
    cleanouts: tuple[CleanoutChannel, ...]


def _row_of(steps: Sequence[_Step], row: int | None) -> tuple[_Step, ...]:
    """The steps of one row of a block; with ``row`` None, one trajectory's
    steps as a block of one row."""
    return tuple(
        _Step(tuple((u[row], t) for u, t in step.unitaries), step.cleanouts)
        for step in steps
    )


@dataclass(frozen=True)
class _Builder:
    """Block builder of one protocol: ``transfers`` maps errors of shape
    ``(block, n_steps)`` to each step's transfer, and ``cleanouts`` holds
    each step's clean-outs, which do not depend on the errors."""

    transfers: Callable[[np.ndarray], tuple]
    cleanouts: tuple[tuple[CleanoutChannel, ...], ...]

    def __call__(self, errors: np.ndarray) -> tuple[_Step, ...]:
        return tuple(map(_Step, self.transfers(errors), self.cleanouts))


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


def _check_top_fock(amps: np.ndarray, space: StateSpace, norm2: np.ndarray) -> None:
    """Raise if any row of a ``(block, dim)`` array of unnormalized states
    with squared norms ``norm2`` has reached the top Fock state."""
    if space.has_motion:
        # Relative to each row's norm: a raw population would understate the
        # leak of a row whose survivor has lost most of its norm.
        leak = _subset_norm2(amps, space, 0, None, frozenset({space.fock_cutoff})) / norm2
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
    trajectory (``rng`` required). ``flag_query`` says whether flagged
    branches are finalized as they occur or carried as aggregates and
    partitioned only at the end; flagged branches are terminal, so both give
    the same table. ``keep_intermediate`` (branch mode) also returns the
    survivor after each step.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if flag_query not in FLAG_QUERIES:
        raise ValueError(f"flag_query must be one of {FLAG_QUERIES}, got {flag_query!r}")
    if mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires a random generator")
        paths = survivor_paths(
            state.amplitudes[None],
            state.space,
            _row_of(steps, None),
            draw=lambda col, rows: rng.random(1),
            monitor_top_fock=monitor_top_fock,
        )
        records = tuple(
            HeraldRecord(si, ion, bool(paths.flags[0, c]), float(paths.probs[0, c]))
            for c, (si, ion) in enumerate(
                cleanout_sites([step.cleanouts for step in steps])[: paths.done[0]]
            )
        )
        final = PureState(state.space, paths.final[0]) if paths.alive[0] else None
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
    paths = survivor_paths(
        state.amplitudes[None],
        state.space,
        _row_of(steps, None),
        monitor_top_fock=monitor_top_fock,
        keep_intermediate=keep_intermediate,
    )
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
        branches.append(Branch(PureState(state.space, paths.final[0]), weight, records))
    intermediates = None
    if keep_intermediate:
        after = [PureState(state.space, a[0]) if len(a) else None for a in paths.after_step]
        intermediates = tuple(after + [None] * (len(steps) - len(after)))
    return branches, intermediates


@dataclass(frozen=True)
class SurvivorPaths:
    """The unflagged path of every row of a block, as :func:`survivor_paths`
    leaves it.

    ``target[b, c]`` is row b's target fraction p at clean-out c,
    ``rest[b, c]`` the fraction q it left (1 - p, or where p > 1/2 the
    remaining norm counted again over the norm before), and
    ``probs[b, c]`` the probability of the branch the row took there: the
    survivor's in branch mode, the sampled one in mc mode, where
    ``flags[b, c]`` tells whether it flagged and ``done[b]`` counts the
    clean-outs the row passed, its flag included. ``target``, ``rest`` and
    ``probs`` are 0.0 past a row's last clean-out. ``weight`` is the unflagged
    probability (branch mode) or 1.0/0.0 (mc mode). ``final`` holds the
    normalized end states of the rows with ``alive`` set, in row order;
    ``after_step``, when asked for, the normalized states of the live rows
    after each step the block reached.
    """

    weight: np.ndarray
    alive: np.ndarray
    final: np.ndarray
    target: np.ndarray
    rest: np.ndarray
    probs: np.ndarray
    flags: np.ndarray
    done: np.ndarray
    after_step: tuple[np.ndarray, ...] = ()


def survivor_paths(
    amps: np.ndarray,
    space: StateSpace,
    steps: Sequence[_Step],
    draw=None,
    monitor_top_fock: bool = False,
    keep_intermediate: bool = False,
) -> SurvivorPaths:
    """Drive a ``(block, dim)`` array of normalized states along their
    unflagged path: the one propagation kernel of both modes.

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
    branch segments and freezes the rows that flag. ``amps`` is copied once
    and never written to: every step operator and clean-out updates that
    copy in place. Every row goes through its own matrix products and the
    row rules that ``manifold_population`` and ``PureState.norm`` also use,
    so its result does not depend on the other rows.
    """
    norm2 = _row_norm2(amps)
    off = norm2[np.abs(norm2 - 1.0) > NORM_CHECK_ATOL]
    if off.size:
        raise ValueError(f"survivor paths start from normalized states (norm {math.sqrt(off[0])})")
    amps = amps.copy()  # C-contiguous: the one block the kernel writes
    block = amps.shape[0]
    n_cleanouts = sum(len(step.cleanouts) for step in steps)
    rows = slice(None)  # the live rows: all of them until one drops out
    weight = np.ones(block)
    target = np.zeros((block, n_cleanouts))
    rest = np.zeros((block, n_cleanouts))
    probs = np.zeros((block, n_cleanouts))
    flags = np.zeros((block, n_cleanouts), dtype=bool)
    after_step = []
    col = 0
    for step in steps:
        if amps.shape[0] == 0:
            break
        for u, targets in step.unitaries:
            _apply_block(amps, space, u[rows], targets)
        if monitor_top_fock:
            _check_top_fock(amps, space, norm2)
        for ch in step.cleanouts:
            pop = _subset_norm2(amps, space, ch.ion, ch.levels, ch.fock)
            p = np.minimum(pop / norm2, 1.0)
            _zero_target(amps, space, ch.ion, ch.levels, ch.fock)
            left = norm2 - pop
            q = 1.0 - p
            # Taking off more than half the norm cancels bits; count what is
            # left again, and take q from that count.
            lost = pop > left
            if lost.any():
                left[lost] = _row_norm2(amps[lost])
                q[lost] = left[lost] / norm2[lost]
            if draw is None:
                taken = survival_probability(p, ch.selectivity, q)
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
            norm2 = left
            if not live.all():
                rows = np.arange(block)[rows][live]
                amps, norm2 = amps[live], norm2[live]
                if rows.size == 0:
                    break
        if keep_intermediate:
            after_step.append(_normalized(amps))
    alive = np.zeros(block, dtype=bool)
    alive[rows] = True
    weight[~alive] = 0.0
    done = np.where(flags.any(axis=1), flags.argmax(axis=1) + 1, n_cleanouts)
    return SurvivorPaths(
        weight, alive, _normalized(amps), target, rest, probs, flags, done, tuple(after_step)
    )


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


def _qubit_embed(u2: np.ndarray) -> np.ndarray:
    u = np.eye(5, dtype=np.complex128)
    u[:2, :2] = u2
    return u


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
    final = state
    for step in single_qubit_steps(spec, errors):
        for u, targets in step.unitaries:
            final = _apply_matrix(final, u, targets)
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
def cz_builder(selectivity: float = 1.0, space: StateSpace | None = None):
    """Block builder of the entangling gate: maps errors of shape
    ``(block, 4)`` to the four transfers of every row, with their clean-outs.

    Simultaneous tones of one transfer touch disjoint level pairs, so each
    transfer is a set of commuting two-level rotations sharing one area
    error: the pair rotations of its Fock pairs, with each row's
    coefficients. No dense operator is built.
    """
    if space is None:
        space = cz_space()
    e_up = (IonLevel.Q1, IonLevel.AUX_PLUS)
    g_up = (IonLevel.Q0, IonLevel.AUX_MINUS)
    f = space.motion_axis
    s = selectivity
    fdim = space.fock_dim
    # Blue sideband out of the excited state plus carrier out of the ground
    # state, both on ion m.
    on_m = sideband_fill((("blue", e_up, 0.0), ("carrier", g_up, 0.0)), fdim)
    carrier_m = sideband_fill((("carrier", g_up, 0.0),), fdim)
    # Red sidebands bringing both of ion n's qubit levels down one motional
    # quantum into its auxiliaries; the third transfer flips the excited
    # tone's phase.
    on_n = sideband_fill((("red", e_up, 0.0), ("red", g_up, 0.0)), fdim)
    on_n_flipped = sideband_fill((("red", e_up, math.pi), ("red", g_up, 0.0)), fdim)
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
        a1, a2, a3, a4 = (math.pi + errors[:, k] for k in range(4))
        return (
            ((on_m(a1), (0, f)),),
            ((carrier_m(a2), (0, f)), (on_n(a2), (1, f))),
            ((carrier_m(a3), (0, f)), (on_n_flipped(a3), (1, f))),
            ((on_m(a4), (0, f)),),
        )

    return _Builder(transfers, cleanouts)


def cz_steps(
    errors: tuple[float, float, float, float],
    selectivity: float = 1.0,
    space: StateSpace | None = None,
) -> tuple[_Step, ...]:
    """The four transfers of the entangling gate, with their clean-outs."""
    return _row_of(cz_builder(selectivity, space)(_error_row(errors, 4)), 0)


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
    if space.n_ions != 2 or not space.has_motion:
        raise ValueError("certified_cz expects two ions and a motional mode")
    if space.fock_cutoff < 2:
        raise ValueError(
            f"fock_cutoff {space.fock_cutoff} leaves no headroom above the "
            "populated Fock 1 state; use at least 2"
        )
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
    return _row_of(build(_error_row(errors, 2)), 0)


def ideal_addressed_output(chain: PureState, target: int, spec: GateSpec) -> PureState:
    """Reference output: ideal rotation on the target, neighbors untouched."""
    return _apply_matrix(chain, _qubit_embed(ideal_single_qubit(spec)), (target,))


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
