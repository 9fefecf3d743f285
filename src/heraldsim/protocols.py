"""Certified gate protocols: transfers interleaved with heralding clean-outs.

Three protocols are provided, each with an ideal reference:

* a single-qubit rotation split into two qubit/auxiliary transfers,
* a two-ion entangling gate built from four sideband transfers through a
  shared motional mode (sign flip on the doubly-excited component),
* an addressed single-qubit gate on one ion of a chain, where beam
  crosstalk partially rotates the neighbors and is caught by cleaning
  their auxiliary manifolds.

Protocols run in two modes: exact branch enumeration over all herald
outcomes, or Monte Carlo sampling of a single trajectory. Flagged branches
are terminal aggregates (state ``None``): flagged runs are discarded, so
their internal state is never tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dissipation import (
    CleanoutChannel,
    HeraldRecord,
    _sample_raw,
    aux_cleanout,
    cleanout_branches,
    level_cleanout,
    qubit_cleanout,
)
from .pulses import (
    SidebandPulse,
    ToneSet,
    TransferPulse,
    five_level,
    gate_phase_shifts,
    sideband_unitary,
    transfer_unitary,
)
from .statespace import (
    BlochAxis,
    IonLevel,
    PureState,
    QUBIT_MANIFOLD,
    StateSpace,
    _apply_matrix,
    _apply_matrix_raw,
    fidelity_up_to_global_phase,
    fock_population,
    level_mask,
    manifold_population,
)

POP_ATOL = 1e-12
LEAK_ATOL = 1e-12
DEFAULT_FOCK_CUTOFF = 3

MODES = ("branch", "mc")
FLAG_QUERIES = ("immediate", "end")


class LeakageError(RuntimeError):
    """Population reached the truncated top Fock state."""


@dataclass(frozen=True)
class GateSpec:
    """Target rotation: axis on the Bloch sphere plus rotation angle."""

    axis: BlochAxis
    theta_gate: float

    def __post_init__(self) -> None:
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

    The transfer is a sequence of prevalidated per-factor (matrix, targets)
    pairs, applied in order to the state tensor: a 5x5 ion operator on
    ``(ion,)`` or an ion-and-mode sideband product on ``(ion, motion_axis)``.
    """

    unitaries: tuple[tuple[np.ndarray, tuple[int, ...]], ...]
    cleanouts: tuple[CleanoutChannel, ...]


def _branch_sort_key(branch: Branch):
    return tuple(
        (r.step_index, r.ion, r.flagged, r.branch_probability) for r in branch.records
    )


def _check_top_fock_raw(amps: np.ndarray, space: StateSpace) -> None:
    if space.has_motion:
        top = amps.reshape(-1, space.fock_dim)[:, space.fock_cutoff]
        leak = float(np.sum(top.real**2 + top.imag**2))
        if leak > LEAK_ATOL:
            raise LeakageError(
                f"population {leak:.3e} at the Fock cutoff; raise fock_cutoff"
            )


def run_protocol(
    state: PureState,
    steps: Sequence[_Step],
    mode: str = "branch",
    rng: np.random.Generator | None = None,
    flag_query: str = "immediate",
    monitor_top_fock: bool = False,
    keep_intermediate: bool = False,
) -> ProtocolOutcome:
    """Drive a prepared state through transfer/clean-out steps.

    Branch mode enumerates every herald outcome exactly; mc mode samples one
    trajectory (``rng`` required). ``flag_query`` controls whether flagged
    branches are finalized as they occur or carried as aggregates and
    partitioned only at the end; both give identical outcomes.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if flag_query not in FLAG_QUERIES:
        raise ValueError(f"flag_query must be one of {FLAG_QUERIES}, got {flag_query!r}")
    if mode == "mc":
        if rng is None:
            raise ValueError("mc mode requires a random generator")
        return _run_mc(state, steps, rng, monitor_top_fock)
    return _run_branches(state, steps, flag_query, monitor_top_fock, keep_intermediate)


def _run_branches(
    state: PureState,
    steps: Sequence[_Step],
    flag_query: str,
    monitor: bool,
    keep_intermediate: bool,
) -> ProtocolOutcome:
    live: list[tuple[PureState | None, float, tuple[HeraldRecord, ...]]] = [
        (state, 1.0, ())
    ]
    done: list[Branch] = []
    intermediates: list[PureState | None] = []
    for si, step in enumerate(steps):
        evolved = []
        for st, p, recs in live:
            if st is not None:
                for u, targets in step.unitaries:
                    st = _apply_matrix(st, u, targets)
                if monitor:
                    _check_top_fock_raw(st.amplitudes, st.space)
            evolved.append((st, p, recs))
        live = evolved
        for ch in step.cleanouts:
            split = []
            for st, p, recs in live:
                if st is None:
                    split.append((st, p, recs))
                    continue
                for bst, bp, flagged in cleanout_branches(st, ch):
                    child = (bst, p * bp, recs + (HeraldRecord(si, ch.ion, flagged, bp),))
                    if flagged and flag_query == "immediate":
                        done.append(Branch(None, child[1], child[2]))
                    else:
                        split.append(child)
            live = split
        if keep_intermediate:
            survivors = [st for st, _, _ in live if st is not None]
            intermediates.append(survivors[0] if survivors else None)
    branches = done + [Branch(st, p, recs) for st, p, recs in live]
    branches.sort(key=_branch_sort_key)
    return ProtocolOutcome(
        tuple(branches),
        "branch",
        tuple(intermediates) if keep_intermediate else None,
    )


def _run_mc(
    state: PureState,
    steps: Sequence[_Step],
    rng: np.random.Generator,
    monitor: bool,
) -> ProtocolOutcome:
    space = state.space
    amps: np.ndarray | None = state.amplitudes
    records: list[HeraldRecord] = []
    for si, step in enumerate(steps):
        if amps is None:
            break
        for u, targets in step.unitaries:
            amps = _apply_matrix_raw(amps, space, u, targets)
        if monitor:
            _check_top_fock_raw(amps, space)
        for ch in step.cleanouts:
            amps, prob, flagged = _sample_raw(amps, space, ch, rng)
            records.append(HeraldRecord(si, ch.ion, flagged, prob))
            if flagged:
                break
    final = PureState(space, amps) if amps is not None else None
    return ProtocolOutcome((Branch(final, 1.0, tuple(records)),), "mc")


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
    the surviving branch of an enumerated outcome."""
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
    return _apply_matrix(state, _qubit_embed(ideal_single_qubit(spec)), (0,))


def _require_qubit_manifold(state: PureState, ion: int) -> None:
    outside = 1.0 - manifold_population(state, ion, QUBIT_MANIFOLD)
    if outside > POP_ATOL:
        raise ValueError(
            f"ion {ion} has population {outside:.3e} outside the qubit manifold"
        )


def single_qubit_steps(
    spec: GateSpec, errors: tuple[float, float], selectivity: float = 1.0
) -> tuple[_Step, ...]:
    """The two transfer/clean-out steps of the certified rotation."""
    d1, d2 = errors
    tones = ToneSet(spec.axis)
    chi_plus, chi_minus = gate_phase_shifts(spec.theta_gate)
    u1 = five_level(transfer_unitary(TransferPulse(tones, math.pi + d1)))
    u2 = five_level(
        transfer_unitary(
            TransferPulse(tones, math.pi + d2, chi_plus, chi_minus)
        )
    )
    return (
        _Step(((u1, (0,)),), (qubit_cleanout(0, selectivity),)),
        _Step(((u2, (0,)),), (aux_cleanout(0, selectivity),)),
    )


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
    both_excited = level_mask(space, 0, {IonLevel.Q1}) & level_mask(
        space, 1, {IonLevel.Q1}
    )
    signs = np.where(both_excited, -1.0, 1.0)
    return PureState(space, state.amplitudes * signs)


def _sideband(
    kind: str,
    levels: tuple[IonLevel, IonLevel],
    area: float,
    ion: int,
    space: StateSpace,
    phase: float = 0.0,
) -> np.ndarray:
    return sideband_unitary(SidebandPulse(kind, levels, area, phase, ion), space)


def cz_steps(
    errors: tuple[float, float, float, float],
    selectivity: float = 1.0,
    space: StateSpace | None = None,
) -> tuple[_Step, ...]:
    """The four transfers of the entangling gate, with their clean-outs.

    Simultaneous tones of one transfer touch disjoint level pairs, so each
    transfer is the product of commuting two-level rotations sharing one
    area error.
    """
    if space is None:
        space = cz_space()
    e_up = (IonLevel.Q1, IonLevel.AUX_PLUS)
    g_up = (IonLevel.Q0, IonLevel.AUX_MINUS)
    f = space.motion_axis
    s = selectivity
    a1, a2, a3, a4 = (math.pi + d for d in errors)

    def on_m(area: float) -> np.ndarray:
        # Blue sideband out of the excited state plus carrier out of the
        # ground state, both on ion m.
        return _sideband("blue", e_up, area, 0, space) @ _sideband(
            "carrier", g_up, area, 0, space
        )

    def on_n(area: float, e_phase: float = 0.0) -> np.ndarray:
        # Red sidebands bringing both of ion n's qubit levels down one
        # motional quantum into its auxiliaries.
        return _sideband("red", e_up, area, 1, space, e_phase) @ _sideband(
            "red", g_up, area, 1, space
        )

    def carrier_m(area: float) -> np.ndarray:
        return _sideband("carrier", g_up, area, 0, space)

    return (
        _Step(((on_m(a1), (0, f)),), (qubit_cleanout(0, s),)),
        _Step(
            ((carrier_m(a2), (0, f)), (on_n(a2), (1, f))),
            (
                level_cleanout(0, {IonLevel.AUX_MINUS}, s),
                level_cleanout(1, QUBIT_MANIFOLD, s, fock={1}),
            ),
        ),
        _Step(
            ((carrier_m(a3), (0, f)), (on_n(a3, e_phase=math.pi), (1, f))),
            (aux_cleanout(1, s), level_cleanout(0, {IonLevel.Q0}, s)),
        ),
        _Step(((on_m(a4), (0, f)),), (aux_cleanout(0, s),)),
    )


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
    if len(errors) != 4:
        raise ValueError(f"expected four per-transfer errors, got {len(errors)}")
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


def addressed_steps(
    spec: GateSpec,
    crosstalk: CrosstalkProfile,
    target: int,
    errors: tuple[float, float],
    selectivity: float = 1.0,
) -> tuple[_Step, ...]:
    """Both halves of the addressed gate on a chain.

    Every ion sees the same waveform scaled by its crosstalk ratio. After
    the first half the target's qubit manifold and each neighbor's auxiliary
    manifold are cleaned; after the second half every auxiliary manifold is.
    """
    d1, d2 = errors
    n_ions = len(crosstalk.ratios)
    tones = ToneSet(spec.axis)
    chi_plus, chi_minus = gate_phase_shifts(spec.theta_gate)

    def rotations(delta: float, cp: float, cm: float):
        pairs = []
        for j, r in enumerate(crosstalk.ratios):
            if r == 0.0:
                continue
            u = five_level(
                transfer_unitary(TransferPulse(tones, (math.pi + delta) * r, cp, cm))
            )
            pairs.append((u, (j,)))
        return tuple(pairs)

    neighbors = [j for j in range(n_ions) if j != target]
    s = selectivity
    return (
        _Step(
            rotations(d1, 0.0, 0.0),
            (qubit_cleanout(target, s),) + tuple(aux_cleanout(j, s) for j in neighbors),
        ),
        _Step(
            rotations(d2, chi_plus, chi_minus),
            tuple(aux_cleanout(j, s) for j in range(n_ions)),
        ),
    )


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
    if not 0 <= target < space.n_ions:
        raise ValueError(f"target {target} out of range for {space.n_ions} ions")
    if len(crosstalk.ratios) != space.n_ions:
        raise ValueError(
            f"crosstalk has {len(crosstalk.ratios)} ratios for {space.n_ions} ions"
        )
    if crosstalk.ratios[target] != 1.0:
        raise ValueError("the addressed ion must have crosstalk ratio 1.0")
    for j in range(space.n_ions):
        if j != target and crosstalk.ratios[j] >= 1.0:
            raise ValueError(f"neighbor {j} crosstalk ratio must be < 1")
        _require_qubit_manifold(chain, j)
    steps = addressed_steps(spec, crosstalk, target, errors, selectivity)
    return run_protocol(chain, steps, mode, rng, flag_query)
