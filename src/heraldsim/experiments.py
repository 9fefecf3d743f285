"""Ensemble runner and analytics for the certified protocols.

An :class:`ExperimentSpec` fixes everything about a run: protocol, gate,
error model, selectivity, input preparation, trial count, master seed and
execution mode. Trajectories draw their own error sequences (and, in mc
mode, herald samples) from per-index generators split off the master seed,
so results are bit-identical for a given spec regardless of how trajectories
are distributed over workers.

Blocks and workers return one numpy array per per-trajectory field; the
statistics reduce those columns in index order, and :class:`TrajectoryRow`
records are built from them only when a caller asks for rows.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .noise import AmplitudeErrorModel, draw_block
from .protocols import (
    MODES,
    ONE_ION,
    CrosstalkProfile,
    GateSpec,
    addressed_builder,
    chain_problem,
    cleanout_sites,
    cz_builder,
    cz_space,
    ideal_addressed_output,
    ideal_cz_output,
    _row_of,
    run_protocol,
    survivor_paths,
)
from .statespace import (
    N_LEVELS,
    PureState,
    StateSpace,
    _apply_block,
    _check_real,
    _normalized,
    _row_fidelities,
    _row_norm2,
    make_state,
    plus_minus_n_vectors,
)

PROTOCOLS = ("single", "cz", "addressing")
N_STEPS = {"single": 2, "cz": 4, "addressing": 2}

_WILSON_Z = 1.96  # 95% interval

# Largest estimated peak memory of one run, over all its processes.
MEMORY_BUDGET = 2 * 2**30
# Peak RSS of an 8-, 9- or 10-ion addressing ensemble is 4.6-6.2 state
# vectors per block row (input, ideal output, the kernel's block and its
# product pass's scratch array) over that of the process before it runs
# (~32 MB with numpy loaded); 10 leaves headroom.
_STATE_COPIES = 10
_PROCESS_BYTES = 64 * 2**20
# A block runs at most _BLOCK_ROWS trajectories, and fewer when one row's
# amplitudes or operators times the row count would pass _BLOCK_BYTES.
_BLOCK_ROWS = 64
_BLOCK_BYTES = 4 * 2**20
# One sideband pair of one row: its coefficients (c and two complex
# entries), and the kernel's basis indices of its two entries for each
# level of the other ion.
_PAIR_BYTES = 8 + 2 * 16 + 2 * N_LEVELS * 8


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the JSON path of the problem."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class InputSpec:
    """Named input preparation.

    Kinds: ``basis`` (label names the product basis state), ``plus_n``
    (every ion in the +1 eigenstate of the gate axis), ``bell`` (two-qubit
    gg + ee superposition), ``amplitudes`` (explicit qubit-manifold
    amplitudes, ion-major).
    """

    kind: str
    label: str = ""
    amplitudes: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("basis", "plus_n", "bell", "amplitudes"):
            raise ConfigError(f"unknown input kind {self.kind!r}", "$.input_state.kind")
        if self.amplitudes is not None:
            object.__setattr__(
                self, "amplitudes", tuple(complex(a) for a in self.amplitudes)
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """Full, serializable description of one ensemble run.

    Construction types and checks every field; a :class:`ConfigError` names
    the offending field by its path in :meth:`to_dict` form.
    """

    protocol: str
    error_model: AmplitudeErrorModel
    input_state: InputSpec
    trials: int
    master_seed: int
    gate: GateSpec | None = None
    selectivity: float = 1.0
    mode: str = "branch"
    fock_cutoff: int = 3
    crosstalk: tuple[float, ...] | None = None
    target: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}", "$.protocol")
        for name in ("trials", "master_seed", "fock_cutoff", "target"):
            object.__setattr__(self, name, _as_int(getattr(self, name), f"$.{name}"))
        object.__setattr__(self, "selectivity", _as_float(self.selectivity, "$.selectivity"))
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}", "$.trials")
        if self.master_seed < 0:
            raise ConfigError(
                f"master_seed must be >= 0, got {self.master_seed}", "$.master_seed"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}", "$.mode")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ConfigError(
                f"selectivity must lie in [0, 1], got {self.selectivity}", "$.selectivity"
            )
        if self.protocol == "cz" and self.gate is not None:
            raise ConfigError("the cz protocol takes no gate", "$.gate")
        if self.protocol != "cz" and self.gate is None:
            raise ConfigError(f"protocol {self.protocol!r} requires a gate", "$.gate")
        if self.protocol == "cz" and self.fock_cutoff < 2:
            raise ConfigError(
                f"fock_cutoff {self.fock_cutoff} is too small: the entangling protocol "
                "populates Fock 1 and needs headroom above it; use at least 2",
                "$.fock_cutoff",
            )
        if self.protocol != "cz" and self.fock_cutoff != 3:  # only cz has motion
            raise ConfigError("fock_cutoff applies to the cz protocol only", "$.fock_cutoff")
        if self.protocol == "addressing":
            self._check_crosstalk()
        elif self.crosstalk is not None:
            raise ConfigError(
                "crosstalk applies to the addressing protocol only", "$.crosstalk"
            )
        elif self.target != 0:
            # single runs with target 0 on its one-ion chain; cz has none.
            raise ConfigError("target applies to the addressing protocol only", "$.target")
        space = _space_for(self)
        problem = _input_problem(self, space.n_ions)
        if problem is not None:
            raise ConfigError(problem, "$.input_state")
        size = "$.fock_cutoff" if self.protocol == "cz" else "$.crosstalk.ratios"
        _check_memory(self, space, 1, size)

    def _check_crosstalk(self) -> None:
        if self.crosstalk is None:
            raise ConfigError(
                "the addressing protocol requires crosstalk ratios", "$.crosstalk"
            )
        ratios = self.crosstalk
        if isinstance(ratios, str) or not hasattr(ratios, "__iter__"):
            raise ConfigError(
                f"expected a list of numbers, got {type(ratios).__name__}", "$.crosstalk"
            )
        ratios = tuple(_as_float(r, f"$.crosstalk.ratios[{j}]") for j, r in enumerate(ratios))
        object.__setattr__(self, "crosstalk", ratios)
        problem = chain_problem(ratios, self.target)
        if problem is not None:
            message, ion = problem
            raise ConfigError(
                message, "$.target" if ion is None else f"$.crosstalk.ratios[{ion}]"
            )

    @property
    def n_steps(self) -> int:
        return N_STEPS[self.protocol]

    def to_dict(self) -> dict:
        doc: dict = {
            "protocol": self.protocol,
            "error_model": self.error_model.to_dict(),
            "input_state": _input_to_dict(self.input_state),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "selectivity": self.selectivity,
            "mode": self.mode,
        }
        if self.gate is not None:
            doc["gate"] = {
                "theta": self.gate.axis.theta,
                "phi": self.gate.axis.phi,
                "theta_gate": self.gate.theta_gate,
            }
        if self.protocol == "cz":
            doc["fock_cutoff"] = self.fock_cutoff
        if self.protocol == "addressing":
            doc["crosstalk"] = {"ratios": list(self.crosstalk)}
            doc["target"] = self.target
        return doc


def _as_int(value, path: str) -> int:
    """An integer field as a plain int; bools and non-integers are refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"expected an integer, got {type(value).__name__}", path)


def _as_float(value, path: str) -> float:
    """A real field as a float; bools, non-reals and integers beyond float
    range (``json`` reads integers exactly) are refused."""
    try:
        _check_real(value=value)
    except ValueError:
        raise ConfigError(f"expected a number, got {type(value).__name__}", path) from None
    try:
        return float(value)
    except OverflowError:
        raise ConfigError("number out of float range", path) from None


def _input_to_dict(inp: InputSpec) -> dict:
    doc: dict = {"kind": inp.kind}
    if inp.label:
        doc["label"] = inp.label
    if inp.amplitudes is not None:
        doc["amplitudes"] = [[a.real, a.imag] for a in inp.amplitudes]
    return doc


# --- input preparation -------------------------------------------------------

# Each basis-label character names one ion's qubit amplitudes (Q0, Q1).
_QUBIT_CHARS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (math.sqrt(0.5), math.sqrt(0.5)),
    "-": (math.sqrt(0.5), -math.sqrt(0.5)),
}
_BASIS_CHARS = {
    "single": _QUBIT_CHARS,
    "addressing": _QUBIT_CHARS,
    "cz": {"g": (1.0, 0.0), "e": (0.0, 1.0)},
}


def _crosstalk(spec: ExperimentSpec) -> CrosstalkProfile:
    """The chain of a chain protocol: single runs on a one-ion chain."""
    return ONE_ION if spec.crosstalk is None else CrosstalkProfile(spec.crosstalk)


def _space_for(spec: ExperimentSpec) -> StateSpace:
    if spec.protocol == "cz":
        return cz_space(spec.fock_cutoff)
    return StateSpace(len(_crosstalk(spec).ratios))


def _operator_bytes(protocol: str, space: StateSpace) -> int:
    """Bytes of one trajectory's step operators: ten sideband tones of at
    most fock_dim pairs each, with the kernel's indices of those pairs
    (cz), or one ion product per step, a 5x5 transfer for every ion of the
    chain, ratio-0 ions included (addressing and single)."""
    if protocol == "cz":
        return 10 * space.fock_dim * _PAIR_BYTES
    return 2 * space.n_ions * 16 * N_LEVELS**2


def _block_size(protocol: str, space: StateSpace) -> int:
    """Trajectories per block: derived from the register, never configured."""
    row_bytes = max(16 * space.dim, _operator_bytes(protocol, space))
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // row_bytes))


def _estimated_bytes(protocol: str, space: StateSpace) -> int:
    """Rough peak memory of one run: the process, plus a few state vectors
    and the step operators of every row of one block."""
    per_row = 16 * _STATE_COPIES * space.dim + _operator_bytes(protocol, space)
    return _PROCESS_BYTES + _block_size(protocol, space) * per_row


def _check_memory(spec: ExperimentSpec, space: StateSpace, processes: int, path: str) -> None:
    """Refuse a run whose processes together would pass the memory budget."""
    need = processes * _estimated_bytes(spec.protocol, space)
    if need > MEMORY_BUDGET:
        # A JSON fock_cutoff can make the estimate exceed float range.
        gib = f"{need / 2**30:.3g}" if need < 2**1000 else f"2^{need.bit_length() - 31}"
        where = f" in {processes} worker processes" if processes > 1 else ""
        raise ConfigError(
            f"the run needs about {gib} GiB{where}, over the "
            f"{MEMORY_BUDGET / 2**30:.3g} GiB budget",
            path,
        )


def worker_processes(spec: ExperimentSpec, workers: int) -> int:
    """The processes that run ``spec`` over ``workers``: a pool of
    ``workers`` when each gets at least two trials, else the caller alone.
    Raises :class:`ConfigError` for fewer than one worker, or when those
    processes, each with its own state and blocks, would together pass the
    memory budget."""
    if workers < 1:
        raise ConfigError(f"must be >= 1, got {workers}", "--workers")
    processes = workers if spec.trials >= 2 * workers else 1
    _check_memory(spec, _space_for(spec), processes, "--workers")
    return processes


def _input_problem(spec: ExperimentSpec, n_ions: int) -> str | None:
    """Why the spec's input preparation does not fit its protocol, if it does not."""
    inp = spec.input_state
    if inp.kind == "plus_n" and spec.gate is None:
        return "plus_n input requires a gate axis"
    if inp.kind == "bell" and spec.protocol != "cz":
        return "bell input applies to the cz protocol only"
    if inp.kind == "basis":
        chars = _BASIS_CHARS[spec.protocol]
        if len(inp.label) != n_ions or any(ch not in chars for ch in inp.label):
            return f"basis label {inp.label!r} must have one of {'/'.join(chars)} per ion"
    if inp.kind == "amplitudes":
        amps = inp.amplitudes
        if amps is None or len(amps) != 2**n_ions:
            return f"expected {2**n_ions} qubit-manifold amplitudes"
        if not 0.0 < _row_norm2(np.array([amps]))[0] < math.inf:  # as _normalized
            return "amplitudes must be finite and not all zero, with a squared norm in float range"
    return None


def _qubit_indices(space: StateSpace) -> np.ndarray:
    """Flat basis index of every qubit-manifold label k: bit i of k, from
    the most significant, is ion i's qubit level."""
    n = space.n_ions
    powers = N_LEVELS ** np.arange(n - 1, -1, -1)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits @ powers * space.fock_dim


def _qubit_state(space: StateSpace, values) -> PureState:
    """The normalized state with each qubit label's amplitude, in
    :func:`_qubit_indices` order, added into zeros as ``make_state`` adds
    its entries."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[_qubit_indices(space)] += values
    return PureState(space, _normalized(amps[None])[0])


def _qubit_product_state(space: StateSpace, per_ion: list[tuple[complex, complex]]) -> PureState:
    """The outer product of each ion's (Q0, Q1) amplitudes, ion 0 first."""
    amps = [1.0 + 0.0j]
    for q in per_ion:
        amps = [a * c for a in amps for c in q]
    return _qubit_state(space, amps)


def prepare_input(spec: ExperimentSpec) -> PureState:
    """Build the initial state named by the spec's input preparation."""
    space = _space_for(spec)
    inp = spec.input_state
    if inp.kind == "plus_n":
        plus, _ = plus_minus_n_vectors(spec.gate.axis)
        return _qubit_product_state(space, [(plus[0], plus[1])] * space.n_ions)
    if inp.kind == "bell":
        return make_state(
            space, [(space.index([0, 0]), 1.0), (space.index([1, 1]), 1.0)]
        )
    if inp.kind == "basis":
        chars = _BASIS_CHARS[spec.protocol]
        return _qubit_product_state(space, [chars[ch] for ch in inp.label])
    # explicit amplitudes over the qubit manifold, ion-major
    return _qubit_state(space, inp.amplitudes)


def _ideal_output(spec: ExperimentSpec, state: PureState) -> PureState:
    if spec.protocol == "cz":
        return ideal_cz_output(state)
    return ideal_addressed_output(state, spec.target, spec.gate)


def _block_builder(spec: ExperimentSpec):
    """The spec's block builder: errors of shape (block, n_steps) to steps."""
    if spec.protocol == "cz":
        return cz_builder(spec.selectivity, _space_for(spec))
    return addressed_builder(spec.gate, _crosstalk(spec), spec.target, spec.selectivity)


# --- trajectory execution ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrajectoryRow:
    """Per-trajectory record, identical across worker layouts."""

    index: int
    no_flag_probability: float
    fidelity: float  # 0.0 with zero no-flag weight when undefined
    flagged: bool | None  # mc mode only
    step_flags: tuple[tuple[int, int, float], ...]  # (step, ion, flag value or rate)
    clamp_count: int
    error_sumsq: float
    n_errors: int


class _Columns(NamedTuple):
    """One array per per-trajectory field, in index order: the kernel's
    :class:`SurvivorPaths` fields at the clean-outs ``sites``, the end-state
    fidelity (0.0 where a row did not survive), the draws' clamp counts and
    summed squared errors, and the bare fidelities (empty unless asked for)."""

    sites: tuple[tuple[int, int], ...]
    weight: np.ndarray
    fidelity: np.ndarray
    alive: np.ndarray
    done: np.ndarray
    probs: np.ndarray
    clamps: np.ndarray
    sumsq: np.ndarray
    bare: np.ndarray


def _joined(parts: list[_Columns]) -> _Columns:
    """The columns of consecutive index ranges, in the order given."""
    return _Columns(parts[0].sites, *(np.concatenate(col) for col in list(zip(*parts))[1:]))


def _run_batch(spec: ExperimentSpec, start: int, stop: int, bare: bool = False) -> _Columns:
    """Columns of trajectories start..stop-1, run block by block.

    With ``bare`` (single protocol) they also hold each trajectory's
    fidelity after the same two transfers without clean-outs.
    """
    state = prepare_input(spec)
    ideal = _ideal_output(spec, state)
    build = _block_builder(spec)
    sites = cleanout_sites(build.cleanouts)
    size = _block_size(spec.protocol, state.space)
    blocks = [range(first, min(first + size, stop)) for first in range(start, stop, size)]
    return _joined([_run_block(spec, ids, state, ideal, build, sites, bare) for ids in blocks])


def _run_block(spec, indices, state, ideal, build, sites, bare) -> _Columns:
    space, n = state.space, len(indices)
    mc = spec.mode == "mc"
    # Each row draws its errors and then, in mc mode, its clean-out uniforms
    # from its own trajectory stream.
    errors, clamps, uniforms = draw_block(
        spec.error_model, spec.n_steps, spec.master_seed, indices, len(sites) if mc else 0
    )
    steps = build(errors)
    draw = (lambda col, live: uniforms[live, col]) if mc else None
    start = np.broadcast_to(state.amplitudes, (n, space.dim))
    paths = survivor_paths(start, space, steps, draw, monitor_top_fock=space.has_motion)
    fidelity = np.zeros(n)
    fidelity[paths.alive] = _row_fidelities(paths.final, ideal.amplitudes)
    # Python's sum(v * v for v in errs), column by column.
    sumsq = np.zeros(n)
    for k in range(spec.n_steps):
        sumsq = sumsq + errors[:, k] * errors[:, k]
    bare_fids = np.zeros(0)
    if bare:
        amps = start.copy()
        for step in steps:
            for u, targets in step.unitaries:
                _apply_block(amps, space, u, targets)
        bare_fids = _row_fidelities(amps, ideal.amplitudes)
    return _Columns(
        sites, paths.weight, fidelity, paths.alive, paths.done, paths.probs, clamps, sumsq, bare_fids
    )


def _run_rows(spec: ExperimentSpec, workers: int, bare: bool = False) -> _Columns:
    """Every trajectory's columns in index order, over ``workers`` processes."""
    processes = worker_processes(spec, workers)
    if processes == 1:
        return _run_batch(spec, 0, spec.trials, bare)
    bounds = np.linspace(0, spec.trials, processes + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [
            pool.submit(_run_batch, spec, int(a), int(b), bare)
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        return _joined([fut.result() for fut in futures])


def _flag_values(spec: ExperimentSpec, cols: _Columns) -> tuple[np.ndarray, np.ndarray]:
    """Each row's flag value at each clean-out, and whether it reached it: in
    mc mode 1.0 where the row flagged, in branch mode 1 - p along every
    surviving row."""
    columns = np.arange(len(cols.sites))
    if spec.mode == "mc":
        flagged_here = ~cols.alive[:, None] & (cols.done[:, None] - 1 == columns)
        return flagged_here.astype(float), cols.done[:, None] > columns
    return 1.0 - cols.probs, np.broadcast_to(cols.alive[:, None], cols.probs.shape)


def _trajectory_rows(spec: ExperimentSpec, cols: _Columns) -> list[TrajectoryRow]:
    """One record per trajectory, built from the columns."""
    values, reached = _flag_values(spec, cols)
    step_flags = [
        tuple((*site, v) for site, v, r in zip(cols.sites, row_values, row_reached) if r)
        for row_values, row_reached in zip(values.tolist(), reached.tolist())
    ]
    flagged = [None if spec.mode == "branch" else not a for a in cols.alive.tolist()]
    columns = zip(
        cols.weight.tolist(),
        cols.fidelity.tolist(),
        flagged,
        step_flags,
        cols.clamps.tolist(),
        cols.sumsq.tolist(),
    )
    return [TrajectoryRow(i, *fields, spec.n_steps) for i, fields in enumerate(columns)]


# --- statistics --------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleStatistics:
    """Aggregated herald and fidelity statistics of one ensemble."""

    trials: int
    mode: str
    herald_rate: float
    herald_rate_se: float
    wilson_interval: tuple[float, float] | None
    conditional_fidelity: float | None
    conditional_fidelity_se: float | None
    unconditional_fidelity: float
    n_unflagged: int
    step_flag_rates: dict[tuple[int, int], float] = field(default_factory=dict)
    clamp_count: int = 0
    rms_error: float = 0.0
    quadratic_no_flag_approx: float = 1.0

    def to_dict(self) -> dict:
        # The fields in declaration order. Not asdict: its deep copies, made
        # once per ensemble, add 0.2-0.6 MB to a long run's peak RSS.
        return vars(self) | {
            "wilson_interval": list(self.wilson_interval) if self.wilson_interval else None,
            "step_flag_rates": [
                [step, ion, rate]
                for (step, ion), rate in sorted(self.step_flag_rates.items())
            ],
        }


def _wilson(rate: float, n: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (rate + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(rate * (1.0 - rate) / n + z2 / (4 * n * n)) / denom
    return center - half, center + half


def _reduce(spec: ExperimentSpec, cols: _Columns) -> EnsembleStatistics:
    n = len(cols.weight)
    noflag, fid = cols.weight, cols.fidelity
    flag_prob = 1.0 - noflag
    herald_rate = float(np.mean(flag_prob))
    weight_sum = float(np.sum(noflag))
    rms_error = math.sqrt(float(np.sum(cols.sumsq)) / (n * spec.n_steps))
    quad = 1.0 - spec.n_steps * (rms_error / 2.0) ** 2

    n_unflagged = int(np.sum(noflag > 0.0))
    if spec.mode == "mc":
        se = math.sqrt(herald_rate * (1.0 - herald_rate) / n)
        wilson = _wilson(herald_rate, n)
        if n_unflagged > 0:
            kept = fid[noflag > 0.0]
            cond = float(np.mean(kept))
            cond_se = (
                float(np.std(kept, ddof=1) / math.sqrt(n_unflagged))
                if n_unflagged > 1
                else 0.0
            )
        else:
            cond = cond_se = None
        uncond = float(np.sum(fid[noflag > 0.0]) / n) if n_unflagged else 0.0
    else:
        se = float(np.std(flag_prob, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        wilson = None
        if weight_sum > 0.0:
            cond = float(np.sum(noflag * fid) / weight_sum)
            var = float(np.sum(noflag * (fid - cond) ** 2) / weight_sum)
            cond_se = math.sqrt(max(var, 0.0) / n)
        else:
            cond = cond_se = None
        uncond = float(np.sum(noflag * fid) / n)

    values, reached = _flag_values(spec, cols)
    step_rates: dict[tuple[int, int], float] = {}
    for c, site in enumerate(cols.sites):
        kept = values[reached[:, c], c]
        if kept.size:
            # Left to right in index order: np.sum adds pairwise, and the
            # builtin sum compensates from Python 3.12 on.
            step_rates[site] = float(np.add.accumulate(kept)[-1]) / kept.size

    return EnsembleStatistics(
        trials=n,
        mode=spec.mode,
        herald_rate=herald_rate,
        herald_rate_se=se,
        wilson_interval=wilson,
        conditional_fidelity=cond,
        conditional_fidelity_se=cond_se,
        unconditional_fidelity=uncond,
        n_unflagged=n_unflagged,
        step_flag_rates=step_rates,
        clamp_count=int(np.sum(cols.clamps)),
        rms_error=rms_error,
        quadratic_no_flag_approx=quad,
    )


def run_ensemble(
    spec: ExperimentSpec, workers: int = 1, return_rows: bool = False
):
    """Run the ensemble; deterministic for a given spec, any worker count.

    The runner keeps one array per per-trajectory field and reduces those;
    only ``return_rows`` builds one :class:`TrajectoryRow` per trajectory,
    in index order, returned next to the statistics.
    """
    cols = _run_rows(spec, workers)
    stats = _reduce(spec, cols)
    if return_rows:
        return stats, _trajectory_rows(spec, cols)
    return stats


def enumerate_trajectory(spec: ExperimentSpec, index: int = 0):
    """Exact branch table for one trajectory's error draw.

    Used for branch tables: the outcome lists every herald branch and the
    surviving final state for the errors of the given trajectory index.
    """
    state = prepare_input(spec)
    errors, _, _ = draw_block(spec.error_model, spec.n_steps, spec.master_seed, [index])
    steps = _row_of(_block_builder(spec)(errors), 0)
    return run_protocol(state, steps, "branch", monitor_top_fock=state.space.has_motion)


def herald_probability_analytic(errors: Sequence[float]) -> float:
    """Flag probability of a transfer sequence with the given area errors:
    one minus the product of per-step survival probabilities."""
    no_flag = 1.0
    for d in errors:
        no_flag *= 1.0 - math.sin(0.5 * d) ** 2
    return 1.0 - no_flag


# --- sweeps and baselines ----------------------------------------------------

SWEEPABLE = ("delta_pi", "sigma", "selectivity", "r_neighbor", "theta_gate")


def _with_parameter(spec: ExperimentSpec, parameter: str, value: float) -> ExperimentSpec:
    if parameter == "delta_pi":
        return replace(spec, error_model=AmplitudeErrorModel.constant(value))
    if parameter == "sigma":
        return replace(spec, error_model=AmplitudeErrorModel.gaussian_iid(value))
    if parameter == "selectivity":
        return replace(spec, selectivity=value)
    if parameter == "r_neighbor":
        if spec.crosstalk is None:
            raise ValueError("r_neighbor sweep requires the addressing protocol")
        ratios = tuple(
            1.0 if j == spec.target else value for j in range(len(spec.crosstalk))
        )
        return replace(spec, crosstalk=ratios)
    if parameter == "theta_gate":
        if spec.gate is None:
            raise ValueError("theta_gate sweep requires a gate")
        return replace(spec, gate=GateSpec(spec.gate.axis, value))
    raise ValueError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE}")


def sweep(
    base: ExperimentSpec,
    parameter: str,
    values: Sequence[float],
    workers: int = 1,
) -> list[tuple[float, EnsembleStatistics]]:
    """One independent, reproducible ensemble per parameter value."""
    return [
        (float(v), run_ensemble(_with_parameter(base, parameter, float(v)), workers))
        for v in values
    ]


@dataclass(frozen=True)
class CertifiedVsBare:
    """Side-by-side error measures under identical per-trajectory draws."""

    certified_herald_rate: float
    certified_conditional_infidelity: float
    bare_unconditional_infidelity: float
    ratio: float  # herald rate / bare infidelity; nan when bare is error-free

    def to_dict(self) -> dict:
        return dict(vars(self))


def compare_certified_vs_bare(spec: ExperimentSpec, workers: int = 1) -> CertifiedVsBare:
    """Certified flag rate versus the plain two-transfer infidelity.

    Both runs consume identical per-trajectory error draws. The certified
    branch stays exactly ideal whenever it survives; the bare baseline
    accumulates the area errors in its output state.
    """
    if spec.protocol != "single":
        raise ValueError("certified-vs-bare comparison is defined for protocol 'single'")
    cols = _run_rows(spec, workers, bare=True)
    stats = _reduce(spec, cols)
    bare_infidelity = float(np.mean(1.0 - cols.bare))
    cond = stats.conditional_fidelity
    certified_infidelity = (1.0 - cond) if cond is not None else math.nan
    ratio = (
        stats.herald_rate / bare_infidelity if bare_infidelity > 0.0 else math.nan
    )
    return CertifiedVsBare(
        certified_herald_rate=stats.herald_rate,
        certified_conditional_infidelity=certified_infidelity,
        bare_unconditional_infidelity=bare_infidelity,
        ratio=ratio,
    )
