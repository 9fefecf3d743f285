"""Ensemble runner and analytics for the certified protocols.

An :class:`ExperimentSpec` fixes everything about a run: protocol, gate,
error model, selectivity, input preparation, trial count, master seed and
execution mode. Trajectories draw their own error sequences (and, in mc
mode, herald samples) from per-index generators split off the master seed,
so results are bit-identical for a given spec regardless of how trajectories
are distributed over workers.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .noise import AmplitudeErrorModel, sample_errors_block, trajectory_rng
from .protocols import (
    ONE_ION,
    CrosstalkProfile,
    GateSpec,
    addressed_builder,
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
    IonLevel,
    PureState,
    StateSpace,
    _apply_block,
    _row_fidelities,
    make_state,
    plus_minus_n_vectors,
)

PROTOCOLS = ("single", "cz", "addressing")
N_STEPS = {"single": 2, "cz": 4, "addressing": 2}

_WILSON_Z = 1.96  # 95% interval

# Largest estimated peak memory of one run, over all its processes.
MEMORY_BUDGET = 2 * 2**30
# Peak RSS of an 8- or 9-ion addressing ensemble is ~9 state vectors per
# block row (input, ideal output, kernel temporaries, clean-out masks) over
# that of the process before it runs (~40 MB with numpy loaded).
_STATE_COPIES = 10
_PROCESS_BYTES = 64 * 2**20
# A block runs at most _BLOCK_ROWS trajectories, and fewer when one row's
# amplitudes or operators times the row count would pass _BLOCK_BYTES.
_BLOCK_ROWS = 64
_BLOCK_BYTES = 4 * 2**20


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

    Construction checks every field; a :class:`ConfigError` names the
    offending field by its path in :meth:`to_dict` form.
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
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}", "$.trials")
        if self.master_seed < 0:
            raise ConfigError(
                f"master_seed must be >= 0, got {self.master_seed}", "$.master_seed"
            )
        if self.mode not in ("branch", "mc"):
            raise ConfigError(f"mode must be 'branch' or 'mc', got {self.mode!r}", "$.mode")
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
        ratios = tuple(float(r) for r in self.crosstalk)
        object.__setattr__(self, "crosstalk", ratios)
        if not 0 <= self.target < len(ratios):
            raise ConfigError(
                f"target {self.target} out of range for {len(ratios)} ions", "$.target"
            )
        if ratios[self.target] != 1.0:
            raise ConfigError(
                "the addressed ion must have crosstalk ratio 1.0",
                f"$.crosstalk.ratios[{self.target}]",
            )
        for j, r in enumerate(ratios):
            if j != self.target and not 0.0 <= r < 1.0:
                raise ConfigError(
                    f"neighbor ratio must lie in [0, 1), got {r}", f"$.crosstalk.ratios[{j}]"
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


def _input_to_dict(inp: InputSpec) -> dict:
    doc: dict = {"kind": inp.kind}
    if inp.label:
        doc["label"] = inp.label
    if inp.amplitudes is not None:
        doc["amplitudes"] = [[a.real, a.imag] for a in inp.amplitudes]
    return doc


# --- input preparation -------------------------------------------------------

_CHAR_AMPS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (math.sqrt(0.5), math.sqrt(0.5)),
    "-": (math.sqrt(0.5), -math.sqrt(0.5)),
}


def _crosstalk(spec: ExperimentSpec) -> CrosstalkProfile:
    """The chain of a chain protocol: single runs on a one-ion chain."""
    return ONE_ION if spec.crosstalk is None else CrosstalkProfile(spec.crosstalk)


def _space_for(spec: ExperimentSpec) -> StateSpace:
    if spec.protocol == "cz":
        return cz_space(spec.fock_cutoff)
    return StateSpace(len(_crosstalk(spec).ratios))


def _operator_entries(protocol: str, space: StateSpace) -> int:
    """Matrix entries of one trajectory's step operators: six sideband
    products (cz) or one transfer per ion and step."""
    n_operators = 6 if protocol == "cz" else 2 * space.n_ions
    return n_operators * (N_LEVELS * space.fock_dim) ** 2


def _block_size(protocol: str, space: StateSpace) -> int:
    """Trajectories per block: derived from the register, never configured."""
    row_bytes = 16 * max(space.dim, _operator_entries(protocol, space))
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // row_bytes))


def _estimated_bytes(protocol: str, space: StateSpace) -> int:
    """Rough peak memory of one run: the process, plus a few state vectors
    and the step operators of every row of one block."""
    per_row = _STATE_COPIES * space.dim + _operator_entries(protocol, space)
    return _PROCESS_BYTES + 16 * _block_size(protocol, space) * per_row


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
    if inp.kind == "basis" and spec.protocol == "cz":
        if len(inp.label) != 2 or any(ch not in "ge" for ch in inp.label):
            return f"cz basis label must be two of g/e, got {inp.label!r}"
    elif inp.kind == "basis":
        if len(inp.label) != n_ions or any(ch not in _CHAR_AMPS for ch in inp.label):
            return f"basis label {inp.label!r} must have one of 0/1/+/- per ion"
    if inp.kind == "amplitudes":
        amps = inp.amplitudes
        if amps is None or len(amps) != 2**n_ions:
            return f"expected {2**n_ions} qubit-manifold amplitudes"
        if not any(amps) or not all(cmath.isfinite(a) for a in amps):
            return "amplitudes must be finite and not all zero"
    return None


def _qubit_product_state(space: StateSpace, per_ion: list[tuple[complex, complex]]) -> PureState:
    entries = []
    for bits in np.ndindex(*(2,) * space.n_ions):
        amp = 1.0 + 0.0j
        for ion, b in enumerate(bits):
            amp *= per_ion[ion][b]
        if amp != 0.0:
            entries.append((space.index([IonLevel(b) for b in bits]), amp))
    return make_state(space, entries)


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
    if inp.kind == "basis" and spec.protocol == "cz":
        levels = [IonLevel.Q1 if ch == "e" else IonLevel.Q0 for ch in inp.label]
        return make_state(space, [(space.index(levels), 1.0)])
    if inp.kind == "basis":
        return _qubit_product_state(space, [_CHAR_AMPS[ch] for ch in inp.label])
    # explicit amplitudes over the qubit manifold, ion-major
    entries = []
    for k, a in enumerate(inp.amplitudes):
        bits = [(k >> (space.n_ions - 1 - ion)) & 1 for ion in range(space.n_ions)]
        entries.append((space.index([IonLevel(b) for b in bits]), a))
    return make_state(space, entries)


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


def _run_batch(
    spec: ExperimentSpec, start: int, stop: int, bare: bool = False
) -> tuple[list[TrajectoryRow], list[float]]:
    """Rows of trajectories start..stop-1, run block by block.

    With ``bare`` (single protocol) it also returns each trajectory's
    fidelity after the same two transfers without clean-outs.
    """
    state = prepare_input(spec)
    ideal = _ideal_output(spec, state)
    build = _block_builder(spec)
    size = _block_size(spec.protocol, state.space)
    rows: list[TrajectoryRow] = []
    bare_fids: list[float] = []
    for first in range(start, stop, size):
        block_rows, block_bare = _run_block(
            spec, range(first, min(first + size, stop)), state, ideal, build, bare
        )
        rows += block_rows
        bare_fids += block_bare
    return rows, bare_fids


def _run_block(spec, indices, state, ideal, build, bare):
    space, n = state.space, len(indices)
    # A fixed error sequence in branch mode draws nothing at random.
    rngs = [None] * n
    if spec.mode == "mc" or spec.error_model.draws_random:
        rngs = [trajectory_rng(spec.master_seed, i) for i in indices]
    errors, clamps = sample_errors_block(spec.error_model, spec.n_steps, rngs)
    steps = build(errors)
    sites = cleanout_sites(steps)
    draw = None
    if spec.mode == "mc":
        # Each trajectory's clean-out uniforms continue its own stream.
        uniforms = np.array([rng.random(len(sites)) for rng in rngs])
        draw = lambda col, live: uniforms[live, col]
    start = np.repeat(state.amplitudes[None], n, axis=0)
    paths = survivor_paths(start, space, steps, draw, monitor_top_fock=space.has_motion)
    alive = paths.alive.tolist()
    final_fids = iter(_row_fidelities(paths.final, ideal.amplitudes))
    fids = [next(final_fids) if a else 0.0 for a in alive]
    site_steps, site_ions = (tuple(col) for col in zip(*sites)) if sites else ((), ())
    if spec.mode == "branch":
        step_flags = [
            tuple(zip(site_steps, site_ions, values)) if a else ()
            for a, values in zip(alive, (1.0 - paths.probs).tolist())
        ]
        flagged = [None] * n
    else:
        # A row's flag values are 0.0 at every clean-out it passed but the
        # last, which holds its flag; rows with the same path share a tuple.
        shared: dict[tuple[int, bool], tuple] = {}
        step_flags = []
        for passed, a in zip(paths.done.tolist(), alive):
            if (passed, a) not in shared:
                values = [0.0] * (passed - 1) + [0.0 if a else 1.0]
                shared[passed, a] = tuple(zip(site_steps[:passed], site_ions, values))
            step_flags.append(shared[passed, a])
        flagged = [not a for a in alive]
    # Python's sum(v * v for v in errs), column by column.
    sumsq = np.zeros(n)
    for k in range(spec.n_steps):
        sumsq = sumsq + errors[:, k] * errors[:, k]
    rows = [
        TrajectoryRow(index, weight, fid, flag, path, n_clamped, sq, spec.n_steps)
        for index, weight, fid, flag, path, n_clamped, sq in zip(
            indices,
            paths.weight.tolist(),
            fids,
            flagged,
            step_flags,
            clamps.tolist(),
            sumsq.tolist(),
        )
    ]
    bare_fids = []
    if bare:
        amps = start
        for step in steps:
            for u, targets in step.unitaries:
                amps = _apply_block(amps, space, u, targets)
        bare_fids = _row_fidelities(amps, ideal.amplitudes)
    return rows, bare_fids


def _run_rows(
    spec: ExperimentSpec, workers: int, bare: bool = False
) -> tuple[list[TrajectoryRow], list[float]]:
    """Every trajectory's row in index order, over ``workers`` processes."""
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
        parts = [fut.result() for fut in futures]
    return (
        [row for rows, _ in parts for row in rows],
        [fid for _, fids in parts for fid in fids],
    )


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
        return {
            "trials": self.trials,
            "mode": self.mode,
            "herald_rate": self.herald_rate,
            "herald_rate_se": self.herald_rate_se,
            "wilson_interval": list(self.wilson_interval) if self.wilson_interval else None,
            "conditional_fidelity": self.conditional_fidelity,
            "conditional_fidelity_se": self.conditional_fidelity_se,
            "unconditional_fidelity": self.unconditional_fidelity,
            "n_unflagged": self.n_unflagged,
            "step_flag_rates": [
                [step, ion, rate]
                for (step, ion), rate in sorted(self.step_flag_rates.items())
            ],
            "clamp_count": self.clamp_count,
            "rms_error": self.rms_error,
            "quadratic_no_flag_approx": self.quadratic_no_flag_approx,
        }


def _wilson(rate: float, n: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    denom = 1.0 + z2 / n
    center = (rate + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(rate * (1.0 - rate) / n + z2 / (4 * n * n)) / denom
    return center - half, center + half


def _reduce(spec: ExperimentSpec, rows: list[TrajectoryRow]) -> EnsembleStatistics:
    rows = sorted(rows, key=lambda r: r.index)
    n = len(rows)
    noflag = np.array([r.no_flag_probability for r in rows])
    fid = np.array([r.fidelity for r in rows])
    flag_prob = 1.0 - noflag
    herald_rate = float(np.mean(flag_prob))
    weight_sum = float(np.sum(noflag))
    clamp_count = sum(r.clamp_count for r in rows)
    sumsq = float(np.sum(np.array([r.error_sumsq for r in rows])))
    n_err = sum(r.n_errors for r in rows)
    rms_error = math.sqrt(sumsq / n_err) if n_err else 0.0
    quad = 1.0 - spec.n_steps * (rms_error / 2.0) ** 2

    if spec.mode == "mc":
        n_unflagged = int(np.sum(noflag > 0.0))
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
        n_unflagged = int(np.sum(noflag > 0.0))
        se = float(np.std(flag_prob, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        wilson = None
        if weight_sum > 0.0:
            cond = float(np.sum(noflag * fid) / weight_sum)
            var = float(np.sum(noflag * (fid - cond) ** 2) / weight_sum)
            cond_se = math.sqrt(max(var, 0.0) / n)
        else:
            cond = cond_se = None
        uncond = float(np.sum(noflag * fid) / n)

    step_rates: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for r in rows:
        for step, ion, value in r.step_flags:
            key = (step, ion)
            step_rates[key] = step_rates.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    step_rates = {k: v / counts[k] for k, v in step_rates.items()}

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
        clamp_count=clamp_count,
        rms_error=rms_error,
        quadratic_no_flag_approx=quad,
    )


def run_ensemble(
    spec: ExperimentSpec, workers: int = 1, return_rows: bool = False
):
    """Run the ensemble; deterministic for a given spec, any worker count.

    With ``return_rows`` the sorted per-trajectory rows are returned next to
    the statistics (used for trajectory tables).
    """
    rows, _ = _run_rows(spec, workers)
    stats = _reduce(spec, rows)
    if return_rows:
        return stats, rows
    return stats


def enumerate_trajectory(spec: ExperimentSpec, index: int = 0):
    """Exact branch enumeration for one trajectory's error draw.

    Used for branch tables: the outcome lists every herald branch and the
    surviving final state for the errors of the given trajectory index.
    """
    state = prepare_input(spec)
    errors, _ = sample_errors_block(
        spec.error_model, spec.n_steps, [trajectory_rng(spec.master_seed, index)]
    )
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
        return {
            "certified_herald_rate": self.certified_herald_rate,
            "certified_conditional_infidelity": self.certified_conditional_infidelity,
            "bare_unconditional_infidelity": self.bare_unconditional_infidelity,
            "ratio": self.ratio,
        }


def compare_certified_vs_bare(spec: ExperimentSpec, workers: int = 1) -> CertifiedVsBare:
    """Certified flag rate versus the plain two-transfer infidelity.

    Both runs consume identical per-trajectory error draws. The certified
    branch stays exactly ideal whenever it survives; the bare baseline
    accumulates the area errors in its output state.
    """
    if spec.protocol != "single":
        raise ValueError("certified-vs-bare comparison is defined for protocol 'single'")
    rows, fids = _run_rows(spec, workers, bare=True)
    stats = _reduce(spec, rows)
    bare_infidelity = float(np.mean(1.0 - np.array(fids)))
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
