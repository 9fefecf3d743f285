"""Traced run: per-layer time and counts, measured from outside the program.

The mirror replays the ensemble runner's per-trajectory sequence from the
public functions of each layer (draw, step build, propagation, fidelity),
records a span around every call and checks that it reproduces the rows of
``run_ensemble(..., return_rows=True)``. The config and CLI layers are timed
by wrapping the names the ``heraldsim.cli`` module calls, for the duration of
one ``cli.main`` call. Nothing inside the program is changed.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from time import perf_counter, perf_counter_ns

from heraldsim import (
    CrosstalkProfile,
    cz_space,
    fidelity_up_to_global_phase,
    ideal_addressed_output,
    ideal_cz_output,
    ideal_single_qubit_output,
    no_flag_branch,
    prepare_input,
    run_ensemble,
    trajectory_rng,
)
from heraldsim import cli
from heraldsim.noise import sample_errors_counted
from heraldsim.protocols import addressed_steps, cz_steps, run_protocol, single_qubit_steps

from workloads import config_doc, gate_problems, make_spec

# Span layout: (span id, parent id, trajectory id, name, start ns, end ns).
# Ensemble spans carry trajectory id -1 and parent -1.
SPAN_FIELDS = ("id", "parent", "trajectory", "name", "start_ns", "end_ns")
TRAJECTORY = "trajectory"
LAYER_SPANS = ("noise", "protocols.build", "protocols.propagate", "statespace.fidelity")
STEP_CACHE_SIZE = 64  # the runner's per-ensemble step cache


class Tracer:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def span(self, parent: int, trajectory: int, name: str, start: int, end: int = 0) -> int:
        span_id = len(self.spans)
        self.spans.append([span_id, parent, trajectory, name, start, end])
        return span_id

    def close(self, span_id: int, end: int) -> None:
        self.spans[span_id][5] = end

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the children's."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = {}
        for span_id, _, _, name, start, end in self.spans:
            totals[name] = totals.get(name, 0) + (end - start) - child_ns[span_id]
        return totals

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans}))


def _step_function(spec):
    if spec.protocol == "single":
        return lambda errs: single_qubit_steps(spec.gate, errs, spec.selectivity)
    if spec.protocol == "cz":
        space = cz_space(spec.fock_cutoff)
        return lambda errs: cz_steps(errs, spec.selectivity, space)
    xtalk = CrosstalkProfile(spec.crosstalk)
    return lambda errs: addressed_steps(
        spec.gate, xtalk, spec.target, errs, spec.selectivity
    )


def _ideal_output(spec, state):
    if spec.protocol == "single":
        return ideal_single_qubit_output(state, spec.gate)
    if spec.protocol == "cz":
        return ideal_cz_output(state)
    return ideal_addressed_output(state, spec.target, spec.gate)


@dataclasses.dataclass
class LayerCounts:
    """Exact counts the mirror sums over its trajectories."""

    clamps: int = 0
    op_bytes: int = 0
    cleanouts: int = 0
    unflagged_weight: float = 0.0
    build_hits: int = 0
    build_misses: int = 0
    dim: int = 0


def mirror_ensemble(spec, tracer: Tracer, counts: LayerCounts) -> list[tuple]:
    """Replay ``run_ensemble(spec)`` trajectory by trajectory at one worker.

    Returns rows in ``dataclasses.astuple(TrajectoryRow)`` form.
    """
    clock = perf_counter_ns
    e0 = clock()
    state = prepare_input(spec)
    ideal = _ideal_output(spec, state)
    build = lru_cache(maxsize=STEP_CACHE_SIZE)(_step_function(spec))
    mc = spec.mode == "mc"
    monitor = spec.protocol == "cz"
    model, n_steps, seed = spec.error_model, spec.n_steps, spec.master_seed
    ensemble = tracer.span(-1, -1, "ensemble", e0)
    rows = []
    for i in range(spec.trials):
        t0 = clock()
        rng = trajectory_rng(seed, i)
        errors, clamps = sample_errors_counted(model, n_steps, rng)
        t1 = clock()
        steps = build(tuple(errors))
        t2 = clock()
        outcome = run_protocol(
            state, steps, spec.mode, rng=rng if mc else None, monitor_top_fock=monitor
        )
        t3 = clock()
        branch = outcome.branches[0] if mc else no_flag_branch(outcome)
        fid = 0.0
        if branch is not None and branch.state is not None:
            fid = fidelity_up_to_global_phase(branch.state, ideal)
        t4 = clock()
        sumsq = sum(v * v for v in errors)
        if mc:
            flags = tuple(
                (r.step_index, r.ion, 1.0 if r.flagged else 0.0) for r in branch.records
            )
            rows.append(
                (i, 0.0 if branch.flagged else 1.0, fid, branch.flagged, flags, clamps,
                 sumsq, len(errors))
            )
            path = branch.records
        elif branch is None:
            rows.append((i, 0.0, 0.0, None, (), clamps, sumsq, len(errors)))
            path = max((b.records for b in outcome.branches), key=len)
        else:
            flags = tuple(
                (r.step_index, r.ion, 1.0 - r.branch_probability) for r in branch.records
            )
            rows.append((i, branch.probability, fid, None, flags, clamps, sumsq, len(errors)))
            path = branch.records
        counts.clamps += clamps
        counts.op_bytes += sum(u.nbytes for step in steps for u, _ in step.unitaries)
        counts.cleanouts += len(path)
        counts.unflagged_weight += sum(
            (1.0 if mc else r.branch_probability) for r in path if not r.flagged
        )
        t5 = clock()
        root = tracer.span(ensemble, i, TRAJECTORY, t0, t5)
        for name, start, end in zip(LAYER_SPANS, (t0, t1, t2, t3), (t1, t2, t3, t4)):
            tracer.span(root, i, name, start, end)
    info = build.cache_info()
    counts.build_hits += info.hits
    counts.build_misses += info.misses
    counts.dim = state.space.dim
    tracer.close(ensemble, clock())
    return rows


@contextmanager
def _timed_names(module, names: tuple[str, ...], totals: dict[str, float]):
    """Wrap module-level callables so every call adds its wall time to totals."""
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] = totals.get(name, 0.0) + perf_counter() - t0

        return timed

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield totals
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def timed_cli_call(argv: list[str]) -> tuple[int, float, dict[str, float]]:
    """Run ``cli.main(argv)``; returns exit code, wall seconds and the seconds
    spent in each config/experiments call the CLI made."""
    names = ("load_config", "parse_config", "run_ensemble")
    with _timed_names(cli, names, {}) as totals:
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
    return code, wall, totals


def traced_run(workload, master_seed: int, trials: int, work_dir: Path):
    """One traced run. Returns (metrics, attempted, failed, report lines, tracer)."""
    spec = make_spec(workload, master_seed, trials)
    problems: list[str] = []
    attempted = failed = 0

    def gate(stats: dict) -> None:
        nonlocal attempted, failed
        found = gate_problems(spec, stats)
        attempted += 1
        failed += bool(found)
        problems.extend(found)

    # Warm the BLAS pool and lazy imports so neither pass pays for them.
    run_ensemble(dataclasses.replace(spec, trials=max(2, workload.trials // 8)))

    tracer, counts = Tracer(), LayerCounts()
    t0 = perf_counter()
    mirror_rows = mirror_ensemble(spec, tracer, counts)
    mirror_s = perf_counter() - t0

    t0 = perf_counter()
    stats, ref_rows = run_ensemble(spec, 1, return_rows=True)
    ref_s = perf_counter() - t0
    gate(stats.to_dict())
    mirror_match = [repr(r) for r in mirror_rows] == [
        repr(dataclasses.astuple(r)) for r in ref_rows
    ]

    out_dir = work_dir / "cli-out"
    cfg_path = work_dir / "trace-config.json"
    cfg_path.write_text(json.dumps(config_doc(spec, str(out_dir), "trace")))
    code, cli_s, inner = timed_cli_call(
        [spec.protocol, str(cfg_path), "--workers", "2", "--quiet"]
    )
    if code != 0:
        attempted += 1
        failed += 1
        problems.append(f"heraldsim {spec.protocol} exited with {code}")
    else:
        gate(json.loads((out_dir / "trace_summary.json").read_text())["results"])
    parse_s = inner.get("load_config", 0.0) + inner.get("parse_config", 0.0)
    ensemble_w2_s = inner.get("run_ensemble", 0.0)
    bytes_written = sum(p.stat().st_size for p in out_dir.glob("*"))

    self_ns = tracer.self_times_ns()
    per_traj_us = {name: ns / 1e3 / trials for name, ns in self_ns.items()}
    layer_us = sum(per_traj_us[name] for name in LAYER_SPANS)
    report = [f"traced {trials} trajectories; self time per trajectory:"]
    for name in ("ensemble", TRAJECTORY) + LAYER_SPANS:
        us = per_traj_us[name]
        report.append(f"  {name:<22}{us:12.2f} us  {100.0 * us * trials / 1e6 / mirror_s:6.1f} %")
    report.append(
        f"mirror {mirror_s:.3f} s traced vs run_ensemble {ref_s:.3f} s untraced; "
        f"mirror_match={mirror_match}"
    )
    report += [f"gate: {p}" for p in problems]

    hits, lookups = counts.build_hits, counts.build_hits + counts.build_misses
    metrics = {
        "noise.draw_us": (per_traj_us["noise"], "us"),
        "noise.clamps": (counts.clamps, "count"),
        "protocols.build_us": (per_traj_us["protocols.build"], "us"),
        "protocols.op_bytes": (counts.op_bytes / trials, "bytes"),
        "protocols.build_hit_ratio": (hits / lookups, "ratio"),
        "protocols.propagate_us": (per_traj_us["protocols.propagate"], "us"),
        "dissipation.cleanouts": (counts.cleanouts / trials, "count"),
        "dissipation.survivor_ratio": (counts.unflagged_weight / counts.cleanouts, "ratio"),
        "statespace.dim": (counts.dim, "count"),
        "statespace.fidelity_us": (per_traj_us["statespace.fidelity"], "us"),
        "experiments.overhead_us": (ref_s * 1e6 / trials - layer_us, "us"),
        "experiments.parallel_efficiency": (
            ref_s / (2.0 * ensemble_w2_s) if ensemble_w2_s > 0 else 0.0, "ratio"
        ),
        "config.parse_ms": (parse_s * 1e3, "ms"),
        "cli.overhead_ms": ((cli_s - parse_s - ensemble_w2_s) * 1e3, "ms"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "trace.mirror_match": (int(mirror_match), "bool"),
        "trace.overhead_us": ((mirror_s - ref_s) * 1e6 / trials, "us"),
    }
    return metrics, attempted, failed, report, tracer
