"""Command-line interface: run protocols, ensembles and sweeps from configs.

Subcommands single/cz/addressing run one ensemble each; sweep runs one
ensemble per parameter value. Results go to a JSON summary (which embeds the
fully resolved config and master seed) plus plot-ready CSV tables. Outputs
contain no timestamps or environment detail, so identical configs and seeds
produce bit-identical files at any worker count.

Exit codes: 0 success, 1 runtime failure, 2 config/validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .config import ConfigError, ResolvedConfig, format_float, load_config, parse_config
from .experiments import (
    _CSV_ROW_BYTES,
    _check_memory,
    _reduce,
    _run_rows,
    _space_for,
    enumerate_trajectory,
    run_ensemble,
    sweep,
    worker_processes,
)
from .protocols import MODES
from .statespace import _basis

# The sweep table's columns after the swept value, read off each ensemble's to_dict().
_SWEEP_COLUMNS = (
    "herald_rate", "herald_rate_se", "conditional_fidelity", "unconditional_fidelity",
    "n_unflagged", "clamp_count", "rms_error",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Herald-certified trapped-ion gate simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("single", "certified single-qubit rotation ensemble"),
        ("cz", "certified two-ion entangling gate ensemble"),
        ("addressing", "certified addressed gate on an ion chain"),
        ("sweep", "one ensemble per value of a swept parameter"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON config file")
        cmd.add_argument("--seed", type=int, help="override master_seed")
        cmd.add_argument("--trials", type=int, help="override trial count")
        cmd.add_argument("--mode", choices=MODES, help="override run mode")
        cmd.add_argument("--out", help="override output directory")
        cmd.add_argument("--workers", type=int, default=1, help="parallel workers")
        cmd.add_argument("--quiet", action="store_true", help="suppress stdout")
    return parser


def _apply_overrides(resolved: ResolvedConfig, args: argparse.Namespace) -> ResolvedConfig:
    spec = resolved.spec
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    if args.mode is not None:
        spec = replace(spec, mode=args.mode)
    output = resolved.output
    if output.write_branches and args.command != "sweep" and spec.mode != "branch":
        raise ConfigError("branch tables require mode 'branch'", "$.output.write_branches")
    if args.out is not None:
        output = replace(output, directory=args.out)
    processes = worker_processes(spec, args.workers)
    if output.write_trajectories and args.command != "sweep":
        # The trajectory CSV's rows on top of the run's columns.
        _check_memory(spec, _space_for(spec), processes, "$.trials", _CSV_ROW_BYTES)
    return ResolvedConfig(spec, output, resolved.sweep)


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n")


def _run_ensemble_command(resolved: ResolvedConfig, args) -> dict:
    out_dir = Path(resolved.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = resolved.output.prefix
    if resolved.output.write_trajectories:
        spec = resolved.spec
        cols = _run_rows(spec, args.workers)
        stats = _reduce(spec, cols)
        n = len(cols.weight)
        flagged = [""] * n if spec.mode == "branch" else (~cols.alive).astype(int).tolist()
        _write_csv(
            out_dir / f"{prefix}_trajectories.csv",
            ["index", "no_flag_probability", "fidelity", "flagged", "clamp_count"],
            zip(
                range(n),
                cols.weight.tolist(),
                cols.fidelity.tolist(),
                flagged,
                cols.clamps.tolist(),
            ),
        )
    else:
        stats = run_ensemble(resolved.spec, args.workers)
    if resolved.output.write_branches:
        outcome = enumerate_trajectory(resolved.spec, 0)
        rows = []
        for b_idx, branch in enumerate(outcome.branches):
            flagged = int(branch.flagged)
            if branch.state is None:
                rows.append([b_idx, flagged, branch.probability, "", "", ""])
                continue
            # Register entry k is basis index public[k] of the spec's space.
            amps, public = branch.state.amplitudes, _basis(_space_for(resolved.spec))
            for k in amps.nonzero()[0].tolist():
                if abs(amps[k]) > 1e-12:
                    rows.append(
                        [b_idx, flagged, branch.probability, int(public[k]),
                         float(amps[k].real), float(amps[k].imag)]
                    )
        _write_csv(
            out_dir / f"{prefix}_branches.csv",
            ["branch", "flagged", "probability", "basis_index", "amp_re", "amp_im"],
            rows,
        )
    results = stats.to_dict()
    _write_csv(
        out_dir / f"{prefix}_steps.csv",
        ["step", "ion", "flag_rate"],
        results["step_flag_rates"],
    )
    summary = {
        "command": resolved.spec.protocol,
        "config": resolved.to_dict(),
        "results": results,
    }
    _dump_json(out_dir / f"{prefix}_summary.json", summary)
    return summary


def _run_sweep_command(resolved: ResolvedConfig, args) -> dict:
    out_dir = Path(resolved.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = resolved.output.prefix
    settings = resolved.sweep
    results = [
        {"value": value, "statistics": stats.to_dict()}
        for value, stats in sweep(
            resolved.spec, settings.parameter, settings.values, args.workers
        )
    ]
    rows = ([r["value"], *(r["statistics"][c] for c in _SWEEP_COLUMNS)] for r in results)
    _write_csv(
        out_dir / f"{prefix}_sweep.csv",
        [settings.parameter, *_SWEEP_COLUMNS],
        [["" if v is None else v for v in row] for row in rows],
    )
    summary = {
        "command": "sweep",
        "config": resolved.to_dict(),
        "results": results,
    }
    _dump_json(out_dir / f"{prefix}_summary.json", summary)
    return summary


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        resolved = _apply_overrides(parse_config(doc, args.command), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "sweep":
            summary = _run_sweep_command(resolved, args)
        else:
            summary = _run_ensemble_command(resolved, args)
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(json.dumps(summary["config"], indent=2, sort_keys=True))
        _print_result_line(summary)
    return 0


def _print_result_line(summary: dict) -> None:
    results = summary["results"]
    if summary["command"] == "sweep":
        print(f"sweep complete: {len(results)} rows")
        return
    cond = results["conditional_fidelity"]
    cond_text = "undefined" if cond is None else format_float(cond)
    print(
        f"herald_rate={format_float(results['herald_rate'])} "
        f"conditional_fidelity={cond_text} "
        f"trials={results['trials']}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
