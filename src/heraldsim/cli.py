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

from .config import ConfigError, ResolvedConfig, format_float, load_config, parse_config
from .experiments import (
    EnsembleStatistics,
    enumerate_trajectory,
    run_ensemble,
    sweep,
    worker_processes,
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
        cmd.add_argument("--mode", choices=("branch", "mc"), help="override run mode")
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
    worker_processes(spec, args.workers)
    return ResolvedConfig(spec, output, resolved.sweep)


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n")


def _stats_rows(stats: EnsembleStatistics) -> list[list]:
    return [
        [step, ion, rate] for (step, ion), rate in sorted(stats.step_flag_rates.items())
    ]


def _run_ensemble_command(resolved: ResolvedConfig, args) -> dict:
    out_dir = Path(resolved.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = resolved.output.prefix
    if resolved.output.write_trajectories:
        stats, rows = run_ensemble(resolved.spec, args.workers, return_rows=True)
        _write_csv(
            out_dir / f"{prefix}_trajectories.csv",
            ["index", "no_flag_probability", "fidelity", "flagged", "clamp_count"],
            [
                [
                    r.index,
                    r.no_flag_probability,
                    r.fidelity,
                    "" if r.flagged is None else int(r.flagged),
                    r.clamp_count,
                ]
                for r in rows
            ],
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
            amps = branch.state.amplitudes
            for k in range(amps.size):
                if abs(amps[k]) > 1e-12:
                    rows.append(
                        [b_idx, flagged, branch.probability, k,
                         float(amps[k].real), float(amps[k].imag)]
                    )
        _write_csv(
            out_dir / f"{prefix}_branches.csv",
            ["branch", "flagged", "probability", "basis_index", "amp_re", "amp_im"],
            rows,
        )
    _write_csv(
        out_dir / f"{prefix}_steps.csv", ["step", "ion", "flag_rate"], _stats_rows(stats)
    )
    summary = {
        "command": resolved.spec.protocol,
        "config": resolved.to_dict(),
        "results": stats.to_dict(),
    }
    _dump_json(out_dir / f"{prefix}_summary.json", summary)
    return summary


def _run_sweep_command(resolved: ResolvedConfig, args) -> dict:
    out_dir = Path(resolved.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = resolved.output.prefix
    settings = resolved.sweep
    rows = sweep(resolved.spec, settings.parameter, settings.values, args.workers)
    table = []
    results = []
    for value, stats in rows:
        table.append(
            [
                value,
                stats.herald_rate,
                stats.herald_rate_se,
                stats.conditional_fidelity,
                stats.unconditional_fidelity,
                stats.n_unflagged,
                stats.clamp_count,
                stats.rms_error,
            ]
        )
        results.append({"value": value, "statistics": stats.to_dict()})
    _write_csv(
        out_dir / f"{prefix}_sweep.csv",
        [
            settings.parameter,
            "herald_rate",
            "herald_rate_se",
            "conditional_fidelity",
            "unconditional_fidelity",
            "n_unflagged",
            "clamp_count",
            "rms_error",
        ],
        [[v if v is not None else "" for v in row] for row in table],
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
