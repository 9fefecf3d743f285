"""heraldsim benchmark: end-to-end metrics of one workload, or its traced run.

Run from the repository root (it needs ``src/heraldsim`` next to this
directory; nothing has to be installed):

    python3 perfbench/run.py --workload cz-branch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cz-branch --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times a closed loop of ensembles with tracing off and reports
traj_per_s, time_to_target_s, setup_s and peak_rss_mb. ``--trace 1`` runs the
traced mirror and reports the per-layer metrics. Either way the program's
outputs pass through the correctness gate, an environment line is printed,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
TARGET_SE = 1e-4  # herald-rate standard error that time_to_target_s aims at
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _use_checkout_source():
    """Import heraldsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "heraldsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no heraldsim source at {SRC / 'heraldsim'}")
    sys.path.insert(0, str(SRC))
    import heraldsim

    if not Path(heraldsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: heraldsim imported from {heraldsim.__file__}")


# --- environment record ------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "heraldsim").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# --- end-to-end run ----------------------------------------------------------


def measure_setup_s(workload_name: str, seed: int) -> float:
    """Median wall time of a cold process that imports and builds the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            check=True,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def run_ensemble_once(workload, master_seed: int, trials: int):
    """One timed ensemble: returns (seconds, spec, statistics dict)."""
    from heraldsim import run_ensemble
    from workloads import make_spec

    spec = make_spec(workload, master_seed, trials)
    t0 = perf_counter()
    stats = run_ensemble(spec)
    return perf_counter() - t0, spec, stats.to_dict()


def run_end_to_end(workload, seed: int, seconds: float):
    from workloads import InputStream, gate_problems

    setup_s = measure_setup_s(workload.name, seed)
    stream = InputStream(workload, seed)
    # Warm-up: BLAS threads, lazy imports and first-touch pages; not timed.
    run_ensemble_once(workload, stream.next_master_seed(), max(2, workload.trials // 8))

    rates, needed, report = [], [], []
    attempted = failed = 0
    start = perf_counter()
    last = 0.0
    while attempted == 0 or perf_counter() - start + 0.5 * last < seconds:
        attempted += 1
        try:
            last, spec, stats = run_ensemble_once(
                workload, stream.next_master_seed(), workload.trials
            )
            problems = gate_problems(spec, stats)
        except Exception:  # a crashing ensemble is a failed ensemble
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            failed += 1
            report += [f"ensemble {attempted}: {p}" for p in problems]
            continue
        rates.append(stats["trials"] / last)
        # Trajectories needed to pin the herald rate to TARGET_SE.
        needed.append(stats["herald_rate_se"] ** 2 * stats["trials"] / TARGET_SE**2)
    # The fastest ensemble, not the median one: the machine's own speed
    # drifts by tens of percent over seconds to minutes, and the best
    # ensemble of a run tracks the program's speed far more steadily.
    traj_per_s = max(rates, default=0.0)
    metrics = {
        "traj_per_s": (traj_per_s, "1/s"),
        "time_to_target_s": (statistics.median(needed) / traj_per_s if rates else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report.append(
        f"{len(rates)} ensembles of {workload.trials} trials in "
        f"{perf_counter() - start:.1f} s; failed_frac={failed / attempted:.6g} "
        f"({failed}/{attempted})"
    )
    return metrics, attempted, failed, report


def run_traced(workload, seed: int, seconds: float):
    from layers import traced_run
    from workloads import InputStream

    trials = max(workload.trace_trials_min, int(seconds * workload.trace_trials_per_s))
    master_seed = InputStream(workload, seed).next_master_seed()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        metrics, attempted, failed, report, tracer = traced_run(
            workload, master_seed, trials, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    spans_path = WORK / f"spans-{workload.name}.json"
    tracer.write(spans_path)
    report.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, attempted, failed, report


# --- command line ------------------------------------------------------------


def _run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        results[name] = result
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    _use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return _run_all(args, tuple(WORKLOADS))
    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": environment()}))
    run = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed, report = run(workload, args.seed, args.seconds)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
