"""Cold-process set-up of one workload, timed by run.py from outside.

Imports heraldsim from the checkout and constructs the workload's first
spec, then exits. Nothing is run.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import heraldsim  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS, InputStream, make_spec

    workload = WORKLOADS[name]
    make_spec(workload, InputStream(workload, seed).next_master_seed(), workload.trials)


if __name__ == "__main__":
    main()
