"""Benchmark entry point: run one workload in a fresh, single-threaded process.

    python3 perfbench/run.py --workload ladder-large --seed 1 --seconds 40 --trace 0

Workloads: ladder-large, cli-small, mutant-verdicts (see README.md). The
child process pins BLAS/OpenMP to one thread; its report lines and, as the
last line, one JSON object with the run's metrics are relayed to stdout. The
exit code is the child's; a child that fails prints no result.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: The slowest workload runs about 40 s here; this leaves room on a slower machine.
CHILD_TIMEOUT_S = 170
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv: list[str]) -> int:
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(_PINNED, "1"))
    bench = Path(__file__).resolve().parent / "bench.py"
    try:
        child = subprocess.run([sys.executable, str(bench), *argv], env=env,
                               stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        return child.returncode
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
