"""Benchmark launcher.

    python3 perfbench/run.py --workload fast-join --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh interpreter (``bench.py``), with BLAS and
OpenMP pinned to one thread and string hashing fixed, and passes its
output through; the last line of standard output is the JSON result.
It refuses to run, with a non-zero exit code and no result, when this
checkout holds no ``src/phylolattice`` to measure.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# well inside the 180 s a run may take
TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "phylolattice" / "__init__.py").is_file():
        print(f"error: no src/phylolattice under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
