"""netprobe benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload onehop-n20 --seed 1 --seconds 30 --trace 0

Workloads: onehop-n20, multihop-n300, lsrefine-n300 (see workloads.py).
The launcher pins the BLAS thread count before NumPy loads, puts the
checkout's ``src`` first on the import path, and hands over to bench.py.
It exits with status 2, printing no result, when the sources are missing.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# OpenBLAS otherwise starts one thread per core.  One thread (never more
# than nproc) keeps the run on a single busy core and its timings steady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Time netprobe experiment workloads.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netprobe" / "__init__.py").is_file():
        print(f"netprobe sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bench

    return bench.run(args, START, ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
