"""Benchmark of the capgan command line: one workload per invocation.

    python3 perfbench/run.py --workload adv-gan --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``). Prints a human-readable report, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the matrices are small, and a second thread adds noise
# on a shared machine. Fixed before numpy is first imported.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("pretrain", "adv-gan", "adv-rl", "decode")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (corpus)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "capgan" / "cli.py").is_file():
        print(f"error: no capgan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and capgan

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
