"""Time-to-tolerance benchmark of radialopf on seeded feeder workloads.

Run from the repository root:

    python3 perfbench/run.py --workload line-1ph --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same feeders untraced and traced and reports per-layer
metrics. ``--quick`` swaps in tiny feeders that go through the same schema
and checks in seconds. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON readout (environment, model hashes, gate details). See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The load comes from one process with no extra threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> dict[str, str]:
    """Pin the BLAS thread pools and put the sources on the path.

    Must run before numpy is imported. Returns the variables it set.
    """
    if not (SRC / "radialopf" / "__init__.py").is_file():
        raise SystemExit(f"error: no radialopf sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def main() -> int:
    blas_threads = bootstrap()
    import bench

    return bench.main(sys.argv[1:], blas_threads)


if __name__ == "__main__":
    sys.exit(main())
