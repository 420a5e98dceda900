"""Benchmark entry point: one workload in one process, printing one JSON line.

    python3 bench/run.py --workload featurize-cold --seed 2024 --seconds 10 --trace 0

Run from anywhere; the program under test is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.  The last line
of standard output is the result object; the lines before it name every
metric with its unit, and the environment the run saw.
"""

import os
import sys
from pathlib import Path

# One client needs one thread: pin the BLAS and OpenMP pools before numpy
# loads, so no run uses more threads than the machine has cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def main() -> int:
    package = SRC / "maldoc" / "__init__.py"
    if not package.is_file():
        print(f"no maldoc source at {package.parent}", file=sys.stderr)
        return 2
    import maldoc

    if Path(maldoc.__file__).resolve() != package:
        print(f"maldoc imported from {maldoc.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
