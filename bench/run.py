"""pertopt benchmark: one workload, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload run_lx --seed 1 --seconds 30 --trace 0

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones; ``--smoke`` runs reduced passes for the correctness checks alone.
The last line of stdout is one JSON object, and the exit code is 1 if a
check failed.  Without the program's sources it prints no result and
exits with 2.  See harness.py for what a run does.
"""

import os
import sys
from pathlib import Path

# One caller in one closed loop multiplying 3x3 matrices: BLAS and OpenMP
# pools only add scheduling noise.  Capped before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "pertopt" / "__init__.py").is_file():
        print(f"error: no pertopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
